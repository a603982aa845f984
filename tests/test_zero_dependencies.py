"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this holds the code to
it.  A fresh interpreter imports every surface a process starts from
(library, CLI, apps, endpoint, store) and reports each top-level module
that import pulled in which is neither stdlib nor ``repro`` itself.
"""

import os
import subprocess
import sys

PROBE = """
import sys
before = set(sys.modules)
import repro, repro.cli, repro.apps, repro.endpoint, repro.store
top_level = {name.partition(".")[0] for name in set(sys.modules) - before}
# __mp_main__ is the alias multiprocessing registers for __main__.
print(sorted(top_level - sys.stdlib_module_names - {"repro", "__mp_main__"}))
"""


def test_importing_repro_loads_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout.strip() == "[]"
