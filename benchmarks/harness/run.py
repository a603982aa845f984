"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/harness/run.py …``.

Run as a script from the root of a checkout, so it puts the checkout and
its ``src/`` on the import path itself (the command line may name no
path outside the benchmark's own directory).
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    # the program is measured from this checkout's source, never from an
    # installed copy that happens to be importable
    sys.exit(f"no program source under {_ROOT / 'src'}: nothing to benchmark")
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.harness.cli import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
