"""The seed-2013 corpus tree, pinned byte for byte.

``seed2013_sha256.json`` holds the sha256 of every file the build writes
(each ``.prov.ttl`` / ``.prov.trig`` trace, each ``workflow.t2flow`` and
``manifest.json``), keyed by its path under the corpus root.  Any change
to what the exporters emit or how the writers serialise it shows here
as the list of files whose bytes moved.
"""

import hashlib
import json
from pathlib import Path

from repro.corpus import write_corpus

PIN = Path(__file__).with_name("seed2013_sha256.json")


def test_seed_2013_tree_matches_pin(tmp_path, corpus):
    write_corpus(corpus, tmp_path)
    written = {
        str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    pinned = json.loads(PIN.read_text())
    assert sorted(written) == sorted(pinned)
    moved = [name for name in sorted(pinned) if written[name] != pinned[name]]
    assert moved == []
