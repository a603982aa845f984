"""The correctness gate: pinned answers for every query a schedule can hold.

``golden.json`` pins, per golden key, the row count and a digest of the
canonical rows (sorted, blank-node labels erased) of the seed-2013
answer, plus the pipeline invariants.  The pins were produced by the
*in-memory* evaluator over the parsed corpus — another execution path
than the store-backed endpoint the benchmark drives — so a served answer
is checked against something the serving path did not compute.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load() -> Dict:
    return json.loads(GOLDEN_PATH.read_text())


def canonical_digest(bindings: List[Dict]) -> str:
    """Digest of SPARQL-JSON result rows, blind to row order and bnode labels."""
    rows = []
    for binding in bindings:
        row = []
        for var in sorted(binding):
            term = binding[var]
            value = "" if term["type"] == "bnode" else term["value"]
            row.append([var, term["type"], value,
                        term.get("datatype", ""), term.get("xml:lang", "")])
        rows.append(json.dumps(row, ensure_ascii=True, separators=(",", ":")))
    rows.sort()
    return hashlib.sha256("\n".join(rows).encode("ascii")).hexdigest()[:16]


def answer_of(body: bytes) -> Tuple[int, str]:
    """(row count, canonical digest) of a SPARQL-JSON response body."""
    bindings = json.loads(body)["results"]["bindings"]
    return len(bindings), canonical_digest(bindings)


def check(pins: Dict, key: str, body: bytes) -> str:
    """"" when *body* is the pinned answer of *key*, else what differs."""
    try:
        rows, digest = answer_of(body)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{key}: response is not SPARQL JSON ({exc})"
    pinned = pins["queries"].get(key)
    if pinned is None:
        return f"{key}: no golden answer pinned"
    if [rows, digest] != pinned:
        return f"{key}: got {rows} rows / {digest}, pinned {pinned[0]} rows / {pinned[1]}"
    return ""


def rewrite(corpus_root: Path) -> int:
    """Recompute the query pins and rewrite ``golden.json``, one pin per line."""
    pins = load()
    pins["queries"] = regenerate(corpus_root)
    lines = [f'  {json.dumps(key)}: {json.dumps(pin)}'
             for key, pin in sorted(pins["queries"].items())]
    GOLDEN_PATH.write_text(
        '{\n"pipeline": ' + json.dumps(pins["pipeline"], sort_keys=True)
        + ',\n"queries": {\n' + ",\n".join(lines) + "\n}\n}\n"
    )
    return len(lines)


def regenerate(corpus_root: Path) -> Dict:
    """Every query pin, recomputed with the in-memory evaluator."""
    from repro.corpus import load_corpus
    from repro.queries import CorpusQueries

    from .schedule import all_requests

    corpus = load_corpus(corpus_root)
    engine = CorpusQueries(corpus.dataset()).engine
    queries = {}
    runs = failed = 0
    for request in all_requests(corpus.manifest["traces"]):
        table = engine.select(request.text)
        queries[request.key] = list(answer_of(table.to_json().encode("utf-8")))
        if request.cls == "Q2":
            totals = table[0].python()
            runs += int(totals["total"])
            failed += int(totals["failures"])
    # the pins must themselves agree with the paper before they judge anything
    expected = load()["pipeline"]
    if (queries["Q1"][0], runs, failed) != (expected["runs"],) * 2 + (expected["failed_runs"],):
        raise AssertionError(
            f"in-memory answers contradict the paper: Q1 {queries['Q1'][0]} rows, "
            f"Q2 totals {runs} runs / {failed} failed"
        )
    return queries
