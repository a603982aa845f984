"""The write path, run in a fresh child process: build → ingest → index.

Each round builds the seed-2013 corpus to disk (``build_and_write``,
``jobs=1``) and ingests it into a new store with a 10,000-quad spill
budget (≥ 4 spill runs, a k-way merge compaction and the path-index
build, then ``close``).  The progress hooks the program offers
(``on_trace``, ``on_file``) timestamp every run in both stages; the
manifest and the ingest report say which run each timestamp belongs to,
so a round also yields, per run, the time it took through both stages.

``python -m benchmarks.harness.pipeline --workdir D --rounds K`` prints
one JSON object; the parent turns it into metrics.  With ``--trace`` one
more round runs decomposed into public calls under spans, which the
object then carries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

from repro.corpus import CorpusBuilder
from repro.corpus.storage import build_and_write
from repro.pathindex import build_path_index
from repro.rdf.trig import parse_trig, serialize_trig
from repro.rdf.turtle import parse_turtle, serialize_turtle
from repro.store import QuadStore, ingest_corpus

from .env import calibration_ms
from .fixture import dir_bytes
from .spans import Recorder
from .spec import CORPUS_SEED, PIPELINE_SPILL_BUDGET


def _files_sha(directory: Path, patterns=("*.seg", "paths.*", "dict.*")) -> str:
    digest = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(directory.glob(pattern)):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _steps(marks: List[float]) -> List[float]:
    return [later - earlier for earlier, later in zip(marks, marks[1:])]


def run_round(home: Path) -> Dict:
    """One timed round; leaves nothing behind."""
    corpus, store_dir = home / "corpus", home / "store"
    shutil.rmtree(home, ignore_errors=True)

    build_marks = [time.perf_counter()]
    build_and_write(
        CorpusBuilder(seed=CORPUS_SEED), corpus, jobs=1,
        on_trace=lambda done, total, writer: build_marks.append(time.perf_counter()),
    )
    build_s = time.perf_counter() - build_marks[0]

    ingest_marks = [time.perf_counter()]
    store = QuadStore(store_dir, spill_quad_budget=PIPELINE_SPILL_BUDGET)
    report = ingest_corpus(
        store, corpus,
        on_file=lambda done, total, quads: ingest_marks.append(time.perf_counter()),
    )
    store.close()
    ingest_s = time.perf_counter() - ingest_marks[0]

    with QuadStore(store_dir) as reopened:
        info = reopened.store_info()
    manifest = json.loads((corpus / "manifest.json").read_text())
    statistics = manifest["statistics"]
    # the stages take the runs in different orders: built in plan order (the
    # manifest's), ingested in path order (the report's)
    built = dict(zip((trace["path"] for trace in manifest["traces"]),
                     _steps(build_marks), strict=True))
    result = {
        "build_s": build_s,
        "ingest_s": ingest_s,
        "run_steps": [built[path] + ingest for path, ingest
                      in zip(report.parsed, _steps(ingest_marks), strict=True)],
        "invariants": {
            "workflows": statistics["workflows"],
            "runs": statistics["runs"],
            "failed_runs": statistics["failed_runs"],
            "quads": info["quads"],
            "terms": info["terms"],
        },
        "corpus_bytes": statistics["size_bytes"],
        "store_bytes": dir_bytes(store_dir),
        "dictionary_bytes": sum(info["dictionary_bytes"].values()),
        "path_index": info["path_index"],
        "files_sha": _files_sha(store_dir),
    }
    shutil.rmtree(home)
    return result


def _write_chars() -> int:
    """``wchar`` of /proc/self/io: bytes this process asked the kernel to write."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    return 0


def run_traced_round(home: Path, recorder: Recorder) -> Dict:
    """The same work as :func:`run_round`, one public call per span.

    ``build_and_write`` plans, generates (which serialises RDF) and
    writes in one call, and ``ingest_corpus`` parses RDF inside; the
    harness cannot put a span there.  The inner public calls are
    replayed after the round — ``plan``, ``iter_traces``, and the rdf
    parse/serialise of every written trace — and booked as children of
    the span they ran inside, so the parent's self time is what is left
    (disk writes; intern + WAL + spill).
    """
    corpus, store_dir = home / "corpus", home / "store"
    shutil.rmtree(home, ignore_errors=True)
    extras: Dict[str, float] = {"spill_count": 0}

    def count_spills(done, total, quads):
        extras["spill_count"] = max(
            extras["spill_count"], store.store_info()["spill"]["batches"]
        )

    with recorder.operation("round", "round"):
        with recorder.span("build_and_write", "corpus") as build:
            build_and_write(CorpusBuilder(seed=CORPUS_SEED), corpus, jobs=1)
        written_before = _write_chars()
        store = QuadStore(store_dir, spill_quad_budget=PIPELINE_SPILL_BUDGET)
        with recorder.span("ingest_corpus(compact=False, path_index=False)", "store") as apply:
            ingest_corpus(store, corpus, compact=False, path_index=False,
                          on_file=count_spills)
        with recorder.span("QuadStore.compact", "store"):
            store.compact()
        with recorder.span("build_path_index", "pathindex"):
            build_path_index(store)
        with recorder.span("QuadStore.close", "store"):
            store.close()
        extras["written_bytes"] = _write_chars() - written_before

    with recorder.operation("reingest", "reingest"):
        with recorder.span("QuadStore reopen", "store"):
            store = QuadStore(store_dir, spill_quad_budget=PIPELINE_SPILL_BUDGET)
        with recorder.span("ingest_corpus (unchanged corpus)", "store"):
            report = ingest_corpus(store, corpus)
        store.close()
    if not report.no_op:
        raise AssertionError("re-ingest of an unchanged corpus was not a no-op")

    builder = CorpusBuilder(seed=CORPUS_SEED)
    started = time.perf_counter()
    by_id, plan = builder.plan()
    planned = time.perf_counter()
    for _ in builder.iter_traces(jobs=1, plan=plan, by_id=by_id):
        pass
    generated = time.perf_counter()
    recorder.add("replay:CorpusBuilder.plan", "corpus", planned - started, build)
    generate = recorder.add("replay:CorpusBuilder.iter_traces", "corpus",
                            generated - planned, build)

    manifest = json.loads((corpus / "manifest.json").read_text())
    parse_s = serialize_s = 0.0
    triples = 0
    for entry in manifest["traces"]:
        text = (corpus / entry["path"]).read_text()
        trig = entry["format"] == "trig"
        started = time.perf_counter()
        parsed = parse_trig(text) if trig else parse_turtle(text)
        parsed_at = time.perf_counter()
        serialize_trig(parsed) if trig else serialize_turtle(parsed)
        serialize_s += time.perf_counter() - parsed_at
        parse_s += parsed_at - started
        triples += len(parsed.union_graph()) if trig else len(parsed)
    recorder.add("replay:parse_turtle/parse_trig", "rdf", parse_s, apply)
    recorder.add("replay:serialize_turtle/serialize_trig", "rdf", serialize_s, generate)
    extras["rdf_triples"] = triples
    shutil.rmtree(home)
    return extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.harness.pipeline")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="also run one round decomposed into public calls under spans")
    args = parser.parse_args(argv)

    rounds = []
    for _ in range(args.rounds):
        calibration = min(calibration_ms() for _ in range(2))
        rounds.append(run_round(args.workdir / "round"))
        rounds[-1]["calibration_ms"] = calibration
    result = {"rounds": rounds}
    if args.trace:
        recorder = Recorder()
        result["traced"] = run_traced_round(args.workdir / "traced", recorder)
        result["spans"] = [asdict(span) for span in recorder.spans]
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
