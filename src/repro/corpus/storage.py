"""On-disk corpus layout, mirroring the ProvBench GitHub repository.

The original corpus (github.com/provbench/Wf4Ever-PROV) organizes traces
by workflow system, then workflow.  We reproduce that shape:

    <root>/
      manifest.json                  # build metadata + Table 1 numbers
      Taverna/<domain>/<template>/
        workflow.t2flow              # the workflow definition
        <run-id>.prov.ttl            # one Turtle trace per run
      Wings/<domain>/<template>/
        <run-id>.prov.trig           # one TriG trace per run (bundles)

:func:`write_corpus` persists a built :class:`Corpus`; :func:`load_corpus`
reads the directory back into in-memory RDF datasets without re-running
anything.  The command line reads a corpus directory through its quad
store instead (:func:`repro.store.open_corpus_store`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..obs import events as _events
from ..obs import metrics as _metrics
from ..rdf.graph import Dataset, Graph
from ..rdf.trig import parse_trig
from ..rdf.turtle import parse_turtle
from ..taverna.t2flow import to_t2flow
from .builder import (
    Corpus,
    CorpusBuilder,
    CorpusStatistics,
    CorpusTrace,
    merged_dataset,
    merged_graph,
)

__all__ = ["write_corpus", "build_and_write", "load_corpus", "StoredTrace",
           "StoredCorpus"]

_SYSTEM_DIR = {"taverna": "Taverna", "wings": "Wings"}
_EXTENSION = {"turtle": ".prov.ttl", "trig": ".prov.trig"}


class _TraceWriter:
    """Writes traces to the ProvBench layout one at a time.

    Shared by the materialized (:func:`write_corpus`) and streaming
    (:func:`build_and_write`) paths so both produce byte-identical trees
    and manifests.  Holds only manifest entries and the running
    :class:`CorpusStatistics` — never the traces themselves — so memory
    stays flat in corpus size.
    """

    def __init__(self, root: Path, templates: Dict[str, object]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.templates = templates
        self._written_templates = set()
        self.manifest_traces: List[Dict] = []
        self.totals = CorpusStatistics(templates)

    def add(self, trace: CorpusTrace) -> None:
        system_dir = _SYSTEM_DIR[trace.system]
        template_dir = self.root / system_dir / trace.domain / trace.template_id
        template_dir.mkdir(parents=True, exist_ok=True)
        if trace.system == "taverna" and trace.template_id not in self._written_templates:
            template = self.templates[trace.template_id]
            (template_dir / "workflow.t2flow").write_text(
                to_t2flow(template), encoding="utf-8", newline="\n"
            )
            self._written_templates.add(trace.template_id)
        filename = trace.run_id + _EXTENSION[trace.rdf_format]
        (template_dir / filename).write_text(trace.text, encoding="utf-8", newline="\n")
        self.manifest_traces.append({
            "run_id": trace.run_id,
            "system": trace.system,
            "domain": trace.domain,
            "template_id": trace.template_id,
            "template_name": trace.template_name,
            "status": trace.status,
            "failed_step": trace.failed_step,
            "failure_cause": trace.failure_cause,
            "started": trace.started.isoformat(),
            "ended": trace.ended.isoformat() if trace.ended is not None else None,
            "user": trace.user,
            "format": trace.rdf_format,
            "path": str(Path(system_dir) / trace.domain / trace.template_id / filename),
            "size_bytes": trace.size_bytes,
        })
        self.totals.add(trace)

    @property
    def triples(self) -> int:
        """Running triple total (progress reporting reads this)."""
        return self.totals.triples

    def finish(self, seed: int) -> Path:
        manifest = {
            "name": "Wf4Ever-PROV (reproduction)",
            "seed": seed,
            "statistics": self.totals.as_dict(),
            "traces": self.manifest_traces,
        }
        manifest_path = self.root / "manifest.json"
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
        )
        return manifest_path


def write_corpus(corpus: Corpus, root: Path) -> Path:
    """Write the corpus under *root*; returns the manifest path."""
    writer = _TraceWriter(Path(root), corpus.templates)
    for trace in corpus.traces:
        writer.add(trace)
    return writer.finish(corpus.seed)


def build_and_write(
    builder: CorpusBuilder,
    root: Path,
    store: Optional[Path] = None,
    jobs: int = 1,
    tracer=None,
    on_trace=None,
    store_kwargs: Optional[Dict] = None,
    on_ingest_file=None,
) -> Path:
    """Build *builder*'s corpus straight to disk, one trace at a time.

    The streaming counterpart of ``write_corpus(builder.build(), root)``:
    byte-identical tree and manifest, but no trace list is ever held in
    memory, so a ``--scale 50`` corpus builds in flat RSS.  *on_trace*,
    when given, is called as ``on_trace(done, total, writer)`` after each
    trace hits disk — the writer exposes running totals (``triples``,
    ``totals``) for progress reporting.

    When *store* names a directory, the written traces are synced into
    the quad store there through :func:`repro.store.open_corpus_store`,
    with *jobs* parse workers; *store_kwargs* (``spill_quad_budget``) and
    *on_ingest_file*, its per-file progress hook, are forwarded to it.
    """
    registry = _metrics.get_registry()
    counters_base = registry.additive()
    by_id, plan = builder.plan()
    writer = _TraceWriter(Path(root), by_id)
    total = len(plan)
    for index, trace in enumerate(
        builder.iter_traces(jobs=jobs, tracer=tracer, plan=plan, by_id=by_id)
    ):
        writer.add(trace)
        if on_trace is not None:
            on_trace(index + 1, total, writer)
    manifest_path = writer.finish(builder.seed)
    _events.emit(
        "build.done",
        root=str(root),
        seed=builder.seed,
        scale=builder.scale,
        runs=total,
        triples=writer.triples,
        jobs=jobs,
        counters=registry.counters_since(counters_base),
    )
    if store is not None:
        from ..store import open_corpus_store

        quad_store, _ = open_corpus_store(
            writer.root, store, jobs=jobs, tracer=tracer, on_file=on_ingest_file,
            **(store_kwargs or {}),
        )
        quad_store.close()
    return manifest_path


@dataclass
class StoredTrace:
    """A trace read back from disk (RDF only; no engine objects)."""

    run_id: str
    system: str
    domain: str
    template_id: str
    status: str
    failure_cause: Optional[str]
    rdf_format: str
    path: Path
    text: str = ""
    relpath: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def _source(self) -> str:
        """Document name used in parse error messages."""
        return self.relpath or str(self.path)

    def graph(self) -> Graph:
        """The trace merged into one graph (named graphs collapsed)."""
        if self.rdf_format == "trig":
            return self.dataset().union_graph()
        return parse_turtle(self.text, source=self._source)

    def dataset(self) -> Dataset:
        if self.rdf_format == "trig":
            return parse_trig(self.text, source=self._source)
        dataset = Dataset()
        parse_turtle(self.text, graph=dataset.default, source=self._source)
        return dataset


@dataclass
class StoredCorpus:
    """A corpus loaded from disk into memory."""

    root: Path
    manifest: Dict
    traces: List[StoredTrace] = field(default_factory=list)

    @property
    def statistics(self) -> Dict:
        return self.manifest["statistics"]

    def by_system(self, system: str) -> List[StoredTrace]:
        return [t for t in self.traces if t.system == system]

    def failed_traces(self) -> List[StoredTrace]:
        return [t for t in self.traces if t.failed]

    def dataset(self) -> Dataset:
        """All traces merged into one queryable dataset."""
        return merged_dataset(self.traces)  # parse errors name trace.relpath

    def system_graph(self, system: str) -> Graph:
        return merged_graph(self.by_system(system))


def load_corpus(root: Path) -> StoredCorpus:
    """Read a corpus directory written by :func:`write_corpus` into memory."""
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {root}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    stored = StoredCorpus(root=root, manifest=manifest)
    for entry in manifest["traces"]:
        path = root / entry["path"]
        stored.traces.append(
            StoredTrace(
                run_id=entry["run_id"],
                system=entry["system"],
                domain=entry["domain"],
                template_id=entry["template_id"],
                status=entry["status"],
                failure_cause=entry.get("failure_cause"),
                rdf_format=entry["format"],
                path=path,
                text=path.read_text(encoding="utf-8"),
                relpath=entry["path"],
            )
        )
    return stored
