"""Tests for the on-disk corpus layout (write + load)."""

import json

import pytest

from repro.corpus import load_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(corpus, root)
    return root


class TestWrite:
    def test_layout_mirrors_provbench(self, corpus_dir):
        assert (corpus_dir / "manifest.json").exists()
        assert (corpus_dir / "Taverna").is_dir()
        assert (corpus_dir / "Wings").is_dir()
        ttl_files = list(corpus_dir.rglob("*.prov.ttl"))
        trig_files = list(corpus_dir.rglob("*.prov.trig"))
        assert len(ttl_files) + len(trig_files) == 198

    def test_taverna_templates_shipped_as_t2flow(self, corpus_dir):
        t2flows = list(corpus_dir.rglob("workflow.t2flow"))
        assert len(t2flows) == 70

    def test_domain_directories(self, corpus_dir):
        assert (corpus_dir / "Taverna" / "bioinformatics").is_dir()
        assert (corpus_dir / "Wings" / "machine-learning").is_dir()

    def test_manifest_contents(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["statistics"]["runs"] == 198
        assert len(manifest["traces"]) == 198
        entry = manifest["traces"][0]
        assert {"run_id", "system", "domain", "status", "path", "format"} <= set(entry)


class TestTripleCount:
    def test_carried_count_is_the_merged_graph_size(self, corpus):
        for trace in corpus.traces:
            assert trace.triples == len(trace.graph()), trace.run_id

    def test_build_and_write_exports_each_trace_once(self, tmp_path, monkeypatch):
        """Writing a trace counts its triples from the triples the build
        already serialised, not from a second export."""
        from repro.corpus import CorpusBuilder
        from repro.corpus import builder as builder_module
        from repro.corpus.storage import build_and_write

        builder = CorpusBuilder(seed=2013)
        by_id, plan = builder.plan()
        taverna = [e for e in plan if by_id[e.template_id].system == "taverna"]
        wings = [e for e in plan if by_id[e.template_id].system == "wings"]
        short = taverna[:1] + wings[:2]
        monkeypatch.setattr(builder, "plan", lambda: (by_id, short))
        exports = []
        for name in ("taverna_export", "wings_export", "serialize_turtle", "serialize_trig"):
            real = getattr(builder_module, name)

            def counted(rdf, _real=real, _name=name):
                exports.append(_name)
                return _real(rdf)

            monkeypatch.setattr(builder_module, name, counted)
        manifest_path = build_and_write(builder, tmp_path / "corpus")
        assert sorted(exports) == ["serialize_trig", "serialize_trig", "serialize_turtle",
                                   "taverna_export", "wings_export", "wings_export"]
        stored = load_corpus(tmp_path / "corpus")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["statistics"]["triples"] == sum(
            len(trace.graph()) for trace in stored.traces
        )


def _write_labelled_trace(root):
    """One real trace plus a non-ASCII label: written, loaded and ingested."""
    import dataclasses
    from pathlib import Path

    from repro.corpus import CorpusBuilder, load_corpus
    from repro.corpus.storage import _TraceWriter
    from repro.rdf import IRI, RDFS, Literal
    from repro.store import QuadStore, StoreDataset, ingest_corpus

    labelled = (IRI("http://example.org/x"), RDFS.label, Literal("Gr\u00f6\u00dfe \u2615"))
    builder = CorpusBuilder(seed=2013)
    by_id, plan = builder.plan()
    writer = _TraceWriter(Path(root), by_id)
    for trace in builder.iter_traces(jobs=1, plan=plan[:1], by_id=by_id):
        statement = " ".join(term.n3() for term in labelled) + " .\n"
        writer.add(dataclasses.replace(trace, text=trace.text + statement))
    writer.finish(builder.seed)
    assert labelled in load_corpus(root).traces[0].graph()
    with QuadStore(Path(root) / ".store") as store:
        ingest_corpus(store, Path(root))
        assert labelled in StoreDataset(store).union_graph()


class TestLocaleIndependence:
    def test_tree_bytes_do_not_depend_on_the_locale(self, tmp_path):
        """Text files are UTF-8 with ``\\n`` newlines whatever the locale
        says: a build under ``LC_ALL=C`` equals the in-process build."""
        import inspect
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        _write_labelled_trace(tmp_path / "here")
        script = (
            inspect.getsource(_write_labelled_trace)
            + f"\n_write_labelled_trace({str(tmp_path / 'there')!r})\n"
        )
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        env.pop("LANG", None)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

        def tree(root):
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file() and ".store" not in path.parts
            }

        here, there = tree(tmp_path / "here"), tree(tmp_path / "there")
        assert here.keys() == there.keys() and len(here) == 3  # trace, t2flow, manifest
        assert here == there
        assert any("Gr\u00f6\u00dfe \u2615".encode("utf-8") in data for data in here.values())


class TestLoad:
    def test_roundtrip_counts(self, corpus_dir):
        stored = load_corpus(corpus_dir)
        assert len(stored.traces) == 198
        assert len(stored.failed_traces()) == 30
        assert len(stored.by_system("taverna")) + len(stored.by_system("wings")) == 198

    def test_loaded_graphs_match_built(self, corpus_dir, corpus):
        stored = load_corpus(corpus_dir)
        for built, loaded in list(zip(corpus.traces, stored.traces))[:10]:
            assert built.run_id == loaded.run_id
            assert len(built.graph()) == len(loaded.graph())

    def test_loaded_dataset_queryable(self, corpus_dir):
        from repro.sparql import QueryEngine

        stored = load_corpus(corpus_dir)
        engine = QueryEngine(stored.dataset())
        rows = engine.select(
            "SELECT (COUNT(?r) AS ?n) WHERE { "
            "?r a wfprov:WorkflowRun . "
            "FILTER NOT EXISTS { ?r wfprov:wasPartOfWorkflowRun ?p } }"
        )
        assert rows[0].n.to_python() == 112

    def test_wings_bundles_survive_loading(self, corpus_dir):
        stored = load_corpus(corpus_dir)
        wings = stored.by_system("wings")[0]
        ds = wings.dataset()
        assert len(ds.graph_names()) == 1

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path)

    def test_system_graph_from_disk(self, corpus_dir, corpus):
        stored = load_corpus(corpus_dir)
        assert len(stored.system_graph("taverna")) == len(corpus.system_graph("taverna"))


class TestParseErrorContext:
    def test_corrupt_trace_error_names_relative_path(self, corpus_dir, tmp_path):
        import shutil

        from repro.rdf.turtle import TurtleError

        broken = tmp_path / "broken"
        shutil.copytree(corpus_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        relpath = manifest["traces"][0]["path"]
        trace_file = broken / relpath
        trace_file.write_text(trace_file.read_text() + "\nex:dangling ex:no")
        stored = load_corpus(broken)
        with pytest.raises(TurtleError) as exc:
            stored.dataset()
        assert exc.value.source == relpath
        assert relpath in str(exc.value)
