"""Tests for the repro-corpus command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def built_dir(tmp_path_factory, corpus):
    # Reuse the session corpus via write_corpus to avoid a second build.
    from repro.corpus import write_corpus

    root = tmp_path_factory.mktemp("cli-corpus")
    write_corpus(corpus, root)
    return root


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_args(self):
        args = build_parser().parse_args(["build", "/tmp/x"])
        assert args.command == "build"

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "report"])
        assert args.seed == 7


class TestCommands:
    # The query tests share the module corpus's default store
    # (<built_dir>/.store): the first one syncs it, the rest find it fresh.
    def test_query_table(self, built_dir, capsys):
        code = main([
            "query", str(built_dir),
            "SELECT (COUNT(?b) AS ?n) WHERE { ?b a prov:Bundle }",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "86" in out

    def test_query_csv(self, built_dir, capsys):
        main([
            "query", str(built_dir),
            "ASK { ?x a prov:Bundle }",
        ])
        assert capsys.readouterr().out.strip() == "true"

    def test_query_from_file(self, built_dir, tmp_path, capsys):
        query_file = tmp_path / "q.rq"
        query_file.write_text("SELECT (COUNT(?x) AS ?n) WHERE { ?x a prov:Agent }")
        assert main(["query", str(built_dir), f"@{query_file}", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["head"]["vars"] == ["n"]

    def test_query_first_sync_keeps_stdout_to_the_answer(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "Taverna" / "dom" / "t-1").mkdir(parents=True)
        (corpus / "Taverna" / "dom" / "t-1" / "run1.prov.ttl").write_text(
            TestObsCommands._TTL)
        assert main(["query", str(corpus), "SELECT ?r WHERE { ?r prov:used ?d }",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]["bindings"]) == 1
        assert (corpus / ".store" / "store.json").exists()

    def test_build_command(self, tmp_path, capsys):
        # Smallest end-to-end check of the build path (uses the real builder).
        target = tmp_path / "out"
        assert main(["build", str(target)]) == 0
        out = capsys.readouterr().out
        assert "workflows: 120" in out
        assert (target / "manifest.json").exists()


class TestStoreCommands:
    @pytest.fixture(scope="class")
    def store_dir(self, built_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-store") / "store"
        assert main(["store", "ingest", str(built_dir), "--store", str(path)]) == 0
        return path

    def test_ingest_reports_parsed_files(self, built_dir, store_dir, capsys):
        # store_dir fixture already ingested; a second run is a no-op
        assert main(["store", "ingest", str(built_dir), "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["parsed_files"] == 0
        assert payload["skipped_files"] == 198
        assert "no files re-parsed" in out

    def test_info(self, store_dir, capsys):
        assert main(["store", "info", str(store_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 198
        assert payload["segments"]["spog"]["records"] == payload["quads"] > 0

    def test_info_missing_store_errors(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path / "nope")]) == 1
        assert "no quad store" in capsys.readouterr().err

    def test_query_with_store(self, built_dir, store_dir, capsys):
        code = main([
            "query", str(built_dir),
            "SELECT (COUNT(?b) AS ?n) WHERE { ?b a prov:Bundle }",
            "--store", str(store_dir),
        ])
        assert code == 0
        assert "86" in capsys.readouterr().out

    def test_serve_requires_source(self, capsys):
        assert main(["serve"]) == 2
        assert "corpus directory" in capsys.readouterr().err

    def test_ingest_missing_corpus_errors_without_side_effects(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["store", "ingest", str(missing)]) == 1
        assert "no corpus directory" in capsys.readouterr().err
        assert not missing.exists()  # must not mkdir a store at the typo'd path

    @pytest.mark.parametrize("argv", [
        ["query", "{missing}", "ASK { ?s ?p ?o }"],
        ["lineage", "{missing}", "http://example.org/e"],
        ["serve", "{missing}", "--store", "{store}"],
    ], ids=["query", "lineage", "serve"])
    def test_read_commands_refuse_missing_corpus_without_side_effects(
            self, argv, tmp_path, capsys):
        missing, store = tmp_path / "nope", tmp_path / "store"
        argv = [arg.replace("{missing}", str(missing)).replace("{store}", str(store))
                for arg in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: no corpus directory at {missing}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == []

    def test_build_store_flag_defaults_next_to_corpus(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        assert main(["build", str(root), "--store"]) == 0
        assert f"quad store: {root / '.store'}" in capsys.readouterr().out
        assert (root / ".store" / "store.json").exists()


class TestObsCommands:
    _TTL = (
        "@prefix ex: <http://example.org/> .\n"
        "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
        "ex:run1 a prov:Activity ; prov:used ex:data1 .\n"
        "ex:data1 a prov:Entity .\n"
    )

    @pytest.fixture()
    def observed_store(self, tmp_path, capsys):
        from repro.obs import events

        corpus = tmp_path / "corpus"
        (corpus / "Taverna" / "dom" / "t-1").mkdir(parents=True)
        (corpus / "Taverna" / "dom" / "t-1" / "run1.prov.ttl").write_text(self._TTL)
        obs_dir = tmp_path / "obs"
        code = main(["store", "ingest", str(corpus),
                     "--store", str(tmp_path / "store"),
                     "--obs-dir", str(obs_dir)])
        out = capsys.readouterr().out
        # Forget the module-global log so the rest of the suite keeps its
        # unobserved baseline.
        events.unconfigure()
        assert code == 0
        return obs_dir, out

    def test_ingest_obs_dir_announced_and_populated(self, observed_store):
        obs_dir, out = observed_store
        assert f"obs dir: {obs_dir}" in out
        assert (obs_dir / "events.jsonl").exists()

    def test_ingest_emits_done_event(self, observed_store):
        from repro.obs.events import read_events

        (done,) = [r for r in read_events(str(observed_store[0]))
                   if r["kind"] == "ingest.done"]
        assert done["parsed"] == 1
        assert done["quads"] > 0
        # a finished run's totals are readable off the line itself
        assert done["counters"]["repro_ingest_quads_total"] == done["quads"]
        assert done["counters"]["repro_ingest_parse_quads_total"] > 0

    def test_obs_slowlog_reads_the_event_log(self, tmp_path, capsys):
        """`obs slowlog <obs-dir>` lists what /slowlog listed: the
        retained query records among the endpoint.request lines."""
        from repro.obs.events import EventLog

        with EventLog(str(tmp_path)) as log:
            log.emit("endpoint.request", trace_id="a" * 32, route="/stats",
                     status=200, duration_ms=0.2)
            log.emit("endpoint.request", trace_id="b" * 32, route="/sparql",
                     status=200, duration_ms=12.5, query="ASK { ?s ?p ?o }",
                     cache="miss", plan_digest="0123456789abcdef",
                     span_id="00f067aa0ba902b7")
        assert main(["obs", "slowlog", str(tmp_path)]) == 0
        header, rule, row = capsys.readouterr().out.splitlines()
        assert len(rule) == len(header)
        assert row.split() == ["12.500", "miss", "0123456789abcdef",
                               "00f067aa0ba902b7", "ASK", "{", "?s", "?p", "?o", "}"]
        # the 16-hex span id sits inside its column
        assert row.index("ASK") == header.index("query")
        assert main(["obs", "slowlog", str(tmp_path / "nope")]) == 1

    def test_obs_dir_flag_parses_on_build_and_serve(self):
        args = build_parser().parse_args(
            ["build", "/tmp/x", "--obs-dir", "/tmp/obs"])
        assert str(args.obs_dir) == "/tmp/obs"
        args = build_parser().parse_args(
            ["serve", "/tmp/x", "--obs-dir", "/tmp/obs"])
        assert str(args.obs_dir) == "/tmp/obs"
