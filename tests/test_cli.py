import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from workatlas import cli
from workatlas.cli import (
    EXIT_ANNOTATOR,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    RunConfig,
    main,
    validate_inputs,
)
from workatlas.io import fixture_path

from conftest import deep_chain


def fixture_args():
    return ["--fixtures", "--seed", "42"]


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


#: The first fixture example's instruction and the job family the bundled
#: domain rules map it to.
D01_INSTRUCTION = "Prepare adjusting journal entries for the March close."
D01_FAMILY = "Business and Financial Operations"


def family_curves(tmp_path):
    """A curve file whose one group, ``D01_FAMILY``, passes at level 1."""
    curves = tmp_path / "curves.csv"
    curves.write_text(f"group,level,successes,totals\n{D01_FAMILY},1,10,10\n", encoding="utf-8")
    return curves


class TestExitCodes:
    def test_no_arguments_is_config_error(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["coverage", "--bogus-flag", "x"]) == EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_missing_input_file_is_input_error(self, tmp_path, capsys):
        code = main([
            "coverage", "--mappings", str(tmp_path / "none.jsonl"),
            "--domain-taxonomy", str(fixture_path("taxonomy_domain.json")),
            "--out", str(tmp_path),
        ])
        assert code == EXIT_INPUT

    def test_missing_required_flag_is_config_error(self, tmp_path, capsys):
        code = main([
            "coverage",
            "--domain-taxonomy", str(fixture_path("taxonomy_domain.json")),
            "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG  # no --mappings given at all

    def test_malformed_input_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        code = main([
            "coverage", "--mappings", str(bad),
            "--domain-taxonomy", str(fixture_path("taxonomy_domain.json")),
            "--out", str(tmp_path),
        ])
        assert code == EXIT_INPUT

    def test_remote_without_endpoint_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ATLAS_ANNOTATOR_URL", raising=False)
        code = main([
            "map", "--fixtures", "--annotator", "remote", "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG

    def test_unreachable_annotator_is_annotator_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ATLAS_ANNOTATOR_URL", "http://127.0.0.1:1/dead")
        code = main([
            "map", "--fixtures", "--annotator", "remote", "--out", str(tmp_path),
        ])
        assert code == EXIT_ANNOTATOR
        # partial results are persisted before the abort surfaces
        run_dir = next((tmp_path).iterdir())
        assert (run_dir / "mappings.partial.jsonl").exists()

    def test_existing_run_directory_is_config_error(self, tmp_path, capsys):
        existing = tmp_path / "r"
        existing.mkdir()
        (existing / "kept.txt").write_text("earlier run", encoding="utf-8")
        code = main(["autonomy", "--fixtures", "--out", str(tmp_path), "--run-id", "r"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: run directory already exists: {existing}\n"
        assert [p.name for p in existing.iterdir()] == ["kept.txt"]
        assert (existing / "kept.txt").read_text(encoding="utf-8") == "earlier run"


    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, content):
        config = tmp_path / "config"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        code = main(["autonomy", "--fixtures", "--config", str(config),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: config file cannot be read: ")
        assert not (tmp_path / "runs").exists()


class TestGcPause:
    """``main`` pauses the cyclic collector for one command and restores the
    state it found, whatever the exit code."""

    @pytest.fixture
    def gc_seen(self, monkeypatch):
        seen = []
        handler = cli._cmd_autonomy

        def observed(config):
            seen.append(gc.isenabled())
            return handler(config)

        monkeypatch.setattr(cli, "_cmd_autonomy", observed)
        return seen

    def commands(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{oops\n", encoding="utf-8")
        out = ["--out", str(tmp_path / "runs")]
        return [
            (EXIT_OK, ["autonomy", "--fixtures", *out]),
            (EXIT_CONFIG, ["autonomy", "--fixtures", "--threshold", "2", *out]),
            (EXIT_CONFIG, []),
            (EXIT_INPUT, ["autonomy", "--workflows", str(bad), *out]),
        ]

    def test_enabled_collector_is_restored_on_every_exit(self, tmp_path, capsys, gc_seen):
        assert gc.isenabled()
        for code, argv in self.commands(tmp_path):
            assert main(argv) == code
            assert gc.isenabled()
        assert gc_seen == [False, False]  # exits 0 and 3 come from the handler

    def test_internal_error_restores_collector(self, tmp_path, capsys, monkeypatch):
        def crash(config):
            assert not gc.isenabled()
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_autonomy", crash)
        assert main(["autonomy", "--fixtures", "--out", str(tmp_path)]) == EXIT_INTERNAL
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, tmp_path, capsys):
        gc.disable()
        try:
            for code, argv in self.commands(tmp_path):
                assert main(argv) == code
                assert not gc.isenabled()
        finally:
            gc.enable()


class TestParserOnce:
    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for code, argv in ((EXIT_OK, ["autonomy", "--fixtures", "--out", str(tmp_path)]),
                               (EXIT_OK, ["--help"]),
                               (EXIT_CONFIG, ["coverage", "--bogus-flag", "x"]),
                               (EXIT_CONFIG, []),
                               (EXIT_OK, ["autonomy", "--fixtures", "--out", str(tmp_path)])):
                assert main(argv) == code
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_repeated_calls_leave_no_parser_cycles(self, tmp_path, capsys):
        argv = ["autonomy", "--fixtures", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        gc.collect()
        assert main(argv) == EXIT_OK
        # building the parser left about 760 objects in cycles per call
        assert gc.collect() < 300


class TestMapCommand:
    def test_map_writes_mappings_and_outcomes(self, tmp_path, capsys):
        code = main(["map", *fixture_args(), "--out", str(tmp_path), "--run-id", "m1"])
        assert code == EXIT_OK
        run_dir = tmp_path / "m1"
        assert (run_dir / "mappings.jsonl").exists()
        rows = read_table(run_dir / "tables" / "mapping_outcomes.csv")
        pooled_domain = next(
            r for r in rows if r["taxonomy_kind"] == "domain" and r["benchmark"] == "(all)"
        )
        assert pooled_domain["mapped"] == "17"
        assert pooled_domain["empty"] == "2"
        assert pooled_domain["invalid"] == "1"

    def test_empty_corpus_maps_nothing(self, tmp_path, capsys):
        empty = tmp_path / "examples.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["map", *fixture_args(), "--examples", str(empty),
                     "--out", str(tmp_path), "--run-id", "m0"])
        assert code == EXIT_OK
        assert (tmp_path / "m0" / "mappings.jsonl").read_text() == ""


class TestStreamingMapping:
    """``map`` and ``report`` write each result as it is mapped, fold it,
    and keep no result object."""

    @staticmethod
    def expected_mappings(tmp_path) -> bytes:
        from workatlas.annotate import KeywordAnnotator
        from workatlas.io import read_examples, write_mappings
        from workatlas.mapping import map_corpus
        from workatlas.taxonomy import load_taxonomy

        examples = read_examples(fixture_path("examples.jsonl"))
        results = []
        for kind in ("domain", "skill"):
            results += map_corpus(
                examples, load_taxonomy(fixture_path(f"taxonomy_{kind}.json")),
                KeywordAnnotator.from_file(fixture_path(f"keyword_rules_{kind}.json")))
        path = tmp_path / "expected.jsonl"
        write_mappings(path, results)
        return path.read_bytes()

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    @pytest.mark.parametrize("command", ["map", "report"])
    def test_mappings_file_equals_library_output(self, tmp_path, capsys, command,
                                                 parallelism):
        extra = ["--permutations", "20"] if command == "report" else []
        assert main([command, *fixture_args(), *extra, "--parallelism", parallelism,
                     "--out", str(tmp_path), "--run-id", "r"]) == EXIT_OK
        run_dir = tmp_path / "r"
        assert (run_dir / "mappings.jsonl").read_bytes() == self.expected_mappings(tmp_path)
        assert not (run_dir / "mappings.partial.jsonl").exists()

    def test_map_prints_pooled_outcomes_per_kind(self, tmp_path, capsys):
        assert main(["map", *fixture_args(), "--out", str(tmp_path), "--run-id", "m"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["domain: 17 mapped / 2 empty / 1 invalid of 20",
                         "skill: 18 mapped / 2 empty / 0 invalid of 20",
                         f"mapped 20 examples -> {tmp_path / 'm'}"]

    def test_report_keeps_no_mapping_result(self, tmp_path, capsys, monkeypatch):
        from workatlas.mapping import MappingResult

        def results_alive() -> int:
            return sum(1 for o in gc.get_objects() if type(o) is MappingResult)

        alive_after_mapping = []
        coverage_suite = cli.coverage_suite

        def counting(*args, **kwargs):
            alive_after_mapping.append(results_alive())
            return coverage_suite(*args, **kwargs)

        monkeypatch.setattr(cli, "coverage_suite", counting)
        gc.collect()
        before = results_alive()  # the session fixtures hold their own
        assert main(["report", *fixture_args(), "--permutations", "20",
                     "--out", str(tmp_path), "--run-id", "r"]) == EXIT_OK
        assert alive_after_mapping == [before]

    def test_parallel_abort_leaves_completed_results_in_order(self, tmp_path, monkeypatch,
                                                              capsys):
        import threading

        from workatlas.annotate import AnnotatorTransportError, KeywordAnnotator
        from workatlas.io import read_examples

        examples = read_examples(fixture_path("examples.jsonl"))
        domain_lines = self.expected_mappings(tmp_path).decode().splitlines(keepends=True)
        failing_instruction = examples[5].instruction
        annotate = KeywordAnnotator.annotate
        completed, lock = set(), threading.Lock()

        def failing(self, instruction, taxonomy_text):
            if instruction == failing_instruction:
                raise AnnotatorTransportError("endpoint gone", 3)
            raw = annotate(self, instruction, taxonomy_text)
            with lock:
                completed.add(instruction)
            return raw

        monkeypatch.setattr(KeywordAnnotator, "annotate", failing)
        code = main(["map", *fixture_args(), "--parallelism", "2",
                     "--out", str(tmp_path), "--run-id", "m"])
        assert code == EXIT_ANNOTATOR
        partial = tmp_path / "m.partial"
        assert [p.name for p in partial.iterdir()] == ["mappings.partial.jsonl"]
        kept = [line for e, line in zip(examples, domain_lines) if e.instruction in completed]
        assert (partial / "mappings.partial.jsonl").read_text(encoding="utf-8") == "".join(kept)
        assert len(kept) >= 5  # every example before the failing one


class TestPipelineEquivalence:
    def test_cli_coverage_equals_module_output(self, tmp_path, capsys,
                                               domain_results, domain_taxonomy):
        from workatlas.coverage import coverage
        from workatlas.io import write_mappings

        mappings = tmp_path / "mappings.jsonl"
        write_mappings(mappings, domain_results)
        code = main([
            "coverage", "--mappings", str(mappings),
            "--domain-taxonomy", str(fixture_path("taxonomy_domain.json")),
            "--out", str(tmp_path), "--run-id", "c1",
        ])
        assert code == EXIT_OK
        rows = read_table(tmp_path / "c1" / "tables" / "coverage_domain.csv")
        pooled = next(r for r in rows if r["benchmark"] == "(pooled)")
        module_report = coverage(domain_results, domain_taxonomy)
        assert float(pooled["coverage"]) == module_report.coverage
        assert int(pooled["covered_paths"]) == len(module_report.covered_paths)

    def test_cli_autonomy_equals_module_output(self, tmp_path, capsys, workflows):
        from workatlas.autonomy import autonomy_level, success_rates

        code = main([
            "autonomy", "--workflows", str(fixture_path("workflows.jsonl")),
            "--group-by", "overall", "--threshold", "0.8", "--min-samples", "3",
            "--out", str(tmp_path), "--run-id", "a1",
        ])
        assert code == EXIT_OK
        rows = read_table(tmp_path / "a1" / "tables" / "autonomy_levels.csv")
        overall = next(r for r in rows if r["group"] == "overall")
        expected = autonomy_level(
            success_rates(workflows, "overall")["overall"], 0.8, min_samples=3
        )
        assert overall["autonomy_level"] == str(expected.autonomy)

    @pytest.mark.parametrize("argv", [["autonomy", "--fixtures"],
                                      ["report", "--fixtures", "--permutations", "2"]],
                             ids=["autonomy", "report"])
    def test_commands_build_no_workflow_tree(self, tmp_path, monkeypatch, capsys, argv):
        from workatlas.autonomy import WorkflowNode

        def refuse(node):
            raise AssertionError("a workflow node was built")

        monkeypatch.setattr(WorkflowNode, "__post_init__", refuse)
        assert main([*argv, "--out", str(tmp_path), "--run-id", "r"]) == EXIT_OK
        assert (tmp_path / "r" / "tables" / "autonomy_curves.csv").exists()

    @pytest.mark.parametrize("group_by", ["overall", "benchmark", "agent", "model"])
    def test_autonomy_curves_equal_library_curves_of_trees(self, tmp_path, capsys, group_by):
        from workatlas.autonomy import success_rates, with_overall
        from workatlas.io import read_workflows, write_curves

        code = main(["autonomy", "--fixtures", "--group-by", group_by,
                     "--out", str(tmp_path), "--run-id", "a"])
        assert code == EXIT_OK
        expected = tmp_path / "expected.csv"
        trees = read_workflows(fixture_path("workflows.jsonl"))
        write_curves(expected, success_rates(trees, with_overall(group_by)))
        produced = tmp_path / "a" / "tables" / "autonomy_curves.csv"
        assert produced.read_bytes() == expected.read_bytes()


class TestAdviseCommand:
    def test_float_statuses_give_curves_advise_reads(self, tmp_path, capsys):
        workflows = tmp_path / "workflows.jsonl"
        workflows.write_text(
            '{"benchmark": "b", "root": {"id": "r", "description": "d", "status": 1.0, '
            '"children": [{"id": "a", "description": "d", "status": 0.0}, '
            '{"id": "c", "description": "d", "status": true}]}}\n', encoding="utf-8")
        assert main(["autonomy", "--workflows", str(workflows),
                     "--out", str(tmp_path), "--run-id", "curves"]) == EXIT_OK
        curves = tmp_path / "curves" / "tables" / "autonomy_curves.csv"
        assert [row["successes"] for row in read_table(curves)] == ["1", "1", "1", "1"]
        code = main(["advise", "--curves", str(curves), "--groups", "overall",
                     "--instruction", "Fix the failing test", "--complexity", "1",
                     "--min-samples", "1", "--out", str(tmp_path), "--run-id", "advice"])
        assert code == EXIT_OK, capsys.readouterr().err

    @pytest.mark.parametrize("rows, line, reason", [
        ("g,1,5,10\ng,1,9,10\n", 3, "level 1 of group 'g' is repeated"),
        ("g,0,5,10\n", 2, "level must be >= 1, got 0"),
    ])
    def test_curves_with_repeated_or_sub_one_level_are_input_errors(
            self, tmp_path, capsys, rows, line, reason):
        curves = tmp_path / "curves.csv"
        curves.write_text("group,level,successes,totals,sr,lcb\n" + rows, encoding="utf-8")
        code = main(["advise", "--curves", str(curves), "--groups", "g",
                     "--instruction", "a task", "--complexity", "1", "--min-samples", "1",
                     "--out", str(tmp_path), "--run-id", "adv"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"input violation: {curves} [line {line}]: {reason}")

    def test_advise_with_explicit_groups(self, tmp_path, capsys):
        code = main([
            "autonomy", "--workflows", str(fixture_path("workflows.jsonl")),
            "--group-by", "benchmark", "--out", str(tmp_path), "--run-id", "curves",
        ])
        assert code == EXIT_OK
        curves_csv = tmp_path / "curves" / "tables" / "autonomy_curves.csv"
        code = main([
            "advise", "--curves", str(curves_csv),
            "--instruction", "implement a reinforcement learning algorithm",
            "--groups", "codebench", "--complexity", "4",
            "--threshold", "0.8", "--min-samples", "3",
            "--out", str(tmp_path), "--run-id", "adv",
        ])
        assert code == EXIT_OK
        record = json.loads((tmp_path / "adv" / "advice.json").read_text())
        assert record["decision"] == "decompose"
        assert record["matched_groups"] == ["codebench"]

    def test_advise_via_taxonomy_mapping(self, tmp_path, capsys):
        main([
            "autonomy", "--workflows", str(fixture_path("workflows.jsonl")),
            "--group-by", "benchmark", "--out", str(tmp_path), "--run-id", "curves",
        ])
        # group keys are benchmarks, so map-based family groups will not match
        code = main([
            "advise", "--curves", str(tmp_path / "curves" / "tables" / "autonomy_curves.csv"),
            "--fixtures",
            "--instruction", "debug the reported defect",
            "--complexity", "2",
            "--out", str(tmp_path), "--run-id", "adv2",
        ])
        assert code == EXIT_INPUT  # no curve groups match the mapped families

    @pytest.mark.parametrize("how, inputs", [
        (["--groups", D01_FAMILY], ["curves"]),
        ([], ["curves", "domain_rules", "domain_taxonomy"]),
    ])
    def test_manifest_digests_only_the_inputs_read(self, tmp_path, capsys, how, inputs):
        # with --groups nothing is mapped; without, only the domain tree is
        code = main(["advise", "--fixtures", "--curves", str(family_curves(tmp_path)),
                     "--instruction", D01_INSTRUCTION, "--complexity", "1",
                     "--min-samples", "1", *how, "--out", str(tmp_path), "--run-id", "adv"])
        assert code == EXIT_OK, capsys.readouterr().err
        manifest = json.loads((tmp_path / "adv" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == inputs
        record = json.loads((tmp_path / "adv" / "advice.json").read_text(encoding="utf-8"))
        assert record["matched_groups"] == [D01_FAMILY]
        assert record["decision"] == "delegate_end_to_end"

    @pytest.mark.parametrize("flag", ["--skill-taxonomy", "--skill-rules", "--parallelism"])
    def test_unused_flags_are_not_taken(self, tmp_path, capsys, flag):
        code = main(["advise", "--curves", "c.csv", "--groups", "g", "--instruction", "a task",
                     "--complexity", "1", flag, "x", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err

    @pytest.mark.parametrize("how", [
        ["--instruction", "a task", "--groups", "nosuchgroup,otherbench"],
        ["--instruction", "Reconcile bank statements", "--fixtures"],
    ])
    def test_unmatched_task_names_curves_file_and_groups(self, tmp_path, capsys, how):
        main([
            "autonomy", "--workflows", str(fixture_path("workflows.jsonl")),
            "--group-by", "benchmark", "--out", str(tmp_path), "--run-id", "curves",
        ])
        curves_csv = tmp_path / "curves" / "tables" / "autonomy_curves.csv"
        capsys.readouterr()
        code = main([
            "advise", "--curves", str(curves_csv), "--complexity", "2", "--out", str(tmp_path), "--run-id", "adv", *how,
        ])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input violation: {curves_csv} [adhoc/query]: ")
        tried = "nosuchgroup, otherbench" if "--groups" in how else \
            "Business and Financial Operations"
        assert f"tried {tried};" in err
        assert "the file holds codebench, deskbench, overall" in err
        assert not (tmp_path / "adv").exists()


class TestSampleCommand:
    def test_sensitivity_table_has_per_benchmark_and_pooled_rows(self, tmp_path, capsys,
                                                                 domain_results,
                                                                 skill_results):
        from workatlas.io import write_mappings

        mappings = tmp_path / "mappings.jsonl"
        write_mappings(mappings, list(domain_results) + list(skill_results))
        code = main([
            "sample", "--mappings", str(mappings),
            "--domain-taxonomy", str(fixture_path("taxonomy_domain.json")),
            "--skill-taxonomy", str(fixture_path("taxonomy_skill.json")),
            "--permutations", "50", "--seed", "3",
            "--out", str(tmp_path), "--run-id", "s1",
        ])
        assert code == EXIT_OK
        rows = read_table(tmp_path / "s1" / "tables" / "sampling_sensitivity.csv")
        benchmarks = [r["benchmark"] for r in rows]
        assert benchmarks == ["codebench", "deskbench", "webbench", "pooled"]
        for row in rows:
            assert float(row["stop_size_ci_low"]) <= float(row["stop_size_median"])
            assert float(row["stop_size_median"]) <= float(row["stop_size_ci_high"])


class TestEconomicsCommand:
    def test_tables_and_alignment_emitted(self, tmp_path, capsys,
                                          domain_results, skill_results):
        from workatlas.io import write_mappings

        mappings = tmp_path / "mappings.jsonl"
        write_mappings(mappings, list(domain_results) + list(skill_results))
        code = main([
            "economics", "--fixtures", "--mappings", str(mappings),
            "--out", str(tmp_path), "--run-id", "e1",
        ])
        assert code == EXIT_OK
        tables = {p.name for p in (tmp_path / "e1" / "tables").iterdir()}
        assert {"family_economics.csv", "skill_economics.csv", "digital_families.csv",
                "alignment_domain_family.csv", "alignment_skill_leaf.csv"} <= tables
        family = read_table(tmp_path / "e1" / "tables" / "family_economics.csv")
        assert sum(float(r["employment"]) for r in family) == 630000.0


class TestReanalysis:
    """``coverage``, ``economics`` and ``sample`` read a recorded mappings
    file as folds; the report computes on the results it mapped."""

    def test_reanalysis_reproduces_report_tables(self, tmp_path, capsys):
        assert main(["report", *fixture_args(), "--permutations", "100",
                     "--out", str(tmp_path), "--run-id", "report"]) == EXIT_OK
        report = tmp_path / "report"
        mappings = str(report / "mappings.jsonl")
        compared = []
        for command in ("coverage", "economics", "sample"):
            assert main([command, *fixture_args(), "--mappings", mappings,
                         *(["--permutations", "100"] if command == "sample" else []),
                         "--out", str(tmp_path), "--run-id", command]) == EXIT_OK
            for table in sorted((tmp_path / command / "tables").iterdir()):
                expected = report / "tables" / table.name
                assert table.read_bytes() == expected.read_bytes(), (command, table.name)
                compared.append(table.name)
        assert len(compared) == 15

    def test_mappings_without_records_give_no_alignment(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["economics", "--fixtures", "--mappings", str(empty),
                     "--out", str(tmp_path), "--run-id", "e"]) == EXIT_OK
        tables = {p.name for p in (tmp_path / "e" / "tables").iterdir()}
        assert "family_economics.csv" in tables
        assert not any(name.startswith("alignment_") for name in tables)

    def test_mapping_read_keeps_no_record_objects(self, tmp_path, domain_results,
                                                  skill_results):
        from workatlas.io import write_mappings
        from workatlas.mapping import MappingResult

        mappings = tmp_path / "mappings.jsonl"
        write_mappings(mappings, list(domain_results) + list(skill_results))
        records = [json.loads(line) for line in mappings.read_text(encoding="utf-8").splitlines()]
        for i, record in enumerate(records):
            record["raw"], record["annotator_id"] = f"raw marker {i}", f"annotator marker {i}"
        mappings.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = RunConfig(command="coverage", values={
            "mappings": str(mappings),
            "domain_taxonomy": str(fixture_path("taxonomy_domain.json")),
            "skill_taxonomy": str(fixture_path("taxonomy_skill.json")),
        })

        def results_alive() -> int:
            return sum(1 for o in gc.get_objects() if type(o) is MappingResult)

        gc.collect()
        before = results_alive()  # the session fixtures hold their own
        inputs = validate_inputs(config)
        assert inputs.ok and inputs.mappings is not None
        assert results_alive() == before

        seen, stack, strings = set(), [inputs], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, type(sys), type(main))):
                continue
            seen.add(id(obj))
            if isinstance(obj, str):
                strings.append(obj)
                continue
            stack.extend(gc.get_referents(obj))
            if isinstance(obj, dict):  # string keys are not referents
                stack.extend(obj)
        assert records[0]["example_id"] in strings  # the walk reached the parsed mappings
        assert not [s for s in strings if "marker" in s]


class TestManifestInputs:
    """A manifest digests exactly the input files the run read."""

    def test_replay_run_names_no_rule_files(self, tmp_path, capsys):
        assert main(["map", "--fixtures", "--out", str(tmp_path), "--run-id", "m"]) == EXIT_OK
        assert main(["map", "--fixtures", "--annotator", "replay",
                     "--replay-mappings", str(tmp_path / "m" / "mappings.jsonl"),
                     "--out", str(tmp_path), "--run-id", "r"]) == EXIT_OK
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == ["domain_taxonomy", "examples", "replay_mappings",
                                              "skill_taxonomy"]

    def test_remote_run_names_no_rule_files(self, tmp_path, monkeypatch, capsys):
        class Silent:
            annotator_id = "remote"

            def annotate(self, instruction, taxonomy_text):
                return ""

        monkeypatch.setattr(cli, "RemoteAnnotator", Silent)
        assert main(["map", "--fixtures", "--annotator", "remote",
                     "--out", str(tmp_path), "--run-id", "r"]) == EXIT_OK
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == ["domain_taxonomy", "examples", "skill_taxonomy"]

    def test_report_names_every_fixture_it_reads(self, tmp_path, capsys):
        assert main(["report", *fixture_args(), "--permutations", "2",
                     "--out", str(tmp_path), "--run-id", "r"]) == EXIT_OK
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == [
            "digital_labels", "domain_rules", "domain_taxonomy", "examples", "importance",
            "occupations", "skill_rules", "skill_taxonomy", "workflows"]


class TestReportValidation:
    def test_inconsistent_inputs_exit_with_input_code(self, tmp_path, capsys):
        bad = tmp_path / "importance.csv"
        bad.write_text(
            "# scale_max: 5.0\nsoc_code,activity_id,importance\n13-2011,9.Z.9,4.0\n",
            encoding="utf-8",
        )
        code = main([
            "report", "--fixtures", "--importance", str(bad),
            "--out", str(tmp_path), "--run-id", "r",
        ])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "9.Z.9" in err and "activity_id" in err


#: A cell one byte over the ``csv`` module's field limit, and its refusal.
OVER_LIMIT = "x" * (csv.field_size_limit() + 1)
OVER_LIMIT_REASON = f"field larger than field limit ({csv.field_size_limit()})"
#: A JSON integer one digit over Python's int-string conversion limit.
OVER_LIMIT_INT = "9" * 4301
ECONOMICS = ["economics", "--fixtures"]
ADVISE = ["advise", "--fixtures", "--groups", "overall", "--instruction", "Fix the failing test",
          "--complexity", "2"]


class TestSharedValidation:
    """Every subcommand validates its inputs before writing anything."""

    @pytest.mark.parametrize("argv, key, text, line, reason", [
        pytest.param(ECONOMICS, "occupations", "soc_code,title,employment,median_wage\n\n"
                     f"13-2011,{OVER_LIMIT},1,2\n", 3, OVER_LIMIT_REASON,
                     id="occupations-over-limit"),
        pytest.param(ECONOMICS, "importance", "# scale_max: 5.0\n"
                     f"soc_code,activity_id,importance\n13-2011,{OVER_LIMIT},1\n", 3,
                     OVER_LIMIT_REASON, id="importance-over-limit"),
        pytest.param(ECONOMICS, "digital-labels", "soc_code,task_hash,label,justification\n"
                     f"13-2011,abc,DIGITAL,eh\n13-2011,def,DIGITAL,{OVER_LIMIT}\n", 3,
                     OVER_LIMIT_REASON, id="digital-labels-over-limit"),
        pytest.param(ADVISE, "curves", "group,level,successes,totals\noverall,1,3,4\n\n"
                     f"{OVER_LIMIT},2,0,1\n", 4, OVER_LIMIT_REASON, id="curves-over-limit"),
        pytest.param(ECONOMICS, "occupations", "soc_code,employment,median_wage,title\n"
                     "13-2011,1,2\n", 2, "title missing", id="occupation-without-title"),
        pytest.param(ECONOMICS, "digital-labels", "soc_code,task_hash,label\n"
                     "13-2011,,DIGITAL\n", 2, "task_hash must not be empty, got ''",
                     id="digital-label-without-task-hash"),
        pytest.param(ECONOMICS, "digital-labels", "soc_code,label,task_hash\n\n"
                     "13-2011,DIGITAL\n", 3, "task_hash must not be empty, got None",
                     id="digital-label-without-task-hash-cell"),
    ])
    def test_refused_csv_row_exits_input_naming_its_line(self, tmp_path, capsys, argv, key,
                                                         text, line, reason):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "runs"
        code = main([*argv, f"--{key}", str(path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert f"input violation: {path} [line {line}]: {reason}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("map", "examples"), ("coverage", "mappings"),
                                              ("autonomy", "workflows")])
    def test_integer_over_the_digit_limit_names_its_line(self, tmp_path, capsys, domain_results,
                                                         command, key):
        from workatlas.io import write_mappings

        path = tmp_path / f"{key}.jsonl"
        if key == "mappings":
            write_mappings(path, domain_results)
        else:
            path.write_bytes(fixture_path(f"{key}.jsonl").read_bytes())
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:-1] + f', "n": {OVER_LIMIT_INT}}}'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = main([command, "--fixtures", f"--{key}", str(path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert (f"input violation: {path} [line 3]: invalid JSON: Exceeds the limit"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_config_integer_over_the_digit_limit_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(f'{{"seed": {OVER_LIMIT_INT}}}', encoding="utf-8")
        code = main(["autonomy", "--fixtures", "--config", str(config),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: config file is not valid JSON: Exceeds the limit")
        assert not (tmp_path / "runs").exists()

    def test_economics_cross_file_error_exits_input_without_run_dir(self, tmp_path, capsys):
        occupations = tmp_path / "occupations.csv"
        occupations.write_text(
            "".join(
                line for line in fixture_path("occupations.csv").read_text().splitlines(True)
                if not line.startswith("13-2011,")
            ),
            encoding="utf-8",
        )
        out = tmp_path / "runs"
        code = main(["economics", "--fixtures", "--occupations", str(occupations),
                     "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(fixture_path("importance.csv")) in err and "13-2011" in err
        assert not out.exists()

    def test_workflow_too_deep_to_decode_is_input_error(self, tmp_path, capsys):
        workflows = tmp_path / "deep.jsonl"
        workflows.write_text(deep_chain(600) + "\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["autonomy", "--workflows", str(workflows), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{workflows} [line 1]" in err and "nesting too deep" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("benchmark", 7), ("example_id", ["x"]),
                                              ("paths", "abc")])
    def test_mistyped_mapping_field_exits_input_without_run_dir(self, tmp_path, capsys,
                                                                domain_results, field, value):
        from workatlas.io import write_mappings

        mappings = tmp_path / "mappings.jsonl"
        write_mappings(mappings, domain_results)
        lines = mappings.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: value})
        mappings.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["coverage", "--fixtures", "--mappings", str(mappings), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input violation: {mappings} [line 3]: mapping record field "
                              f"{field!r} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("map", "examples"), ("coverage", "mappings"),
                                              ("autonomy", "workflows")])
    def test_non_object_line_named(self, tmp_path, capsys, command, key):
        path = tmp_path / "records.jsonl"
        path.write_text("5\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = main([command, "--fixtures", f"--{key}", str(path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input violation: {path} [line 1]: record must be a JSON object, got int\n")
        assert not out.exists()

    def test_violation_names_location_once(self, tmp_path, capsys):
        workflows = tmp_path / "bad.jsonl"
        workflows.write_text('{"benchmark": "b"}\n{oops\n', encoding="utf-8")
        code = main(["autonomy", "--workflows", str(workflows), "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count(str(workflows)) == 1
        assert err.startswith(f"input violation: {workflows} [line 1]: workflow document "
                              "missing 'root'\n")

    def test_wrong_kind_taxonomy_is_input_error(self, tmp_path, capsys, domain_results):
        from workatlas.io import write_mappings

        mappings = tmp_path / "mappings.jsonl"
        write_mappings(mappings, domain_results)
        out = tmp_path / "runs"
        code = main([
            "coverage", "--mappings", str(mappings),
            "--domain-taxonomy", str(fixture_path("taxonomy_skill.json")),
            "--out", str(out),
        ])
        assert code == EXIT_INPUT
        assert "expected a domain taxonomy" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_employment_is_input_error(self, tmp_path, capsys):
        occupations = tmp_path / "occupations.csv"
        occupations.write_text(
            fixture_path("occupations.csv").read_text().replace(",100000,", ",nan,"),
            encoding="utf-8",
        )
        code = main(["economics", "--fixtures", "--occupations", str(occupations),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_INPUT
        assert "employment must be a finite number" in capsys.readouterr().err

    DUPLICATE = "duplicate importance record for ('13-2011', '4.A.1.a.1')"

    @pytest.mark.parametrize("rows, reason", [
        # a duplicate before a value out of range on a later row
        (["4.A.1.a.1,4.0", "4.A.1.a.1,3.0", "4.A.2.a.4,9.0"], DUPLICATE),
        # the reverse order
        (["4.A.1.a.1,4.0", "4.A.2.a.4,9.0", "4.A.1.a.1,3.0"],
         "importance 9.0 for ('13-2011', '4.A.2.a.4') outside [0, 5.0]"),
        # both faults on one row
        (["4.A.1.a.1,4.0", "4.A.1.a.1,9.0"], DUPLICATE),
    ])
    def test_first_importance_fault_named(self, tmp_path, capsys, rows, reason):
        importance = tmp_path / "importance.csv"
        importance.write_text("# scale_max: 5.0\nsoc_code,activity_id,importance\n"
                              + "".join(f"13-2011,{row}\n" for row in rows), encoding="utf-8")
        code = main(["economics", "--fixtures", "--importance", str(importance),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"input violation: {importance} [(file)]: {reason}\n"
        assert not (tmp_path / "runs").exists()

    def test_non_string_annotation_is_input_error(self, tmp_path, capsys):
        doc = json.loads(fixture_path("taxonomy_skill.json").read_text(encoding="utf-8"))
        doc["root"]["children"][0]["children"][0]["children"][0]["annotations"] = {
            "activity_id": [1]}
        taxonomy = tmp_path / "skill.json"
        taxonomy.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["economics", "--fixtures", "--skill-taxonomy", str(taxonomy),
                     "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input violation: {taxonomy} [(file)]: root.children[0].children[0].children[0]: "
            "annotation 'activity_id' must be a string, got list\n")
        assert not out.exists()

    def test_report_lists_unmatched_soc_codes(self, tmp_path, capsys):
        occupations = tmp_path / "occupations.csv"
        occupations.write_text(
            fixture_path("occupations.csv").read_text() + "99-9999,Ghost Occupation,100,50000\n",
            encoding="utf-8",
        )
        code = main([
            "report", *fixture_args(), "--permutations", "20",
            "--occupations", str(occupations), "--out", str(tmp_path), "--run-id", "r",
        ])
        assert code == EXIT_OK
        rows = read_table(tmp_path / "r" / "tables" / "unmatched_soc_codes.csv")
        assert rows == [{"soc_code": "99-9999"}]

    def test_inputs_of_other_subcommands_are_not_read(self, tmp_path, capsys):
        garbage = tmp_path / "mappings.jsonl"
        garbage.write_text("{not json\n", encoding="utf-8")
        shared = tmp_path / "shared.json"
        shared.write_text(json.dumps({
            "mappings": str(garbage),
            "workflows": str(fixture_path("workflows.jsonl")),
        }), encoding="utf-8")
        code = main(["autonomy", "--config", str(shared), "--fixtures",
                     "--out", str(tmp_path), "--run-id", "a"])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"workflows"}


class TestAnnotatorInputs:
    """The annotator mode's inputs are required flags like any other: a
    missing one exits 2 before any input is read. A malformed keyword rule
    is an input violation naming the rule. Neither leaves a run directory."""

    @pytest.mark.parametrize("argv, flag", [
        (["map", "--domain-taxonomy", "{domain}", "--skill-taxonomy", "{skill}",
          "--examples", "{examples}", "--domain-rules", "{rules}"], "--skill-rules"),
        (["report", "--fixtures", "--annotator", "replay"], "--replay-mappings"),
        (["advise", "--curves", "{curves}", "--domain-taxonomy", "{domain}",
          "--instruction", D01_INSTRUCTION, "--complexity", "1"], "--domain-rules"),
        # the examples file does not exist either: the missing flag is found first
        (["map", "--domain-taxonomy", "{domain}", "--skill-taxonomy", "{skill}",
          "--examples", "{missing}", "--domain-rules", "{rules}"], "--skill-rules"),
    ])
    def test_missing_annotator_input_exits_config_before_reading(
            self, tmp_path, capsys, monkeypatch, argv, flag):
        paths = {
            "domain": fixture_path("taxonomy_domain.json"),
            "skill": fixture_path("taxonomy_skill.json"),
            "examples": fixture_path("examples.jsonl"),
            "rules": fixture_path("keyword_rules_domain.json"),
            "curves": family_curves(tmp_path),
            "missing": tmp_path / "missing.jsonl",
        }
        validated = []
        monkeypatch.setattr(cli, "validate_inputs", validated.append)
        out = tmp_path / "runs"
        code = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: missing required input {flag}\n"
        assert validated == []
        assert not out.exists()

    def test_rules_read_when_their_taxonomy_fails(self, tmp_path, capsys):
        # a taxonomy that fails to parse leaves its kind's rules to be read
        # with no taxonomy, so both files' violations are reported
        document = json.loads(fixture_path("taxonomy_domain.json").read_text(encoding="utf-8"))
        del document["root"]
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text(json.dumps(document), encoding="utf-8")
        rules = json.loads(fixture_path("keyword_rules_domain.json").read_text(encoding="utf-8"))
        rules[2]["keyword"] = " "
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules), encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["map", "--fixtures", "--domain-taxonomy", str(taxonomy),
                     "--domain-rules", str(path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input violation: {taxonomy} [(file)]: document missing 'root'\n"
            f"input violation: {path} [(file)]: rule 2: keyword must be a non-blank string\n")
        assert not out.exists()

    @pytest.mark.parametrize("rule, reason", [
        ({"keyword": "budget", "labels": "A > B > C"},
         "labels must be a non-empty array of strings"),
        ({"keyword": 7, "labels": ["A", "B", "C"]}, "keyword must be a string"),
        ({"keyword": "budget", "labels": {"A": "B"}},
         "labels must be a non-empty array of strings"),
        (["budget", ["A", "B", "C"]], "must be an object"),
        ({"keyword": "", "labels": ["A", "B", "C"]}, "keyword must be a non-blank string"),
        ({"keyword": " ", "labels": ["A", "B", "C"]}, "keyword must be a non-blank string"),
    ])
    def test_malformed_keyword_rule_is_input_error(self, tmp_path, capsys, rule, reason):
        rules = json.loads(fixture_path("keyword_rules_domain.json").read_text(encoding="utf-8"))
        rules[2] = rule
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules), encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["map", "--fixtures", "--domain-rules", str(path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"input violation: {path} [(file)]: rule 2: {reason}\n"
        assert not out.exists()


class TestNonRegularInputs:
    """An input that is not a regular file is an input violation found with
    ``os.stat``, before any reader opens it, and leaves no run directory."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("flag, extra", [
        ("--examples", []),
        # never parsed under replay, but the manifest would digest it
        ("--domain-rules", ["--annotator", "replay", "--replay-mappings", "none.jsonl"]),
    ])
    def test_fifo_without_writer_exits_input(self, tmp_path, flag, extra):
        fifo = tmp_path / "inputs.fifo"
        os.mkfifo(fifo)
        src = Path(__file__).resolve().parents[1] / "src"
        # a subprocess with a timeout, so that opening the pipe fails the test
        # instead of hanging it
        out = subprocess.run(
            [sys.executable, "-m", "workatlas.cli", "map", "--fixtures", flag, str(fifo),
             *extra, "--out", "runs", "--run-id", "r"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == EXIT_INPUT, out.stderr
        assert f"input violation: {fifo} [(file)]: not a regular file" in out.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    @pytest.mark.parametrize("argv", [
        ["map", "--fixtures", "--examples", os.devnull],
        ["autonomy", "--workflows", os.devnull],
        ["report", "--fixtures", "--occupations", os.devnull],
    ])
    def test_device_exits_input(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "runs")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input violation: {os.devnull} [(file)]: not a regular file\n")
        assert not (tmp_path / "runs").exists()

    def test_directory_exits_input(self, tmp_path, capsys):
        code = main(["autonomy", "--workflows", str(tmp_path), "--out", str(tmp_path / "runs")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input violation: {tmp_path} [(file)]: not a regular file\n")
        assert not (tmp_path / "runs").exists()


class TestParameterRanges:
    """Out-of-range parameters are configuration errors caught before any
    run directory exists."""

    @pytest.fixture
    def mappings(self, tmp_path, domain_results, skill_results):
        from workatlas.io import write_mappings

        path = tmp_path / "mappings.jsonl"
        write_mappings(path, list(domain_results) + list(skill_results))
        return str(path)

    @pytest.mark.parametrize("flag, value, command", [
        ("--batch-size", "0", "sample"),
        ("--delta", "0", "sample"),
        ("--permutations", "0", "sample"),
        ("--threshold", "2", "autonomy"),
        ("--min-samples", "0", "autonomy"),
        ("--parallelism", "0", "map"),
        ("--complexity", "0", "advise"),
    ])
    def test_out_of_range_exits_config_without_run_dir(self, tmp_path, capsys, mappings,
                                                       flag, value, command):
        argv = [command, "--fixtures", flag, value, "--out", str(tmp_path / "runs")]
        if command == "sample":
            argv += ["--mappings", mappings]
        assert main(argv) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key", ["threshold", "seed"])
    def test_config_file_value_checked(self, tmp_path, capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "abc"}), encoding="utf-8")
        code = main(["autonomy", "--fixtures", "--config", str(config),
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_CONFIG
        assert f"--{key} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, key, value, message", [
        ("sample", "permutations", 2.7, "--permutations must be an integer, got 2.7"),
        ("sample", "delta", float("inf"), "--delta must be a finite number, got inf"),
        ("autonomy", "seed", True, "--seed must be an integer, got True"),
        ("autonomy", "confidence_mode", "bogus",
         "--confidence-mode must be raw or lcb, got 'bogus'"),
        ("autonomy", "out", 5, "--out must be a string, got 5"),
        ("advise", "complexity", "two", "--complexity must be a number, got 'two'"),
    ])
    def test_config_file_value_checked_as_its_flag(self, tmp_path, monkeypatch, capsys,
                                                   command, key, value, message):
        # run from tmp_path so that a run directory under any --out would show
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert main([command, "--fixtures", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("config", [{"permutaions": 3}, {"group-bye": "agent", "seed": 1}])
    def test_unknown_config_key_exits_before_reading_inputs(self, tmp_path, monkeypatch,
                                                            capsys, config):
        monkeypatch.chdir(tmp_path)
        read = []
        monkeypatch.setattr(cli, "validate_inputs", read.append)
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["sample", "--fixtures", "--config", "config.json"]) == EXIT_CONFIG
        unknown = next(iter(config))
        assert capsys.readouterr().err == (
            f"config error: config file keys that no subcommand takes: {unknown!r}\n")
        assert read == []
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_key_of_another_subcommand_is_allowed(self, tmp_path, capsys):
        # autonomy takes no --permutations; sample does, so a shared file may hold it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"permutations": 3, "group-by": "agent"}),
                          encoding="utf-8")
        code = main(["autonomy", "--fixtures", "--config", str(config),
                     "--out", str(tmp_path), "--run-id", "a"])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["config"]["group_by"] == "agent"
        assert "permutations" not in manifest["config"]

    def test_undeclared_parameter_not_checked(self, tmp_path, capsys):
        # map takes no --threshold, so a shared config's value is not its concern
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": 2}), encoding="utf-8")
        code = main(["map", "--fixtures", "--config", str(config),
                     "--out", str(tmp_path), "--run-id", "m"])
        assert code == EXIT_OK


    @pytest.mark.parametrize("argv, config, message", [
        (["autonomy", "--fixtures", "--group-by", "bogus"], None,
         "--group-by must be overall, benchmark, agent or model, got 'bogus'"),
        (["autonomy", "--fixtures"], {"group_by": 5}, "--group-by must be a string, got 5"),
        (["advise", "--fixtures", "--complexity", "2"], {"instruction": 5},
         "--instruction must be a string, got 5"),
        (["map", "--fixtures"], {"annotator": "bogus"},
         "--annotator must be keyword, replay or remote, got 'bogus'"),
        (["map", "--fixtures", "--annotator", "bogus"], None,
         "--annotator must be keyword, replay or remote, got 'bogus'"),
        (["sample", "--fixtures", "--seed", "abc"], None, "--seed must be a number, got 'abc'"),
        (["autonomy"], {"fixtures": "yes"}, "--fixtures must be a boolean, got 'yes'"),
    ])
    def test_bad_value_exits_config_before_reading_inputs(self, tmp_path, monkeypatch, capsys,
                                                          argv, config, message):
        # run from tmp_path so that a run directory under the default --out would show
        monkeypatch.chdir(tmp_path)
        read = []
        monkeypatch.setattr(cli, "validate_inputs", read.append)
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", "config.json"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert read == []
        assert [p.name for p in tmp_path.iterdir()] == (["config.json"] if config else [])

    @pytest.mark.parametrize("run_id", ["../escape", "a/b", "..", ".", "", "/abs", "a\0b"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_run_id_must_be_one_path_component(self, tmp_path, monkeypatch, capsys,
                                               run_id, via_config):
        # run from tmp_path so that a run directory outside --out would show
        monkeypatch.chdir(tmp_path)
        read = []
        monkeypatch.setattr(cli, "validate_inputs", read.append)
        argv = ["autonomy", "--fixtures", "--out", "ro"]
        if via_config:
            (tmp_path / "config.json").write_text(json.dumps({"run-id": run_id}),
                                                  encoding="utf-8")
            argv += ["--config", "config.json"]
        else:
            argv += ["--run-id", run_id]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --run-id must be one path component: not empty, '.' or '..', "
            f"and without '/' or NUL, got {run_id!r}\n")
        assert read == []
        assert [p.name for p in tmp_path.iterdir()] == (["config.json"] if via_config else [])


#: A valid value of each parameter that names no file, as a flag's text and
#: as a config-file value (``None``: a flag that takes no value).
VALID_VALUES = {
    "out": ("elsewhere", "elsewhere"),
    "run_id": ("r7", "r7"),
    "seed": ("7", 7),
    "fixtures": (None, True),
    "annotator": ("replay", "replay"),
    "parallelism": ("3", 3),
    "batch_size": ("4", 4),
    "delta": ("0.25", 0.25),
    "permutations": ("9", 9),
    "threshold": ("0.5", 0.5),
    "min_samples": ("2", 2),
    "confidence_mode": ("lcb", "lcb"),
    "group_by": ("agent", "agent"),
    "instruction": ("write a parser", "write a parser"),
    "benchmark": ("codebench", "codebench"),
    "example_id": ("e9", "e9"),
    "complexity": ("3", 3),
    "groups": ("codebench,deskbench", "codebench,deskbench"),
}


class TestOneCheckPath:
    """A flag and a config-file entry reach the merged configuration alike."""

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_flag_and_config_entry_merge_alike(self, tmp_path, command):
        keys = [key for key in cli._COMMANDS[command][1] if not cli._PARAMS[key].input]
        assert keys
        for key in keys:
            text, value = VALID_VALUES[key]
            flag = "--" + key.replace("_", "-")
            by_flag = cli._merge_config(cli._parser().parse_args(
                [command, flag] if text is None else [command, flag, text]))
            config = tmp_path / f"{key}.json"
            config.write_text(json.dumps({key: value}), encoding="utf-8")
            by_file = cli._merge_config(cli._parser().parse_args(
                [command, "--config", str(config)]))
            assert by_flag.values == by_file.values, key
            assert by_flag.values[key] == value, key


class TestAtomicBundles:
    """A run writes into ``<run_id>.partial`` and renames it once sealed."""

    def test_annotator_abort_leaves_only_partial(self, tmp_path, monkeypatch, capsys):
        from workatlas.annotate import AnnotatorTransportError, KeywordAnnotator

        annotate = KeywordAnnotator.annotate
        calls = []

        def failing(self, instruction, taxonomy_text):
            calls.append(instruction)
            if len(calls) > 5:
                raise AnnotatorTransportError("endpoint gone", 3)
            return annotate(self, instruction, taxonomy_text)

        monkeypatch.setattr(KeywordAnnotator, "annotate", failing)
        code = main(["map", "--fixtures", "--out", str(tmp_path), "--run-id", "m"])
        assert code == EXIT_ANNOTATOR
        assert [p.name for p in tmp_path.iterdir()] == ["m.partial"]
        partial = tmp_path / "m.partial"
        assert [p.name for p in partial.iterdir()] == ["mappings.partial.jsonl"]
        assert len((partial / "mappings.partial.jsonl").read_text().splitlines()) == 5

    def test_failing_emitter_leaves_partial_without_manifest(self, tmp_path, monkeypatch,
                                                             capsys):
        def broken(bundle, summaries):
            raise RuntimeError("emitter broke")

        monkeypatch.setattr(cli, "emit_sensitivity", broken)
        code = main(["report", *fixture_args(), "--permutations", "20",
                     "--out", str(tmp_path), "--run-id", "r"])
        assert code == EXIT_INTERNAL
        assert [p.name for p in tmp_path.iterdir()] == ["r.partial"]
        partial = tmp_path / "r.partial"
        assert (partial / "mappings.jsonl").exists()
        assert (partial / "tables" / "coverage_domain.csv").exists()
        assert not (partial / "manifest.json").exists()

    def test_successful_run_leaves_no_partial(self, tmp_path, capsys):
        assert main(["autonomy", "--fixtures", "--out", str(tmp_path)]) == EXIT_OK
        (run_dir,) = tmp_path.iterdir()
        assert not run_dir.name.endswith(".partial")
        assert (run_dir / "manifest.json").exists()
        assert capsys.readouterr().out == f"autonomy tables -> {run_dir}\n"

    def test_existing_partial_directory_is_config_error(self, tmp_path, capsys):
        partial = tmp_path / "r.partial"
        partial.mkdir()
        code = main(["autonomy", "--fixtures", "--out", str(tmp_path), "--run-id", "r"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: run directory already exists: {partial}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["r.partial"]

    def test_timestamped_run_skips_taken_names(self, tmp_path, monkeypatch):
        from workatlas import reporting

        monkeypatch.setattr(reporting.time, "strftime", lambda fmt, t: "stamp")
        (tmp_path / "stamp.partial").mkdir()
        (tmp_path / "stamp-2").mkdir()
        bundle = reporting.ReportBundle.create(tmp_path)
        assert bundle.run_dir == tmp_path / "stamp-3.partial"
        bundle.finalize()
        assert bundle.run_dir == tmp_path / "stamp-3"
        assert (bundle.run_dir / "manifest.json").exists()
        assert not (tmp_path / "stamp-3.partial").exists()


class TestReplayCoverage:
    def test_recording_missing_an_example_is_input_error(self, tmp_path, capsys):
        assert main(["map", "--fixtures", "--out", str(tmp_path), "--run-id", "m"]) == EXIT_OK
        lines = (tmp_path / "m" / "mappings.jsonl").read_text(encoding="utf-8").splitlines(True)
        dropped = [json.loads(line) for line in lines[5:7]]
        recording = tmp_path / "recording.jsonl"
        recording.write_text("".join(lines[:5] + lines[7:]), encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["map", "--fixtures", "--annotator", "replay",
                     "--replay-mappings", str(recording), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(dropped)
        for line, record in zip(err, dropped):
            assert line.startswith(f"input violation: {recording} ")
            assert f"[{record['benchmark']}/{record['example_id']}]" in line
            assert f"no recorded {record['taxonomy_kind']} output" in line
        assert not out.exists()

    @pytest.mark.parametrize("task, code", [
        ([], EXIT_INPUT),
        (["--benchmark", "deskbench", "--example-id", "d01"], EXIT_OK),
    ])
    def test_advise_recording_must_hold_the_task(self, tmp_path, capsys, task, code):
        assert main(["map", "--fixtures", "--out", str(tmp_path), "--run-id", "m"]) == EXIT_OK
        recording = tmp_path / "m" / "mappings.jsonl"
        capsys.readouterr()
        out = tmp_path / "runs"
        assert main(["advise", "--fixtures", "--annotator", "replay",
                     "--replay-mappings", str(recording), "--curves", str(family_curves(tmp_path)),
                     "--instruction", D01_INSTRUCTION, "--complexity", "1", "--min-samples", "1",
                     *task, "--out", str(out), "--run-id", "adv"]) == code
        if code == EXIT_INPUT:
            assert capsys.readouterr().err == (
                f"input violation: {recording} [adhoc/query]: "
                "no recorded domain output for this example\n")
            assert not out.exists()
        else:
            record = json.loads((out / "adv" / "advice.json").read_text(encoding="utf-8"))
            assert record["matched_groups"] == [D01_FAMILY]

    @pytest.mark.parametrize("differ", [False, True])
    def test_shared_instruction_needs_equal_recorded_outputs(self, tmp_path, capsys, differ):
        examples = tmp_path / "examples.jsonl"
        examples.write_text("".join(
            json.dumps({"benchmark": "deskbench", "example_id": i,
                        "instruction": D01_INSTRUCTION}) + "\n"
            for i in ("d01", "d02")), encoding="utf-8")
        assert main(["map", "--fixtures", "--examples", str(examples),
                     "--out", str(tmp_path), "--run-id", "m"]) == EXIT_OK
        records = [json.loads(line) for line in
                   (tmp_path / "m" / "mappings.jsonl").read_text(encoding="utf-8").splitlines()]
        if differ:
            for r in records:
                if (r["example_id"], r["taxonomy_kind"]) == ("d02", "domain"):
                    r["raw"], r["paths"] = "[]", []
        recording = tmp_path / "recording.jsonl"
        recording.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "runs"
        code = main(["map", "--fixtures", "--examples", str(examples), "--annotator", "replay",
                     "--replay-mappings", str(recording), "--out", str(out), "--run-id", "r"])
        if differ:
            assert code == EXIT_INPUT
            assert capsys.readouterr().err == (
                f"input violation: {recording} [deskbench/d02]: recorded domain output differs "
                "from that of deskbench/d01, which has the same instruction\n")
            assert not out.exists()
        else:
            assert code == EXIT_OK
            replayed = (out / "r" / "mappings.jsonl").read_text(encoding="utf-8").splitlines()
            assert [json.loads(line)["paths"] for line in replayed] == [
                r["paths"] for r in records]
            assert records[0]["paths"]

    @pytest.mark.parametrize("differ", [False, True])
    def test_repeated_record_needs_equal_output(self, tmp_path, capsys, differ):
        assert main(["map", "--fixtures", "--out", str(tmp_path), "--run-id", "m"]) == EXIT_OK
        lines = (tmp_path / "m" / "mappings.jsonl").read_text(encoding="utf-8").splitlines(True)
        repeat = json.loads(lines[0])
        assert (repeat["example_id"], repeat["taxonomy_kind"]) == ("d01", "domain")
        if differ:
            repeat["raw"], repeat["paths"] = "[]", []
        recording = tmp_path / "recording.jsonl"
        recording.write_text("".join(lines) + json.dumps(repeat) + "\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "runs"
        code = main(["map", "--fixtures", "--annotator", "replay",
                     "--replay-mappings", str(recording), "--out", str(out), "--run-id", "r"])
        if differ:
            assert code == EXIT_INPUT
            assert capsys.readouterr().err == (
                f"input violation: {recording} [deskbench/d01]: "
                "repeated domain record with a different output\n")
            assert not out.exists()
        else:
            assert code == EXIT_OK
            replayed = (out / "r" / "mappings.jsonl").read_text(encoding="utf-8").splitlines()
            assert [json.loads(line)["paths"] for line in replayed] == [
                json.loads(line)["paths"] for line in lines]

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_replayed_report_reproduces_its_recording(self, tmp_path, capsys, parallelism):
        args = ["report", *fixture_args(), "--permutations", "100", "--out", str(tmp_path)]
        assert main([*args, "--run-id", "k"]) == EXIT_OK
        recorded = tmp_path / "k"
        assert main([*args, "--run-id", "r", "--annotator", "replay",
                     "--replay-mappings", str(recorded / "mappings.jsonl"),
                     "--parallelism", parallelism]) == EXIT_OK
        replayed = tmp_path / "r"

        def outputs(run_dir):
            return sorted(p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*")
                          if p.is_file() and p.name not in ("manifest.json", "mappings.jsonl"))

        assert outputs(replayed) == outputs(recorded)
        assert len(outputs(recorded)) == 22  # 21 tables and plots, and the coverage summary
        for name in outputs(recorded):
            assert (replayed / name).read_bytes() == (recorded / name).read_bytes(), name

        def records(run_dir):
            lines = (run_dir / "mappings.jsonl").read_text(encoding="utf-8").splitlines()
            return [json.loads(line) for line in lines]

        served, kept = records(replayed), records(recorded)
        assert {r.pop("annotator_id") for r in served} == {"replay:domain", "replay:skill"}
        assert {r.pop("annotator_id") for r in kept} == {"keyword:keyword_rules_domain",
                                                          "keyword:keyword_rules_skill"}
        assert served == kept

    def test_complete_recording_replays(self, tmp_path, capsys):
        assert main(["map", "--fixtures", "--out", str(tmp_path), "--run-id", "m"]) == EXIT_OK
        recording = tmp_path / "m" / "mappings.jsonl"
        code = main(["map", "--fixtures", "--annotator", "replay",
                     "--replay-mappings", str(recording), "--out", str(tmp_path),
                     "--run-id", "r"])
        assert code == EXIT_OK


class TestValidateInputs:
    def base_config(self, **overrides):
        values = {
            "examples": str(fixture_path("examples.jsonl")),
            "domain_taxonomy": str(fixture_path("taxonomy_domain.json")),
            "skill_taxonomy": str(fixture_path("taxonomy_skill.json")),
            "occupations": str(fixture_path("occupations.csv")),
            "importance": str(fixture_path("importance.csv")),
            "digital_labels": str(fixture_path("digital_labels.csv")),
            "workflows": str(fixture_path("workflows.jsonl")),
        }
        values.update(overrides)
        return RunConfig(command="report", values=values)

    def test_consistent_fixture_set_is_clean(self):
        report = validate_inputs(self.base_config())
        assert report.ok
        assert report.violations == []

    def test_unknown_activity_id_named(self, tmp_path):
        bad = tmp_path / "importance.csv"
        bad.write_text(
            "# scale_max: 5.0\nsoc_code,activity_id,importance\n13-2011,9.Z.9,4.0\n",
            encoding="utf-8",
        )
        report = validate_inputs(self.base_config(importance=str(bad)))
        assert not report.ok
        assert any("9.Z.9" in v.where and "activity_id" in v.reason
                   for v in report.violations)

    def test_corrupt_mapping_row_named(self, tmp_path, domain_results):
        from workatlas.io import write_mappings

        good = tmp_path / "mappings.jsonl"
        write_mappings(good, domain_results)
        lines = good.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["paths"] = [["Ghost", "Path", "Here"]]
        record["example_id"] = "corrupt-1"
        lines.insert(3, json.dumps(record))
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = validate_inputs(self.base_config(mappings=str(bad)))
        assert any("corrupt-1" in v.reason for v in report.violations)

    def test_empty_instruction_flagged(self, tmp_path):
        bad = tmp_path / "examples.jsonl"
        bad.write_text(
            '{"benchmark": "b", "example_id": "e1", "instruction": "  "}\n',
            encoding="utf-8",
        )
        report = validate_inputs(self.base_config(examples=str(bad)))
        assert any("empty instruction" in v.reason for v in report.violations)


class TestReportDeterminism:
    def test_two_seeded_runs_byte_identical(self, tmp_path, capsys):
        for run_id in ("r1", "r2"):
            code = main([
                "report", *fixture_args(), "--permutations", "100",
                "--out", str(tmp_path), "--run-id", run_id,
            ])
            assert code == EXIT_OK
        tables1 = sorted((tmp_path / "r1" / "tables").iterdir())
        tables2 = sorted((tmp_path / "r2" / "tables").iterdir())
        assert [p.name for p in tables1] == [p.name for p in tables2]
        for a, b in zip(tables1, tables2):
            assert a.read_bytes() == b.read_bytes(), a.name
        manifest1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        manifest2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        for key in ("tool", "config", "inputs", "outputs"):
            assert manifest1[key] == manifest2[key]

    def test_outputs_do_not_depend_on_input_directory(self, tmp_path, capsys):
        import shutil

        produced = []
        for where in ("one", "two/deeper"):
            examples = tmp_path / where / "examples.jsonl"
            examples.parent.mkdir(parents=True)
            shutil.copy(fixture_path("examples.jsonl"), examples)
            code = main(["report", *fixture_args(), "--permutations", "20",
                         "--examples", str(examples), "--out", str(tmp_path / where),
                         "--run-id", "r"])
            assert code == EXIT_OK
            run_dir = tmp_path / where / "r"
            produced.append({
                p.relative_to(run_dir).as_posix(): p.read_bytes()
                for p in run_dir.rglob("*") if p.is_file() and p.name != "manifest.json"
            })
        assert "coverage_summary.json" in produced[0] and "mappings.jsonl" in produced[0]
        assert produced[0] == produced[1]

    def test_manifest_lists_every_output_with_digest(self, tmp_path, capsys):
        main(["report", *fixture_args(), "--permutations", "50",
              "--out", str(tmp_path), "--run-id", "r"])
        run_dir = tmp_path / "r"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        emitted = {
            str(p.relative_to(run_dir))
            for p in run_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(manifest["outputs"]) == emitted
        assert manifest["config"]["seed"] == 42

    def test_config_file_mirrors_flags(self, tmp_path, capsys):
        config = {
            "examples": str(fixture_path("examples.jsonl")),
            "domain_taxonomy": str(fixture_path("taxonomy_domain.json")),
            "skill_taxonomy": str(fixture_path("taxonomy_skill.json")),
            "domain_rules": str(fixture_path("keyword_rules_domain.json")),
            "skill_rules": str(fixture_path("keyword_rules_skill.json")),
            "seed": 7,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["map", "--config", str(config_path),
                     "--out", str(tmp_path), "--run-id", "viacfg"])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "viacfg" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7


class TestPinnedFixtureOutputs:
    """SHA-256 of every seeded ``report --fixtures`` output.

    A change that alters seeded output on purpose updates these digests.
    """

    PINNED = {
        "mappings.jsonl": "a0831f34d409678d5acba938f8d32278e544855847a9b4cd19a24f8eee946436",
        "plots/autonomy_heatmap.json": "587564b10ea6194cd701bcaad6d1deabe1b2beed746e050c14ebe4106d48fa6d",
        "plots/effort_vs_employment.json": "988d0e743efa9c2ec3a5f1e3818485bcd820fcfe02694234c40b6f24dd56f3a3",
        "plots/skill_distribution.json": "7e271c6ff3d53e7c9b67bdb74f1da2516fc52a39f5654ae48fdcc08a1455e98c",
        "tables/alignment_domain_family.csv": "a29f13ab5b1326c3edc1aabbeecad8e58f9f2a1bd91c4e9bf875369757cef049",
        "tables/alignment_skill_leaf.csv": "d59edae3e2b32533f6202507aa1586d1ab701e14fd1a423d6e923c316d890554",
        "tables/autonomy_curves.csv": "c81872c058a97d630b903510605cb6aa979b8c5fcf8bb404541b131565bf27d9",
        "tables/autonomy_levels.csv": "1b9429e409bb1a920936010f60346cc7b3e508866c3ca6217f735a084e46fa4a",
        "tables/breadth_domain_family.csv": "3e9499e127d1bf467edf57664fb4a59697713b61c8fce9b1b2bae4f18c70d369",
        "tables/breadth_domain_family_summary.csv": "4c172f8e4a628ec24cfd675766737aded6fcd835ecd3b1f2710d55f8e3b6a36b",
        "tables/breadth_skill_leaf.csv": "3a08eaee8e8dfa07ae1f26831402cc5a46743a3c9e6c36f5921df4b5aaabd500",
        "tables/breadth_skill_leaf_summary.csv": "349ca71710c543327fe70a61c9f5a993eca611706a7a783e6b9c593a6152949b",
        "tables/coverage_domain.csv": "60b8a5e27767bfe3861901e420329c9f16e896cbf51f6fad9354562a7bef4052",
        "tables/coverage_skill.csv": "bb980175ccea8c14c46e56055fabfaf1818cc1c01a2f0f05eb64a0325d70532c",
        "tables/digital_families.csv": "a6e0aedc968375ae706be803c0ee877d99b217cf4903056fc8eddbfa39306420",
        "tables/digital_occupations.csv": "b7ce3791a071d6d9df96d8e801576f5bc8777611f435e828b681c0b1b8e97afb",
        "tables/effort_domain_family.csv": "ca436995670065a64960e4f44f4560f35fe789a6a1ebe851dbaa84dc32cd18b1",
        "tables/effort_skill_leaf.csv": "2c73e5c81699ccef7d1130ac7d210eb2d84347e3736708f56049297bde04f65b",
        "tables/family_economics.csv": "adadfb65bda8f63aa27aff380d4e1cd70838e4945cee29459606cd0f2f24aa39",
        "tables/mapping_outcomes.csv": "0d09542478a5d3972965cab5f907d2eed42635ece9430beff9e47b44a4cd7e0a",
        "tables/sampling_sensitivity.csv": "eb59e1f9b7063d50a3f1048ec03db3d33f452c03a908e5d4f929ce2d217f43de",
        "tables/skill_economics.csv": "bb8dbeb6e8c2c6bf04b3a6411fb05a414a943f1335a0c7511b68d0699eca9a3c",
    }

    def test_report_fixture_outputs_match_pinned_digests(self, tmp_path, capsys):
        import hashlib

        code = main([
            "report", *fixture_args(), "--permutations", "100",
            "--out", str(tmp_path), "--run-id", "pin",
        ])
        assert code == EXIT_OK
        run_dir = tmp_path / "pin"
        produced = {
            p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_dir.rglob("*")
            if p.is_file() and (p.parent.name in ("tables", "plots") or p.name == "mappings.jsonl")
        }
        assert produced == self.PINNED


def test_perfbench_tracer_finds_every_name():
    """The benchmark's tracer rebinds package functions by name; a rename it
    does not follow fails here rather than only in a traced benchmark run."""
    root = Path(__file__).resolve().parents[1]
    code = "import spans; spans.install(spans.SpanRecorder('t'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=root / "perfbench",
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert out.returncode == 0, out.stderr


def test_import_loads_no_http_stack_or_thread_pool():
    """Only ``--annotator remote`` needs the HTTP stack and only
    ``--parallelism > 1`` the thread pool; importing the CLI loads neither.
    Compared with a bare interpreter, since ``site`` may load some of them."""
    root = Path(__file__).resolve().parents[1]
    deferred = ("urllib.request", "http.client", "ssl", "email", "concurrent.futures")
    code = ("import sys; {}; "
            "print(','.join(m for m in {!r} if m in sys.modules))")

    def loaded(statement: str) -> set[str]:
        out = subprocess.run([sys.executable, "-c", code.format(statement, deferred)],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(root / "src")})
        return set(filter(None, out.stdout.strip().split(",")))

    assert loaded("import workatlas.cli") - loaded("pass") == set()
