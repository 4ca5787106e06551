import random
import threading
import time
from collections import Counter

import pytest

from workatlas.annotate import AnnotatorTransportError
from workatlas.mapping import (
    POOLED,
    CorpusError,
    CorpusMappingAborted,
    MappingResult,
    MappingStatus,
    RubricVerdict,
    TaskExample,
    Verdict,
    agreement_rate,
    iter_map_corpus,
    map_corpus,
    map_example,
    mapping_outcome_stats,
    score_against_reference,
)
from workatlas.taxonomy import resolve_path

from conftest import synthetic_result, synthetic_taxonomy


def example(instruction, eid="e1", benchmark="bench"):
    return TaskExample(benchmark=benchmark, example_id=eid, instruction=instruction)


class _StaticAnnotator:
    def __init__(self, raw, annotator_id="static"):
        self.raw = raw
        self.annotator_id = annotator_id

    def annotate(self, instruction, taxonomy_text):
        return self.raw


class TestMapExample:
    def test_zero_candidates_is_empty(self, domain_taxonomy):
        result = map_example(example("whatever"), domain_taxonomy, _StaticAnnotator("[]"))
        assert result.status is MappingStatus.EMPTY
        assert result.paths == frozenset()

    def test_mixed_candidates_keep_resolvable_subset(self, domain_taxonomy):
        raw = (
            '[["Business and Financial Operations", "Accountants", '
            '"prepare adjusting journal entries"], ["No Such Family", "X", "Y"]]'
        )
        result = map_example(example("t"), domain_taxonomy, _StaticAnnotator(raw))
        assert result.status is MappingStatus.MAPPED
        assert len(result.paths) == 1

    def test_all_unresolvable_is_invalid(self, domain_taxonomy):
        result = map_example(
            example("t"), domain_taxonomy, _StaticAnnotator('[["Nope", "Nope", "Nope"]]')
        )
        assert result.status is MappingStatus.INVALID
        assert result.paths == frozenset()

    def test_partial_path_counts_as_unresolvable(self, domain_taxonomy):
        raw = '[["Business and Financial Operations", "Accountants"]]'
        result = map_example(example("t"), domain_taxonomy, _StaticAnnotator(raw))
        assert result.status is MappingStatus.INVALID

    def test_duplicate_candidates_deduplicated(self, domain_taxonomy):
        seq = '["Business and Financial Operations", "Accountants", "prepare adjusting journal entries"]'
        result = map_example(
            example("t"), domain_taxonomy, _StaticAnnotator(f"[{seq}, {seq}]")
        )
        assert len(result.paths) == 1

    def test_raw_output_retained_verbatim(self, domain_taxonomy):
        raw = "free-form prose the model produced"
        result = map_example(example("t"), domain_taxonomy, _StaticAnnotator(raw))
        assert result.raw_annotator_output == raw
        assert result.annotator_id == "static"

    def test_status_paths_invariant_enforced(self, domain_taxonomy):
        path = next(iter(domain_taxonomy.path_index))
        with pytest.raises(ValueError, match="inconsistent"):
            MappingResult(
                benchmark="b", example_id="e", taxonomy_kind=domain_taxonomy.kind,
                paths=frozenset([path]), status=MappingStatus.EMPTY,
                raw_annotator_output="", annotator_id="x",
            )


class TestMapCorpus:
    def test_fixture_outcome_counts(self, domain_results):
        counts = Counter(r.status for r in domain_results)
        assert counts[MappingStatus.MAPPED] == 17
        assert counts[MappingStatus.EMPTY] == 2
        assert counts[MappingStatus.INVALID] == 1

    def test_result_order_matches_input_order(self, examples_corpus, domain_taxonomy,
                                              domain_annotator):
        results = map_corpus(examples_corpus, domain_taxonomy, domain_annotator)
        assert [r.key for r in results] == [e.key for e in examples_corpus]

    def test_parallelism_does_not_change_results(self, examples_corpus, domain_taxonomy,
                                                 domain_annotator):
        serial = map_corpus(examples_corpus, domain_taxonomy, domain_annotator, parallelism=1)
        parallel = map_corpus(examples_corpus, domain_taxonomy, domain_annotator, parallelism=4)
        assert serial == parallel

    def test_shuffled_corpus_same_results_after_sorting(self, examples_corpus,
                                                        domain_taxonomy, domain_annotator):
        shuffled = list(examples_corpus)
        random.Random(3).shuffle(shuffled)
        results = map_corpus(shuffled, domain_taxonomy, domain_annotator)
        baseline = map_corpus(examples_corpus, domain_taxonomy, domain_annotator)
        assert sorted(results, key=lambda r: r.key) == sorted(baseline, key=lambda r: r.key)

    def test_empty_instruction_rejected_at_ingest(self, domain_taxonomy, domain_annotator):
        corpus = [example(f"Reconcile batch {i}", eid=f"e{i}") for i in range(9)]
        corpus.insert(4, example("   ", eid="bad"))
        results = map_corpus(corpus, domain_taxonomy, domain_annotator)
        assert len(results) == 9
        assert all(r.example_id != "bad" for r in results)

    def test_duplicate_keys_raise(self, domain_taxonomy, domain_annotator):
        corpus = [example("a task", eid="dup"), example("another task", eid="dup")]
        with pytest.raises(CorpusError, match="duplicate"):
            map_corpus(corpus, domain_taxonomy, domain_annotator)

    def test_bad_parallelism(self, domain_taxonomy, domain_annotator):
        with pytest.raises(ValueError, match="parallelism"):
            map_corpus([], domain_taxonomy, domain_annotator, parallelism=0)

    def test_transport_abort_carries_partial_results(self, domain_taxonomy):
        class Flaky:
            annotator_id = "flaky"

            def __init__(self):
                self.calls = 0

            def annotate(self, instruction, taxonomy_text):
                self.calls += 1
                if self.calls > 3:
                    raise AnnotatorTransportError("down", attempts=3)
                return "[]"

        corpus = [example(f"task {i}", eid=f"e{i}") for i in range(6)]
        with pytest.raises(CorpusMappingAborted) as excinfo:
            map_corpus(corpus, domain_taxonomy, Flaky())
        assert len(excinfo.value.partial_results) == 3

    def test_parallel_abort_cancels_pending_examples(self, domain_taxonomy):
        class FailsOnce:
            annotator_id = "fails-once"

            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def annotate(self, instruction, taxonomy_text):
                with self._lock:
                    self.calls += 1
                time.sleep(0.01)
                if instruction == "task 4":
                    raise AnnotatorTransportError("down", attempts=3)
                return "[]"

        annotator = FailsOnce()
        corpus = [example(f"task {i}", eid=f"e{i}") for i in range(60)]
        with pytest.raises(CorpusMappingAborted) as excinfo:
            map_corpus(corpus, domain_taxonomy, annotator, parallelism=2)
        assert annotator.calls < len(corpus)
        partial = excinfo.value.partial_results
        # every call but the failing one completed and is carried, in input order
        assert len(partial) == annotator.calls - 1
        ids = [r.example_id for r in partial]
        assert "e4" not in ids
        assert ids == sorted(ids, key=lambda eid: int(eid[1:]))

    def test_iterator_yields_in_input_order_in_parallel(self, domain_taxonomy):
        class Jittery:
            """Later examples often finish first."""

            annotator_id = "jittery"

            def annotate(self, instruction, taxonomy_text):
                time.sleep(random.Random(instruction).random() * 0.004)
                return f"[{_ACCOUNTANTS}]" if instruction.endswith("0") else "[]"

        corpus = [example(f"task {i}", eid=f"e{i}") for i in range(40)]
        expected = map_corpus(corpus, domain_taxonomy, Jittery())
        assert [r.example_id for r in expected] == [e.example_id for e in corpus]
        for parallelism in (2, 4):
            assert list(iter_map_corpus(corpus, domain_taxonomy, Jittery(),
                                        parallelism=parallelism)) == expected

    def test_iterator_closed_early_cancels_pending_examples(self, domain_taxonomy):
        class Counting:
            annotator_id = "counting"

            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def annotate(self, instruction, taxonomy_text):
                with self._lock:
                    self.calls += 1
                time.sleep(0.005)
                return "[]"

        annotator = Counting()
        corpus = [example(f"task {i}", eid=f"e{i}") for i in range(60)]
        results = iter_map_corpus(corpus, domain_taxonomy, annotator, parallelism=2)
        assert next(results).example_id == "e0"
        results.close()
        assert annotator.calls < len(corpus)

    def test_validation_soundness_of_persisted_paths(self, domain_results, domain_taxonomy):
        for result in domain_results:
            for path in result.paths:
                assert resolve_path(domain_taxonomy, path.labels) == path


_ACCOUNTANTS = '["Business and Financial Operations", "Accountants", ' \
               '"prepare adjusting journal entries"]'


class _InstructionAnnotator:
    """Returns the output recorded for each instruction."""

    annotator_id = "by-instruction"

    def __init__(self, outputs):
        self.outputs = outputs

    def annotate(self, instruction, taxonomy_text):
        return self.outputs[instruction]


class TestMapCorpusSharedOutcomes:
    """``map_corpus`` parses and resolves each distinct output once; its
    results must be those ``map_example`` gives one example at a time."""

    OUTPUTS = [
        f"[{_ACCOUNTANTS}]",  # mapped
        f'[{_ACCOUNTANTS}, ["No Such Family", "X", "Y"]]',  # mapped, one unresolvable
        "",  # empty
        "[]",  # empty
        '[["Nope", "Nope", "Nope"]]',  # invalid: resolves nowhere
        "[[1, 2], {}]",  # invalid: unparseable candidates
        "free-form prose the model produced",  # no candidates at all
    ]

    def corpus(self):
        rng = random.Random(11)
        outputs = {}
        corpus = []
        for i in range(60):
            instruction = f"task {i}"
            outputs[instruction] = rng.choice(self.OUTPUTS)
            corpus.append(example(instruction, eid=f"e{i}", benchmark=f"b{i % 3}"))
        return corpus, _InstructionAnnotator(outputs)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_equals_map_example_field_by_field(self, domain_taxonomy, parallelism):
        corpus, annotator = self.corpus()
        results = map_corpus(corpus, domain_taxonomy, annotator, parallelism=parallelism)
        expected = [map_example(e, domain_taxonomy, annotator) for e in corpus]
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            for name in MappingResult.__slots__:
                assert getattr(got, name) == getattr(want, name), name
        assert {r.status for r in results} == set(MappingStatus)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_equal_outputs_share_one_path_set(self, domain_taxonomy, parallelism):
        corpus, annotator = self.corpus()
        results = map_corpus(corpus, domain_taxonomy, annotator, parallelism=parallelism)
        by_raw = {}
        for r in results:
            by_raw.setdefault(r.raw_annotator_output, []).append(r)
        assert len(by_raw) == len(self.OUTPUTS)
        for same in by_raw.values():
            assert len(same) > 1
            assert all(r.paths is same[0].paths for r in same)

    def test_each_distinct_output_parsed_once(self, domain_taxonomy, monkeypatch):
        from workatlas import mapping

        parsed = Counter()
        parse = mapping.parse_candidates

        def counting(raw):
            parsed[raw] += 1
            return parse(raw)

        # rebound on the module, as a tracer does
        monkeypatch.setattr(mapping, "parse_candidates", counting)
        corpus, annotator = self.corpus()
        map_corpus(corpus, domain_taxonomy, annotator)
        assert parsed == Counter(self.OUTPUTS)


class TestOutcomeStats:
    def test_all_mapped(self, domain_taxonomy):
        results = [
            synthetic_result(synthetic_taxonomy(4), f"e{i}", [i]) for i in range(3)
        ]
        rows = mapping_outcome_stats(results)
        pooled = [r for r in rows if r.benchmark == POOLED][0]
        assert pooled.fractions == {"mapped": 1.0, "empty": 0.0, "invalid": 0.0}

    def test_eight_one_one(self):
        t = synthetic_taxonomy(10)
        results = [synthetic_result(t, f"m{i}", [i]) for i in range(8)]
        results.append(synthetic_result(t, "empty", []))
        invalid = MappingResult(
            benchmark="synth", example_id="inv", taxonomy_kind=t.kind,
            paths=frozenset(), status=MappingStatus.INVALID,
            raw_annotator_output="junk", annotator_id="synthetic",
        )
        results.append(invalid)
        pooled = [r for r in mapping_outcome_stats(results) if r.benchmark == POOLED][0]
        assert pooled.fractions == {"mapped": 0.8, "empty": 0.1, "invalid": 0.1}

    def test_fractions_sum_to_one_per_group(self, domain_results, skill_results):
        for row in mapping_outcome_stats(list(domain_results) + list(skill_results)):
            assert abs(sum(row.fractions.values()) - 1.0) < 1e-9

    def test_empty_input_empty_table(self):
        assert mapping_outcome_stats([]) == []

    def test_per_benchmark_rows(self, domain_results):
        rows = mapping_outcome_stats(domain_results)
        benchmarks = {r.benchmark for r in rows}
        assert benchmarks == {POOLED, "deskbench", "webbench", "codebench"}


def paths_from(taxonomy, *leaf_indices):
    return frozenset(taxonomy.path_for_leaf(f"leaf-{i}") for i in leaf_indices)


@pytest.fixture(scope="module")
def taxonomy():
    return synthetic_taxonomy(6)


class TestRubric:

    def test_equal_sets_all_correct(self, taxonomy):
        paths = paths_from(taxonomy, 0, 1)
        assert score_against_reference(paths, paths).verdict is Verdict.ALL_CORRECT

    def test_disjoint_all_wrong(self, taxonomy):
        verdict = score_against_reference(paths_from(taxonomy, 0), paths_from(taxonomy, 1))
        assert verdict.verdict is Verdict.ALL_WRONG

    def test_strict_subset_missing(self, taxonomy):
        verdict = score_against_reference(
            paths_from(taxonomy, 0), paths_from(taxonomy, 0, 1)
        )
        assert verdict.verdict is Verdict.MISSING

    def test_strict_superset_extra(self, taxonomy):
        verdict = score_against_reference(
            paths_from(taxonomy, 0, 1, 2), paths_from(taxonomy, 0, 1)
        )
        assert verdict.verdict is Verdict.EXTRA

    def test_empty_prediction_against_nonempty_is_missing(self, taxonomy):
        verdict = score_against_reference(frozenset(), paths_from(taxonomy, 0))
        assert verdict.verdict is Verdict.MISSING

    def test_both_empty_is_an_error(self):
        with pytest.raises(ValueError, match="nothing to judge"):
            score_against_reference(frozenset(), frozenset())

    def test_mixed_overlap_graded_extra_with_notes(self, taxonomy):
        verdict = score_against_reference(
            paths_from(taxonomy, 0, 1), paths_from(taxonomy, 1, 2)
        )
        assert verdict.verdict is Verdict.EXTRA
        assert "missing" in verdict.notes

    def test_swap_maps_missing_to_extra(self, taxonomy):
        small, big = paths_from(taxonomy, 0), paths_from(taxonomy, 0, 1)
        assert score_against_reference(small, big).verdict is Verdict.MISSING
        assert score_against_reference(big, small).verdict is Verdict.EXTRA


class TestAgreement:
    def test_identical_lists(self):
        verdicts = [RubricVerdict(Verdict.ALL_CORRECT)] * 5
        assert agreement_rate(verdicts, list(verdicts)) == 1.0

    def test_nine_of_ten(self):
        a = [RubricVerdict(Verdict.ALL_CORRECT)] * 10
        b = [RubricVerdict(Verdict.ALL_CORRECT)] * 9 + [RubricVerdict(Verdict.MISSING)]
        assert agreement_rate(a, b) == 0.9

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            agreement_rate([RubricVerdict(Verdict.ALL_CORRECT)], [])

    def test_notes_do_not_affect_agreement(self):
        a = [RubricVerdict(Verdict.EXTRA, notes="x")]
        b = [RubricVerdict(Verdict.EXTRA, notes="y")]
        assert agreement_rate(a, b) == 1.0
