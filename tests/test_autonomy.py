import json
import random

import pytest

from workatlas.autonomy import (
    AdviceDecision,
    AutonomyCurve,
    ConsultedValue,
    LevelStats,
    WorkflowNode,
    advise,
    autonomy_level,
    complexity,
    count_levels,
    iter_nodes,
    rates_from_counts,
    success_rates,
    validate_ordering,
    with_overall,
    workflow_from_document,
)
from workatlas.io import fixture_path, read_workflow_levels
from workatlas.mapping import TaskExample


def leaf(node_id, status=1, description="step"):
    return WorkflowNode(id=node_id, description=description, status=status)


def tree(node_id, children, status=1, description="goal"):
    return WorkflowNode(id=node_id, description=description, status=status,
                        children=tuple(children))


def leaf_count_oracle(root):
    """Independent complexity oracle: walk each node's subtree counting leaves."""
    counts = {}
    for node in iter_nodes(root):
        total = 0
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                total += 1
            stack.extend(current.children)
        counts[node.id] = total
    return counts


def random_tree(rng, max_nodes=500):
    """Random workflow tree with a hard node-count cap."""
    budget = [rng.randint(1, max_nodes)]
    counter = [0]

    def build(depth):
        counter[0] += 1
        budget[0] -= 1
        node_id = f"n{counter[0]}"
        status = rng.randint(0, 1)
        if depth >= 5 or budget[0] <= 0 or rng.random() < 0.35:
            return leaf(node_id, status=status)
        children = []
        for _ in range(rng.randint(1, 4)):
            if budget[0] <= 0:
                break
            children.append(build(depth + 1))
        if not children:
            return leaf(node_id, status=status)
        return tree(node_id, children, status=status)

    return build(0)


class TestComplexity:
    def test_single_leaf_is_one(self):
        assert complexity(leaf("only")) == {"only": 1}

    def test_balanced_binary_depth_two(self):
        root = tree("r", [
            tree("a", [leaf("a1"), leaf("a2")]),
            tree("b", [leaf("b1"), leaf("b2")]),
        ])
        assert complexity(root)["r"] == 4

    def test_chain_with_two_leaves(self):
        root = tree("r", [tree("a", [leaf("l1"), leaf("l2")])])
        values = complexity(root)
        assert values == {"r": 2, "a": 2, "l1": 1, "l2": 1}

    def test_additivity_against_oracle(self):
        rng = random.Random(2024)
        for _ in range(25):
            root = random_tree(rng)
            values = complexity(root)
            assert values == leaf_count_oracle(root)
            for node in iter_nodes(root):
                if not node.is_leaf:
                    assert values[node.id] == sum(values[c.id] for c in node.children)

    def test_leaves_fixed_at_build_match_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            root = random_tree(rng, max_nodes=rng.choice([1, 5, 50, 500]))
            oracle = leaf_count_oracle(root)
            assert {n.id: n.leaves for n in iter_nodes(root)} == oracle
            assert complexity(root) == oracle

    def test_empty_tree_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            complexity(None)

    def test_deep_chain_does_not_recurse(self):
        node = leaf("end")
        for i in range(5000):
            node = tree(f"c{i}", [node])
        values = complexity(node)
        assert values["end"] == 1
        assert values["c4999"] == 1  # a chain has a single granular step

    def test_status_must_be_binary(self):
        with pytest.raises(ValueError, match="status"):
            WorkflowNode(id="x", description="d", status=2)

    @pytest.mark.parametrize("status, stored", [(True, 1), (False, 0), (1.0, 1), (0.0, 0)])
    def test_status_is_stored_as_integer(self, status, stored):
        node = WorkflowNode(id="x", description="d", status=status)
        assert node.status == stored and type(node.status) is int


class TestWorkflowDocuments:
    def test_document_roundtrip(self, workflows):
        assert len(workflows) == 8
        assert workflows[0].metadata["benchmark"] == "codebench"
        assert workflows[0].metadata["trajectory_id"] == "traj-c1"

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="status"):
            workflow_from_document(
                {"benchmark": "b", "root": {"id": "r", "description": "d"}}
            )

    def test_duplicate_node_ids_rejected(self):
        doc = {
            "benchmark": "b",
            "root": {"id": "r", "description": "d", "status": 1,
                     "children": [
                         {"id": "x", "description": "d", "status": 1},
                         {"id": "x", "description": "d", "status": 1},
                     ]},
        }
        with pytest.raises(ValueError, match="not unique"):
            workflow_from_document(doc)


def recursive_build(doc):
    """Reference builder: each node's keys are checked on entry and the node
    is built after its children, recursively."""
    def build(node_doc, where):
        if not isinstance(node_doc, dict):
            raise ValueError(f"{where}: workflow node must be an object")
        for key in ("id", "description", "status"):
            if key not in node_doc:
                raise ValueError(f"{where}: workflow node missing {key!r}")
        child_docs = node_doc.get("children", [])
        if not isinstance(child_docs, list):
            raise ValueError(f"{where}: workflow node children must be an array")
        children = tuple(
            build(c, f"{where}.children[{i}]") for i, c in enumerate(child_docs)
        )
        return WorkflowNode(id=str(node_doc["id"]), description=node_doc["description"],
                            status=node_doc["status"], children=children)

    root = build(doc["root"], "root")
    root.metadata = {k: doc[k] for k in ("benchmark", "agent", "model", "trajectory_id")
                     if k in doc}
    seen = set()
    for node in iter_nodes(root):
        if node.id in seen:
            raise ValueError(f"workflow node id {node.id!r} is not unique")
        seen.add(node.id)
    return root


def random_document(rng, defect_rate, shape_defects=False):
    """A random trajectory document; some nodes lose a key, carry a bad
    status or repeat an id, each with probability ``defect_rate``. With
    ``shape_defects``, a node may also be a non-object or carry non-array
    children, each with the same probability."""
    counter = [0]

    def node(depth):
        counter[0] += 1
        if shape_defects and rng.random() < defect_rate:
            return rng.choice([1, "node", None, ["id"]])
        doc = {"id": f"n{counter[0]}" if rng.random() >= defect_rate else "dup",
               "description": f"step {counter[0]}",
               "status": rng.randint(0, 1) if rng.random() >= defect_rate else 2}
        if rng.random() < defect_rate:
            del doc[rng.choice(["id", "description", "status"])]
        if depth < 4 and rng.random() < 0.6:
            doc["children"] = [node(depth + 1) for _ in range(rng.randint(1, 3))]
        elif shape_defects and rng.random() < defect_rate:
            doc["children"] = rng.choice([7, "abc", {"id": "x"}, None, True])
        return doc

    return {"benchmark": "b", "trajectory_id": "t", "root": node(0)}


def outcome(build, doc):
    try:
        return build(doc)
    except ValueError as err:
        return str(err)


class TestIterativeBuild:
    def test_matches_recursive_reference(self):
        rng = random.Random(7)
        errors = set()
        for defect_rate, shape_defects in ((0.0, False), (0.02, False), (0.1, False),
                                           (0.02, True), (0.1, True)):
            for _ in range(150):
                doc = random_document(rng, defect_rate, shape_defects)
                result = outcome(workflow_from_document, doc)
                assert result == outcome(recursive_build, doc)
                if isinstance(result, str):
                    errors.add(result)
        for reason in ("must be an object", "children must be an array", "missing 'id'",
                       "is not unique", "status must be 0 or 1, got 2"):
            assert any(reason in error for error in errors), reason  # every defect occurs

    def test_duplicate_reported_after_later_errors(self):
        doc = {"root": {"id": "r", "description": "d", "status": 1, "children": [
            {"id": "a", "description": "d", "status": 1},
            {"id": "a", "description": "d", "status": 1},
            {"id": "b", "description": "d", "status": 1},
            {"id": "b", "description": "d", "status": 1, "children": 5},
        ]}}
        with pytest.raises(ValueError) as info:
            workflow_from_document(doc)
        assert str(info.value) == "root.children[3]: workflow node children must be an array"
        doc["root"]["children"][3]["children"] = []
        with pytest.raises(ValueError) as info:
            workflow_from_document(doc)
        assert str(info.value) == "workflow node id 'a' is not unique"

    def test_error_names_location_in_document_order(self):
        doc = {"root": {"id": "r", "description": "d", "status": 1, "children": [
            {"id": "a", "description": "d", "status": 1},
            {"id": "b", "description": "d", "status": 1,
             "children": [{"id": "c", "status": 1}]},
        ]}}
        with pytest.raises(ValueError) as info:
            workflow_from_document(doc)
        assert str(info.value) == "root.children[1].children[0]: workflow node missing 'description'"
        # A child's bad status surfaces before a later sibling's missing key.
        doc["root"]["children"][0]["status"] = 2
        with pytest.raises(ValueError, match="node 'a': status must be 0 or 1"):
            workflow_from_document(doc)

    def test_deep_document_builds_without_recursion(self):
        depth = 5000
        root_doc = {"id": "c0", "description": "d", "status": 1}
        node_doc = root_doc
        for i in range(1, depth):
            child = {"id": f"c{i}", "description": "d", "status": 1}
            node_doc["children"] = [child]
            node_doc = child
        root = workflow_from_document({"benchmark": "b", "root": root_doc})
        ids = [n.id for n in iter_nodes(root)]
        assert ids == [f"c{i}" for i in range(depth)]
        assert root.metadata == {"benchmark": "b"}

        del node_doc["id"]
        with pytest.raises(ValueError) as info:
            workflow_from_document({"root": root_doc})
        assert str(info.value) == "root" + ".children[0]" * (depth - 1) + (
            ": workflow node missing 'id'")


#: (defect rate, shape defects) mixes of :func:`random_document`.
DEFECT_MIXES = ((0.0, False), (0.02, False), (0.1, False), (0.02, True), (0.1, True))


def tree_levels(root):
    levels = {}
    for node in iter_nodes(root):
        bucket = levels.setdefault(node.leaves, [0, 0])
        bucket[0] += node.status
        bucket[1] += 1
    return levels


class TestLevelFold:
    """:func:`count_levels` checks a document as the tree build does, and
    counts what the tree holds."""

    def test_fold_matches_tree_build(self, tmp_path):
        rng = random.Random(17)
        valid_docs, trees, errors = [], [], set()
        for defect_rate, shape_defects in DEFECT_MIXES:
            for _ in range(400):
                doc = random_document(rng, defect_rate, shape_defects)
                for key in ("benchmark", "agent", "model"):
                    value = rng.choice([None, "", "a", "b", "overall", 3, 3.0, True, ["x"]])
                    if value is None and rng.random() < 0.5:
                        doc.pop(key, None)
                    else:
                        doc[key] = value
                built = outcome(workflow_from_document, doc)
                folded = outcome(lambda d: count_levels(d, {}), doc)
                if isinstance(built, str):
                    assert folded == built
                    errors.add(built)
                else:
                    assert folded == tree_levels(built)
                    valid_docs.append(doc)
                    trees.append(built)
        for reason in ("must be an object", "children must be an array", "missing 'id'",
                       "is not unique", "status must be 0 or 1, got 2"):
            assert any(reason in error for error in errors), reason  # every defect occurs
        # The root metadata: the counts read back group as the trees do.
        path = tmp_path / "workflows.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in valid_docs), encoding="utf-8")
        counts = read_workflow_levels(path)
        for grouping in ("overall", "benchmark", "agent", "model"):
            assert (rates_from_counts(counts, with_overall(grouping))
                    == success_rates(trees, with_overall(grouping))), grouping

    def test_fixture_counts_pool_like_trees(self, workflows):
        counts = read_workflow_levels(fixture_path("workflows.jsonl"))
        for grouping in ("overall", "benchmark", "agent", "model"):
            assert rates_from_counts(counts, grouping) == success_rates(workflows, grouping)

    def test_deep_document_folds_without_recursion(self):
        depth = 5000
        root_doc = {"id": "c0", "description": "d", "status": 0}
        node_doc = root_doc
        for i in range(1, depth):
            child = {"id": f"c{i}", "description": "d", "status": i % 2}
            node_doc["children"] = [child]
            node_doc = child
        assert count_levels({"root": root_doc}, {}) == {1: [depth // 2, depth]}

        node_doc["status"] = 2
        with pytest.raises(ValueError) as info:
            count_levels({"root": root_doc}, {})
        assert str(info.value) == f"node 'c{depth - 1}': status must be 0 or 1, got 2"

    def test_float_and_boolean_statuses_count_as_integers(self):
        doc = {"root": {"id": "r", "description": "d", "status": 1.0, "children": [
            {"id": "a", "description": "d", "status": 0.0},
            {"id": "b", "description": "d", "status": True},
            {"id": "c", "description": "d", "status": False},
        ]}}
        levels = count_levels(doc, {})
        assert levels == {1: [1, 3], 3: [1, 1]}
        assert all(type(n) is int for counts in levels.values() for n in counts)
        root = workflow_from_document(doc)
        assert [type(n.status) for n in iter_nodes(root)] == [int] * 4


class TestSuccessRates:
    def test_all_success_curve(self):
        roots = [tree("r", [leaf("a"), leaf("b")])]
        curves = success_rates(roots, "overall")
        curve = curves["overall"]
        assert all(stats.sr == 1.0 for stats in curve.levels.values())

    def test_level_mean(self):
        # eight nodes at complexity 3 with statuses 1,1,0,1 repeated twice
        roots = [
            tree(f"r{i}",
                 [tree(f"m{i}", [leaf(f"l{i}a"), leaf(f"l{i}b"), leaf(f"l{i}c")],
                       status=status)],
                 status=status)
            for i, status in enumerate([1, 1, 0, 1])
        ]
        curve = success_rates(roots, "overall")["overall"]
        assert curve.levels[3].totals == 8  # roots and their single children
        assert curve.levels[3].sr == 0.75

    def test_fixture_overall_levels(self, workflows):
        curve = success_rates(workflows, "overall")["overall"]
        assert {k: (s.successes, s.totals) for k, s in curve.levels.items()} == {
            1: (21, 24), 2: (6, 9), 3: (2, 3), 4: (1, 3)
        }

    def test_grouped_totals_sum_to_overall(self, workflows):
        overall = success_rates(workflows, "overall")["overall"]
        grouped = success_rates(workflows, "benchmark")
        for level, stats in overall.levels.items():
            split = [c.levels.get(level) for c in grouped.values()]
            assert sum(s.totals for s in split if s) == stats.totals
            assert sum(s.successes for s in split if s) == stats.successes

    def test_missing_metadata_pools_unattributed(self):
        root = tree("r", [leaf("a")])
        curves = success_rates([root], "agent")
        assert set(curves) == {"unattributed"}

    def test_callable_grouping_multi_membership(self, workflows):
        curves = success_rates(workflows, lambda root: ["g1", "g2"])
        assert curves["g1"].total_nodes == curves["g2"].total_nodes == 39

    def test_with_overall_equals_two_call_merge(self, workflows):
        rng = random.Random(11)
        roots = list(workflows)
        for i, bench in enumerate(["a", "overall", "", None, "b", "overall"] * 4):
            root = random_tree(rng, max_nodes=40)
            root.metadata = {"benchmark": bench} if bench is not None else {}
            if i % 3 == 0:
                root.metadata["agent"] = "overall" if i % 2 else "x"
            roots.append(root)
        groupings = ["benchmark", "agent", "model", "overall",
                     lambda root: [], lambda root: ["overall", "overall", "g", "g"]]
        for grouping in groupings:
            expected = {**success_rates(roots, grouping), **success_rates(roots, "overall")}
            assert success_rates(roots, with_overall(grouping)) == expected
        assert success_rates([], with_overall("benchmark")) == {}

    def test_per_node_grouping_option(self, workflows):
        curves = success_rates(
            workflows, "benchmark",
            node_group_fn=lambda node: ["deep" if node.is_leaf else "shallow"],
        )
        assert curves["deep"].total_nodes == 24
        assert curves["shallow"].total_nodes == 15


class TestAutonomyLevel:
    def curve(self, table, totals=20):
        return AutonomyCurve(
            group_key="g",
            levels={
                k: LevelStats(successes=round(sr * totals), totals=totals)
                for k, sr in table.items()
            },
        )

    def test_all_pass_returns_max_level(self):
        assessed = autonomy_level(self.curve({1: 1.0, 2: 1.0, 3: 0.9}), 0.8)
        assert assessed.autonomy == 3
        assert assessed.non_monotonic_levels == ()

    def test_literal_max_with_non_monotonic_flag(self):
        assessed = autonomy_level(self.curve({1: 1.0, 2: 0.9, 3: 0.7, 4: 0.85}), 0.8)
        assert assessed.autonomy == 4
        assert assessed.non_monotonic_levels == (3,)

    def test_no_qualifying_level_is_none(self):
        assessed = autonomy_level(self.curve({1: 0.5}), 0.8)
        assert assessed.autonomy is None

    def test_min_samples_filter(self):
        curve = AutonomyCurve(
            group_key="g",
            levels={1: LevelStats(10, 10), 2: LevelStats(3, 3)},
        )
        assessed = autonomy_level(curve, 0.8, min_samples=10)
        assert assessed.autonomy == 1  # level 2 has too few samples

    def test_soundness_of_returned_level(self):
        rng = random.Random(8)
        for _ in range(50):
            levels = {
                k: LevelStats(successes=rng.randint(0, 20), totals=20)
                for k in range(1, rng.randint(2, 8))
            }
            curve = AutonomyCurve(group_key="g", levels=levels)
            assessed = autonomy_level(curve, 0.7, min_samples=10)
            if assessed.autonomy is not None:
                assert levels[assessed.autonomy].sr >= 0.7
                for k, stats in levels.items():
                    if k > assessed.autonomy and stats.totals >= 10:
                        assert stats.sr < 0.7

    def test_lcb_mode_is_stricter(self):
        curve = self.curve({1: 0.85}, totals=20)
        raw = autonomy_level(curve, 0.8, confidence_mode="raw")
        lcb = autonomy_level(curve, 0.8, confidence_mode="lcb")
        assert raw.autonomy == 1
        assert lcb.autonomy is None  # 17/20 has a one-sided 95% LCB below 0.8

    def test_lcb_bounds(self):
        stats = LevelStats(successes=18, totals=20)
        assert 0.0 <= stats.lcb <= stats.sr

    def test_parameter_validation(self):
        curve = self.curve({1: 1.0})
        with pytest.raises(ValueError, match="threshold"):
            autonomy_level(curve, 0.0)
        with pytest.raises(ValueError, match="min_samples"):
            autonomy_level(curve, 0.8, min_samples=0)
        with pytest.raises(ValueError, match="confidence_mode"):
            autonomy_level(curve, 0.8, confidence_mode="bayes")


class TestOrderingValidation:
    def make_corpus(self):
        # descriptions disclose their depth so scripted judges can react
        return [
            tree("r", [
                tree("m", [leaf("l1", description="shallow step one"),
                           leaf("l2", description="shallow step two")],
                     description="deep goal"),
            ], description="deeper goal")
            for _ in range(1)
        ]

    def test_always_affirming_judge(self):
        class Affirming:
            annotator_id = "yes"

            def annotate(self, instruction, taxonomy_text):
                # the deeper description always contains the word "deep"
                a_text = instruction.split("Task A: ")[1].split("\nTask B:")[0]
                return "A" if "deep" in a_text else "B"

        result = validate_ordering(self.make_corpus(), 10, Affirming(), rng_seed=1)
        assert result.fraction_affirmed == 1.0

    def test_scripted_eight_of_ten(self):
        class Counting:
            annotator_id = "count"

            def __init__(self):
                self.calls = 0

            def annotate(self, instruction, taxonomy_text):
                self.calls += 1
                a_text = instruction.split("Task A: ")[1].split("\nTask B:")[0]
                correct = "A" if "deep" in a_text else "B"
                if self.calls <= 8:
                    return correct
                return "A" if correct == "B" else "B"

        result = validate_ordering(self.make_corpus(), 10, Counting(), rng_seed=2)
        assert result.fraction_affirmed == 0.8

    def test_presentation_order_randomized(self):
        seen = set()

        class Recorder:
            annotator_id = "rec"

            def annotate(self, instruction, taxonomy_text):
                a_text = instruction.split("Task A: ")[1].split("\nTask B:")[0]
                seen.add("deep-first" if "deep" in a_text else "shallow-first")
                return "A"

        validate_ordering(self.make_corpus(), 30, Recorder(), rng_seed=3)
        assert seen == {"deep-first", "shallow-first"}

    def test_no_adjacent_pairs_is_error(self):
        class Silent:
            annotator_id = "s"

            def annotate(self, instruction, taxonomy_text):
                return "A"

        # single leaf: only level 1 exists
        with pytest.raises(ValueError, match="adjacent"):
            validate_ordering([leaf("only")], 5, Silent())

    def test_unparseable_answer_counts_as_non_affirmation(self):
        class Mumbling:
            annotator_id = "m"

            def annotate(self, instruction, taxonomy_text):
                return "well, it depends"

        result = validate_ordering(self.make_corpus(), 5, Mumbling(), rng_seed=4)
        assert result.fraction_affirmed == 0.0

    def test_judgments_recorded(self):
        class Affirm:
            annotator_id = "a"

            def annotate(self, instruction, taxonomy_text):
                return "A"

        result = validate_ordering(self.make_corpus(), 6, Affirm(), rng_seed=5)
        assert len(result.judgments) == 6
        assert all(j.judge_id == "a" for j in result.judgments)


class TestAdvise:
    def curves(self):
        return {
            "Computer and Mathematical": AutonomyCurve(
                group_key="Computer and Mathematical",
                levels={
                    1: LevelStats(20, 20),
                    3: LevelStats(17, 20),
                    9: LevelStats(8, 20),
                },
            ),
            "Business and Financial Operations": AutonomyCurve(
                group_key="Business and Financial Operations",
                levels={1: LevelStats(19, 20), 3: LevelStats(18, 20)},
            ),
        }

    def task(self, instruction="implement the feature"):
        return TaskExample(benchmark="b", example_id="t1", instruction=instruction)

    def test_threshold_pass_delegates(self):
        advice = advise(
            self.task(), 0.8, self.curves(),
            matcher=lambda t: ["Computer and Mathematical"], complexity_estimate=3,
        )
        assert advice.decision is AdviceDecision.DELEGATE_END_TO_END
        assert advice.matched_groups == ("Computer and Mathematical",)

    def test_low_sr_at_estimate_but_passing_lower_level_decomposes(self):
        advice = advise(
            self.task(), 0.8, self.curves(),
            matcher=lambda t: ["Computer and Mathematical"], complexity_estimate=9,
        )
        assert advice.decision is AdviceDecision.DECOMPOSE
        consulted_levels = {(c.group_key, c.level) for c in advice.consulted}
        assert ("Computer and Mathematical", 9) in consulted_levels

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_decompose_consults_the_estimate_then_the_first_passing_lower_level(self, order):
        # "a" clears level 1 only and "b" level 2 only; neither clears level 4
        curves = {
            "a": AutonomyCurve(group_key="a", levels={
                1: LevelStats(20, 20), 2: LevelStats(5, 20), 4: LevelStats(2, 20)}),
            "b": AutonomyCurve(group_key="b", levels={
                1: LevelStats(5, 20), 2: LevelStats(19, 20), 4: LevelStats(3, 20)}),
        }
        advice = advise(self.task(), 0.8, curves, matcher=lambda t: list(order),
                        complexity_estimate=4)
        lower = {"a": ConsultedValue("a", 1, 1.0, 20, True),
                 "b": ConsultedValue("b", 2, 0.95, 20, True)}
        assert advice.decision is AdviceDecision.DECOMPOSE
        assert advice.consulted == (
            *(ConsultedValue(g, 4, curves[g].levels[4].sr, 20, False) for g in order),
            lower[order[0]],
        )

    def test_delegation_requires_every_matched_curve_to_pass(self):
        curves = self.curves()
        advice = advise(
            self.task(), 0.95, curves,
            matcher=lambda t: list(curves), complexity_estimate=3,
        )
        assert advice.decision is not AdviceDecision.DELEGATE_END_TO_END

    def test_insufficient_data_when_nothing_passes(self):
        curves = {"g": AutonomyCurve(group_key="g", levels={5: LevelStats(2, 20)})}
        advice = advise(
            self.task(), 0.8, curves, matcher=lambda t: ["g"], complexity_estimate=5,
        )
        assert advice.decision is AdviceDecision.INSUFFICIENT_DATA

    def test_sparse_level_fails_sample_minimum(self):
        curves = {"g": AutonomyCurve(group_key="g", levels={4: LevelStats(3, 3)})}
        advice = advise(
            self.task(), 0.8, curves, matcher=lambda t: ["g"], complexity_estimate=4,
        )
        assert advice.decision is AdviceDecision.INSUFFICIENT_DATA

    def test_no_matched_groups_is_error(self):
        with pytest.raises(ValueError, match="no curves match"):
            advise(self.task(), 0.8, self.curves(), matcher=lambda t: ["Legal"],
                   complexity_estimate=2)

    def test_deterministic(self):
        results = [
            advise(self.task(), 0.8, self.curves(),
                   matcher=lambda t: ["Computer and Mathematical"], complexity_estimate=9)
            for _ in range(2)
        ]
        assert results[0] == results[1]
