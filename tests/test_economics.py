import gc
import random
import weakref

import pytest

from workatlas.coverage import effort_by_node
from workatlas.economics import (
    DigitalLabel,
    ImportanceRecord,
    ImportanceTable,
    OccupationStats,
    WorkMode,
    alignment_report,
    digital_share,
    domain_employment_capital,
    effective_skill_employment_capital,
    label_tasks_digital,
)
from workatlas.taxonomy import load_taxonomy

REL = 1e-9


def occ(soc, employment, wage, title="Occ"):
    return OccupationStats(soc_code=soc, title=title, employment=employment, median_wage=wage)


class TestFamilyEconomics:
    def test_single_occupation_capital(self, domain_taxonomy):
        table = domain_employment_capital([occ("13-2011", 100, 50000)], domain_taxonomy)
        business = next(r for r in table.rows if r.node_id == "fam-business")
        assert business.capital == 5_000_000
        assert business.employment == 100

    def test_fixture_hand_sums(self, occupations, domain_taxonomy):
        table = domain_employment_capital(occupations, domain_taxonomy)
        by_id = {r.node_id: r for r in table.rows}
        assert by_id["fam-business"].employment == pytest.approx(140_000, rel=REL)
        assert by_id["fam-business"].capital == pytest.approx(11_400_000_000, rel=REL)
        assert by_id["fam-computer"].employment == pytest.approx(200_000, rel=REL)
        assert by_id["fam-computer"].capital == pytest.approx(25_000_000_000, rel=REL)
        assert by_id["fam-office"].employment == pytest.approx(290_000, rel=REL)
        assert by_id["fam-office"].capital == pytest.approx(11_150_000_000, rel=REL)

    def test_conservation(self, occupations, domain_taxonomy):
        table = domain_employment_capital(occupations, domain_taxonomy)
        assert table.total_employment == pytest.approx(
            sum(o.employment for o in occupations), rel=REL
        )
        assert table.total_capital == pytest.approx(
            sum(o.employment * o.median_wage for o in occupations), rel=REL
        )

    def test_unmatched_soc_reported_not_dropped(self, occupations, domain_taxonomy):
        extra = occupations + [occ("99-9999", 123, 1000)]
        table = domain_employment_capital(extra, domain_taxonomy)
        assert table.unmatched_soc_codes == ("99-9999",)
        assert table.total_employment == pytest.approx(630_000, rel=REL)

    def test_duplicate_soc_rejected(self, domain_taxonomy):
        rows = [occ("13-2011", 1, 1), occ("13-2011", 2, 2)]
        with pytest.raises(ValueError, match="duplicate SOC"):
            domain_employment_capital(rows, domain_taxonomy)

    def test_shares_sum_to_one(self, occupations, domain_taxonomy):
        table = domain_employment_capital(occupations, domain_taxonomy)
        assert abs(sum(table.employment_shares().values()) - 1.0) < REL
        assert abs(sum(table.capital_shares().values()) - 1.0) < REL

    def test_wage_scale_invariance(self, occupations, domain_taxonomy):
        scaled = [
            occ(o.soc_code, o.employment, o.median_wage * 3.0, o.title) for o in occupations
        ]
        base = domain_employment_capital(occupations, domain_taxonomy)
        tripled = domain_employment_capital(scaled, domain_taxonomy)
        for a, b in zip(base.rows, tripled.rows):
            assert b.capital == pytest.approx(3.0 * a.capital, rel=REL)
        assert tripled.capital_shares() == pytest.approx(base.capital_shares(), rel=1e-12)

    def test_employment_share_monotonicity(self, occupations, domain_taxonomy):
        base = domain_employment_capital(occupations, domain_taxonomy)
        bumped_rows = [
            occ(o.soc_code, o.employment * (2.0 if o.soc_code == "13-2011" else 1.0),
                o.median_wage, o.title)
            for o in occupations
        ]
        bumped = domain_employment_capital(bumped_rows, domain_taxonomy)
        assert (
            bumped.employment_shares()["fam-business"]
            > base.employment_shares()["fam-business"]
        )


class TestSkillEconomics:
    def test_max_importance_weight_is_identity(self, skill_taxonomy):
        occupations = [occ("13-2011", 500, 100)]
        table = ImportanceTable(
            records=(ImportanceRecord("13-2011", "4.A.1.a.1", 5.0),), scale_max=5.0
        )
        result = effective_skill_employment_capital(occupations, table, skill_taxonomy)
        getinfo = next(r for r in result.rows if r.node_id == "act-getinfo")
        assert getinfo.effective_employment == 500

    def test_two_occupation_normalization(self, skill_taxonomy):
        occupations = [occ("13-2011", 100, 10), occ("13-2031", 200, 10)]
        table = ImportanceTable(
            records=(
                ImportanceRecord("13-2011", "4.A.1.a.1", 5.0),
                ImportanceRecord("13-2031", "4.A.1.a.1", 2.5),
            ),
            scale_max=5.0,
        )
        result = effective_skill_employment_capital(occupations, table, skill_taxonomy)
        getinfo = next(r for r in result.rows if r.node_id == "act-getinfo")
        assert getinfo.effective_employment == pytest.approx(200.0, rel=REL)

    def test_fixture_hand_computed_leaf(self, occupations, importance_table, skill_taxonomy):
        result = effective_skill_employment_capital(
            occupations, importance_table, skill_taxonomy
        )
        computers = next(r for r in result.rows if r.node_id == "act-computers")
        # sum over the six fixture occupations of employment * importance / 5
        assert computers.effective_employment == pytest.approx(516_000, rel=REL)
        expected_capital = (
            100000 * 80000 * 0.9 + 40000 * 85000 * 0.8 + 150000 * 130000 * 1.0
            + 50000 * 110000 * 1.0 + 200000 * 40000 * 0.7 + 90000 * 35000 * 0.6
        )
        assert computers.effective_capital == pytest.approx(expected_capital, rel=REL)

    def test_parents_sum_children(self, occupations, importance_table, skill_taxonomy):
        result = effective_skill_employment_capital(
            occupations, importance_table, skill_taxonomy
        )
        by_id = {r.node_id: r for r in result.rows}
        for level1 in skill_taxonomy.root.children:
            child_sum = sum(by_id[g.id].effective_employment for g in level1.children)
            assert by_id[level1.id].effective_employment == pytest.approx(child_sum, rel=REL)

    def test_rows_match_recursive_sum_exactly(self, occupations, skill_taxonomy):
        rng = random.Random(9)
        activities = [leaf.annotations["activity_id"] for leaf in skill_taxonomy.leaves()]
        table = ImportanceTable(records=tuple(
            ImportanceRecord(o.soc_code, a, rng.uniform(0.1, 5.0))
            for o in occupations for a in activities if rng.random() < 0.7), scale_max=5.0)
        result = effective_skill_employment_capital(occupations, table, skill_taxonomy)
        leaf_rows = {r.node_id: r for r in result.rows if r.node_id in
                     {leaf.id for leaf in skill_taxonomy.leaves()}}

        def reference(node):  # children summed in order, as the table promises
            if node.is_leaf:
                row = leaf_rows[node.id]
                return row.effective_employment, row.effective_capital
            e = c = 0.0
            for child in node.children:
                ce, cc = reference(child)
                e += ce
                c += cc
            return e, c

        for row in result.rows:
            node = skill_taxonomy._nodes_by_id[row.node_id]
            assert (row.effective_employment, row.effective_capital) == reference(node)

    def test_rows_freed_without_cyclic_collector(self, occupations, importance_table,
                                                 skill_taxonomy):
        # The CLI pauses the cyclic collector per command, so the table must
        # hold no reference cycle that would outlive it.
        gc.disable()
        try:
            result = effective_skill_employment_capital(
                occupations, importance_table, skill_taxonomy
            )
            row = weakref.ref(result.rows[0])
            del result
            assert row() is None
        finally:
            gc.enable()

    def test_unknown_activity_rejected(self, occupations, skill_taxonomy):
        table = ImportanceTable(
            records=(ImportanceRecord("13-2011", "9.Z.9.z.9", 3.0),), scale_max=5.0
        )
        with pytest.raises(ValueError, match="unknown activity_id"):
            effective_skill_employment_capital(occupations, table, skill_taxonomy)

    def test_unknown_soc_rejected(self, skill_taxonomy):
        table = ImportanceTable(
            records=(ImportanceRecord("00-0000", "4.A.1.a.1", 3.0),), scale_max=5.0
        )
        with pytest.raises(ValueError, match="unknown SOC"):
            effective_skill_employment_capital([occ("13-2011", 1, 1)], table, skill_taxonomy)

    def test_importance_bounds_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            ImportanceTable(records=(ImportanceRecord("a", "b", 7.0),), scale_max=5.0)

    def test_duplicate_importance_record_rejected(self):
        records = (
            ImportanceRecord("a", "b", 3.0),
            ImportanceRecord("a", "b", 4.0),
        )
        with pytest.raises(ValueError, match="duplicate"):
            ImportanceTable(records=records, scale_max=5.0)


class TestDigitalShare:
    def test_all_digital_ratio_one(self, domain_taxonomy):
        occupations = [occ("13-2011", 10, 1)]
        labels = [
            DigitalLabel("13-2011", f"task {i}", WorkMode.DIGITAL) for i in range(4)
        ]
        table = digital_share(labels, occupations, domain_taxonomy)
        assert table.occupation_rows[0].ratio == 1.0

    def test_employment_weighted_family_mean(self, domain_taxonomy):
        occupations = [occ("43-4051", 100, 1), occ("43-4171", 100, 1)]
        labels = [
            DigitalLabel("43-4051", "a", WorkMode.DIGITAL),
            DigitalLabel("43-4051", "b", WorkMode.DIGITAL),
            DigitalLabel("43-4171", "c", WorkMode.DIGITAL),
            DigitalLabel("43-4171", "d", WorkMode.PHYSICAL),
        ]
        table = digital_share(labels, occupations, domain_taxonomy)
        office = next(r for r in table.family_rows if r.node_id == "fam-office")
        assert office.digital_fraction == pytest.approx(0.75, rel=REL)

    def test_fixture_families(self, digital_labels, occupations, domain_taxonomy):
        table = digital_share(digital_labels, occupations, domain_taxonomy)
        by_id = {r.node_id: r for r in table.family_rows}
        assert by_id["fam-business"].digital_fraction == pytest.approx(1.0, rel=REL)
        assert by_id["fam-computer"].digital_fraction == pytest.approx(1.0, rel=REL)
        assert by_id["fam-office"].digital_fraction == pytest.approx(245000 / 290000, rel=REL)
        assert by_id["fam-office"].digital_fraction_unweighted == pytest.approx(0.75, rel=REL)

    def test_unlabeled_occupation_excluded_and_reported(self, domain_taxonomy):
        occupations = [occ("43-4051", 100, 1), occ("43-4171", 900, 1)]
        labels = [DigitalLabel("43-4051", "a", WorkMode.DIGITAL)]
        table = digital_share(labels, occupations, domain_taxonomy)
        office = next(r for r in table.family_rows if r.node_id == "fam-office")
        assert office.labeled_occupations == 1
        assert office.digital_fraction == 1.0  # 43-4171 not averaged in
        assert "43-4171" in table.occupations_without_labels

    def test_unknown_occupation_rejected(self, domain_taxonomy):
        labels = [DigitalLabel("00-0000", "a", WorkMode.DIGITAL)]
        with pytest.raises(ValueError, match="unknown occupation"):
            digital_share(labels, [occ("13-2011", 1, 1)], domain_taxonomy)


class TestDigitalLabeling:
    def test_mock_always_digital(self):
        class AlwaysDigital:
            annotator_id = "mock"

            def annotate(self, instruction, taxonomy_text):
                return "DIGITAL because everything is software."

        result = label_tasks_digital(
            [("13-2011", "task a"), ("13-2011", "task b")], AlwaysDigital()
        )
        assert [l.label for l in result.labels] == [WorkMode.DIGITAL, WorkMode.DIGITAL]
        assert result.unlabeled == ()

    def test_vocabulary_violation_retried_then_unlabeled(self):
        class Sloppy:
            annotator_id = "sloppy"

            def __init__(self):
                self.calls = 0

            def annotate(self, instruction, taxonomy_text):
                self.calls += 1
                return "digital work mostly"

        annotator = Sloppy()
        result = label_tasks_digital([("13-2011", "task a")], annotator)
        assert annotator.calls == 2  # retried once
        assert result.labels == ()
        assert result.unlabeled == (("13-2011", "task a"),)

    def test_retry_can_recover(self):
        class SecondTryPhysical:
            annotator_id = "flaky"

            def __init__(self):
                self.calls = 0

            def annotate(self, instruction, taxonomy_text):
                self.calls += 1
                return "hmm" if self.calls == 1 else "PHYSICAL. Requires lifting."

        result = label_tasks_digital([("13-2011", "move boxes")], SecondTryPhysical())
        assert result.labels[0].label is WorkMode.PHYSICAL
        assert result.labels[0].justification == "Requires lifting."

    def test_keyword_mock_split(self):
        class KeywordMock:
            annotator_id = "kw"

            def annotate(self, instruction, taxonomy_text):
                digital = "keyboard" in instruction or "software" in instruction
                return "DIGITAL uses a computer." if digital else "PHYSICAL manual work."

        tasks = [
            ("s", "type at the keyboard"),
            ("s", "install software updates"),
            ("s", "fix software bugs"),
            ("s", "write software docs"),
            ("s", "test keyboard shortcuts"),
            ("s", "update software licenses"),
            ("s", "clean keyboard trays"),
            ("s", "move desks upstairs"),
            ("s", "paint the office wall"),
            ("s", "carry supplies to storage"),
        ]
        result = label_tasks_digital(tasks, KeywordMock())
        digital = sum(1 for l in result.labels if l.label is WorkMode.DIGITAL)
        assert digital == 7
        assert len(result.labels) - digital == 3


class TestAlignment:
    def test_uniform_effort_and_employment_ratios_one(self):
        doc = {
            "kind": "domain",
            "root": {"id": "r", "label": "root", "children": [
                {"id": f"f{i}", "label": f"family {i}", "children": [
                    {"id": f"o{i}", "label": f"occ {i}",
                     "annotations": {"soc_code": f"11-000{i}"},
                     "children": [{"id": f"t{i}", "label": f"task {i}", "children": []}]}
                ]} for i in range(4)
            ]},
        }
        taxonomy = load_taxonomy(doc)
        occupations = [occ(f"11-000{i}", 100, 10) for i in range(4)]
        econ = domain_employment_capital(occupations, taxonomy)

        from workatlas.mapping import MappingResult, MappingStatus

        paths = {p.node_ids[0]: p for p in taxonomy.path_index}
        results = [
            MappingResult(benchmark="b", example_id=f"e{i}", taxonomy_kind=taxonomy.kind,
                          paths=frozenset([paths[f"f{i}"]]), status=MappingStatus.MAPPED,
                          raw_annotator_output="", annotator_id="t")
            for i in range(4)
        ]
        effort = effort_by_node(results, taxonomy)
        report = alignment_report(effort, econ)
        for row in report.rows:
            assert row.effort_to_employment_ratio == pytest.approx(1.0, rel=REL)

    def test_concentrated_effort_ratios(self):
        doc = {
            "kind": "domain",
            "root": {"id": "r", "label": "root", "children": [
                {"id": f"f{i}", "label": f"family {i}", "children": [
                    {"id": f"o{i}", "label": f"occ {i}",
                     "annotations": {"soc_code": f"11-000{i}"},
                     "children": [{"id": f"t{i}", "label": f"task {i}", "children": []}]}
                ]} for i in range(2)
            ]},
        }
        taxonomy = load_taxonomy(doc)
        occupations = [occ("11-0000", 100, 10), occ("11-0001", 100, 10)]
        econ = domain_employment_capital(occupations, taxonomy)

        from workatlas.mapping import MappingResult, MappingStatus

        paths = {p.node_ids[0]: p for p in taxonomy.path_index}
        results = [
            MappingResult(benchmark="b", example_id=f"e{i}", taxonomy_kind=taxonomy.kind,
                          paths=frozenset([paths["f0"]]), status=MappingStatus.MAPPED,
                          raw_annotator_output="", annotator_id="t")
            for i in range(5)
        ]
        effort = effort_by_node(results, taxonomy)
        report = alignment_report(effort, econ)
        ratios = {r.node_id: r.effort_to_employment_ratio for r in report.rows}
        assert ratios["f0"] == pytest.approx(2.0, rel=REL)
        assert ratios["f1"] == 0.0

    def test_zero_employment_ratio_is_infinite_and_its_cell_empty(self, tmp_path):
        import csv
        import math

        from workatlas.reporting import ReportBundle, emit_alignment

        doc = {
            "kind": "domain",
            "root": {"id": "r", "label": "root", "children": [
                {"id": f"f{i}", "label": f"family {i}", "children": [
                    {"id": f"o{i}", "label": f"occ {i}",
                     "annotations": {"soc_code": f"11-000{i}"},
                     "children": [{"id": f"t{i}", "label": f"task {i}", "children": []}]}
                ]} for i in range(2)
            ]},
        }
        taxonomy = load_taxonomy(doc)
        # f0 has effort but no employment
        econ = domain_employment_capital([occ("11-0001", 100, 10)], taxonomy)

        from workatlas.mapping import MappingResult, MappingStatus

        paths = {p.node_ids[0]: p for p in taxonomy.path_index}
        results = [
            MappingResult(benchmark="b", example_id=f"e{i}", taxonomy_kind=taxonomy.kind,
                          paths=frozenset([paths["f0"]]), status=MappingStatus.MAPPED,
                          raw_annotator_output="", annotator_id="t")
            for i in range(5)
        ]
        report = alignment_report(effort_by_node(results, taxonomy),
                                  econ)
        ratios = {r.node_id: r.effort_to_employment_ratio for r in report.rows}
        assert ratios == {"f0": math.inf, "f1": 0.0}

        emit_alignment(ReportBundle(run_dir=tmp_path), report)
        text = (tmp_path / "tables" / "alignment_domain_family.csv").read_text(encoding="utf-8")
        assert "inf" not in text
        with open(tmp_path / "tables" / "alignment_domain_family.csv", newline="",
                  encoding="utf-8") as fh:
            cells = {row["node_id"]: row["effort_to_employment_ratio"]
                     for row in csv.DictReader(fh)}
        assert cells == {"f0": "", "f1": "0.0"}

    def test_share_columns_sum_to_one(self, domain_results, domain_taxonomy,
                                      occupations, digital_labels):
        econ = domain_employment_capital(occupations, domain_taxonomy)
        digital = digital_share(digital_labels, occupations, domain_taxonomy)
        effort = effort_by_node(domain_results, domain_taxonomy)
        report = alignment_report(effort, econ, digital)
        assert abs(sum(r.effort_share for r in report.rows) - 1.0) < REL
        assert abs(sum(r.employment_share for r in report.rows) - 1.0) < REL
        assert abs(sum(r.capital_share for r in report.rows) - 1.0) < REL
        assert abs(sum(r.digital_employment_share for r in report.rows) - 1.0) < REL

    def test_skill_level_alignment(self, skill_results, skill_taxonomy,
                                   occupations, importance_table):
        econ = effective_skill_employment_capital(occupations, importance_table, skill_taxonomy)
        effort = effort_by_node(skill_results, skill_taxonomy)
        report = alignment_report(effort, econ)
        assert abs(sum(r.effort_share for r in report.rows) - 1.0) < REL
        assert abs(sum(r.employment_share for r in report.rows) - 1.0) < REL

    def test_grouping_level_mismatch(self, skill_results, skill_taxonomy,
                                     occupations, domain_taxonomy):
        econ = domain_employment_capital(occupations, domain_taxonomy)
        effort = effort_by_node(skill_results, skill_taxonomy)
        with pytest.raises(ValueError, match="domain_family"):
            alignment_report(effort, econ)
