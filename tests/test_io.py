import pytest

from workatlas.autonomy import success_rates
from workatlas.io import (
    InputFormatError,
    fixture_path,
    read_curves,
    read_digital_labels,
    read_examples,
    read_importance,
    read_mappings,
    read_occupations,
    read_raw_mappings,
    read_workflows,
    render_table,
    write_curves,
    write_examples,
    write_mappings,
    write_workflows,
)
from workatlas.taxonomy import TaxonomyKind

from conftest import deep_chain


class TestExamplesFile:
    def test_read_bundled(self, examples_corpus):
        assert len(examples_corpus) == 20
        assert examples_corpus[0].benchmark == "deskbench"

    def test_roundtrip(self, tmp_path, examples_corpus):
        path = tmp_path / "examples.jsonl"
        write_examples(path, examples_corpus)
        assert read_examples(path) == list(examples_corpus)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"benchmark": "b", "example_id": "e"}\n', encoding="utf-8")
        with pytest.raises(InputFormatError, match="bad.jsonl:1"):
            read_examples(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            read_examples(path)


class TestMappingsFile:
    def test_roundtrip_reresolves_paths(self, tmp_path, domain_results, skill_results,
                                        domain_taxonomy, skill_taxonomy):
        path = tmp_path / "mappings.jsonl"
        combined = list(domain_results) + list(skill_results)
        write_mappings(path, combined)
        taxonomies = {TaxonomyKind.DOMAIN: domain_taxonomy, TaxonomyKind.SKILL: skill_taxonomy}
        loaded = read_mappings(path, taxonomies)
        assert sorted(loaded, key=lambda r: (r.taxonomy_kind.value, r.key)) == sorted(
            combined, key=lambda r: (r.taxonomy_kind.value, r.key)
        )

    def test_corrupt_path_surfaces_example_id(self, tmp_path, domain_taxonomy):
        path = tmp_path / "mappings.jsonl"
        path.write_text(
            '{"benchmark": "b", "example_id": "e9", "taxonomy_kind": "domain", '
            '"status": "mapped", "paths": [["No", "Such", "Path"]], '
            '"annotator_id": "x", "raw": ""}\n',
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="e9"):
            read_mappings(path, {TaxonomyKind.DOMAIN: domain_taxonomy})

    def test_missing_taxonomy_for_kind(self, tmp_path, domain_results, domain_taxonomy):
        path = tmp_path / "mappings.jsonl"
        write_mappings(path, domain_results)
        with pytest.raises(InputFormatError, match="no taxonomy"):
            read_mappings(path, {})

    def test_raw_reader_keeps_records_unresolved(self, tmp_path, domain_results):
        path = tmp_path / "mappings.jsonl"
        write_mappings(path, domain_results)
        records = read_raw_mappings(path)
        assert len(records) == len(domain_results)
        assert all("raw" in r for r in records)


class TestEconomicsFiles:
    def test_occupations_bundled(self, occupations):
        assert len(occupations) == 6
        assert occupations[0].soc_code == "13-2011"

    def test_occupations_header_enforced(self, tmp_path):
        path = tmp_path / "occ.csv"
        path.write_text("code,people\n1,2\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="header"):
            read_occupations(path)

    def test_importance_scale_header(self, importance_table):
        assert importance_table.scale_max == 5.0
        assert len(importance_table.records) == 35

    def test_importance_requires_scale_line(self, tmp_path):
        path = tmp_path / "imp.csv"
        path.write_text("soc_code,activity_id,importance\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="scale"):
            read_importance(path)

    def test_occupations_reject_non_finite_numbers(self, tmp_path):
        path = tmp_path / "occ.csv"
        path.write_text(
            "soc_code,title,employment,median_wage\n"
            "13-2011,Accountants,100,50000\n"
            "13-2031,Budget Analysts,nan,85000\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="occ.csv:3: employment must be a finite"):
            read_occupations(path)
        path.write_text(
            "soc_code,title,employment,median_wage\n13-2011,Accountants,100,inf\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="occ.csv:2: median_wage must be a finite"):
            read_occupations(path)

    def test_importance_rejects_non_finite_numbers(self, tmp_path):
        path = tmp_path / "imp.csv"
        path.write_text(
            "# scale_max: 5.0\nsoc_code,activity_id,importance\n13-2011,4.A.1.a.1,NaN\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="imp.csv:3: importance must be a finite"):
            read_importance(path)
        path.write_text(
            "# scale_max: inf\nsoc_code,activity_id,importance\n13-2011,4.A.1.a.1,4.0\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="imp.csv:1: .*scale_max must be a finite"):
            read_importance(path)

    def test_digital_labels_bundled(self, digital_labels):
        assert len(digital_labels) == 12
        assert {l.label.value for l in digital_labels} == {"DIGITAL", "PHYSICAL"}

    def test_digital_labels_roundtrip_preserves_hashes(self, tmp_path, digital_labels):
        from workatlas.io import write_digital_labels

        out = tmp_path / "labels.csv"
        write_digital_labels(out, digital_labels)
        assert out.read_bytes() == fixture_path("digital_labels.csv").read_bytes()

    def test_digital_label_vocabulary_enforced(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "soc_code,task_hash,label,justification\n13-2011,abc,MAYBE,eh\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError):
            read_digital_labels(path)


class TestWorkflowsFile:
    def test_roundtrip(self, tmp_path, workflows):
        path = tmp_path / "wf.jsonl"
        write_workflows(path, workflows)
        again = read_workflows(path)
        assert len(again) == len(workflows)
        assert again[0].metadata == workflows[0].metadata
        assert (
            success_rates(again, "overall")["overall"]
            == success_rates(workflows, "overall")["overall"]
        )

    def test_bad_status_named_with_line(self, tmp_path):
        path = tmp_path / "wf.jsonl"
        path.write_text(
            '{"benchmark": "b", "root": {"id": "r", "description": "d", "status": 3}}\n',
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="wf.jsonl:1"):
            read_workflows(path)

    def test_chain_too_deep_to_decode_names_line(self, tmp_path):
        path = tmp_path / "wf.jsonl"
        path.write_text(deep_chain(600) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="nesting too deep") as info:
            read_workflows(path)
        assert info.value.line_no == 1


class TestCurvesFile:
    def test_roundtrip(self, tmp_path, workflows):
        curves = success_rates(workflows, "benchmark")
        path = tmp_path / "curves.csv"
        write_curves(path, curves)
        loaded = read_curves(path)
        assert set(loaded) == set(curves)
        for group, curve in curves.items():
            assert loaded[group].levels == curve.levels


    def test_empty_level_named_with_line(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(
            "group,level,successes,totals,sr,lcb\ng,1,3,4,0.75,0.3\ng,2,0,0,0.0,0.0\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match="curves.csv:3"):
            read_curves(path)


def test_render_table_float_stability():
    text = render_table(["a", "b"], [(1 / 3, "x"), (0.25, None)])
    assert text == "a,b\n0.3333333333333333,x\n0.25,\n"


def test_fixture_path_exists():
    assert fixture_path("taxonomy_domain.json").exists()
