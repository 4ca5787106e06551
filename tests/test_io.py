import json

import pytest

from workatlas import io as workatlas_io
from workatlas.autonomy import WorkflowNode, iter_nodes, success_rates
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
from workatlas.taxonomy import TaxonomyKind, resolve_path

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

    @staticmethod
    def mapping_line(example_id, *paths):
        return json.dumps({"benchmark": "b", "example_id": example_id,
                           "taxonomy_kind": "domain", "status": "mapped",
                           "paths": [list(p) for p in paths]})

    def test_each_distinct_sequence_resolved_once(self, tmp_path, domain_taxonomy,
                                                  monkeypatch):
        a, b = sorted((p.labels for p in domain_taxonomy.path_index))[:2]
        a_case = tuple(label.upper() for label in a)
        a_space = tuple(f"  {label.replace(' ', '   ')} " for label in a)
        lines = [self.mapping_line("e1", a, b), self.mapping_line("e2", a),
                 self.mapping_line("e3", a_case, b), self.mapping_line("e4", a_space),
                 self.mapping_line("e5", a_case, a, a_space)]
        path = tmp_path / "mappings.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        taxonomies = {TaxonomyKind.DOMAIN: domain_taxonomy}
        calls = []
        monkeypatch.setattr(workatlas_io, "resolve_path",
                            lambda t, labels: calls.append(labels) or resolve_path(t, labels))
        loaded = read_mappings(path, taxonomies)
        assert len(calls) == 4  # a, b, a_case, a_space
        for result, line in zip(loaded, lines):
            expected = frozenset(resolve_path(domain_taxonomy, labels)
                                 for labels in json.loads(line)["paths"])
            assert result.paths == expected
        variants = {id(p) for r in loaded for p in r.paths if p.labels == a}
        assert len(variants) == 1  # case and whitespace variants share one path object
        assert len(loaded[4].paths) == 1

    def test_repeated_bad_sequence_named_at_first_line(self, tmp_path, domain_taxonomy):
        good = sorted(p.labels for p in domain_taxonomy.path_index)[0]
        bad = ("No", "Such", "Path")
        lines = [self.mapping_line(f"e{i}", bad if i in (3, 7) else good)
                 for i in range(1, 9)]
        path = tmp_path / "mappings.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="e3") as info:
            read_mappings(path, {TaxonomyKind.DOMAIN: domain_taxonomy})
        assert info.value.line_no == 3

    def test_unhashable_labels_named_with_line(self, tmp_path, domain_taxonomy):
        path = tmp_path / "mappings.jsonl"
        path.write_text(self.mapping_line("e1", [["nested"]]) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="e1") as info:
            read_mappings(path, {TaxonomyKind.DOMAIN: domain_taxonomy})
        assert info.value.line_no == 1

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

    def test_line_equals_json_dumps_of_the_document(self, tmp_path, workflows):
        def node_doc(node):
            doc = {"id": node.id, "description": node.description, "status": node.status}
            if node.children:
                doc["children"] = [node_doc(c) for c in node.children]
            return doc

        extra = WorkflowNode(id="r\u00e9", description='say "hi"\n\u65e5', status=0,
                             children=(WorkflowNode(id="x", description="", status=1),))
        extra.metadata = {"benchmark": "b\u00fc", "trajectory_id": "t", "agent": "a"}
        roots = [*workflows, extra]
        path = tmp_path / "wf.jsonl"
        write_workflows(path, roots)
        expected = "".join(
            json.dumps({**root.metadata, "root": node_doc(root)}, sort_keys=True) + "\n"
            for root in roots
        )
        assert path.read_text(encoding="utf-8") == expected

    @staticmethod
    def chain(depth):
        node = WorkflowNode(id=f"c{depth - 1}", description="leaf", status=0)
        for i in range(depth - 2, -1, -1):
            node = WorkflowNode(id=f"c{i}", description="d", status=1, children=(node,))
        node.metadata = {"benchmark": "b"}
        return node

    def test_chain_roundtrip_keeps_every_node(self, tmp_path):
        root = self.chain(400)
        path = tmp_path / "wf.jsonl"
        write_workflows(path, [root])
        (again,) = read_workflows(path)
        assert again.metadata == root.metadata
        assert [(n.id, n.description, n.status) for n in iter_nodes(again)] == [
            (n.id, n.description, n.status) for n in iter_nodes(root)
        ]

    def test_chain_5000_deep_is_written(self, tmp_path):
        path = tmp_path / "wf.jsonl"
        write_workflows(path, [self.chain(5000)])
        expected = (
            '{"benchmark": "b", "root": '
            + '{"children": [' * 4999
            + '{"description": "leaf", "id": "c4999", "status": 0}'
            + "".join(f'], "description": "d", "id": "c{i}", "status": 1}}'
                      for i in range(4998, -1, -1))
            + "}\n"
        )
        assert path.read_text(encoding="utf-8") == expected
        # json.loads cannot decode it; the reader names the line instead of crashing.
        with pytest.raises(InputFormatError, match="nesting too deep") as info:
            read_workflows(path)
        assert info.value.line_no == 1

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
