import json
import random

import pytest

from workatlas import io as workatlas_io
from workatlas import taxonomy as workatlas_taxonomy
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
from workatlas.taxonomy import TaxonomyKind, load_taxonomy, resolve_path

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

    @pytest.mark.parametrize("field, value, reason", [
        ("benchmark", 7, "field 'benchmark' must be a string, got int"),
        ("example_id", ["x"], "field 'example_id' must be a string, got list"),
        ("instruction", True, "field 'instruction' must be a string, got bool"),
        ("metadata", [], "field 'metadata' must be an object, got list"),
    ])
    def test_wrong_field_type_names_line_and_field(self, tmp_path, field, value, reason):
        record = {"benchmark": "b", "example_id": "e", "instruction": "do it"}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n",
                        encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            read_examples(path)
        assert (info.value.line_no, info.value.reason) == (2, "example record " + reason)


@pytest.mark.parametrize("reader", [read_examples, read_raw_mappings, read_workflows,
                                    lambda path: read_mappings(path, {})])
@pytest.mark.parametrize("line, type_name", [("5", "int"), ('"x"', "str"), ("[]", "list"),
                                             ("null", "NoneType")])
def test_non_object_line_names_its_line(tmp_path, reader, line, type_name):
    path = tmp_path / "records.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as info:
        reader(path)
    assert info.value.line_no == 2
    assert info.value.reason == f"record must be a JSON object, got {type_name}"


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

    def test_each_distinct_sequence_resolved_once(self, tmp_path, monkeypatch):
        # a fresh taxonomy, so its resolution cache starts empty
        domain_taxonomy = load_taxonomy(fixture_path("taxonomy_domain.json"))
        a, b = sorted((p.labels for p in domain_taxonomy.path_index))[:2]
        a_case = tuple(label.upper() for label in a)
        a_space = tuple(f"  {label.replace(' ', '   ')} " for label in a)
        lines = [self.mapping_line("e1", a, b), self.mapping_line("e2", a),
                 self.mapping_line("e3", a_case, b), self.mapping_line("e4", a_space),
                 self.mapping_line("e5", a_case, a, a_space)]
        path = tmp_path / "mappings.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        taxonomies = {TaxonomyKind.DOMAIN: domain_taxonomy}
        slow = []
        resolve_labels = workatlas_taxonomy._resolve_labels
        monkeypatch.setattr(workatlas_taxonomy, "_resolve_labels",
                            lambda t, labels: slow.append(labels) or resolve_labels(t, labels))
        loaded = read_mappings(path, taxonomies)
        assert slow == [a, b, a_case, a_space]  # nine label lists, four distinct
        for result, line in zip(loaded, lines):
            expected = frozenset(resolve_path(domain_taxonomy, labels)
                                 for labels in json.loads(line)["paths"])
            assert result.paths == expected
        assert len(slow) == 4  # the checks above hit the cache
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

    @pytest.mark.parametrize("field, value, reason", [
        ("benchmark", 7, "field 'benchmark' must be a string, got int"),
        ("example_id", ["x"], "field 'example_id' must be a string, got list"),
        ("paths", "abc", "field 'paths' must be an array, got str"),
        ("status", None, "field 'status' must be a string, got NoneType"),
        ("raw", {}, "field 'raw' must be a string, got dict"),
        ("annotator_id", 1.5, "field 'annotator_id' must be a string, got float"),
    ])
    def test_wrong_field_type_names_line_and_field(self, tmp_path, domain_taxonomy,
                                                   field, value, reason):
        labels = sorted(p.labels for p in domain_taxonomy.path_index)[0]
        record = json.loads(self.mapping_line("e1", labels))
        path = tmp_path / "mappings.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n",
                        encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            read_mappings(path, {TaxonomyKind.DOMAIN: domain_taxonomy})
        assert (info.value.line_no, info.value.reason) == (2, "mapping record " + reason)

    @pytest.mark.parametrize("field, value, reason", [
        ("taxonomy_kind", "domains", "'domains' is not a valid TaxonomyKind"),
        ("status", "done", "'done' is not a valid MappingStatus"),
    ])
    def test_unknown_kind_or_status_named_by_enum(self, tmp_path, domain_taxonomy,
                                                 field, value, reason):
        record = json.loads(self.mapping_line("e1"))
        path = tmp_path / "mappings.jsonl"
        path.write_text(json.dumps({**record, field: value}) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            read_mappings(path, {TaxonomyKind.DOMAIN: domain_taxonomy})
        assert (info.value.line_no, info.value.reason) == (1, reason)

    @pytest.mark.parametrize("labels, reason", [
        ("abc", "labels must be a sequence of strings, got string 'abc'"),
        ([5, "x", "y"], "labels must be strings, got [5, 'x', 'y']"),
    ])
    def test_non_string_labels_named_with_line(self, tmp_path, domain_taxonomy, labels,
                                               reason):
        record = {**json.loads(self.mapping_line("e1")), "paths": [labels]}
        path = tmp_path / "mappings.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            read_mappings(path, {TaxonomyKind.DOMAIN: domain_taxonomy})
        assert (info.value.line_no, info.value.reason) == (1, "example b/e1: " + reason)

    def test_cache_shared_with_mapping(self, tmp_path, monkeypatch, domain_annotator):
        from workatlas.mapping import TaskExample, map_example

        domain_taxonomy = load_taxonomy(fixture_path("taxonomy_domain.json"))
        example = TaskExample("b", "e1", "Reconcile bank statements for Q1.")
        mapped = map_example(example, domain_taxonomy, domain_annotator)
        assert mapped.paths
        path = tmp_path / "mappings.jsonl"
        write_mappings(path, [mapped])
        slow = []
        monkeypatch.setattr(workatlas_taxonomy, "_resolve_labels",
                            lambda t, labels: slow.append(labels))
        loaded = read_mappings(path, {TaxonomyKind.DOMAIN: domain_taxonomy})
        assert slow == [] and loaded == [mapped]
        assert {id(p) for p in loaded[0].paths} == {id(p) for p in mapped.paths}

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

    def test_importance_reads_as_dict_reader_would(self, tmp_path):
        rng = random.Random(3)
        cells = ["13-2011", "4.A.1", "2.5", "", "x", "1e3", "nan"]
        for case in range(200):
            header = ["soc_code", "activity_id", "importance"]
            header += rng.sample(["note", "importance", "soc_code", "extra"], rng.randint(0, 2))
            rng.shuffle(header)
            rows = []
            for i in range(rng.randint(0, 6)):
                if rng.random() < 0.15:
                    rows.append("")
                    continue
                row = [f"s{i}", f"a{i}", str(rng.randint(1, 5))]
                row += [rng.choice(cells) for _ in range(len(header) - 3)]
                rng.shuffle(row)
                rows.append(",".join(row[:rng.randint(len(row) - 2, len(row) + 1)]))
            path = tmp_path / f"imp{case}.csv"
            path.write_text("# scale_max: 5.0\n" + ",".join(header) + "\n"
                            + "\n".join(rows) + "\n", encoding="utf-8")
            assert outcome(read_importance, path) == outcome(dict_reader_importance, path)

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


def dict_reader_importance(path):
    """Reference importance reader on ``csv.DictReader``."""
    import csv

    from workatlas.economics import ImportanceRecord, ImportanceTable

    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()
        reader = csv.DictReader(fh)
        if not {"soc_code", "activity_id", "importance"}.issubset(reader.fieldnames or ()):
            raise InputFormatError(path, 2, "header")
        records = []
        for line_no, record in enumerate(reader, start=3):
            try:
                records.append(ImportanceRecord(
                    soc_code=record["soc_code"], activity_id=record["activity_id"],
                    importance=workatlas_io._finite(record["importance"], "importance")))
            except (TypeError, ValueError) as err:
                raise InputFormatError(path, line_no, str(err)) from err
    try:
        return ImportanceTable(records=tuple(records), scale_max=5.0)
    except ValueError as err:
        raise InputFormatError(path, None, str(err)) from err


def outcome(read, path):
    try:
        return read(path)
    except InputFormatError as err:
        return (err.line_no, err.reason)


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

    @pytest.mark.parametrize("children, reason", [
        ("[1]", "root.children[0]: workflow node must be an object"),
        ("7", "root: workflow node children must be an array"),
        ('{"a": 1}', "root: workflow node children must be an array"),
    ])
    def test_malformed_node_named_with_line(self, tmp_path, children, reason):
        path = tmp_path / "wf.jsonl"
        path.write_text(
            '{"root": {"id": "r", "description": "d", "status": 1}}\n'
            '{"root": {"id": "r", "description": "d", "status": 1, "children": '
            + children + "}}\n",
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError) as info:
            read_workflows(path)
        assert (info.value.line_no, info.value.reason) == (2, reason)

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
