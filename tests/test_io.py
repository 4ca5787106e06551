import copy
import csv
import dataclasses
import json
import pickle
import random
import sys
from pathlib import Path

import pytest

from workatlas import io as workatlas_io
from workatlas import taxonomy as workatlas_taxonomy
from workatlas.autonomy import WorkflowNode, iter_nodes, success_rates
from workatlas.coverage import (
    MISSING,
    MappingFolder,
    breadth,
    check_results,
    coverage,
    effort_by_node,
)
from workatlas.io import (
    InputFormatError,
    fixture_path,
    read_curves,
    read_digital_labels,
    read_examples,
    read_importance,
    read_mapping_folds,
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
from workatlas.economics import ImportanceRecord
from workatlas.mapping import NO_METADATA, MappingResult, MappingStatus
from workatlas.sampling import build_pool, permutation_sensitivity, sample_until_saturation
from workatlas.taxonomy import TaxonomyKind, load_taxonomy, resolve_path

from conftest import deep_chain, synthetic_taxonomy


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


@pytest.mark.parametrize("line", [
    '{"a": 1} {"b": 2}', '{"a": 1}]', "1 2", '{"a": }', '{"a" 1}', '{"a": "b', "nul",
    ",", "\ufeff{}", '{"a": 1,}', '{"a": "\x01"}', '{"a": 1}\x1c{"b": 2}',
])
def test_invalid_json_worded_as_json_loads_words_it(tmp_path, line):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line)
    path = tmp_path / "records.jsonl"
    record = {"benchmark": "b", "example_id": "e", "taxonomy_kind": "domain", "raw": ""}
    path.write_text(json.dumps(record) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as info:
        read_raw_mappings(path)
    assert (info.value.line_no, info.value.reason) == (2, f"invalid JSON: {expected.value}")


def test_records_decoded_as_json_loads_decodes_them(tmp_path):
    lines = ['{"n": NaN, "i": -Infinity, "f": 1e400, "x": 1.5, "k": 10000000000000000000001}',
             '{"s": "\\u00e9\\ud83d\\ude00", "a": [1, [2, {}]], "t": true, "z": null}',
             '{"a": 1, "a": 2}', '  {"pad": " "}\t']
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = [record for _, record in workatlas_io._iter_jsonl(path)]
    assert repr(got) == repr([json.loads(line) for line in lines])


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

    def test_lines_are_sorted_key_json(self, tmp_path, domain_results, skill_results):
        import dataclasses

        odd = ['say "hi"', "C:\\dir\\f", "tab\tnew\nline", "naïve 日本 \U0001F600", ""]
        results = [
            dataclasses.replace(r, benchmark=odd[i % 5], example_id=f"{odd[(i + 1) % 5]}{i}",
                                annotator_id=odd[(i + 2) % 5],
                                raw_annotator_output=odd[(i + 3) % 5] + r.raw_annotator_output)
            for i, r in enumerate(list(domain_results) + list(skill_results))
        ]
        path = tmp_path / "mappings.jsonl"
        write_mappings(path, results)
        expected = "".join(json.dumps({
            "benchmark": r.benchmark, "example_id": r.example_id,
            "taxonomy_kind": r.taxonomy_kind.value, "status": r.status.value,
            "paths": sorted(list(p.labels) for p in r.paths),
            "annotator_id": r.annotator_id, "raw": r.raw_annotator_output,
        }, sort_keys=True) + "\n" for r in results)
        assert path.read_text(encoding="utf-8") == expected

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
        # nine label lists, four distinct; the load cached the verbatim two
        assert slow == [a_case, a_space]
        for result, line in zip(loaded, lines):
            expected = frozenset(resolve_path(domain_taxonomy, labels)
                                 for labels in json.loads(line)["paths"])
            assert result.paths == expected
        assert len(slow) == 2  # the checks above hit the cache
        variants = {id(p) for r in loaded for p in r.paths if p.labels == a}
        assert len(variants) == 1  # case and whitespace variants share one path object
        assert len(loaded[4].paths) == 1

    def test_folds_resolve_each_distinct_sequence_once(self, tmp_path, monkeypatch):
        # 600 leaves, so path numbers above 256 are not the interpreter's
        # shared small ints and "is" below tells the memo's ints apart
        t = synthetic_taxonomy(600)
        a, b = t.paths[300].labels, t.paths[599].labels
        a_case = tuple(label.upper() for label in a)
        a_space = tuple(f"  {label.replace(' ', '   ')} " for label in a)
        lines = [self.mapping_line("e1", a, b), self.mapping_line("e2", a),
                 self.mapping_line("e3", a_case, b), self.mapping_line("e4", a_space),
                 self.mapping_line("e5", a_case, a, a_space)]
        path = tmp_path / "mappings.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        slow = []
        resolve_labels = workatlas_taxonomy._resolve_labels
        monkeypatch.setattr(workatlas_taxonomy, "_resolve_labels",
                            lambda t, labels: slow.append(labels) or resolve_labels(t, labels))
        fold = read_mapping_folds(path, {TaxonomyKind.DOMAIN: t}).by_kind[TaxonomyKind.DOMAIN]
        # nine label lists, four distinct; the load cached the verbatim two
        assert slow == [a_case, a_space]
        # case and whitespace variants fold to one path number
        assert [fold.sets[i] for i in fold.ids] == [(300, 599), (300,), (300, 599), (300,),
                                                    (300,)]
        # the memo holds the taxonomy's own number objects, and every path
        # under its own labels tuple, so it adds no copies; the variants
        # are the only keys of their own
        assert len(t._resolved) == t.leaf_count + 2
        for key, number in t._resolved.items():
            assert number is t.path_index[t.paths[number]]
            assert (key is t.paths[number].labels) == (key not in (a_case, a_space))
        assert {id(n) for s in fold.sets for n in s} == {id(t._resolved[a]), id(t._resolved[b])}

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
        out = tmp_path / "labels.csv"
        out.write_text(render_table(
            ["soc_code", "task_hash", "label", "justification"],
            [(lab.soc_code, lab.task_hash, lab.label.value, lab.justification)
             for lab in digital_labels]), encoding="utf-8")
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
    """Reference importance reader on ``csv.DictReader``; a row's line is
    its physical line, one more than the reader counts after the scale
    line. A missing SOC code is refused, which ``DictReader`` would read
    as ``None``."""
    import csv

    from workatlas.economics import ImportanceRecord, ImportanceTable

    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()
        reader = csv.DictReader(fh)
        if not {"soc_code", "activity_id", "importance"}.issubset(reader.fieldnames or ()):
            raise InputFormatError(path, 2, "header")
        records = []
        for record in reader:
            try:
                if record["soc_code"] is None:
                    raise ValueError("soc_code missing")
                records.append(ImportanceRecord(
                    soc_code=record["soc_code"], activity_id=record["activity_id"],
                    importance=workatlas_io._finite(record["importance"], "importance")))
            except (TypeError, ValueError) as err:
                raise InputFormatError(path, reader.line_num + 1, str(err)) from err
    try:
        return ImportanceTable(records=tuple(records), scale_max=5.0)
    except ValueError as err:
        raise InputFormatError(path, None, str(err)) from err


def outcome(read, path):
    try:
        return read(path)
    except InputFormatError as err:
        return (err.line_no, err.reason)


def dict_reader_records(path):
    """``(line_no, record)`` for each row as ``csv.DictReader`` reads it, a
    ``csv.Error`` raised as an :class:`InputFormatError` at its line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for record in reader:
                yield reader.line_num, record
        except csv.Error as err:
            raise InputFormatError(path, reader.line_num, str(err)) from err


def dict_reader_header(path, required):
    with open(path, encoding="utf-8", newline="") as fh:
        if not set(required).issubset(csv.DictReader(fh).fieldnames or ()):
            raise InputFormatError(path, 1, f"header must contain {sorted(required)}")


def dict_reader_occupations(path):
    """Reference occupations reader on ``csv.DictReader``; a missing SOC
    code or title is refused, which ``DictReader`` would read as ``None``."""
    from workatlas.economics import OccupationStats

    dict_reader_header(path, ["soc_code", "title", "employment", "median_wage"])
    rows = []
    for line_no, record in dict_reader_records(path):
        try:
            if record["soc_code"] is None:
                raise ValueError("soc_code missing")
            if record["title"] is None:
                raise ValueError("title missing")
            rows.append(OccupationStats(
                soc_code=record["soc_code"], title=record["title"],
                employment=workatlas_io._finite(record["employment"], "employment"),
                median_wage=workatlas_io._finite(record["median_wage"], "median_wage")))
        except (TypeError, ValueError) as err:
            raise InputFormatError(path, line_no, str(err)) from err
    return rows


def dict_reader_digital_labels(path):
    """Reference digital-labels reader on ``csv.DictReader``; a missing SOC
    code and an empty or missing task hash are refused, and a missing
    justification reads ``""``."""
    from workatlas.economics import DigitalLabel, WorkMode

    dict_reader_header(path, ["soc_code", "task_hash", "label"])
    rows = []
    for line_no, record in dict_reader_records(path):
        try:
            if record["soc_code"] is None:
                raise ValueError("soc_code missing")
            label = WorkMode(record["label"])
            if not record["task_hash"]:
                raise ValueError(f"task_hash must not be empty, got {record['task_hash']!r}")
        except ValueError as err:
            raise InputFormatError(path, line_no, str(err)) from err
        rows.append(DigitalLabel(soc_code=record["soc_code"], task_text="", label=label,
                                 justification=record.get("justification") or "",
                                 task_hash=record["task_hash"]))
    return rows


def dict_reader_curves(path):
    """Reference curve reader on ``csv.DictReader``."""
    from workatlas.autonomy import AutonomyCurve, LevelStats

    dict_reader_header(path, ["group", "level", "successes", "totals"])
    levels = {}
    for line_no, record in dict_reader_records(path):
        try:
            level = int(record["level"])
            stats = LevelStats(successes=int(record["successes"]), totals=int(record["totals"]))
        except (TypeError, ValueError) as err:
            raise InputFormatError(path, line_no, str(err)) from err
        if level < 1:
            raise InputFormatError(path, line_no, f"level must be >= 1, got {level}")
        if level in levels.setdefault(record["group"], {}):
            raise InputFormatError(
                path, line_no, f"level {level} of group {record['group']!r} is repeated")
        levels[record["group"]][level] = stats
    return {g: AutonomyCurve(group_key=g, levels=dict(sorted(ls.items())))
            for g, ls in levels.items()}


#: reader -> (reference, required columns, optional columns, cells by column:
#: (good ones, bad ones))
DICT_READER_TWINS = {
    read_occupations: (
        dict_reader_occupations, ["soc_code", "title", "employment", "median_wage"], [],
        {"soc_code": (["13-2011", "13-2031"], [""]), "title": (["Accountants", ""], []),
         "employment": (["100", "2.5"], ["", "x", "nan", "-1"]),
         "median_wage": (["50000", "0"], ["", "inf"])}),
    read_digital_labels: (
        dict_reader_digital_labels, ["soc_code", "task_hash", "label"], ["justification"],
        {"soc_code": (["13-2011", "13-2031"], [""]), "task_hash": (["abc", "def"], [""]),
         "label": (["DIGITAL", "PHYSICAL"], ["MAYBE"]),
         "justification": (["eh", "", "generated"], [])}),
    read_curves: (
        dict_reader_curves, ["group", "level", "successes", "totals"], ["sr", "lcb"],
        {"group": (["g", "h", "k", ""], []), "level": (["1", "2", "3", "4", "5"], ["0", "x"]),
         "successes": (["0", "1"], ["3", ""]), "totals": (["1", "4"], ["0"]),
         "sr": (["0.5"], []), "lcb": (["0.1"], [])}),
}


@pytest.mark.parametrize("reader", DICT_READER_TWINS, ids=lambda r: r.__name__)
def test_reads_as_dict_reader_would(tmp_path, reader):
    """Random headers with repeated, extra and absent optional columns;
    short, long and blank rows: the reader and its ``csv.DictReader``
    reference give the same records, or the same line and reason."""
    reference, required, optional, cells = DICT_READER_TWINS[reader]
    rng = random.Random(reader.__name__)
    for case in range(300):
        header = required + [name for name in optional if rng.random() < 0.6]
        header += rng.sample([*required, *optional, "note", "extra"], rng.randint(0, 2))
        rng.shuffle(header)
        rows = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.1:
                rows.append("")
                continue
            row = []
            for name in header:
                good, bad = cells.get(name, (["n"], []))
                row.append(rng.choice(bad if bad and rng.random() < 0.04 else good))
            roll = rng.random()  # short by one or two cells, long by one, or whole
            width = len(row) - rng.randint(1, 2) if roll < 0.1 else len(row) + (roll < 0.2)
            rows.append(",".join((row + ["more"])[:width]))
        path = tmp_path / f"{case}.csv"
        path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert outcome(reader, path) == outcome(reference, path), path.read_text()


#: A cell one byte over the ``csv`` module's field limit, and its refusal.
OVER_LIMIT = "x" * (csv.field_size_limit() + 1)
OVER_LIMIT_REASON = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("reader, text, line_no, reason", [
    (read_occupations, "soc_code,title,employment,median_wage\n13-2011,A,1,2\n\n"
     "13-2031,B,oops,3\n", 4, "could not convert string to float: 'oops'"),
    (read_importance, "# scale_max: 5.0\nsoc_code,activity_id,importance\n"
     "13-2011,4.A.1.a.1,4.0\n\n13-2031,4.A.1.a.1,oops\n", 5,
     "could not convert string to float: 'oops'"),
    (read_digital_labels, "soc_code,task_hash,label,justification\n\n13-2011,abc,MAYBE,eh\n",
     3, "'MAYBE' is not a valid WorkMode"),
    (read_curves, "group,level,successes,totals,sr,lcb\ng,1,3,4,0.75,0.3\n\n\ng,x,0,1,0,0\n",
     5, "invalid literal for int() with base 10: 'x'"),
    pytest.param(read_occupations, "soc_code,title,employment,median_wage\n\n"
                 f"13-2011,{OVER_LIMIT},1,2\n", 3, OVER_LIMIT_REASON, id="occupations-over-limit"),
    pytest.param(read_importance, "# scale_max: 5.0\nsoc_code,activity_id,importance\n"
                 f"13-2011,4.A.1.a.1,4.0\n\n13-2031,{OVER_LIMIT},1\n", 5, OVER_LIMIT_REASON,
                 id="importance-over-limit"),
    pytest.param(read_digital_labels, "soc_code,task_hash,label,justification\n"
                 f"13-2011,abc,DIGITAL,eh\n\n13-2011,def,DIGITAL,{OVER_LIMIT}\n", 4,
                 OVER_LIMIT_REASON, id="digital-labels-over-limit"),
    pytest.param(read_curves, "group,level,successes,totals,sr,lcb\ng,1,3,4,0.75,0.3\n\n\n"
                 f"{OVER_LIMIT},2,0,1,0,0\n", 5, OVER_LIMIT_REASON, id="curves-over-limit"),
    pytest.param(read_occupations, "title,employment,median_wage,soc_code\nA,1,2,13-2011\n\n"
                 "B,3,4\n", 4, "soc_code missing", id="occupation-without-soc-code"),
    pytest.param(read_importance, "# scale_max: 5.0\nactivity_id,importance,soc_code\n"
                 "4.A.1.a.1,4.0\n", 3, "soc_code missing", id="importance-without-soc-code"),
    pytest.param(read_digital_labels, "task_hash,label,soc_code\nabc,DIGITAL,13-2011\n"
                 "def,DIGITAL\n", 3, "soc_code missing", id="digital-label-without-soc-code"),
])
def test_csv_error_names_physical_line_after_blank_rows(tmp_path, reader, text, line_no,
                                                        reason):
    path = tmp_path / "blank.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputFormatError) as info:
        reader(path)
    assert (info.value.line_no, info.value.reason) == (line_no, reason)


class TestValueSharing:
    """Parsed records hold one object per repeated value."""

    @staticmethod
    def taxonomies(domain_taxonomy, skill_taxonomy):
        return {TaxonomyKind.DOMAIN: domain_taxonomy, TaxonomyKind.SKILL: skill_taxonomy}

    @staticmethod
    def random_mappings(rng, taxonomies, count):
        """``count`` mapping lines drawn from small pools, so values repeat."""
        pools = {kind: sorted(p.labels for p in t.path_index) for kind, t in taxonomies.items()}
        lines = []
        for i in range(count):
            kind = rng.choice(sorted(pools, key=lambda k: k.value))
            labels = rng.sample(pools[kind], rng.randint(0, 3))
            record = {"benchmark": f"bench-{rng.randint(1, 3)}",
                      "example_id": f"ex-{rng.randint(1, count // 4)}",
                      "taxonomy_kind": kind.value,
                      "status": "mapped" if labels else rng.choice(["empty", "invalid"]),
                      "paths": [list(ls) for ls in labels]}
            if rng.random() < 0.8:
                record["raw"] = json.dumps([list(ls) for ls in labels])
            if rng.random() < 0.8:
                record["annotator_id"] = f"keyword:rules_{kind.value}"
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + "\n"

    @staticmethod
    def reference_read(path, taxonomies):
        """A per-record build of every result, sharing nothing."""
        results = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            kind = TaxonomyKind(record["taxonomy_kind"])
            results.append(MappingResult(
                benchmark=record["benchmark"], example_id=record["example_id"],
                taxonomy_kind=kind,
                paths=frozenset(resolve_path(taxonomies[kind], labels)
                                for labels in record["paths"]),
                status=MappingStatus(record["status"]),
                raw_annotator_output=record.get("raw", ""),
                annotator_id=record.get("annotator_id", "unknown")))
        return results

    def test_equal_values_are_one_object(self, tmp_path, domain_results, skill_results,
                                         domain_taxonomy, skill_taxonomy):
        path = tmp_path / "mappings.jsonl"
        write_mappings(path, list(domain_results) + list(skill_results))
        loaded = read_mappings(path, self.taxonomies(domain_taxonomy, skill_taxonomy))
        by_paths: dict = {}
        for r in loaded:
            assert by_paths.setdefault(r.paths, r.paths) is r.paths
        assert len(by_paths) < len(loaded)  # the fixture repeats path sets
        first_kind: dict = {}
        for r in loaded:
            other = first_kind.setdefault(r.key, r)
            assert other.benchmark is r.benchmark and other.example_id is r.example_id
            assert other.annotator_id == r.annotator_id or r.taxonomy_kind != other.taxonomy_kind
        assert len(first_kind) * 2 == len(loaded)  # every example has both kinds

    def test_matches_per_record_reference(self, tmp_path, domain_taxonomy, skill_taxonomy):
        taxonomies = self.taxonomies(domain_taxonomy, skill_taxonomy)
        path = tmp_path / "mappings.jsonl"
        path.write_text(self.random_mappings(random.Random(11), taxonomies, 400),
                        encoding="utf-8")
        loaded = read_mappings(path, taxonomies)
        assert loaded == self.reference_read(path, taxonomies)
        assert len({id(r.example_id) for r in loaded}) == len({r.example_id for r in loaded})
        assert len({id(r.paths) for r in loaded}) == len({r.paths for r in loaded})

    def test_repeated_records_retain_less_than_reference(self, tmp_path, domain_taxonomy,
                                                         skill_taxonomy):
        import tracemalloc

        taxonomies = self.taxonomies(domain_taxonomy, skill_taxonomy)
        path = tmp_path / "mappings.jsonl"
        path.write_text(self.random_mappings(random.Random(5), taxonomies, 2000),
                        encoding="utf-8")
        read_mappings(path, taxonomies)  # both builds start from a warm resolution cache

        def retained(read):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                results = read(path, taxonomies)
                return tracemalloc.get_traced_memory()[0] - before, results
            finally:
                tracemalloc.stop()

        shared, loaded = retained(read_mappings)
        reference, expected = retained(self.reference_read)
        assert loaded == expected
        assert shared < 0.6 * reference, (shared, reference)

    def test_examples_share_benchmark_names_and_empty_metadata(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text(
            '{"benchmark": "b", "example_id": "e1", "instruction": "one"}\n'
            '{"benchmark": "b", "example_id": "e2", "instruction": "two", '
            '"metadata": {"split": "test"}}\n'
            '{"benchmark": "b", "example_id": "e3", "instruction": "three", "metadata": {}}\n',
            encoding="utf-8")
        first, second, third = examples = read_examples(path)
        assert first.benchmark is second.benchmark is third.benchmark
        assert first.metadata is NO_METADATA and third.metadata is NO_METADATA
        assert second.metadata == {"split": "test"}
        with pytest.raises(TypeError):
            first.metadata["split"] = "dev"
        for again in (pickle.loads(pickle.dumps(examples)), copy.deepcopy(examples)):
            assert again == examples
            assert [e.metadata for e in again] == [{}, {"split": "test"}, {}]
        assert dataclasses.asdict(first)["metadata"] == {}
        out = tmp_path / "again.jsonl"
        write_examples(out, examples)
        assert read_examples(out) == examples

    def test_importance_records_as_a_dict_reader_reads_them(self, tmp_path):
        import csv

        rng = random.Random(4)
        path = tmp_path / "imp.csv"
        pairs = rng.sample([(f"{c}-{n:02d}", f"4.A.{a}") for c in "abc" for n in range(40)
                            for a in range(3)], 200)  # unique pairs, in random order
        path.write_text("# scale_max: 5.0\nsoc_code,activity_id,importance\n" + "".join(
            f"{soc},{activity},{rng.uniform(0, 5)!r}\n" for soc, activity in pairs),
            encoding="utf-8")
        for source in (fixture_path("importance.csv"), path):
            with open(source, encoding="utf-8", newline="") as fh:
                fh.readline()
                expected = tuple(ImportanceRecord(r["soc_code"], r["activity_id"],
                                                  float(r["importance"]))
                                 for r in csv.DictReader(fh))
            table = read_importance(source)
            assert table.records == expected
            assert all(type(r) is ImportanceRecord for r in table.records)

    def test_importance_holds_under_40_bytes_per_row(self, tmp_path):
        import tracemalloc

        path = tmp_path / "imp.csv"
        path.write_text("# scale_max: 7.0\nsoc_code,activity_id,importance\n" + "".join(
            f"{11 + s // 100:02d}-{s:04d},4.A.{a // 10}.{a},{(s * a) % 70 / 10}\n"
            for s in range(250) for a in range(40)), encoding="utf-8")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = read_importance(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table.importance) == 10_000
        assert held < 40 * 10_000, held

    def test_importance_ids_are_one_object(self, tmp_path):
        path = tmp_path / "imp.csv"
        path.write_text("# scale_max: 5.0\nsoc_code,activity_id,importance\n"
                        "13-2011,4.A.1,1\n13-2011,4.A.2,2\n13-2031,4.A.1,3\n",
                        encoding="utf-8")
        a, b, c = read_importance(path).records
        assert a.soc_code is b.soc_code and a.activity_id is c.activity_id

    def test_workflow_metadata_shared(self, tmp_path):
        line = ('{{"benchmark": "b", "trajectory_id": "{t}", "root": {{"id": "n0", '
                '"description": "d", "status": 1, "children": [{{"id": "n1", '
                '"description": "d", "status": 0}}]}}}}\n')
        path = tmp_path / "wf.jsonl"
        path.write_text(line.format(t="t1") + line.format(t="t2"), encoding="utf-8")
        first, second = read_workflows(path)
        assert first.children[0].metadata == {}
        assert first.metadata is not second.metadata  # roots keep their own dict
        assert first.metadata == {"benchmark": "b", "trajectory_id": "t1"}
        first.metadata["agent"] = "a"
        assert "agent" not in second.metadata

    def test_parsed_trees_copy_and_pickle(self, tmp_path, workflows):
        path = tmp_path / "wf.jsonl"
        write_workflows(path, workflows)
        trees = read_workflows(path)
        for again in (pickle.loads(pickle.dumps(trees)), copy.deepcopy(trees)):
            assert again == trees
            assert again[0].metadata == trees[0].metadata
        as_dict = dataclasses.asdict(trees[0])
        assert as_dict["metadata"] == trees[0].metadata
        assert as_dict["children"][0]["metadata"] == {}


def assert_numbered(fold):
    """``paths`` holds each distinct path once and every set is a strictly
    increasing tuple of path numbers; a fold for a taxonomy numbers paths
    by the taxonomy's table, and a fold with none holds each of its own
    paths in some set."""
    assert len(set(fold.paths)) == len(fold.paths)
    for numbers in fold.sets:
        assert type(numbers) is tuple
        assert all(type(j) is int for j in numbers)
        assert list(numbers) == sorted(set(numbers))
        assert all(0 <= j < len(fold.paths) for j in numbers)
    if fold.taxonomy is None:
        assert set().union(*fold.sets) == set(range(len(fold.paths)))
    else:
        assert fold.paths is fold.taxonomy.paths


class TestMappingFolds:
    """The streaming reader folds a file into what the coverage tables and
    the sampler read from :func:`read_mappings` results."""

    @staticmethod
    def assert_fold_matches(path, taxonomies):
        results = read_mappings(path, taxonomies)
        folded = read_mapping_folds(path, taxonomies)
        assert tuple(folded.examples) == tuple(dict.fromkeys(r.key for r in results))
        by_kind: dict = {}
        for r in results:
            by_kind.setdefault(r.taxonomy_kind, []).append(r)
        assert folded.by_kind.keys() == by_kind.keys()  # a kind without records has no fold
        for kind, rs in by_kind.items():
            fold, t = folded.by_kind[kind], taxonomies[kind]
            union: dict = {}
            for r in rs:
                union.setdefault(r.key, set()).update(r.paths)
            assert fold.taxonomy is t
            # the examples are numbered once, for every kind, in first-seen order
            assert fold.keys is folded.examples
            assert len(fold.ids) == len(folded.examples)
            assert [(k, frozenset(fold.paths[j] for j in fold.sets[i]))
                    for k, i in zip(fold.keys, fold.ids) if i != MISSING] == [
                (k, frozenset(union[k])) for k in folded.examples if k in union]
            assert len(set(fold.sets)) == len(fold.sets)  # each distinct set once
            assert set(fold.ids) - {MISSING} == set(range(len(fold.sets)))  # each one used
            assert_numbered(fold)
            assert coverage(fold, t) == coverage(rs, t)
            assert effort_by_node(fold, t) == effort_by_node(rs, t)
            assert breadth(fold, t) == breadth(rs, t)
        pool = build_pool(results)
        assert tuple(pool.examples) == tuple(folded.examples)
        assert pool.by_kind.keys() == folded.by_kind.keys()
        for kind, fold in folded.by_kind.items():
            # a build_pool fold of the same records, checked, is the same fold
            assert_numbered(pool.by_kind[kind])
            checked = check_results(pool.by_kind[kind], taxonomies[kind])
            assert checked.sets == fold.sets
            assert checked.ids == fold.ids
            assert checked.paths is fold.paths is taxonomies[kind].paths
        if results:
            t_domain = taxonomies.get(TaxonomyKind.DOMAIN)
            t_skill = taxonomies.get(TaxonomyKind.SKILL)
            for source in (pool, results):
                assert (sample_until_saturation(folded, t_domain, t_skill)
                        == sample_until_saturation(source, t_domain, t_skill))
                assert (permutation_sensitivity(folded, t_domain, t_skill, permutations=40,
                                                rng_seed=9)
                        == permutation_sensitivity(source, t_domain, t_skill, permutations=40,
                                                   rng_seed=9))
        return results

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kinds", [("domain", "skill"), ("domain",), ("skill",)])
    def test_random_files(self, tmp_path, domain_taxonomy, skill_taxonomy, seed, kinds):
        taxonomies = {kind: t for kind, t in TestValueSharing.taxonomies(
            domain_taxonomy, skill_taxonomy).items() if kind.value in kinds}
        path = tmp_path / "mappings.jsonl"
        path.write_text(TestValueSharing.random_mappings(random.Random(seed), taxonomies, 300),
                        encoding="utf-8")
        results = self.assert_fold_matches(path, taxonomies)
        assert len({r.key for r in results}) < len(results)  # examples repeat
        assert {r.status for r in results} == set(MappingStatus)

    def test_repeated_records_keep_only_the_sets_in_use(self, tmp_path, domain_taxonomy,
                                                        skill_taxonomy):
        taxonomies = TestValueSharing.taxonomies(domain_taxonomy, skill_taxonomy)
        a, b, c = (list(p.labels) for p in sorted(domain_taxonomy.path_index, key=str)[:3])
        skill = list(sorted(skill_taxonomy.path_index, key=str)[0].labels)

        def record(example_id, kind, paths):
            return json.dumps({"benchmark": "b", "example_id": example_id,
                               "taxonomy_kind": kind, "paths": paths,
                               "status": "mapped" if paths else "empty"})

        path = tmp_path / "mappings.jsonl"
        path.write_text("\n".join([
            record("e1", "domain", [a]),
            record("e2", "domain", [b]),
            record("e1", "skill", [skill]),
            record("e1", "domain", [c]),  # e1's {a} becomes {a, c}; no example keeps {a}
            record("e3", "domain", []),
            record("e3", "domain", [b]),  # e3's empty set becomes e2's {b}
        ]) + "\n", encoding="utf-8")
        self.assert_fold_matches(path, taxonomies)
        fold = read_mapping_folds(path, taxonomies).by_kind[TaxonomyKind.DOMAIN]
        paths = {tuple(labels): resolve_path(domain_taxonomy, labels) for labels in (a, b, c)}
        # the sets in use, in the order they were first added, and no other,
        # as tuples of the taxonomy's path numbers
        assert [frozenset(fold.paths[j] for j in s) for s in fold.sets] == [
            frozenset([paths[tuple(b)]]), frozenset([paths[tuple(a)], paths[tuple(c)]])]
        number = {labels: domain_taxonomy.path_index[path] for labels, path in paths.items()}
        assert fold.sets == [(number[tuple(b)],),
                             tuple(sorted([number[tuple(a)], number[tuple(c)]]))]
        assert list(fold.ids) == [1, 0, 0]

    def test_example_keys_are_columns_in_first_seen_order(self, tmp_path, domain_taxonomy,
                                                          skill_taxonomy):
        taxonomies = TestValueSharing.taxonomies(domain_taxonomy, skill_taxonomy)
        a, b, c = (list(p.labels) for p in sorted(domain_taxonomy.path_index, key=str)[:3])
        number = {tuple(labels): domain_taxonomy.path_index[resolve_path(domain_taxonomy, labels)]
                  for labels in (a, b, c)}

        def record(benchmark, example_id, kind, paths):
            return json.dumps({"benchmark": benchmark, "example_id": example_id,
                               "taxonomy_kind": kind, "paths": paths,
                               "status": "mapped" if paths else "empty"})

        path = tmp_path / "mappings.jsonl"
        path.write_text("\n".join([
            record("b2", "e1", "domain", [a]),
            record("b1", "e1", "domain", [b]),  # the same id in another benchmark
            record("b2", "e2", "skill", []),
            record("b1", "e0", "domain", []),
            record("b2", "e1", "domain", [c]),  # a repeat four lines on: a union
            record("b1", "e1", "domain", [b]),  # a repeat that changes nothing
        ]) + "\n", encoding="utf-8")
        self.assert_fold_matches(path, taxonomies)
        folded = read_mapping_folds(path, taxonomies)
        keys = folded.examples
        expected = (("b2", "e1"), ("b1", "e1"), ("b2", "e2"), ("b1", "e0"))
        assert keys.benchmarks == ("b2", "b1")
        assert list(keys.codes) == [0, 1, 0, 1]
        assert list(keys.ids) == ["e1", "e1", "e2", "e0"]
        assert len(keys) == 4
        assert [keys[n] for n in range(4)] == list(expected)
        assert keys[-1] == ("b1", "e0")
        with pytest.raises(IndexError):
            keys[4]
        assert tuple(keys) == tuple(iter(keys)) == expected
        assert keys.index(("b2", "e2")) == 2 and ("b1", "e2") not in keys
        fold = folded.by_kind[TaxonomyKind.DOMAIN]
        assert fold.keys is keys
        # b2/e1's first set, {a}, is left unused by its union and dropped
        assert fold.sets == [(number[tuple(b)],), (),
                             tuple(sorted([number[tuple(a)], number[tuple(c)]]))]
        assert list(fold.ids) == [2, 0, MISSING, 1]

    def test_fold_holds_no_tuple_per_example(self, domain_taxonomy, skill_taxonomy):
        # 3,000 examples in three benchmarks, twenty path sets per kind: the
        # fold holds its keys as two columns and a tuple of names, each
        # distinct set once, and no table with an entry per example
        import gc
        from enum import Enum

        taxonomies = TestValueSharing.taxonomies(domain_taxonomy, skill_taxonomy)
        rng, n = random.Random(29), 3_000
        sets = {kind: [tuple(sorted(rng.sample(range(len(t.paths)), rng.randint(0, 3))))
                       for _ in range(20)] for kind, t in taxonomies.items()}
        folder = MappingFolder(taxonomies)
        for i in range(n):
            for kind in taxonomies:
                folder.add_numbers(kind, f"bench-{i % 3}", f"e{i}", rng.choice(sets[kind]))
        folded = folder.folded()
        skip = {id(x) for t in taxonomies.values() for x in (t, t.paths, t.path_index)}
        seen, stack, held = set(), [folded], []
        while stack:
            obj = stack.pop()
            if (id(obj) in seen or id(obj) in skip
                    or isinstance(obj, (str, int, float, type, Enum)) or obj is None):
                continue
            seen.add(id(obj))
            held.append(obj)
            stack.extend(gc.get_referents(obj))
        tuples = [o for o in held if type(o) is tuple]
        distinct = sum(len(fold.sets) for fold in folded.by_kind.values())
        assert len(folded.examples) == n
        assert folded.examples.benchmarks in tuples
        assert len(tuples) <= distinct + 1  # the sets and the benchmark names
        assert not [o for o in tuples if len(o) == 2 and all(type(x) is str for x in o)]
        assert max(len(o) for o in held if isinstance(o, dict)) < 10  # no index kept
        assert sys.getsizeof(folded.examples.codes) < 5 * n  # an int per example

    def test_folding_drops_only_the_sets_a_repeat_stranded(self, domain_taxonomy):
        taxonomies = {TaxonomyKind.DOMAIN: domain_taxonomy}
        a, b, c = (0,), (1,), (2,)
        cases = [
            # (records as (example id, path numbers), sets kept, ids)
            ([("e1", a), ("e2", b), ("e1", a)], [a, b], [0, 1]),  # the same union
            ([("e1", a), ("e2", a), ("e1", b)], [a, (0, 1)], [1, 0]),  # {a} still e2's
            ([("e1", ()), ("e1", a), ("e2", b)], [a, b], [0, 1]),  # the empty set freed
            ([("e1", a), ("e2", b), ("e1", c)], [b, (0, 2)], [1, 0]),
            ([("e1", a), ("e2", b), ("e1", c), ("e3", a)], [a, b, (0, 2)],
             [2, 1, 0]),  # the set e1 left is e3's
        ]
        for records, kept, ids in cases:
            folder = MappingFolder(taxonomies)
            for example_id, numbers in records:
                folder.add_numbers(TaxonomyKind.DOMAIN, "b", example_id, numbers)
            fold = folder.folded().by_kind[TaxonomyKind.DOMAIN]
            assert (fold.sets, list(fold.ids)) == (kept, ids), records

    def test_sets_take_a_pointer_per_member(self, domain_taxonomy, skill_taxonomy):
        # 20,000 examples with one to four paths of each kind: a set is a
        # tuple of path numbers, a header and one pointer per member
        rng = random.Random(25)
        taxonomies = TestValueSharing.taxonomies(domain_taxonomy, skill_taxonomy)
        paths = {kind: sorted(t.path_index, key=str) for kind, t in taxonomies.items()}
        folder = MappingFolder(taxonomies)
        for i in range(20_000):
            for kind, kind_paths in paths.items():
                folder.add(kind, ("b", f"e{i}"),
                           frozenset(rng.sample(kind_paths, rng.randint(1, 4))))
        folded = folder.folded()
        assert len(folded.examples) == 20_000
        for fold in folded.by_kind.values():
            assert len(fold.sets) > 100
            for numbers in fold.sets:
                assert sys.getsizeof(numbers) <= 64 + 8 * len(numbers), numbers

    def test_empty_file(self, tmp_path, domain_taxonomy, skill_taxonomy):
        path = tmp_path / "mappings.jsonl"
        path.write_text("\n", encoding="utf-8")
        taxonomies = TestValueSharing.taxonomies(domain_taxonomy, skill_taxonomy)
        assert self.assert_fold_matches(path, taxonomies) == []
        folded = read_mapping_folds(path, taxonomies)
        assert (tuple(folded.examples), folded.by_kind) == ((), {})

    BASE = {"benchmark": "b", "example_id": "bad", "taxonomy_kind": "domain",
            "status": "mapped",
            "paths": [["Business and Financial Operations", "Accountants",
                       "prepare adjusting journal entries"]]}

    @pytest.mark.parametrize("line, reason", [
        ('{"benchmark": "b", "example_id"',
         "invalid JSON: Expecting ':' delimiter: line 1 column 32 (char 31)"),
        ('["b", "bad"]', "record must be a JSON object, got list"),
        ("[" * 100000 + "]" * 100000, "nesting too deep to decode"),
        (json.dumps({k: v for k, v in BASE.items() if k != "status"}),
         "mapping record missing 'status'"),
        (json.dumps({**BASE, "paths": "x"}),
         "mapping record field 'paths' must be an array, got str"),
        (json.dumps({**BASE, "taxonomy_kind": "domains"}),
         "'domains' is not a valid TaxonomyKind"),
        (json.dumps({**BASE, "status": "done"}), "'done' is not a valid MappingStatus"),
        (json.dumps({**BASE, "taxonomy_kind": "skill"}), "no taxonomy supplied for kind skill"),
        (json.dumps({**BASE, "paths": [["No", "Such", "Path"]]}),
         "example b/bad: no path matches labels ['No', 'Such', 'Path']"),
        (json.dumps({**BASE, "paths": [[5, "x"]]}),
         "example b/bad: labels must be strings, got [5, 'x']"),
        (json.dumps({**BASE, "paths": ["abc"]}),
         "example b/bad: labels must be a sequence of strings, got string 'abc'"),
        (json.dumps({**BASE, "paths": [dict.fromkeys(BASE["paths"][0], 0)]}),
         "example b/bad: labels must be a sequence of strings, got dict"),
        (json.dumps({**BASE, "paths": [*BASE["paths"], 7]}),
         "example b/bad: labels must be a sequence of strings, got int"),
        (json.dumps({**BASE, "paths": [None]}),
         "example b/bad: labels must be a sequence of strings, got NoneType"),
        (json.dumps({**BASE, "paths": [[["nested"]]]}),
         "example b/bad: unhashable type: 'list'"),
        (json.dumps({**BASE, "paths": []}), "status mapped inconsistent with 0 paths"),
        (json.dumps({**BASE, "status": "empty"}), "status empty inconsistent with 1 paths"),
    ], ids=["json", "not-object", "too-deep", "missing-field", "field-type", "kind",
            "status", "no-taxonomy", "unknown-path", "labels", "string-entry", "object-entry",
            "number-entry", "null-entry", "unhashable-entry", "mapped-without-paths",
            "empty-with-paths"])
    def test_bad_line_named_alike(self, tmp_path, domain_taxonomy, line, reason):
        path = tmp_path / "mappings.jsonl"
        path.write_text(json.dumps({**self.BASE, "example_id": "ok"}) + "\n\n" + line + "\n",
                        encoding="utf-8")
        for read in (read_mappings, read_mapping_folds):
            with pytest.raises(InputFormatError) as info:
                read(path, {TaxonomyKind.DOMAIN: domain_taxonomy})
            assert (info.value.path, info.value.line_no, info.value.reason) == (
                str(path), 3, reason)


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
