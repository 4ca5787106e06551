import copy
import gc
import json
import pickle
import random
import sys
import threading
import weakref

import pytest

from conftest import synthetic_taxonomy
from workatlas.io import fixture_path
from workatlas.taxonomy import (
    NO_ANNOTATIONS,
    PartialPathError,
    ReadOnlyEmptyDict,
    TaxonomyKind,
    TaxonomyPath,
    TaxonomySchemaError,
    TaxonomyStructureError,
    UnknownPathError,
    all_paths,
    canonical_label,
    flatten_for_prompt,
    load_taxonomy,
    path_number,
    path_with_labels,
    resolve_path,
)


def minimal_doc(kind="domain"):
    return {
        "kind": kind,
        "root": {
            "id": "r",
            "label": "root",
            "children": [
                {
                    "id": "f1",
                    "label": "Family One",
                    "children": [
                        {
                            "id": "o1",
                            "label": "Occ One",
                            "children": [
                                {"id": "t1", "label": "task one", "children": []},
                                {"id": "t2", "label": "task two", "children": []},
                            ],
                        },
                        {
                            "id": "o2",
                            "label": "Occ Two",
                            "children": [
                                {"id": "t3", "label": "task three", "children": []},
                            ],
                        },
                    ],
                },
                {
                    "id": "f2",
                    "label": "Family Two",
                    "children": [
                        {
                            "id": "o3",
                            "label": "Occ Three",
                            "children": [
                                {"id": "t4", "label": "task four", "children": []},
                                {"id": "t5", "label": "task five", "children": []},
                            ],
                        },
                    ],
                },
            ],
        },
    }


class TestLoad:
    def test_fixture_counts(self, domain_taxonomy):
        assert len(domain_taxonomy.root.children) == 3
        assert len(domain_taxonomy.nodes_at_level(2)) == 6
        assert domain_taxonomy.leaf_count == 12

    def test_two_family_fixture_has_five_paths(self):
        t = load_taxonomy(minimal_doc())
        assert t.leaf_count == 5
        assert len(all_paths(t)) == 5

    def test_levels_assigned_from_structure(self):
        t = load_taxonomy(minimal_doc())
        assert t.root.level == 0
        assert t.node("f1").level == 1
        assert t.node("o1").level == 2
        assert t.node("t1").level == 3

    def test_childless_root_rejected(self):
        with pytest.raises(TaxonomyStructureError, match="at least one leaf"):
            load_taxonomy({"kind": "domain", "root": {"id": "r", "label": "root", "children": []}})

    def test_duplicate_id_rejected(self):
        doc = minimal_doc()
        doc["root"]["children"][0]["children"][0]["children"][1]["id"] = "t1"
        with pytest.raises(TaxonomyStructureError, match="duplicate"):
            load_taxonomy(doc)

    def test_wrong_depth_rejected(self):
        doc = minimal_doc()
        # leaf at level 2
        doc["root"]["children"][1]["children"][0]["children"] = []
        with pytest.raises(TaxonomyStructureError, match="level 2"):
            load_taxonomy(doc)

    def test_too_deep_rejected(self):
        doc = minimal_doc()
        doc["root"]["children"][0]["children"][0]["children"][0]["children"] = [
            {"id": "deep", "label": "too deep", "children": []}
        ]
        with pytest.raises(TaxonomyStructureError):
            load_taxonomy(doc)

    def test_bad_kind_rejected(self):
        doc = minimal_doc()
        doc["kind"] = "occupation"
        with pytest.raises(TaxonomySchemaError, match="kind"):
            load_taxonomy(doc)

    def test_missing_label_rejected(self):
        doc = minimal_doc()
        del doc["root"]["children"][0]["label"]
        with pytest.raises(TaxonomySchemaError, match="label"):
            load_taxonomy(doc)

    def test_soc_annotation_only_on_domain_level2(self):
        doc = minimal_doc()
        doc["root"]["children"][0]["annotations"] = {"soc_code": "11-0000"}
        with pytest.raises(TaxonomyStructureError, match="soc_code"):
            load_taxonomy(doc)
        skill_doc = minimal_doc(kind="skill")
        skill_doc["root"]["children"][0]["children"][0]["annotations"] = {"soc_code": "11-0000"}
        with pytest.raises(TaxonomyStructureError, match="soc_code"):
            load_taxonomy(skill_doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(minimal_doc()), encoding="utf-8")
        assert load_taxonomy(path).leaf_count == 5


def test_loaded_taxonomy_freed_without_cyclic_collector():
    # The CLI pauses the cyclic collector per command, so a taxonomy must
    # hold no reference cycle that would outlive it.
    gc.disable()
    try:
        t = load_taxonomy(minimal_doc())
        path = weakref.ref(next(iter(t.path_index)))
        node = weakref.ref(t.root.children[0])
        del t
        assert path() is None and node() is None
    finally:
        gc.enable()


class TestAnnotations:
    def test_nodes_without_annotations_share_one_read_only_mapping(self, domain_taxonomy,
                                                                   skill_taxonomy):
        for t in (domain_taxonomy, skill_taxonomy):
            nodes = list(t._nodes_by_id.values())
            bare = [n for n in nodes if not n.annotations]
            annotated = [n for n in nodes if n.annotations]
            assert len(bare) > 1 and annotated
            assert all(n.annotations is NO_ANNOTATIONS for n in bare)
            # an annotated node keeps a dict of its own
            assert len({id(n.annotations) for n in annotated}) == len(annotated)
        with pytest.raises(TypeError):
            bare[0].annotations["activity_id"] = "4.A.1"
        with pytest.raises(TypeError):
            bare[0].annotations.update(activity_id="4.A.1")
        assert NO_ANNOTATIONS == {} and json.dumps(bare[0].annotations) == "{}"

    def test_copies_keep_annotations(self, domain_taxonomy):
        original = [(n.id, n.level, n.annotations)
                    for n in domain_taxonomy._nodes_by_id.values()]
        for again in (pickle.loads(pickle.dumps(domain_taxonomy)),
                      copy.deepcopy(domain_taxonomy)):
            nodes = list(again._nodes_by_id.values())
            assert [(n.id, n.level, n.annotations) for n in nodes] == original
            bare = [n.annotations for n in nodes if not n.annotations]
            assert bare and all(isinstance(a, ReadOnlyEmptyDict) for a in bare)
            assert again.root.children[0] is nodes[1]
            assert again.path_index == domain_taxonomy.path_index


class TestPaths:
    def test_all_paths_cardinality_equals_leaves(self, domain_taxonomy, skill_taxonomy):
        assert len(all_paths(domain_taxonomy)) == domain_taxonomy.leaf_count
        assert len(all_paths(skill_taxonomy)) == skill_taxonomy.leaf_count

    def test_paths_are_numbered_once_in_document_order(self, domain_taxonomy,
                                                       skill_taxonomy):
        for t in (domain_taxonomy, skill_taxonomy):
            assert type(t.paths) is tuple
            assert [p.node_ids[-1] for p in t.paths] == [n.id for n in t.leaves()]
            for again in (t, pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
                assert len(again.path_index) == again.leaf_count == len(t.paths)
                for path, number in again.path_index.items():
                    assert again.paths[number] is path
            paths = all_paths(t)
            assert type(paths) is frozenset
            assert paths == frozenset(t.paths)

    def test_balanced_branching_two_gives_eight(self):
        def node(prefix, depth):
            if depth == 3:
                return {"id": prefix, "label": f"leaf {prefix}", "children": []}
            return {
                "id": prefix,
                "label": f"node {prefix}",
                "children": [node(f"{prefix}{i}", depth + 1) for i in range(2)],
            }

        doc = {"kind": "skill", "root": {"id": "r", "label": "root",
                                         "children": [node(f"c{i}", 1) for i in range(2)]}}
        assert load_taxonomy(doc).leaf_count == 8

    def test_paths_have_three_labels_below_root(self, domain_taxonomy, skill_taxonomy):
        for t in (domain_taxonomy, skill_taxonomy):
            for path in all_paths(t):
                assert len(path.node_ids) == 3
                assert len(path.labels) == 3

    def test_serialized_paths_unique(self, domain_taxonomy):
        rendered = [str(p) for p in all_paths(domain_taxonomy)]
        assert len(rendered) == len(set(rendered))

    def test_roundtrip_resolution(self, domain_taxonomy, skill_taxonomy):
        for t in (domain_taxonomy, skill_taxonomy):
            for path in all_paths(t):
                assert resolve_path(t, path.labels) == path

    def test_path_for_leaf_indexes_every_leaf(self, domain_taxonomy, skill_taxonomy):
        for t in (domain_taxonomy, skill_taxonomy):
            leaves = t.leaves()
            assert len(leaves) == t.leaf_count
            assert leaves == [n for n in t.nodes_at_level(3)]
            assert {t.path_for_leaf(n.id) for n in leaves} == all_paths(t)
            for leaf in leaves:
                assert t.path_for_leaf(leaf.id).node_ids[-1] == leaf.id

    def test_blank_labels_keep_their_place_in_the_path(self):
        # a whitespace-only label is canonically empty, yet still a level
        doc = minimal_doc()
        doc["root"]["children"][0]["label"] = " "
        t = load_taxonomy(doc)
        path = next(p for p in t.path_index if p.node_ids == ("f1", "o1", "t1"))
        assert resolve_path(t, ["", "occ one", "task one"]) is path
        with pytest.raises(UnknownPathError):
            resolve_path(t, ["Occ One", "task one"])

    def test_path_for_unknown_leaf(self, domain_taxonomy):
        with pytest.raises(UnknownPathError, match="fam-business"):
            domain_taxonomy.path_for_leaf("fam-business")  # a family, not a leaf


def test_equal_paths_hash_equal():
    t = load_taxonomy(minimal_doc())
    for path in t.path_index:
        twin = TaxonomyPath(taxonomy_kind=path.taxonomy_kind, node_ids=tuple(path.node_ids),
                            labels=tuple(label.upper() for label in path.labels))
        assert twin == path and hash(twin) == hash(path)
        assert twin in t.path_index
        other = TaxonomyPath(taxonomy_kind=TaxonomyKind.SKILL, node_ids=path.node_ids,
                             labels=path.labels)
        assert other != path


def test_pickled_path_recomputes_its_hash():
    path = next(iter(load_taxonomy(minimal_doc()).path_index))
    data = pickle.dumps(path)
    assert b"_hash" not in data
    copy = pickle.loads(data)
    assert copy == path and hash(copy) == hash(path) and copy.labels == path.labels


class TestResolve:
    def test_fixture_lookup(self, domain_taxonomy):
        path = resolve_path(
            domain_taxonomy,
            ["Business and Financial Operations", "Accountants",
             "prepare adjusting journal entries"],
        )
        assert path.node_ids == ("fam-business", "occ-accountants", "task-journal")

    def test_canonicalization(self, domain_taxonomy):
        path = resolve_path(
            domain_taxonomy,
            ["  business AND financial   operations ", "ACCOUNTANTS",
             "Prepare Adjusting  Journal Entries"],
        )
        assert path.node_ids[-1] == "task-journal"

    def test_prefix_is_partial_match(self, skill_taxonomy):
        with pytest.raises(PartialPathError):
            resolve_path(skill_taxonomy, ["Information Input"])

    def test_absent_label_is_no_match(self, domain_taxonomy):
        with pytest.raises(UnknownPathError):
            resolve_path(domain_taxonomy, ["Nonexistent Family", "X", "Y"])

    def test_misordered_labels_is_no_match(self, domain_taxonomy):
        with pytest.raises(UnknownPathError):
            resolve_path(
                domain_taxonomy,
                ["Accountants", "Business and Financial Operations",
                 "prepare adjusting journal entries"],
            )

    def test_empty_labels_is_no_match(self, domain_taxonomy):
        with pytest.raises(UnknownPathError):
            resolve_path(domain_taxonomy, [])

    def test_non_string_labels_are_no_match(self, domain_taxonomy):
        with pytest.raises(UnknownPathError, match="got string"):
            resolve_path(domain_taxonomy, "Accountants")
        with pytest.raises(UnknownPathError, match="must be strings"):
            resolve_path(domain_taxonomy, ["Business and Financial Operations", 5, None])

    @pytest.mark.parametrize("labels, type_name", [
        # a mapping's keys, in order, spell a path: still no sequence
        (dict.fromkeys(["Business and Financial Operations", "Accountants",
                        "prepare adjusting journal entries"], 0), "dict"),
        ({"Accountants"}, "set"),
        (7, "int"),
        (None, "NoneType"),
    ])
    def test_labels_that_are_no_sequence_are_no_match(self, domain_taxonomy, labels,
                                                      type_name):
        for resolve in (path_number, resolve_path):
            with pytest.raises(UnknownPathError) as info:
                resolve(domain_taxonomy, labels)
            assert str(info.value) == f"labels must be a sequence of strings, got {type_name}"

    def test_path_number_is_the_path_index_number(self, domain_taxonomy):
        for path, number in domain_taxonomy.path_index.items():
            assert path_number(domain_taxonomy, list(path.labels)) is number
            assert resolve_path(domain_taxonomy, path.labels) is domain_taxonomy.paths[number]

    def test_variants_cached_as_one_path_object(self):
        t = load_taxonomy(minimal_doc())
        labels = next(iter(t.path_index)).labels
        first = resolve_path(t, list(labels))
        variant = resolve_path(t, [f" {label.upper()} " for label in labels])
        assert variant is first and resolve_path(t, labels) is first
        # every path is cached by the load; list and tuple spellings share
        # its key, and the variant adds one
        assert len(t._resolved) == t.leaf_count + 1
        with pytest.raises(UnknownPathError):
            resolve_path(t, ["no", "such", "path"])
        assert len(t._resolved) == t.leaf_count + 1  # failures are not cached

    def test_verbatim_sequence_cached_under_path_labels(self):
        t = load_taxonomy(minimal_doc())
        path = next(iter(t.path_index))
        decoded = json.loads(json.dumps(list(path.labels)))  # equal strings, new objects
        assert resolve_path(t, decoded) is path
        # the load cached each path under its own labels tuple
        assert len(t._resolved) == t.leaf_count
        assert all(key is t.paths[n].labels for key, n in t._resolved.items())
        variant = tuple(f" {label} " for label in path.labels)
        assert resolve_path(t, list(variant)) is path
        assert [k for k, n in t._resolved.items() if k is not t.paths[n].labels] == [variant]
        with pytest.raises(PartialPathError):
            resolve_path(t, path.labels[:2])
        with pytest.raises(UnknownPathError):
            resolve_path(t, ["no", "such", "path"])
        assert len(t._resolved) == t.leaf_count + 1

    def test_cache_shared_by_threads(self):
        t = load_taxonomy(fixture_path("taxonomy_domain.json"))
        spellings = [(labels, variant) for path in t.path_index for labels in [path.labels]
                     for variant in (labels, tuple(x.upper() for x in labels),
                                     tuple(f" {x} " for x in labels))]
        results: list[list] = [[] for _ in range(8)]

        def work(out):
            for _ in range(20):
                for labels, variant in spellings:
                    out.append((labels, resolve_path(t, variant)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        shared = {path.labels: path for path in t.path_index}
        assert all(len(out) == 20 * len(spellings) for out in results)
        assert all(path is shared[labels] for out in results for labels, path in out)
        assert len(t._resolved) == len(spellings)

    def test_partial_and_unknown_are_distinct_types(self, domain_taxonomy):
        with pytest.raises(PartialPathError):
            resolve_path(domain_taxonomy, ["Business and Financial Operations", "Accountants"])
        # an over-long sequence cannot be a valid prefix
        with pytest.raises(UnknownPathError):
            resolve_path(
                domain_taxonomy,
                ["Business and Financial Operations", "Accountants",
                 "prepare adjusting journal entries", "extra step"],
            )

    def test_prefix_under_any_equal_sibling_is_partial(self):
        # sibling families whose labels differ only in case; each prefix is
        # valid under one of them
        def family(fid, label, child):
            return {"id": fid, "label": label, "children": [
                {"id": f"{fid}-o", "label": child, "children": [
                    {"id": f"{fid}-t", "label": f"task {child}", "children": []}]}]}

        t = load_taxonomy({"kind": "domain", "root": {"id": "r", "label": "root", "children": [
            family("f1", "Fam", "A"), family("f2", "fam", "B")]}})
        for labels in (["Fam", "A"], ["Fam", "B"], ["fam", "A"], ["FAM"]):
            with pytest.raises(PartialPathError):
                resolve_path(t, labels)
        assert resolve_path(t, ["Fam", "B", "task B"]).node_ids == ("f2", "f2-o", "f2-t")
        with pytest.raises(UnknownPathError):
            resolve_path(t, ["Fam", "C"])


def reference_resolve(t, paths_by_key, labels):
    """Resolution from a table of every path under its canonical labels
    joined by a newline, with a walk only to tell a partial prefix from a
    mismatch."""
    labels = tuple(labels)
    if not all(isinstance(x, str) for x in labels):
        raise UnknownPathError(f"labels must be strings, got {list(labels)!r}")
    key = [canonical_label(x) for x in labels]
    found = paths_by_key.get("\n".join(key))
    if found is not None:
        return found
    if not labels:
        raise UnknownPathError("empty label sequence")
    frontier = [t.root]
    for label in key:
        frontier = [c for n in frontier for c in n.children if canonical_label(c.label) == label]
    node = next((n for n in frontier if not n.is_leaf), None)
    if node is not None:
        raise PartialPathError(
            f"labels {list(labels)!r} stop at non-leaf {node.label!r} (level {node.level})")
    raise UnknownPathError(f"no path matches labels {list(labels)!r}")


def _outcome(resolve, *args):
    try:
        return resolve(*args)
    except Exception as err:  # noqa: BLE001  (the type and message are compared)
        return type(err), str(err)


class TestResolutionEquivalence:
    """path_number and resolve_path agree with a canonical-key table."""

    @staticmethod
    def spellings(t, rng):
        labels = [p.labels for p in t.paths]
        every = [label for seq in labels for label in seq]
        for seq in labels:
            yield seq
            yield list(seq)
            yield tuple(x.upper() for x in seq)
            yield tuple(f"  {x.replace(' ', '  ')}\t" for x in seq)
            yield seq[:2]
            yield [x.upper() for x in seq[:1]]
        for _ in range(3 * len(labels)):
            seq = list(rng.choice(labels))
            change = rng.randrange(5)
            if change == 0:  # a label from anywhere in the tree
                seq[rng.randrange(3)] = rng.choice(every)
            elif change == 1:  # a label that names no node
                seq[rng.randrange(3)] = f"no such label {rng.randrange(10**6)}"
            elif change == 2:
                rng.shuffle(seq)
            elif change == 3:  # over-long
                seq.append(rng.choice(every))
            else:  # a prefix with a stray last label
                seq = seq[:rng.randint(1, 2)] + [rng.choice(every)]
            yield seq
        yield ()
        yield ["not", 3, "strings"]

    @pytest.mark.parametrize("source", [
        "taxonomy_domain.json", "taxonomy_skill.json", 600])
    def test_agrees_with_canonical_key_table(self, source):
        t = (synthetic_taxonomy(source) if isinstance(source, int)
             else load_taxonomy(fixture_path(source)))
        paths_by_key = {"\n".join(map(canonical_label, p.labels)): p for p in t.paths}
        outcomes = set()
        for labels in self.spellings(t, random.Random(32)):
            expected = _outcome(reference_resolve, t, paths_by_key, labels)
            for _ in range(2):  # then from the cache
                number = _outcome(path_number, t, labels)
                found = number if isinstance(number, tuple) else t.paths[number]
                assert found == expected, labels
                assert _outcome(resolve_path, t, labels) == expected, labels
            if not isinstance(expected, tuple):
                assert found is expected
            outcomes.add(expected[0] if isinstance(expected, tuple) else TaxonomyPath)
        assert outcomes == {TaxonomyPath, PartialPathError, UnknownPathError}


class TestPathWithLabels:
    def test_exact_labels_only(self):
        t = load_taxonomy(fixture_path("taxonomy_domain.json"))
        for path in t.paths:
            assert path_with_labels(t, list(path.labels)) is path
            variant = [x.upper() for x in path.labels]
            if variant != list(path.labels):
                resolve_path(t, variant)  # a cached variant is still no exact match
                assert path_with_labels(t, variant) is None
        assert path_with_labels(t, t.paths[0].labels[:2]) is None
        assert path_with_labels(t, []) is None

    @pytest.mark.parametrize("labels", [
        [1, 2, 3],
        [["Business and Financial Operations"], "Accountants",
         "prepare adjusting journal entries"],
        [None],
        [{"a": 1}],
    ])
    def test_sequence_of_non_strings_names_no_path(self, domain_taxonomy, labels):
        resolved = dict(domain_taxonomy._resolved)
        assert path_with_labels(domain_taxonomy, labels) is None
        assert domain_taxonomy._resolved == resolved  # remembers nothing


class TestFlatten:
    def test_leaf_lines_count(self):
        t = load_taxonomy(minimal_doc())
        text = flatten_for_prompt(t)
        leaf_labels = [p.labels[-1] for p in all_paths(t)]
        for label in leaf_labels:
            assert text.count(label) == 1

    def test_deterministic(self, domain_taxonomy):
        assert flatten_for_prompt(domain_taxonomy) == flatten_for_prompt(domain_taxonomy)

    def test_every_leaf_rendered_once(self, skill_taxonomy):
        text = flatten_for_prompt(skill_taxonomy)
        for path in all_paths(skill_taxonomy):
            assert text.count(f"- {path.labels[-1]}") == 1


_DELETE = object()
F1 = ("root", "children", 0)
F2 = ("root", "children", 1)
O1 = F1 + ("children", 0)
O2 = F1 + ("children", 1)
O3 = F2 + ("children", 0)
T1 = O1 + ("children", 0)


def edited(path, value, kind="domain"):
    """``minimal_doc(kind)`` with the value at ``path`` replaced or deleted."""
    doc = minimal_doc(kind)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


#: One defect per document: (path, new value, kind, exception, exact message).
LOAD_ERRORS = [
    (("root",), [], "domain", TaxonomySchemaError, "root: node must be an object, got list"),
    (F1 + ("id",), _DELETE, "domain", TaxonomySchemaError,
     "root.children[0]: missing or empty 'id'"),
    (F1 + ("id",), "", "domain", TaxonomySchemaError, "root.children[0]: missing or empty 'id'"),
    (F2 + ("id",), 5, "domain", TaxonomySchemaError, "root.children[1]: missing or empty 'id'"),
    (O1 + ("label",), _DELETE, "domain", TaxonomySchemaError,
     "root.children[0].children[0]: missing or empty 'label'"),
    (O2 + ("label",), "", "domain", TaxonomySchemaError,
     "root.children[0].children[1]: missing or empty 'label'"),
    (O3 + ("label",), None, "domain", TaxonomySchemaError,
     "root.children[1].children[0]: missing or empty 'label'"),
    (T1 + ("id",), "t3", "domain", TaxonomyStructureError, "node 't3': duplicate node id"),
    (O3 + ("id",), "f1", "domain", TaxonomyStructureError, "node 'f1': duplicate node id"),
    (O1 + ("children", 1, "label"), " TASK  one", "domain", TaxonomyStructureError,
     "node 't2': path label sequence ('Family One', 'Occ One', ' TASK  one') is not unique"),
    (O1 + ("children", 1), "x", "domain", TaxonomySchemaError,
     "root.children[0].children[0].children[1]: node must be an object, got str"),
    (O2 + ("children",), {}, "domain", TaxonomySchemaError,
     "root.children[0].children[1]: children must be an array"),
    (F2 + ("annotations",), [], "domain", TaxonomySchemaError,
     "root.children[1]: annotations must be an object"),
    (F1 + ("annotations",), {"soc_code": "11-0000"}, "domain", TaxonomyStructureError,
     "node 'f1': soc_code annotation is only valid on level-2 domain nodes"),
    (O2 + ("annotations",), {"soc_code": "11-0000"}, "skill", TaxonomyStructureError,
     "node 'o2': soc_code annotation is only valid on level-2 domain nodes"),
    (O3 + ("children",), [], "domain", TaxonomyStructureError,
     "node 'o3': leaf at level 2, expected 3"),
    (F2 + ("children",), _DELETE, "skill", TaxonomyStructureError,
     "node 'f2': leaf at level 1, expected 3"),
    (T1 + ("children",), [{"id": "deep", "label": "too deep"}], "domain",
     TaxonomyStructureError, "node 'deep': node at level 4 exceeds maximum depth 3"),
    (("root", "children"), [], "domain", TaxonomyStructureError,
     "node 'r': taxonomy must have at least one leaf below root"),
    (T1 + ("annotations",), {"activity_id": [1]}, "skill", TaxonomySchemaError,
     "root.children[0].children[0].children[0]: annotation 'activity_id' must be a string, "
     "got list"),
    (O3 + ("annotations",), {"soc_code": 7}, "domain", TaxonomySchemaError,
     "root.children[1].children[0]: annotation 'soc_code' must be a string, got int"),
]


@pytest.mark.parametrize("path, value, kind, error, message", LOAD_ERRORS)
def test_single_defect_reported_exactly(path, value, kind, error, message):
    with pytest.raises(error) as info:
        load_taxonomy(edited(path, value, kind))
    assert type(info.value) is error
    assert str(info.value) == message


#: Values a mutation may put at one location, as in ``test_fuzz``.
MUTATION_VALUES = (None, 0, 7, -1.5, True, False, "", "x", [], ["x"], [1], [["x"]],
                   {}, {"k": "v"}, [{"k": "v"}], "skill")


def _locations(value, out):
    """Every (container, key) pair below ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _locations(child, out)
    return out


def _mutation_outcome(rng: random.Random, text: str) -> str:
    """Load ``text`` with one location changed; the exception type and
    message, or the leaf count when the document still loads.

    Half the changes delete a location or give it a value of another type;
    the other half give one node a value that breaks the tree's structure:
    another node's id, its previous sibling's label in upper case, a SOC
    code, no children, or a child below the leaf level.
    """
    doc = json.loads(text)
    locations = _locations(doc, [])
    if rng.random() < 0.5:
        container, key = rng.choice(locations)
        if rng.random() < 0.3:
            del container[key]
        else:
            container[key] = rng.choice(MUTATION_VALUES)
    else:
        nodes = [doc["root"]] + [c[k] for c, k in locations
                                 if isinstance(c[k], dict) and "id" in c[k]]
        node = rng.choice(nodes)
        siblings = next((n["children"] for n in nodes if node in n["children"]), [node])
        previous = siblings[max(siblings.index(node) - 1, 0)]
        field, value = rng.choice([
            ("id", rng.choice(nodes)["id"]),
            ("label", previous["label"].upper()),
            ("annotations", {"soc_code": "11-0000"}),
            ("children", []),
            ("children", [{"id": "deep", "label": "deep"}]),
        ])
        node[field] = value
    try:
        return f"ok {load_taxonomy(doc).leaf_count}"
    except (TaxonomySchemaError, TaxonomyStructureError) as err:
        return f"{type(err).__name__} {err}"


def test_seeded_mutations_report_pinned_errors():
    # 500 single-location mutations of the two fixture trees; the digest
    # pins every outcome, so a loader change that alters any exception type
    # or message fails here.
    import hashlib

    texts = [fixture_path(name).read_text(encoding="utf-8")
             for name in ("taxonomy_domain.json", "taxonomy_skill.json")]
    rng = random.Random(20260918)
    outcomes = [_mutation_outcome(rng, texts[i % 2]) for i in range(500)]
    kinds = {outcome.split(" ", 1)[0] for outcome in outcomes}
    assert kinds == {"ok", "TaxonomySchemaError", "TaxonomyStructureError"}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "d67d6e69b1698cb5f53f50536c5820bd1249715ca12e80388e023b23d9deac5e"


def uneven_doc(seed: int) -> dict:
    """A seeded domain document whose nodes have one to five children."""
    rng = random.Random(seed)

    def node(prefix, level):
        children = [] if level == 3 else [
            node(f"{prefix}.{i}", level + 1) for i in range(rng.randint(1, 5))
        ]
        return {"id": prefix, "label": f"label {prefix} {rng.random():.3f}",
                "children": children}

    return {"kind": "domain", "root": node("n", 0)}


def reference_render(doc: dict) -> tuple[str, dict[int, list[str]]]:
    """The prompt text and each level's node ids in document order, by a
    recursive walk over the document itself."""
    lines = [f"{doc['kind']} taxonomy:"]
    by_level: dict[int, list[str]] = {}

    def walk(raw, level):
        by_level.setdefault(level, []).append(raw["id"])
        if level:
            lines.append("  " * level + "- " + raw["label"])
        for child in raw["children"]:
            walk(child, level + 1)

    walk(doc["root"], 0)
    return "\n".join(lines) + "\n", by_level


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prompt_and_levels_match_recursive_reference(seed):
    doc = uneven_doc(seed)
    text, by_level = reference_render(doc)
    t = load_taxonomy(doc)
    assert flatten_for_prompt(t) == text
    for level in range(5):
        assert [n.id for n in t.nodes_at_level(level)] == by_level.get(level, [])
    assert [n.id for n in t.leaves()] == by_level[3]


def test_canonical_label():
    assert canonical_label("  Foo   BAR ") == "foo bar"
    assert canonical_label("foo\tbar\nbaz") == "foo bar baz"


def test_kind_enum_values():
    assert TaxonomyKind("domain") is TaxonomyKind.DOMAIN
    assert TaxonomyKind("skill") is TaxonomyKind.SKILL
