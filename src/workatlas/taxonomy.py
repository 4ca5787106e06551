"""Labeled occupational taxonomy trees and their root-to-leaf paths.

Two taxonomy kinds are supported: a ``domain`` tree (root, job family,
occupation, task requirement) and a ``skill`` tree (root plus three work
activity layers of increasing granularity). Both place their leaves exactly
three levels below the root, so every path is a triple of labels.

:func:`load_taxonomy` walks a document once, in pre-order with children in
document order. It checks each node as it enters it, so a document with
several defects reports the first one in that order, and it records the
node in the taxonomy's node table and, at a leaf, the path that ends there.
The node table therefore holds the nodes in document pre-order;
:meth:`Taxonomy.nodes_at_level` and :func:`flatten_for_prompt` read it in
that order instead of walking the tree again.

A loaded taxonomy holds its nodes, one path object per leaf, and three
tables: ``path_index``, the node table, and each path under the key that
resolution looks up. A path's ids and labels are tuples of the nodes' own
strings, and every node without annotations shares
:data:`NO_ANNOTATIONS`, an empty dict that is read-only. Keyword rules read
with the taxonomy share its paths' label tuples
(:func:`path_with_labels`).

A loaded taxonomy's tree and path index never change. Its only mutable
state is the resolution cache behind :func:`resolve_path`, which maps each
label sequence seen so far to the path it names. A cache write stores the
one shared path object for that sequence, so writes are idempotent, and a
single dict store is atomic, so a taxonomy is safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence


class TaxonomyKind(str, Enum):
    DOMAIN = "domain"
    SKILL = "skill"


#: Leaves of both taxonomy kinds sit at this depth (root = level 0).
LEAF_LEVEL = 3


class TaxonomyError(ValueError):
    """Base class for taxonomy document problems."""


class TaxonomySchemaError(TaxonomyError):
    """The document is malformed (missing fields, wrong types, bad kind)."""


class TaxonomyStructureError(TaxonomyError):
    """The tree violates a structural invariant (duplicate id, wrong depth)."""

    def __init__(self, node_id: str, reason: str):
        self.node_id = node_id
        self.reason = reason
        super().__init__(f"node {node_id!r}: {reason}")


class PathResolutionError(ValueError):
    """A label sequence does not name a root-to-leaf path."""


class UnknownPathError(PathResolutionError):
    """No node matches some label, or the labels are mis-ordered."""


class PartialPathError(PathResolutionError):
    """The labels form a valid prefix but stop at a non-leaf node."""


def canonical_label(label: str) -> str:
    """Case-folded, whitespace-collapsed form used for label matching."""
    return " ".join(label.split()).casefold()


#: Joins a path's canonical labels into its key; a canonical label holds no
#: newline, so equal keys mean equal label sequences.
_KEY_SEPARATOR = "\n"


class _WeakReferenceable:
    """Base of the slotted node and path classes: gives them the weak
    reference slot that ``dataclass(weakref_slot=True)`` would, which
    Python 3.10 lacks."""

    __slots__ = ("__weakref__",)


class ReadOnlyEmptyDict(dict):
    """An empty dict that many objects share, so every method that would
    change it raises ``TypeError``. It compares, encodes, copies and
    pickles as an empty dict does; a copy is a new read-only one."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("this empty dict is shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


#: The annotations of every node that has none.
NO_ANNOTATIONS = ReadOnlyEmptyDict()


@dataclass(slots=True)
class TaxonomyNode(_WeakReferenceable):
    """One labeled node; ``annotations`` may carry a SOC code (domain
    occupations) or an activity id (skill leaves). A node without
    annotations holds :data:`NO_ANNOTATIONS`, which is read-only."""

    id: str
    label: str
    level: int
    children: tuple["TaxonomyNode", ...] = ()
    annotations: dict[str, str] = field(default_factory=lambda: NO_ANNOTATIONS)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True, slots=True)
class TaxonomyPath(_WeakReferenceable):
    """A root-to-leaf path, stored from root child down to the leaf.

    Node ids are the identity; labels are carried along because mappings
    are persisted and exchanged as label sequences. A taxonomy hands out
    one shared object per path, which lands in many sets, so the hash is
    computed once.
    """

    taxonomy_kind: TaxonomyKind
    node_ids: tuple[str, ...]
    labels: tuple[str, ...] = field(compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.taxonomy_kind, self.node_ids)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between interpreters: recompute, never copy
        return (TaxonomyPath, (self.taxonomy_kind, self.node_ids, self.labels))

    def __str__(self) -> str:
        return " > ".join(self.labels)


@dataclass
class Taxonomy:
    """A validated taxonomy tree plus its enumerated path index.

    Besides the tree it holds three tables: ``path_index``, every path once;
    the node table, id to node in document pre-order; and, for resolution,
    each path under its key: the canonical forms of its labels joined by a
    newline, which no canonical label holds.
    """

    kind: TaxonomyKind
    root: TaxonomyNode
    path_index: frozenset[TaxonomyPath]

    # internal lookup tables built by load_taxonomy; nodes in pre-order
    _nodes_by_id: dict[str, TaxonomyNode] = field(default_factory=dict, repr=False)
    _paths_by_key: dict[str, TaxonomyPath] = field(default_factory=dict, repr=False)
    # raw label tuple -> path, filled by resolve_path
    _resolved: dict[tuple, TaxonomyPath] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def leaf_count(self) -> int:
        return len(self.path_index)

    def node(self, node_id: str) -> TaxonomyNode:
        return self._nodes_by_id[node_id]

    def nodes_at_level(self, level: int) -> list[TaxonomyNode]:
        """Nodes at a given depth, in document order.

        Read from the node table, which :func:`load_taxonomy` fills in
        document pre-order; keeping that order is what keeps this list's.
        """
        return [n for n in self._nodes_by_id.values() if n.level == level]

    def path_for_leaf(self, leaf_id: str) -> TaxonomyPath:
        """The root-to-leaf path ending at the leaf with id ``leaf_id``.

        A scan of ``path_index``: no command looks paths up by leaf, so no
        table is kept for it.
        """
        for path in self.path_index:
            if path.node_ids[-1] == leaf_id:
                return path
        raise UnknownPathError(f"no leaf with id {leaf_id!r}")

    def leaves(self) -> list[TaxonomyNode]:
        """Leaf nodes, in document order."""
        return [n for n in self._nodes_by_id.values() if not n.children]


def load_taxonomy(source: Mapping | str | Path) -> Taxonomy:
    """Load and validate a taxonomy document.

    Parameters
    ----------
    source : mapping, str, or Path
        Either an already-parsed document or a path to a UTF-8 JSON file
        with fields ``{kind, root: {id, label, annotations?, children}}``.

    Returns
    -------
    Taxonomy
        Fully validated, with ``path_index`` populated.

    Raises
    ------
    TaxonomySchemaError
        If the document is malformed.
    TaxonomyStructureError
        If the tree breaks an invariant; carries the offending node id.
        A document with several defects reports the first in pre-order.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise TaxonomySchemaError("document must be a JSON object")
    try:
        kind = TaxonomyKind(doc.get("kind"))
    except ValueError:
        raise TaxonomySchemaError(
            f"kind must be one of {[k.value for k in TaxonomyKind]}, got {doc.get('kind')!r}"
        ) from None
    if "root" not in doc:
        raise TaxonomySchemaError("document missing 'root'")

    nodes_by_id: dict[str, TaxonomyNode] = {}
    paths: dict[str, TaxonomyPath] = {}  # path key -> path
    # (node, the list its children are appended to as the walk enters them)
    parents: list[tuple[TaxonomyNode, list[TaxonomyNode]]] = []

    # Pre-order, children in document order. Each entry carries what the
    # node's path inherits: ids and labels from the root child down to its
    # parent, and their key. A loop rather than recursion: a deep
    # document cannot exhaust the stack, and no closure forms a reference
    # cycle that only the cyclic garbage collector could free.
    stack: list[tuple] = [(doc["root"], "root", 0, (), (), "", None)]
    while stack:
        raw, where, level, ids, labels, path_key, siblings = stack.pop()
        if not isinstance(raw, dict):
            raise TaxonomySchemaError(
                f"{where}: node must be an object, got {type(raw).__name__}"
            )
        for key in ("id", "label"):
            if key not in raw or not isinstance(raw[key], str) or not raw[key]:
                raise TaxonomySchemaError(f"{where}: missing or empty {key!r}")
        node_id, label = raw["id"], raw["label"]
        if level > LEAF_LEVEL:
            raise TaxonomyStructureError(
                node_id, f"node at level {level} exceeds maximum depth {LEAF_LEVEL}"
            )
        annotations = raw.get("annotations", {})
        if not isinstance(annotations, dict):
            raise TaxonomySchemaError(f"{where}: annotations must be an object")
        for key, value in annotations.items():
            if not isinstance(value, str):
                raise TaxonomySchemaError(
                    f"{where}: annotation {key!r} must be a string, got {type(value).__name__}"
                )
        raw_children = raw.get("children", [])
        if not isinstance(raw_children, list):
            raise TaxonomySchemaError(f"{where}: children must be an array")
        if node_id in nodes_by_id:
            raise TaxonomyStructureError(node_id, "duplicate node id")
        if not raw_children and level == 0:
            raise TaxonomyStructureError(
                node_id, "taxonomy must have at least one leaf below root"
            )
        if not raw_children and level != LEAF_LEVEL:
            raise TaxonomyStructureError(
                node_id, f"leaf at level {level}, expected {LEAF_LEVEL}"
            )
        if "soc_code" in annotations and (kind is not TaxonomyKind.DOMAIN or level != 2):
            raise TaxonomyStructureError(
                node_id, "soc_code annotation is only valid on level-2 domain nodes"
            )

        node = TaxonomyNode(id=node_id, label=label, level=level,
                            annotations=dict(annotations) if annotations else NO_ANNOTATIONS)
        nodes_by_id[node_id] = node
        if siblings is not None:
            siblings.append(node)
        if level:
            ids += (node_id,)
            labels += (label,)
            path_key = canonical_label(label) if level == 1 else (
                path_key + _KEY_SEPARATOR + canonical_label(label))
        if not raw_children:
            if path_key in paths:
                raise TaxonomyStructureError(
                    node_id, f"path label sequence {labels!r} is not unique"
                )
            paths[path_key] = TaxonomyPath(taxonomy_kind=kind, node_ids=ids, labels=labels)
            continue
        children: list[TaxonomyNode] = []
        parents.append((node, children))
        for i in range(len(raw_children) - 1, -1, -1):
            stack.append((raw_children[i], f"{where}.children[{i}]", level + 1,
                          ids, labels, path_key, children))

    for node, children in parents:
        node.children = tuple(children)
    return Taxonomy(
        kind=kind,
        root=next(iter(nodes_by_id.values())),
        # from a dict, a frozenset is sized for its paths; from an iterator
        # it keeps the slack of growing one path at a time
        path_index=frozenset(dict.fromkeys(paths.values())),
        _nodes_by_id=nodes_by_id,
        _paths_by_key=paths,
    )


def all_paths(t: Taxonomy) -> frozenset[TaxonomyPath]:
    """Every root-to-leaf path, exactly once; cardinality equals leaf count."""
    return t.path_index


def resolve_path(t: Taxonomy, labels: Sequence[str]) -> TaxonomyPath:
    """Resolve a label sequence to the unique root-to-leaf path it names.

    Matching is canonical (case-insensitive, whitespace-normalized) and must
    cover the full path from a root child down to a leaf. Each taxonomy
    remembers the sequences it has resolved, verbatim, so a repeated
    sequence costs one dict lookup; a sequence equal to the path's own
    labels is remembered under the path's ``labels`` tuple. Case and
    whitespace variants are remembered separately and map to the same path
    object. Failures are not remembered.

    Raises
    ------
    PartialPathError
        If the labels are a valid prefix ending at a non-leaf node.
    UnknownPathError
        If any label is absent or mis-ordered, or ``labels`` is a string
        or holds a non-string.
    TypeError
        If ``labels`` is not iterable or holds an unhashable item.
    """
    if isinstance(labels, str):
        raise UnknownPathError(f"labels must be a sequence of strings, got string {labels!r}")
    key = tuple(labels)
    found = t._resolved.get(key)
    if found is None:
        found = _resolve_labels(t, key)
        # A verbatim sequence is kept as the path's own label tuple, so the
        # cache holds no copy of it.
        t._resolved[found.labels if found.labels == key else key] = found
    return found


def path_with_labels(t: Taxonomy, labels: Sequence[str]) -> TaxonomyPath | None:
    """The path whose labels are exactly ``labels``, or ``None``.

    Unlike :func:`resolve_path` it accepts no case or whitespace variant,
    never raises for a sequence that names no path, and remembers nothing.
    """
    found = t._paths_by_key.get(_KEY_SEPARATOR.join(map(canonical_label, labels)))
    return found if found is not None and found.labels == tuple(labels) else None


def _resolve_labels(t: Taxonomy, labels: tuple) -> TaxonomyPath:
    """The uncached resolution behind :func:`resolve_path`."""
    if not all(isinstance(x, str) for x in labels):
        raise UnknownPathError(f"labels must be strings, got {list(labels)!r}")
    key = [canonical_label(x) for x in labels]
    found = t._paths_by_key.get(_KEY_SEPARATOR.join(key))
    if found is not None:
        return found
    if not labels:
        raise UnknownPathError("empty label sequence")
    # Distinguish a valid non-leaf prefix from a genuine mismatch. Siblings
    # whose labels are equal under canonical_label are all followed.
    frontier = [t.root]
    for label in key:
        frontier = [c for n in frontier for c in n.children if canonical_label(c.label) == label]
    node = next((n for n in frontier if not n.is_leaf), None)
    if node is not None:
        raise PartialPathError(
            f"labels {list(labels)!r} stop at non-leaf {node.label!r} (level {node.level})"
        )
    raise UnknownPathError(f"no path matches labels {list(labels)!r}")


def flatten_for_prompt(t: Taxonomy) -> str:
    """Deterministic indented rendering suitable for annotator prompts.

    One line per node below the root in document order; every leaf appears
    exactly once. Identical taxonomies flatten to byte-identical text. The
    lines come from the node table, which :func:`load_taxonomy` fills in
    document pre-order, so the text depends on that order.
    """
    lines = [f"{t.kind.value} taxonomy:"]
    lines.extend("  " * n.level + "- " + n.label for n in t._nodes_by_id.values() if n.level)
    return "\n".join(lines) + "\n"
