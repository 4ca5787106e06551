"""Shared fixtures: bundled miniature data plus synthetic-corpus builders."""

from __future__ import annotations

import random

import pytest

from workatlas.annotate import KeywordAnnotator
from workatlas.coverage import FoldedMappings, MappingFolder
from workatlas.io import (
    fixture_path,
    read_digital_labels,
    read_examples,
    read_importance,
    read_occupations,
    read_workflows,
)
from workatlas.mapping import MappingResult, MappingStatus, map_corpus
from workatlas.taxonomy import Taxonomy, TaxonomyKind, load_taxonomy


@pytest.fixture(scope="session")
def domain_taxonomy() -> Taxonomy:
    return load_taxonomy(fixture_path("taxonomy_domain.json"))


@pytest.fixture(scope="session")
def skill_taxonomy() -> Taxonomy:
    return load_taxonomy(fixture_path("taxonomy_skill.json"))


@pytest.fixture(scope="session")
def examples_corpus():
    return read_examples(fixture_path("examples.jsonl"))


@pytest.fixture(scope="session")
def domain_annotator() -> KeywordAnnotator:
    return KeywordAnnotator.from_file(fixture_path("keyword_rules_domain.json"))


@pytest.fixture(scope="session")
def skill_annotator() -> KeywordAnnotator:
    return KeywordAnnotator.from_file(fixture_path("keyword_rules_skill.json"))


@pytest.fixture(scope="session")
def domain_results(examples_corpus, domain_taxonomy, domain_annotator):
    return map_corpus(examples_corpus, domain_taxonomy, domain_annotator)


@pytest.fixture(scope="session")
def skill_results(examples_corpus, skill_taxonomy, skill_annotator):
    return map_corpus(examples_corpus, skill_taxonomy, skill_annotator)


@pytest.fixture(scope="session")
def occupations():
    return read_occupations(fixture_path("occupations.csv"))


@pytest.fixture(scope="session")
def importance_table():
    return read_importance(fixture_path("importance.csv"))


@pytest.fixture(scope="session")
def digital_labels():
    return read_digital_labels(fixture_path("digital_labels.csv"))


@pytest.fixture(scope="session")
def workflows():
    return read_workflows(fixture_path("workflows.jsonl"))


# ---------------------------------------------------------------------------
# Synthetic corpus builders for oracle/property tests
# ---------------------------------------------------------------------------

def synthetic_taxonomy(n_leaves: int, kind: str = "domain") -> Taxonomy:
    """A minimal valid taxonomy with ``n_leaves`` leaves under one branch."""
    leaves = [
        {"id": f"leaf-{i}", "label": f"leaf task {i}", "children": []}
        for i in range(n_leaves)
    ]
    doc = {
        "kind": kind,
        "root": {
            "id": "r",
            "label": "root",
            "children": [
                {
                    "id": "f0",
                    "label": "family zero",
                    "children": [{"id": "o0", "label": "occupation zero", "children": leaves}],
                }
            ],
        },
    }
    return load_taxonomy(doc)


def synthetic_result(
    taxonomy: Taxonomy,
    example_id: str,
    leaf_indices: list[int],
    benchmark: str = "synth",
) -> MappingResult:
    """A mapped (or empty) result over the synthetic taxonomy's leaves."""
    paths = frozenset(taxonomy.path_for_leaf(f"leaf-{i}") for i in leaf_indices)
    return MappingResult(
        benchmark=benchmark,
        example_id=example_id,
        taxonomy_kind=taxonomy.kind,
        paths=paths,
        status=MappingStatus.MAPPED if paths else MappingStatus.EMPTY,
        raw_annotator_output="",
        annotator_id="synthetic",
    )


def random_corpus(
    taxonomy: Taxonomy, n_examples: int, rng: random.Random, max_paths: int = 4
) -> list[MappingResult]:
    """Random synthetic corpus; some examples map to nothing."""
    n_leaves = taxonomy.leaf_count
    results = []
    for i in range(n_examples):
        k = rng.randint(0, min(max_paths, n_leaves))
        indices = rng.sample(range(n_leaves), k) if k else []
        results.append(synthetic_result(taxonomy, f"e{i}", indices))
    return results


def fold_units(units) -> FoldedMappings:
    """A pool folded from ``(key, {kind: paths})`` units, in their order.
    Every kind is added for every unit, an empty set where a unit has no
    paths of that kind."""
    folder = MappingFolder(dict.fromkeys(TaxonomyKind))
    kinds = tuple(TaxonomyKind)  # iterating the enum itself costs more per unit
    for key, paths in units:
        for kind in kinds:
            folder.add(kind, key, paths.get(kind, frozenset()))
    return folder.folded()


def deep_chain(depth: int) -> str:
    """One workflow line whose root is a chain ``depth`` nodes deep."""
    head = "".join(
        f'{{"id": "n{i}", "description": "d", "status": 1, "children": [' for i in range(depth)
    )
    leaf = f'{{"id": "n{depth}", "description": "leaf", "status": 1}}'
    return '{"benchmark": "b", "root": ' + head + leaf + "]}" * depth + "}"
