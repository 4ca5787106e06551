"""Seeded generator of paper-shaped workatlas inputs plus their ground truth.

Everything is derived from one ``random.Random(seed)``; the same seed writes
byte-identical files. Shapes follow the paper: a 23/743/5,806 domain tree
(family / occupation with a SOC code / task requirement) and a 4/9/41 skill
tree whose leaves carry an ``activity_id``. Each leaf gets one keyword rule.
The keyword is a fixed-width token that contains digits, and filler words
contain none, so a rule fires exactly when its keyword was planted and the
keyword annotator reproduces the ground truth.

This module imports nothing from workatlas: the files it writes are the
program's only view of the inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCHMARKS = ("deskbench", "codebench", "webbench", "opsbench")
AGENTS = ("scaffold-a", "scaffold-b", "scaffold-c")
MODELS = ("lm-alpha", "lm-beta")

_VERBS = ("prepare", "review", "reconcile", "draft", "inspect", "schedule", "audit",
          "compile", "monitor", "negotiate", "assemble", "calibrate", "evaluate",
          "coordinate", "document", "estimate", "install", "maintain", "operate",
          "analyze", "verify", "update", "design", "deliver")
_NOUNS = ("ledger", "invoice", "budget", "schedule", "contract", "report", "patient",
          "shipment", "circuit", "policy", "survey", "inventory", "payroll", "claim",
          "permit", "manual", "sample", "account", "vehicle", "lesson", "request",
          "fixture", "dataset", "forecast")
_FILLER = ("the", "for", "and", "with", "each", "team", "client", "quarter", "before",
           "after", "notes", "using", "their", "current", "records", "weekly", "local",
           "office", "review", "plan", "carefully", "summary", "draft", "changes")


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``total`` items over ``parts`` groups, every group at least one."""
    sizes = [1] * parts
    for _ in range(total - parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def _title(rng: random.Random) -> str:
    return f"{rng.choice(_VERBS).capitalize()} {rng.choice(_NOUNS)}"


@dataclass
class Trees:
    domain_doc: dict
    skill_doc: dict
    domain_leaves: list[tuple[str, str, str]]  # label triple per leaf index
    domain_family: list[int]  # family index per leaf index
    skill_leaves: list[tuple[str, str, str]]
    socs: list[str]  # per occupation index
    soc_family: list[int]
    leaf_occupation: list[int]  # occupation index per domain leaf
    activities: list[str]  # per skill leaf index


def make_trees(rng: random.Random, shape: dict) -> Trees:
    families, occupations, leaves = shape["domain"]
    occ_per_family = _split(rng, occupations, families)
    leaves_per_occ = _split(rng, leaves, occupations)
    fam_nodes, domain_leaves, domain_family, socs, soc_family, leaf_occ = [], [], [], [], [], []
    occ_index = leaf_index = 0
    for f, n_occ in enumerate(occ_per_family):
        fam_label = f"{_title(rng)} {f:02d}"
        occ_nodes = []
        for _ in range(n_occ):
            soc = f"{11 + f * 2:02d}-{occ_index:04d}"
            occ_label = f"{_title(rng)} {occ_index:03d}"
            leaf_nodes = []
            for _ in range(leaves_per_occ[occ_index]):
                label = f"{_title(rng)} {leaf_index:04d}"
                leaf_nodes.append({"id": f"t{leaf_index}", "label": label})
                domain_leaves.append((fam_label, occ_label, label))
                domain_family.append(f)
                leaf_occ.append(occ_index)
                leaf_index += 1
            occ_nodes.append({"id": f"o{occ_index}", "label": occ_label,
                              "annotations": {"soc_code": soc}, "children": leaf_nodes})
            socs.append(soc)
            soc_family.append(f)
            occ_index += 1
        fam_nodes.append({"id": f"f{f}", "label": fam_label, "children": occ_nodes})
    domain_doc = {"kind": "domain",
                  "root": {"id": "domain", "label": "Domain", "children": fam_nodes}}

    areas, groups, activities = shape["skill"]
    groups_per_area = _split(rng, groups, areas)
    acts_per_group = _split(rng, activities, groups)
    area_nodes, skill_leaves, activity_ids = [], [], []
    g = a = 0
    for k, n_groups in enumerate(groups_per_area):
        area_label = f"Area {k}"
        group_nodes = []
        for _ in range(n_groups):
            group_label = f"{_title(rng)} {g}"
            act_nodes = []
            for _ in range(acts_per_group[g]):
                label = f"{_title(rng)} {a:02d}"
                activity = f"4.A.{k + 1}.{g}.{a}"
                act_nodes.append({"id": f"s{a}", "label": label,
                                  "annotations": {"activity_id": activity}})
                skill_leaves.append((area_label, group_label, label))
                activity_ids.append(activity)
                a += 1
            group_nodes.append({"id": f"sg{g}", "label": group_label, "children": act_nodes})
            g += 1
        area_nodes.append({"id": f"sa{k}", "label": area_label, "children": group_nodes})
    skill_doc = {"kind": "skill",
                 "root": {"id": "skill", "label": "Skill", "children": area_nodes}}
    return Trees(domain_doc, skill_doc, domain_leaves, domain_family, skill_leaves,
                 socs, soc_family, leaf_occ, activity_ids)


def domain_keyword(i: int) -> str:
    return f"dk{i:04d}q"


def skill_keyword(i: int) -> str:
    return f"sk{i:02d}q"


class ZipfPicker:
    """Draws leaf indices with probability proportional to rank^-s over a
    seeded ranking, so a few paths recur often and most are rare."""

    def __init__(self, rng: random.Random, n: int, s: float):
        self._rng = rng
        self._ranked = list(range(n))
        rng.shuffle(self._ranked)
        self._cum = list(itertools.accumulate((r + 1) ** -s for r in range(n)))
        self._total = self._cum[-1]

    def distinct(self, k: int) -> list[int]:
        picked: list[int] = []
        while len(picked) < k:
            leaf = self._ranked[bisect.bisect(self._cum, self._rng.random() * self._total)]
            if leaf not in picked:
                picked.append(leaf)
        return picked


@dataclass
class Corpus:
    """Examples with the leaves each one truly maps to."""

    keys: list[tuple[str, str]] = field(default_factory=list)
    instructions: list[str] = field(default_factory=list)
    domain: list[list[int]] = field(default_factory=list)
    skill: list[list[int]] = field(default_factory=list)

    def head(self, n: int) -> "Corpus":
        return Corpus(self.keys[:n], self.instructions[:n], self.domain[:n], self.skill[:n])


def make_corpus(rng: random.Random, trees: Trees, n: int, zipf_s: float,
                domain_keywords: tuple[int, int], skill_keywords: tuple[int, int]) -> Corpus:
    """``n`` examples; each plants a number of distinct domain and skill
    keywords drawn uniformly from the given inclusive ranges."""
    domain_pick = ZipfPicker(rng, len(trees.domain_leaves), zipf_s)
    skill_pick = ZipfPicker(rng, len(trees.skill_leaves), zipf_s)
    corpus = Corpus()
    for i in range(n):
        bench = BENCHMARKS[rng.randrange(len(BENCHMARKS))]
        d = domain_pick.distinct(rng.randint(*domain_keywords))
        s = skill_pick.distinct(rng.randint(*skill_keywords))
        words = [rng.choice(_FILLER) for _ in range(rng.randint(8, 20))]
        for kw in [domain_keyword(x) for x in d] + [skill_keyword(x) for x in s]:
            words.insert(rng.randint(0, len(words)), kw)
        corpus.keys.append((bench, f"{bench[:4]}-{i:06d}"))
        corpus.instructions.append(" ".join(words).capitalize() + ".")
        corpus.domain.append(d)
        corpus.skill.append(s)
    return corpus


def _make_workflow(rng: random.Random, depth: int, ids: itertools.count) -> tuple[dict, int, int]:
    """Returns (node document, nodes, successes)."""
    node = {"id": f"n{next(ids)}",
            "description": f"{_title(rng)} for the {rng.choice(_NOUNS)}"}
    nodes = successes = 0
    if depth < 3 and (depth == 0 or rng.random() < 0.6):
        children = []
        for _ in range(rng.randint(2, 3)):
            child, c_nodes, c_succ = _make_workflow(rng, depth + 1, ids)
            children.append(child)
            nodes += c_nodes
            successes += c_succ
        node["status"] = 1 if rng.random() < 0.55 else 0
        node["children"] = children
    else:
        node["status"] = 1 if rng.random() < 0.8 else 0
    return node, nodes + 1, successes + node["status"]


def write_workflows(rng: random.Random, path: Path, count: int) -> dict:
    total_nodes = total_successes = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(count):
            root, nodes, successes = _make_workflow(rng, 0, itertools.count())
            total_nodes += nodes
            total_successes += successes
            doc = {"benchmark": rng.choice(BENCHMARKS), "agent": rng.choice(AGENTS),
                   "model": rng.choice(MODELS), "trajectory_id": f"traj-{i:06d}", "root": root}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return {"nodes": total_nodes, "successes": total_successes}


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def write_common(rng: random.Random, trees: Trees, out: Path) -> dict:
    """Trees, keyword rules and the labour tables every workload shares."""
    files = {
        "domain_taxonomy": out / "taxonomy_domain.json",
        "skill_taxonomy": out / "taxonomy_skill.json",
        "domain_rules": out / "rules_domain.json",
        "skill_rules": out / "rules_skill.json",
        "occupations": out / "occupations.csv",
        "importance": out / "importance.csv",
        "digital_labels": out / "digital_labels.csv",
    }
    _dump(files["domain_taxonomy"], trees.domain_doc)
    _dump(files["skill_taxonomy"], trees.skill_doc)
    _dump(files["domain_rules"], [{"keyword": domain_keyword(i), "labels": list(labels)}
                                  for i, labels in enumerate(trees.domain_leaves)])
    _dump(files["skill_rules"], [{"keyword": skill_keyword(i), "labels": list(labels)}
                                 for i, labels in enumerate(trees.skill_leaves)])
    employment = []
    with open(files["occupations"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("soc_code,title,employment,median_wage\n")
        for i, soc in enumerate(trees.socs):
            emp = float(rng.randint(1_000, 900_000))
            employment.append(emp)
            fh.write(f"{soc},Occupation {i},{emp},{float(rng.randint(25_000, 180_000))}\n")
    with open(files["importance"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# scale_max: 5.0\nsoc_code,activity_id,importance\n")
        for soc in trees.socs:
            for activity in trees.activities:
                fh.write(f"{soc},{activity},{rng.randint(100, 500) / 100}\n")
    with open(files["digital_labels"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("soc_code,task_hash,label,justification\n")
        for leaf, (_, _, label) in enumerate(trees.domain_leaves):
            if rng.random() < 0.85:
                digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
                mode = "DIGITAL" if rng.random() < 0.6 else "PHYSICAL"
                fh.write(f"{trees.socs[trees.leaf_occupation[leaf]]},{digest},{mode},generated\n")
    family_employment = [0.0] * len(trees.domain_doc["root"]["children"])
    for occ, emp in enumerate(employment):
        family_employment[trees.soc_family[occ]] += emp
    return {"files": {k: str(v) for k, v in files.items()},
            "family_employment": family_employment}


def write_examples(corpus: Corpus, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for (bench, example_id), text in zip(corpus.keys, corpus.instructions):
            fh.write(json.dumps({"benchmark": bench, "example_id": example_id,
                                 "instruction": text}, sort_keys=True) + "\n")


def write_mappings(corpus: Corpus, trees: Trees, path: Path) -> None:
    """The recorded mappings file, in ``workatlas.io.write_mappings`` format,
    written straight from the ground truth rather than by an annotator."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, d, s in zip(corpus.keys, corpus.domain, corpus.skill):
            for kind, leaves, table in (("domain", d, trees.domain_leaves),
                                        ("skill", s, trees.skill_leaves)):
                labels = [list(table[i]) for i in leaves]
                fh.write(json.dumps({
                    "annotator_id": f"keyword:rules_{kind}",
                    "benchmark": key[0],
                    "example_id": key[1],
                    "paths": sorted(labels),
                    "raw": json.dumps(labels),
                    "status": "mapped",
                    "taxonomy_kind": kind,
                }, sort_keys=True) + "\n")


def truth(corpus: Corpus, trees: Trees) -> dict:
    """Expected coverage and effort tables for a corpus mapped without error."""
    out = {}
    for kind, per_example, group in (("domain", corpus.domain, trees.domain_family),
                                     ("skill", corpus.skill, list(range(len(trees.skill_leaves))))):
        pooled: set[int] = set()
        by_bench: dict[str, set[int]] = {}
        effort: Counter = Counter()
        for (bench, _), leaves in zip(corpus.keys, per_example):
            pooled.update(leaves)
            by_bench.setdefault(bench, set()).update(leaves)
            for node in {group[x] for x in leaves}:
                effort[node] += 1
        prefix = "f" if kind == "domain" else "s"
        out[kind] = {
            "covered": len(pooled),
            "covered_by_benchmark": {b: len(v) for b, v in sorted(by_bench.items())},
            "effort": {f"{prefix}{node}": count for node, count in sorted(effort.items())},
        }
    out["examples"] = len(corpus.keys)
    out["pool_by_benchmark"] = dict(Counter(bench for bench, _ in corpus.keys))
    return out


def expected_paths(corpus: Corpus, trees: Trees) -> dict:
    """(kind, benchmark, example_id) -> the sorted label triples it maps to."""
    out = {}
    for key, d, s in zip(corpus.keys, corpus.domain, corpus.skill):
        out[("domain", *key)] = sorted(trees.domain_leaves[i] for i in d)
        out[("skill", *key)] = sorted(trees.skill_leaves[i] for i in s)
    return out
