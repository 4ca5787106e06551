"""Seeded input fuzzing of the JSONL readers through the CLI.

Each case changes one location of one line of a bundled input: a field (at
any depth) is deleted or replaced by a value of another JSON type, or the
whole line becomes a non-object. Whatever the change, the command must end
in a documented exit code: 0, 2 (configuration) or 3 (input violation),
never 5. An input violation must name the file and leave no run directory.
"""

from __future__ import annotations

import json
import random

import pytest

from workatlas.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
from workatlas.io import fixture_path, write_mappings

CASES = 200

#: Stand-in for a number too large for a float; written as ``1e309``.
_HUGE = "\x00huge\x00"
REPLACEMENTS = (None, 0, 7, -1.5, True, False, _HUGE, "", "x", [], ["x"], [1], [["x"]],
                {}, {"k": "v"})
NON_OBJECT_LINES = ("5", '"text"', "[]", "null", "true", "[1, 2]")


def _locations(value, out):
    """Every (container, key) pair below ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _locations(child, out)
    return out


def mutate_line(rng: random.Random, line: str) -> str:
    """One line with one change: a location deleted or given another value,
    or the whole line replaced by a JSON value that is not an object."""
    if rng.random() < 0.05:
        return rng.choice(NON_OBJECT_LINES)
    record = json.loads(line)
    container, key = rng.choice(_locations(record, []))
    if rng.random() < 0.25:
        del container[key]
    else:
        container[key] = rng.choice(REPLACEMENTS)
    return json.dumps(record).replace(json.dumps(_HUGE), "1e309")


def mutated_file(rng: random.Random, source: str, target) -> None:
    lines = source.splitlines()
    indices = [i for i, line in enumerate(lines) if line.strip()]
    i = rng.choice(indices)
    lines[i] = mutate_line(rng, lines[i])
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def mappings_text(tmp_path_factory, domain_results, skill_results):
    path = tmp_path_factory.mktemp("fuzz") / "mappings.jsonl"
    write_mappings(path, list(domain_results) + list(skill_results))
    return path.read_text(encoding="utf-8")


COMMANDS = {
    "examples-map": ("examples", ["map", "--fixtures", "--examples"]),
    "mappings-coverage": ("mappings", ["coverage", "--fixtures", "--mappings"]),
    "mappings-economics": ("mappings", ["economics", "--fixtures", "--mappings"]),
    "workflows-autonomy": ("workflows", ["autonomy", "--fixtures", "--workflows"]),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_input_ends_in_documented_exit(name, tmp_path, capsys, mappings_text):
    kind, argv = COMMANDS[name]
    if kind == "mappings":
        source = mappings_text
    else:
        source = fixture_path(f"{kind}.jsonl").read_text(encoding="utf-8")
    rng = random.Random(f"fuzz-{name}")
    codes = {}
    for case in range(CASES):
        target = tmp_path / f"{case}-{kind}.jsonl"
        mutated_file(rng, source, target)
        out = tmp_path / f"runs-{case}"
        code = main([*argv, str(target), "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        where = f"case {case}: {err.strip()[:300]}"
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INPUT), where
        if code == EXIT_INPUT:
            assert str(target) in err, where
            assert not out.exists(), where
        codes[code] = codes.get(code, 0) + 1
    # the mutations reach both outcomes
    assert codes.get(EXIT_OK) and codes.get(EXIT_INPUT), codes
