"""Seeded input fuzzing of every input reader through the CLI.

Each case changes one location of a bundled input. In a JSONL line or a
JSON document, a field (at any depth) is deleted or replaced by a value of
another JSON type, or the whole line or document becomes a non-object. In a
CSV line, a cell is deleted, inserted or replaced, or the whole line
becomes blank or malformed. Whatever the change, the command must end in a
documented exit code: 0, 2 (configuration) or 3 (input violation), never 5.
An input violation must name the file and leave no run directory. A line
given a value over a decoder's limit (a JSON integer over Python's
int-string digit limit, a CSV cell over the ``csv`` field limit) must be
an input violation naming that line.
"""

from __future__ import annotations

import csv
import io
import json
import random

import pytest

from workatlas.autonomy import success_rates, with_overall
from workatlas.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
from workatlas.io import fixture_path, write_curves, write_mappings

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


CSV_CELLS = ("", "x", "0", "-1", "2.5", "nan", "inf", "1e309", "DIGITAL", '"')
CSV_LINES = ("", "x", ",,,,", '"')


def mutate_csv_line(rng: random.Random, line: str) -> str:
    """One line with one change: a cell deleted, inserted or replaced, or
    the whole line replaced by a blank or malformed one."""
    if rng.random() < 0.05:
        return rng.choice(CSV_LINES)
    cells = next(csv.reader([line]))
    i = rng.randrange(len(cells))
    roll = rng.random()
    if roll < 0.15:
        del cells[i]
    elif roll < 0.3:
        cells.insert(i, rng.choice(CSV_CELLS))
    else:
        cells[i] = rng.choice(CSV_CELLS)
    return _csv_line(cells)


def _csv_line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def mutated_lines(mutate):
    """A file mutator that changes one non-blank line with ``mutate`` and
    returns that line's index."""
    def write(rng: random.Random, source: str, target) -> int:
        lines = source.splitlines()
        indices = [i for i, line in enumerate(lines) if line.strip()]
        i = rng.choice(indices)
        lines[i] = mutate(rng, lines[i])
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return i
    return write


def mutated_document(rng: random.Random, source: str, target) -> None:
    """The whole JSON document with one change, as :func:`mutate_line` makes it."""
    target.write_text(mutate_line(rng, source) + "\n", encoding="utf-8")


mutated_jsonl = mutated_lines(mutate_line)
mutated_csv = mutated_lines(mutate_csv_line)


@pytest.fixture(scope="module")
def sources(tmp_path_factory, domain_results, skill_results, workflows):
    """Input texts by file name: the bundled fixtures plus a mappings file
    and a curve CSV built from them."""
    directory = tmp_path_factory.mktemp("fuzz")
    write_mappings(directory / "mappings.jsonl", list(domain_results) + list(skill_results))
    write_curves(directory / "curves.csv",
                 success_rates(workflows, with_overall("benchmark")))

    def text(name):
        path = directory / name if name in ("mappings.jsonl", "curves.csv") else fixture_path(name)
        return path.read_text(encoding="utf-8")
    return text


ECONOMICS_OCCUPATIONS_ONLY = ["economics",
                              "--domain-taxonomy", str(fixture_path("taxonomy_domain.json")),
                              "--skill-taxonomy", str(fixture_path("taxonomy_skill.json")),
                              "--occupations"]
ADVISE = ["advise", "--fixtures", "--groups", "overall", "--instruction", "Fix the failing test",
          "--complexity", "2", "--curves"]

#: case name -> (input file, command line without the file, file mutator)
COMMANDS = {
    "examples-map": ("examples.jsonl", ["map", "--fixtures", "--examples"], mutated_jsonl),
    "mappings-coverage": ("mappings.jsonl", ["coverage", "--fixtures", "--mappings"],
                          mutated_jsonl),
    "mappings-economics": ("mappings.jsonl", ["economics", "--fixtures", "--mappings"],
                           mutated_jsonl),
    "workflows-autonomy": ("workflows.jsonl", ["autonomy", "--fixtures", "--workflows"],
                           mutated_jsonl),
    # without importance and labels, whose cross-checks name their own file
    # for an occupation the mutation removed
    "occupations-economics": ("occupations.csv", ECONOMICS_OCCUPATIONS_ONLY,
                              mutated_csv),
    "importance-economics": ("importance.csv", ["economics", "--fixtures", "--importance"],
                             mutated_csv),
    "digital-labels-economics": ("digital_labels.csv",
                                 ["economics", "--fixtures", "--digital-labels"],
                                 mutated_csv),
    "curves-advise": ("curves.csv", ADVISE, mutated_csv),
    "domain-taxonomy-map": ("taxonomy_domain.json", ["map", "--fixtures", "--domain-taxonomy"],
                            mutated_document),
    "domain-rules-map": ("keyword_rules_domain.json", ["map", "--fixtures", "--domain-rules"],
                         mutated_document),
}


def over_limit_int(rng: random.Random, line: str) -> str:
    """One JSON value of the line, at any depth, replaced by an integer one
    digit over Python's int-string conversion limit."""
    record = json.loads(line)
    container, key = rng.choice(_locations(record, []))
    container[key] = _HUGE
    return json.dumps(record).replace(json.dumps(_HUGE), "9" * 4301)


def over_limit_cell(rng: random.Random, line: str) -> str:
    """One CSV cell of the line replaced by one a byte over the ``csv``
    module's field limit."""
    cells = next(csv.reader([line]))
    cells[rng.randrange(len(cells))] = "x" * (csv.field_size_limit() + 1)
    return _csv_line(cells)


#: line-oriented case name -> a file mutator whose line a decoder must refuse
OVER_LIMIT = {name: mutated_lines(over_limit_int if mutate is mutated_jsonl else over_limit_cell)
              for name, (_, _, mutate) in COMMANDS.items()
              if mutate in (mutated_jsonl, mutated_csv)}


@pytest.mark.parametrize("name", sorted(OVER_LIMIT))
def test_value_over_a_decoder_limit_names_its_line(name, tmp_path, capsys, sources):
    """A value that the JSON decoder or the ``csv`` module refuses is an
    input violation naming the mutated line."""
    file_name, argv, _ = COMMANDS[name]
    rng = random.Random(f"over-limit-{name}")
    for case in range(3):
        target = tmp_path / f"{case}-{file_name}"
        i = OVER_LIMIT[name](rng, sources(file_name), target)
        out = tmp_path / f"runs-{case}"
        code = main([*argv, str(target), "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, err[:300]
        assert f"input violation: {target} [line {i + 1}]: " in err, err[:300]
        assert not out.exists()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_input_ends_in_documented_exit(name, tmp_path, capsys, sources):
    file_name, argv, mutate = COMMANDS[name]
    source = sources(file_name)
    rng = random.Random(f"fuzz-{name}")
    codes = {}
    for case in range(CASES):
        target = tmp_path / f"{case}-{file_name}"
        mutate(rng, source, target)
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
