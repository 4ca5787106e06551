"""Pluggable annotators that propose taxonomy paths for task instructions.

An annotator receives a natural-language instruction plus a flattened
taxonomy rendering and returns raw text containing candidate label
sequences. The candidate grammar is deliberately narrow so parsing stays
deterministic: either a JSON array of label sequences, or one sequence per
line with labels joined by ``>``. Anything else is a parse failure for that
candidate.

Three implementations cover the production and test paths: a remote HTTP
annotator (endpoint and credential from ``ATLAS_ANNOTATOR_URL`` /
``ATLAS_ANNOTATOR_KEY``), a deterministic keyword annotator, and a replay
annotator that serves recorded outputs. Only the remote annotator needs
the HTTP stack (``urllib.request`` with ``http.client``, ``ssl`` and
``email``), so it imports that on first use: a keyword or replay run never
loads it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from .taxonomy import Taxonomy, path_with_labels

ANNOTATOR_URL_ENV = "ATLAS_ANNOTATOR_URL"
ANNOTATOR_KEY_ENV = "ATLAS_ANNOTATOR_KEY"

SEQUENCE_SEPARATOR = ">"


class AnnotatorTransportError(RuntimeError):
    """Raised when the annotator endpoint stays unreachable after retries."""

    def __init__(self, message: str, attempts: int):
        self.attempts = attempts
        super().__init__(f"{message} (after {attempts} attempts)")


@runtime_checkable
class Annotator(Protocol):
    """Behavioral contract: text in, candidate text out."""

    annotator_id: str

    def annotate(self, instruction: str, taxonomy_text: str) -> str:
        ...


def parse_candidates(raw: str) -> tuple[list[list[str]], int]:
    """Parse raw annotator output into candidate label sequences.

    Returns ``(sequences, failed)`` where ``failed`` counts candidates that
    were present but unparseable. Empty output (or an empty JSON array)
    yields ``([], 0)``, which callers treat as "no candidates" rather than
    as a failure.
    """
    text = raw.strip()
    if not text:
        return [], 0

    # Structured form: a JSON array whose items are label arrays (or single
    # separator-joined strings).
    if text.startswith("["):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError):  # an int over the digit limit, deep nesting
            data = None
        if isinstance(data, list):
            sequences: list[list[str]] = []
            failed = 0
            for item in data:
                if isinstance(item, list) and item and all(
                    isinstance(x, str) and x.strip() for x in item
                ):
                    sequences.append([x.strip() for x in item])
                elif isinstance(item, str) and item.strip():
                    sequences.append(_split_line(item))
                else:
                    failed += 1
            return sequences, failed

    # Line form: one candidate per non-empty line.
    sequences = []
    failed = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        labels = _split_line(line)
        if labels:
            sequences.append(labels)
        else:
            failed += 1
    return sequences, failed


def _split_line(line: str) -> list[str]:
    return [part.strip() for part in line.split(SEQUENCE_SEPARATOR) if part.strip()]


def format_candidates(sequences: Iterable[Sequence[str]]) -> str:
    """Render label sequences in the structured candidate grammar."""
    return json.dumps([list(seq) for seq in sequences])


@dataclass(frozen=True, slots=True)
class KeywordRule:
    keyword: str
    labels: tuple[str, ...]


def _rule_error(i: int, r) -> str | None:
    """Why rule ``i`` is malformed, or ``None`` when it is well formed."""
    if not isinstance(r, dict):
        return f"rule {i}: must be an object"
    if not isinstance(r.get("keyword"), str):
        return f"rule {i}: keyword must be a string"
    if not r["keyword"].strip():
        # the empty string occurs in every instruction, a blank in nearly
        # every one
        return f"rule {i}: keyword must be a non-blank string"
    sequence = r.get("labels")
    if not (isinstance(sequence, list) and sequence
            and all(isinstance(x, str) for x in sequence)):
        return f"rule {i}: labels must be a non-empty array of strings"
    return None


class _NotOneArray(Exception):
    """The text is not exactly one JSON array."""


#: ``json.loads``'s own scanner and whitespace, as ``io`` reads a line.
_SCAN_JSON = json.JSONDecoder().scan_once
_SKIP_SPACE = json.decoder.WHITESPACE.match


def _array_items(text: str):
    """Each item of the JSON array that ``text`` holds, decoded one at a
    time as ``json.loads`` would decode it. Raises :class:`_NotOneArray`,
    after the items before the fault, where ``json.loads`` would raise or
    would return no array."""
    at = _SKIP_SPACE(text, 0).end()
    if text[at:at + 1] != "[":
        raise _NotOneArray
    at = _SKIP_SPACE(text, at + 1).end()
    if text[at:at + 1] == "]":
        at += 1
    else:
        while True:
            try:
                item, at = _SCAN_JSON(text, at)
            except (StopIteration, ValueError):  # also an int over the digit limit
                raise _NotOneArray from None
            yield item
            at = _SKIP_SPACE(text, at).end()
            delimiter = text[at:at + 1]
            if delimiter == "]":
                at += 1
                break
            if delimiter != ",":
                raise _NotOneArray
            at = _SKIP_SPACE(text, at + 1).end()
    if _SKIP_SPACE(text, at).end() != len(text):
        raise _NotOneArray


class KeywordAnnotator:
    """Deterministic annotator: substring keyword rules fire label sequences.

    Matching is case-insensitive: a rule fires when its lowercased keyword
    occurs in the lowercased instruction. Rules fire in declaration order and
    the output is the structured candidate grammar, so repeated calls are
    byte-identical. Immutable after construction, hence safe for concurrent
    use.

    The lowercased keywords are indexed by length, so an instruction is
    matched by looking up each of its windows of every keyword length, in
    time proportional to its length times the number of distinct keyword
    lengths rather than to the number of rules. The index maps a keyword to
    the number of its rule, or to a tuple of numbers when several rules
    share it, and holds a keyword that is already lowercase as the rule's
    own string.
    """

    def __init__(self, rules: Iterable[KeywordRule], annotator_id: str = "keyword"):
        self.rules = tuple(rules)
        self.annotator_id = annotator_id
        self._by_length: dict[int, dict[str, int | tuple[int, ...]]] = {}
        for i, rule in enumerate(self.rules):
            keyword = rule.keyword.lower()
            if keyword == rule.keyword:
                keyword = rule.keyword
            index = self._by_length.setdefault(len(keyword), {})
            before = index.get(keyword)
            if before is None:
                index[keyword] = i
            else:
                index[keyword] = (before, i) if isinstance(before, int) else (*before, i)

    @classmethod
    def from_file(cls, path: str | Path, annotator_id: str | None = None,
                  taxonomy: Taxonomy | None = None) -> "KeywordAnnotator":
        """Load rules from a JSON array of ``{keyword, labels}`` objects.

        Each rule must be an object with a string ``keyword`` that holds a
        non-whitespace character and a non-empty array of strings as
        ``labels``; otherwise ``ValueError`` names the rule by its index in
        the array, counted from 0.

        A rule whose labels are exactly those of a path of ``taxonomy``
        holds that path's ``labels`` tuple, strings included. Any other rule
        keeps a tuple of its own and maps as before: one that names no path
        still gives an ``invalid`` mapping. ``taxonomy`` may be left out
        where rules are loaded with no tree at hand; then every rule keeps a
        tuple of its own. Rules of one tree repeat its upper labels many
        times over, so each distinct label string of such tuples is stored
        once across rules.

        The array is decoded one rule at a time, so no parsed document is
        held beside the rules. A document that is not one JSON array, or
        not JSON, raises ``json.loads``'s own error, even where an earlier
        rule is bad as well.
        """
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        labels: dict[str, str] = {}
        rules = []
        bad = None  # the first rule error, raised once the document is known to be JSON
        try:
            for i, r in enumerate(_array_items(text)):
                if bad is None:
                    bad = _rule_error(i, r)
                if bad is None:
                    sequence = r["labels"]
                    named = None if taxonomy is None else path_with_labels(taxonomy, sequence)
                    rules.append(KeywordRule(r["keyword"], named.labels if named is not None
                                             else tuple(labels.setdefault(x, x)
                                                        for x in sequence)))
        except _NotOneArray:
            json.loads(text)  # raises json's own error where the text is no JSON
            raise ValueError("a rules file must hold a JSON array of rules") from None
        del text, labels
        if bad is not None:
            raise ValueError(bad)
        return cls(rules, annotator_id or f"keyword:{Path(path).stem}")

    def annotate(self, instruction: str, taxonomy_text: str) -> str:
        lowered = instruction.lower()
        fired: set[int] = set()
        for length, keywords in self._by_length.items():
            for start in range(len(lowered) - length + 1):
                hit = keywords.get(lowered[start : start + length])
                if hit is None:
                    continue
                if isinstance(hit, int):
                    fired.add(hit)
                else:
                    fired.update(hit)
        if not fired:
            return "[]"
        return format_candidates(self.rules[i].labels for i in sorted(fired))


class ReplayAnnotator:
    """Serves previously recorded raw outputs, keyed by instruction text.

    Bit-deterministic by construction: the same instruction always yields
    the same recorded bytes. Unknown instructions raise ``KeyError`` so a
    stale recording is loud rather than silently empty. The CLI builds one
    per taxonomy kind from the table its replay check joins (the recording
    to the examples, one output per instruction); :meth:`from_records`
    makes the same join for library callers.
    """

    def __init__(self, recorded: Mapping[str, str], annotator_id: str = "replay"):
        self._recorded = dict(recorded)
        self.annotator_id = annotator_id

    @classmethod
    def from_records(
        cls,
        examples: Iterable,
        mappings: Iterable,
        annotator_id: str = "replay",
    ) -> "ReplayAnnotator":
        """Join persisted examples and mapping records on (benchmark, example_id).

        ``examples`` supply instructions, ``mappings`` supply the retained
        raw annotator output for those examples; a record of another example
        is ignored, and of two records for one instruction the later wins.
        """
        instruction_by_key = {(e.benchmark, e.example_id): e.instruction for e in examples}
        recorded: dict[str, str] = {}
        for m in mappings:
            key = (m.benchmark, m.example_id)
            if key in instruction_by_key:
                recorded[instruction_by_key[key]] = m.raw_annotator_output
        return cls(recorded, annotator_id)

    def annotate(self, instruction: str, taxonomy_text: str) -> str:
        return self._recorded[instruction]


class RemoteAnnotator:
    """HTTP annotator: POSTs instruction + flattened taxonomy, body is the
    candidate text.

    Transport failures are retried with exponential backoff (3 attempts by
    default) and surfaced as :class:`AnnotatorTransportError` with the
    attempt count. A reply that breaks HTTP (a malformed status line, a cut
    body) or whose body is not UTF-8 is a transport failure too. HTTP 4xx
    responses are not retried: they indicate a request problem, not a
    transient fault.

    A corpus sends one taxonomy text with every request, so its JSON
    encoding is kept for the last text object seen, as one
    ``(text, encoded)`` tuple that concurrent callers read and replace
    whole.
    """

    def __init__(
        self,
        url: str | None = None,
        api_key: str | None = None,
        annotator_id: str = "remote",
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        timeout: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.url = url or os.environ.get(ANNOTATOR_URL_ENV)
        if not self.url:
            raise ValueError(f"no annotator endpoint: pass url= or set {ANNOTATOR_URL_ENV}")
        self.api_key = api_key if api_key is not None else os.environ.get(ANNOTATOR_KEY_ENV)
        self.annotator_id = annotator_id
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._sleep = sleep
        self._taxonomy_json: tuple[str, str] | None = None

    def _request_body(self, instruction: str, taxonomy_text: str) -> bytes:
        """``json.dumps({"instruction": ..., "taxonomy": ...})`` as UTF-8,
        with the taxonomy's encoding spliced in from the cache."""
        cached = self._taxonomy_json
        if cached is None or cached[0] is not taxonomy_text:
            cached = self._taxonomy_json = (taxonomy_text, json.dumps(taxonomy_text))
        return ('{"instruction": ' + json.dumps(instruction) + ', "taxonomy": ' + cached[1]
                + "}").encode("utf-8")

    def annotate(self, instruction: str, taxonomy_text: str) -> str:
        # Imported here so runs without a remote annotator never load the
        # HTTP stack; ``urlopen`` is looked up on the module at each attempt.
        import http.client
        import urllib.error
        import urllib.request

        payload = self._request_body(instruction, taxonomy_text)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            request = urllib.request.Request(self.url, data=payload, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return resp.read().decode("utf-8")
            except urllib.error.HTTPError as err:
                err.close()  # the error holds the response and its socket
                if 400 <= err.code < 500:
                    raise AnnotatorTransportError(
                        f"annotator rejected request with HTTP {err.code}", attempt
                    ) from err
                last_error = err
            except (urllib.error.URLError, TimeoutError, OSError, http.client.HTTPException,
                    UnicodeDecodeError) as err:
                last_error = err
            if attempt < self.max_attempts:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
        raise AnnotatorTransportError(
            f"annotator endpoint {self.url} unreachable: {last_error}", self.max_attempts
        ) from last_error
