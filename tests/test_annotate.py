import contextlib
import gc
import http.server
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import pytest

from conftest import synthetic_taxonomy
from workatlas.annotate import (
    AnnotatorTransportError,
    KeywordAnnotator,
    KeywordRule,
    RemoteAnnotator,
    ReplayAnnotator,
    format_candidates,
    parse_candidates,
)
from workatlas.io import fixture_path
from workatlas.mapping import MappingStatus, TaskExample, map_example
from workatlas.taxonomy import path_with_labels


class TestParseCandidates:
    def test_empty_text_means_no_candidates(self):
        assert parse_candidates("") == ([], 0)
        assert parse_candidates("   \n ") == ([], 0)
        assert parse_candidates("[]") == ([], 0)

    def test_json_array_of_arrays(self):
        sequences, failed = parse_candidates('[["A", "B", "C"], ["D", "E", "F"]]')
        assert sequences == [["A", "B", "C"], ["D", "E", "F"]]
        assert failed == 0

    def test_json_array_of_separator_strings(self):
        sequences, failed = parse_candidates('["A > B > C"]')
        assert sequences == [["A", "B", "C"]]
        assert failed == 0

    def test_line_grammar(self):
        sequences, failed = parse_candidates("A > B > C\nD>E>F\n")
        assert sequences == [["A", "B", "C"], ["D", "E", "F"]]
        assert failed == 0

    def test_prose_line_becomes_single_label_candidate(self):
        # it will fail resolution downstream, counting toward invalid
        sequences, failed = parse_candidates("this task is about accounting")
        assert sequences == [["this task is about accounting"]]
        assert failed == 0

    def test_malformed_json_items_counted_as_failures(self):
        sequences, failed = parse_candidates('[["A", "B"], 42, ["", ""]]')
        assert sequences == [["A", "B"]]
        assert failed == 2

    @pytest.mark.parametrize("text", ["[" + "9" * 4301 + "]", "[" * 100_000],
                             ids=["int-over-the-digit-limit", "nesting-too-deep"])
    def test_json_the_decoder_refuses_reads_as_prose(self, text):
        # an int over the digit limit (a plain ValueError) or nesting too
        # deep to decode (RecursionError), read as "[9x]" is
        assert parse_candidates(text) == ([[text]], 0)

    def test_separator_only_line_is_a_failure(self):
        sequences, failed = parse_candidates("> > >")
        assert sequences == []
        assert failed == 1

    def test_format_roundtrip(self):
        sequences = [["A", "B", "C"], ["D", "E", "F"]]
        assert parse_candidates(format_candidates(sequences)) == (sequences, 0)


class TestKeywordAnnotator:
    def test_rules_fire_on_substring_case_insensitive(self):
        annotator = KeywordAnnotator(
            [KeywordRule("budget", ("F", "O", "review budget")),
             KeywordRule("deploy", ("F", "O", "deploy code"))]
        )
        raw = annotator.annotate("Review the BUDGET and deploy it", "")
        sequences, _ = parse_candidates(raw)
        assert sequences == [["F", "O", "review budget"], ["F", "O", "deploy code"]]

    def test_no_hits_yields_empty_array(self):
        annotator = KeywordAnnotator([KeywordRule("zzz", ("a",))])
        assert annotator.annotate("nothing relevant", "") == "[]"

    def test_deterministic(self, domain_annotator):
        first = domain_annotator.annotate("Reconcile bank statements", "whatever")
        second = domain_annotator.annotate("Reconcile bank statements", "other taxonomy")
        assert first == second

    def test_file_rejects_empty_keyword(self, tmp_path):
        # An empty keyword would fire on every instruction, a blank one on
        # every instruction with a space or a tab.
        path = tmp_path / "rules.json"
        rules = [{"keyword": "budget", "labels": ["F", "O", "review budget"]},
                 {"keyword": "", "labels": ["F", "O", "anything"]}]
        for keyword in ("", " ", " \t\n"):
            rules[1]["keyword"] = keyword
            path.write_text(json.dumps(rules), encoding="utf-8")
            with pytest.raises(ValueError) as err:
                KeywordAnnotator.from_file(path)
            assert str(err.value) == "rule 1: keyword must be a non-blank string"
        rules[1]["keyword"] = " budget "
        path.write_text(json.dumps(rules), encoding="utf-8")
        assert len(KeywordAnnotator.from_file(path).rules) == 2


class TestRulesShareTaxonomyLabels:
    """Rules read with their taxonomy hold its label tuples."""

    def test_rule_labels_are_the_path_labels(self, domain_taxonomy, skill_taxonomy):
        for t in (domain_taxonomy, skill_taxonomy):
            resolved = len(t._resolved)
            annotator = KeywordAnnotator.from_file(
                fixture_path(f"keyword_rules_{t.kind.value}.json"), taxonomy=t)
            paths = {p.labels: p for p in t.path_index}
            named = [rule for rule in annotator.rules if rule.labels in paths]
            assert named
            for rule in named:
                assert rule.labels is paths[rule.labels].labels
            assert len(t._resolved) == resolved  # reading rules resolves nothing

    def test_other_rules_keep_their_own_labels_and_outcomes(self, tmp_path, domain_taxonomy):
        labels = sorted(p.labels for p in domain_taxonomy.path_index)[0]
        variant = [x.upper() for x in labels]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"keyword": "ledger", "labels": ["No Such Family", "X", "Y"]},
            {"keyword": "budget", "labels": variant},
            {"keyword": "journal", "labels": list(labels[:2])},
        ]), encoding="utf-8")
        annotator = KeywordAnnotator.from_file(path, taxonomy=domain_taxonomy)
        assert [rule.labels for rule in annotator.rules] == [
            ("No Such Family", "X", "Y"), tuple(variant), labels[:2]]

        def status(instruction):
            return map_example(TaskExample("b", "e", instruction), domain_taxonomy,
                               annotator).status

        assert status("close the ledger") is MappingStatus.INVALID
        assert status("the journal") is MappingStatus.INVALID  # a partial path
        assert status("review the budget") is MappingStatus.MAPPED
        assert status("nothing") is MappingStatus.EMPTY

    def test_index_holds_each_keyword_once(self):
        rules = [KeywordRule("budget", ("A",)), KeywordRule("BUDGET", ("B",)),
                 KeywordRule("ledger", ("C",)), KeywordRule("Budget", ("D",))]
        index = KeywordAnnotator(rules)._by_length[6]
        assert index == {"budget": (0, 1, 3), "ledger": 2}
        assert next(k for k in index if k == "ledger") is rules[2].keyword


def reference_rules(path, taxonomy=None):
    """Rules read the plain way: the whole document parsed first, then
    each rule checked in turn."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("a rules file must hold a JSON array of rules")
    rules = []
    for i, r in enumerate(data):
        if not isinstance(r, dict):
            raise ValueError(f"rule {i}: must be an object")
        if not isinstance(r.get("keyword"), str):
            raise ValueError(f"rule {i}: keyword must be a string")
        if not r["keyword"].strip():
            raise ValueError(f"rule {i}: keyword must be a non-blank string")
        sequence = r.get("labels")
        if not (isinstance(sequence, list) and sequence
                and all(isinstance(x, str) for x in sequence)):
            raise ValueError(f"rule {i}: labels must be a non-empty array of strings")
        named = None if taxonomy is None else path_with_labels(taxonomy, sequence)
        rules.append(KeywordRule(r["keyword"],
                                 named.labels if named is not None else tuple(sequence)))
    return rules


def _rules_outcome(read, path, taxonomy=None):
    try:
        result = read(path, taxonomy=taxonomy)
    except Exception as err:  # noqa: BLE001  (the type and message are compared)
        return type(err), str(err)
    return list(getattr(result, "rules", result))


_RULE = '{"keyword": "budget", "labels": ["F", "O", "review budget"]}'


class TestRulesFileParity:
    """Rules decoded one at a time read as the parsed document does."""

    @pytest.mark.parametrize("text", [
        '{"keyword": "budget", "labels": ["F", "O", "T"]}',  # an object, not an array
        "",
        " \n\t\r ",
        "\ufeff[" + _RULE + "]",  # a byte order mark
        "[1,]",
        "[" + _RULE + ",]",
        "[" + _RULE + "] x",
        "[" + _RULE + "] ]",
        "[" + _RULE + "][]",
        "[1, " + _RULE,  # a bad rule, then the document ends
        '[1, {"keyword": "b" "labels": []}]',  # a bad rule, then a syntax error
        "[" + _RULE + " " + _RULE + "]",
        '[{"keyword": NaN, "labels": ["F", "O", "T"]}]',
        '[{"keyword": "budget", "keyword": " ", "labels": ["F", "O", "T"]}]',
        '[{"keyword": " ", "keyword": "budget", "labels": ["F", "O", "T"]}]',
        "[" + "1" * 5000 + "]",  # an int over the interpreter's digit limit
        "[", "]", "[]", " [ ] \n", "null", "[null]", "[[]]", '"rules"',
        "[" + _RULE + ', {"keyword": "x", "labels": "F"}]',
        "\r\n[\r\n" + _RULE + "\r\n]\r\n",
    ])
    def test_same_rules_or_same_error(self, tmp_path, domain_taxonomy, text):
        path = tmp_path / "rules.json"
        path.write_bytes(text.encode("utf-8"))
        for taxonomy in (None, domain_taxonomy):
            expected = _rules_outcome(reference_rules, path, taxonomy)
            assert _rules_outcome(KeywordAnnotator.from_file, path, taxonomy) == expected

    def test_bundled_rules(self, domain_taxonomy, skill_taxonomy):
        for t in (domain_taxonomy, skill_taxonomy):
            path = fixture_path(f"keyword_rules_{t.kind.value}.json")
            assert (_rules_outcome(KeywordAnnotator.from_file, path, t)
                    == _rules_outcome(reference_rules, path, t))

    def test_reading_holds_no_parsed_document(self, tmp_path):
        # one rule per leaf, as a product rules file has: the read may peak
        # above the annotator it returns by the file's text and a little more
        t = synthetic_taxonomy(5000)
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"keyword": f"keyword {i}", "labels": list(p.labels)}
                                    for i, p in enumerate(t.paths)]), encoding="utf-8")
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            annotator = KeywordAnnotator.from_file(path, taxonomy=t)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(annotator.rules) == 5000
        assert peak - start <= (held - start) + path.stat().st_size + 64 * 1024


def linear_scan(rules, instruction):
    """Reference matcher: test every rule's lowercased keyword in turn."""
    lowered = instruction.lower()
    hits = [rule.labels for rule in rules if rule.keyword.lower() in lowered]
    return format_candidates(hits) if hits else "[]"


class TestKeywordIndexEquivalence:
    """The length-indexed matcher returns exactly what the linear scan does."""

    def assert_equivalent(self, rules, instructions):
        annotator = KeywordAnnotator(rules)
        for text in instructions:
            assert annotator.annotate(text, "") == linear_scan(rules, text), text

    def test_bundled_rules(self, domain_annotator, skill_annotator, examples_corpus):
        texts = [e.instruction for e in examples_corpus]
        texts += [t.upper() for t in texts] + ["", "x"]
        for annotator in (domain_annotator, skill_annotator):
            self.assert_equivalent(annotator.rules, texts)

    def test_synthetic_5k_rules(self):
        rng = random.Random(5_000)
        alphabet = "abcdeAB\u00c9\u0130 "
        keywords = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
            for _ in range(5_000)
        ]
        rules = [KeywordRule(kw, (f"L{i}", "x", "y")) for i, kw in enumerate(keywords)]
        texts = []
        for _ in range(300):
            planted = [rng.choice(keywords) for _ in range(rng.randint(0, 4))]
            noise = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
                     for _ in range(3)]
            parts = planted + noise
            rng.shuffle(parts)
            texts.append("".join(parts))
        self.assert_equivalent(rules, texts)

    def test_edge_cases(self):
        rules = [
            KeywordRule("budget", ("Dup", "first", "rule")),
            KeywordRule("budget", ("Dup", "second", "rule")),
            KeywordRule("budgets", ("Nested", "longer", "keyword")),
            KeywordRule("BudGet", ("Mixed", "case", "keyword")),
            KeywordRule("a budget review meeting", ("Longer", "than", "text")),
            KeywordRule("\u0130stanbul", ("Dotted", "capital", "I")),
            KeywordRule("stanbul", ("Suffix", "of", "non-ascii")),
            KeywordRule("", ("Empty", "keyword", "always")),
        ]
        self.assert_equivalent(rules, [
            "Review the BUDGETS.",
            "budget",
            "Plan a budge",
            "Fly to \u0130STANBUL, then review the budget",
            "istanbul",
            "",
        ])
        fired = parse_candidates(KeywordAnnotator(rules).annotate("BUDGETS", ""))[0]
        assert [seq[0] for seq in fired] == ["Dup", "Dup", "Nested", "Mixed", "Empty"]


class TestReplayAnnotator:
    def test_serves_recorded_output(self):
        annotator = ReplayAnnotator({"do the thing": '[["A","B","C"]]'})
        assert annotator.annotate("do the thing", "") == '[["A","B","C"]]'

    def test_unknown_instruction_is_loud(self):
        annotator = ReplayAnnotator({})
        with pytest.raises(KeyError):
            annotator.annotate("never recorded", "")

    def test_from_records_joins_on_example_key(self, examples_corpus, domain_results):
        annotator = ReplayAnnotator.from_records(examples_corpus, domain_results)
        by_key = {e.key: e for e in examples_corpus}
        for result in domain_results:
            instruction = by_key[result.key].instruction
            assert annotator.annotate(instruction, "") == result.raw_annotator_output

    def test_validated_recording_matches_from_records(self, tmp_path, examples_corpus,
                                                      domain_results, skill_results):
        """The CLI's replay annotators, joined from a mappings file while it
        is checked, serve what :meth:`ReplayAnnotator.from_records` serves."""
        from workatlas.cli import RunConfig, validate_inputs
        from workatlas.io import fixture_path, write_mappings
        from workatlas.taxonomy import TaxonomyKind

        path = tmp_path / "mappings.jsonl"
        write_mappings(path, [*domain_results, *skill_results])
        inputs = validate_inputs(RunConfig(command="map", values={
            "domain_taxonomy": str(fixture_path("taxonomy_domain.json")),
            "skill_taxonomy": str(fixture_path("taxonomy_skill.json")),
            "examples": str(fixture_path("examples.jsonl")),
            "annotator": "replay", "replay_mappings": str(path),
        }))
        assert inputs.ok, inputs.violations
        for kind, results in ((TaxonomyKind.DOMAIN, domain_results),
                              (TaxonomyKind.SKILL, skill_results)):
            replayed = inputs.annotators[kind]
            assert replayed.annotator_id == f"replay:{kind.value}"
            resolved = ReplayAnnotator.from_records(examples_corpus, results)
            for example in examples_corpus:
                assert replayed.annotate(example.instruction, "") == resolved.annotate(
                    example.instruction, "")


class _Handler(http.server.BaseHTTPRequestHandler):
    fail_times = 0
    reject_times = 0
    requests_seen = 0
    payloads: list = []

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        cls.payloads.append(payload)
        if cls.reject_times > 0:
            cls.reject_times -= 1
            self.send_response(403)
            self.end_headers()
            return
        if cls.fail_times > 0:
            cls.fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        body = json.dumps([["Family One", "Occ One", payload["instruction"]]]).encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serving(handler):
    """The URL of a loopback server that answers with ``handler``. The
    server polls for shutdown every 10 ms, so teardown does not wait out
    ``serve_forever``'s default half-second poll."""
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/annotate"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture()
def annotator_server():
    _Handler.fail_times = 0
    _Handler.reject_times = 0
    _Handler.requests_seen = 0
    _Handler.payloads = []
    with _serving(_Handler) as url:
        yield url


class _BrokenReplyHandler(http.server.BaseHTTPRequestHandler):
    """Reads each request and answers it with raw bytes that are no
    well-formed HTTP reply, or whose body is no UTF-8."""

    reply = b""
    requests_seen = 0

    def do_POST(self):
        type(self).requests_seen += 1
        self.rfile.read(int(self.headers["Content-Length"]))
        self.wfile.write(self.reply)
        self.close_connection = True

    def log_message(self, *args):
        pass


BROKEN_REPLIES = {
    "malformed-status-line": b"HTTP/1.1 two-hundred OK\r\n\r\n",
    "body-not-utf8": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe",
}


@pytest.fixture(params=sorted(BROKEN_REPLIES))
def broken_server(request):
    _BrokenReplyHandler.reply = BROKEN_REPLIES[request.param]
    _BrokenReplyHandler.requests_seen = 0
    with _serving(_BrokenReplyHandler) as url:
        yield url


class TestRemoteAnnotator:
    def test_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("ATLAS_ANNOTATOR_URL", raising=False)
        with pytest.raises(ValueError, match="ATLAS_ANNOTATOR_URL"):
            RemoteAnnotator()

    def test_reads_endpoint_from_environment(self, monkeypatch, annotator_server):
        monkeypatch.setenv("ATLAS_ANNOTATOR_URL", annotator_server)
        monkeypatch.setenv("ATLAS_ANNOTATOR_KEY", "sekrit")
        annotator = RemoteAnnotator(sleep=lambda s: None)
        raw = annotator.annotate("task text", "taxonomy text")
        sequences, _ = parse_candidates(raw)
        assert sequences == [["Family One", "Occ One", "task text"]]

    def test_retries_transient_failures_with_backoff(self, annotator_server):
        _Handler.fail_times = 2
        sleeps = []
        annotator = RemoteAnnotator(url=annotator_server, sleep=sleeps.append)
        raw = annotator.annotate("x", "")
        assert "Family One" in raw
        assert _Handler.requests_seen == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_exhausted_retries_surface_attempt_count(self, annotator_server):
        _Handler.fail_times = 99
        annotator = RemoteAnnotator(url=annotator_server, sleep=lambda s: None)
        with pytest.raises(AnnotatorTransportError, match="after 3 attempts"):
            annotator.annotate("x", "")

    def test_client_errors_are_not_retried(self, annotator_server):
        _Handler.reject_times = 5
        annotator = RemoteAnnotator(url=annotator_server, sleep=lambda s: None)
        with pytest.raises(AnnotatorTransportError, match="403"):
            annotator.annotate("x", "")
        assert _Handler.requests_seen == 1

    def test_error_responses_are_closed(self, annotator_server):
        _Handler.fail_times = 1
        _Handler.reject_times = 1
        annotator = RemoteAnnotator(url=annotator_server, sleep=lambda s: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(AnnotatorTransportError, match="403"):
                annotator.annotate("x", "")
            assert "Family One" in annotator.annotate("x", "")  # after one 500
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_broken_reply_is_retried_then_a_transport_error(self, broken_server):
        sleeps = []
        annotator = RemoteAnnotator(url=broken_server, sleep=sleeps.append)
        with pytest.raises(AnnotatorTransportError, match="after 3 attempts"):
            annotator.annotate("x", "")
        gc.collect()  # an unclosed socket fails the test under the warning filter
        assert _BrokenReplyHandler.requests_seen == 3
        assert sleeps == [0.5, 1.0]

    def test_unreachable_endpoint(self):
        annotator = RemoteAnnotator(
            url="http://127.0.0.1:1/nothing", sleep=lambda s: None, timeout=0.2
        )
        with pytest.raises(AnnotatorTransportError):
            annotator.annotate("x", "")


@pytest.mark.parametrize("instruction, taxonomy_text", [
    ('say "hi"', 'A > "quoted" label'),
    ("C:\\path\\to", "back\\slash\nnew line\ttab"),
    ("naïve café 日本語 \U0001F600", "Ärzte > Übersetzer \u2028"),
    ("", ""),
])
def test_request_body_equals_json_dumps(instruction, taxonomy_text):
    annotator = RemoteAnnotator(url="http://127.0.0.1:1/unused")
    for text in (taxonomy_text, taxonomy_text, "other" + taxonomy_text):  # miss, hit, miss
        expected = json.dumps({"instruction": instruction, "taxonomy": text})
        assert annotator._request_body(instruction, text) == expected.encode("utf-8")


def test_advise_sends_the_flattened_domain_tree(tmp_path, monkeypatch, capsys,
                                                annotator_server, domain_taxonomy):
    from workatlas.cli import EXIT_INPUT, EXIT_OK, main
    from workatlas.io import fixture_path
    from workatlas.taxonomy import flatten_for_prompt

    assert main([
        "autonomy", "--workflows", str(fixture_path("workflows.jsonl")),
        "--out", str(tmp_path), "--run-id", "curves",
    ]) == EXIT_OK
    monkeypatch.setenv("ATLAS_ANNOTATOR_URL", annotator_server)
    code = main([
        "advise", "--curves", str(tmp_path / "curves" / "tables" / "autonomy_curves.csv"),
        "--fixtures", "--annotator", "remote",
        "--instruction", "debug the reported defect", "--complexity", "2",
        "--out", str(tmp_path), "--run-id", "adv",
    ])
    assert code == EXIT_INPUT  # the stub's labels resolve to no curve group
    assert [p["taxonomy"] for p in _Handler.payloads] == [flatten_for_prompt(domain_taxonomy)]
    assert _Handler.payloads[0]["instruction"] == "debug the reported defect"


def test_remote_map_in_parallel_in_a_fresh_interpreter(tmp_path, annotator_server):
    """The HTTP stack and the thread pool are imported on first use; a
    fresh interpreter that needs both maps every example through them."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "workatlas.cli", "map", "--fixtures", "--annotator", "remote",
         "--parallelism", "2", "--out", str(tmp_path), "--run-id", "m"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src), "ATLAS_ANNOTATOR_URL": annotator_server},
    )
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "m" / "mappings.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 40  # 20 fixture examples, each against both taxonomies
    assert _Handler.requests_seen == 40


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_broken_reply_exits_annotator_error(tmp_path, monkeypatch, capsys, broken_server,
                                            parallelism):
    """A reply that breaks HTTP ends ``map`` as an annotator failure, exit
    4, never as an internal error."""
    import functools

    from workatlas import cli

    monkeypatch.setenv("ATLAS_ANNOTATOR_URL", broken_server)
    monkeypatch.setattr(cli, "RemoteAnnotator",
                        functools.partial(RemoteAnnotator, sleep=lambda s: None))
    code = cli.main(["map", "--fixtures", "--annotator", "remote", "--parallelism", parallelism,
                     "--out", str(tmp_path), "--run-id", "m"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_ANNOTATOR, err
    assert "after 3 attempts" in err and "internal error" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["m.partial"]
