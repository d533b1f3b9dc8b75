"""The orjson loader against the standard library's decoder.

``parse_instance`` decodes with orjson and hands to ``json`` every document
orjson refuses or may read differently; ``helpers.stdlib_parse_instance``
decodes with ``json`` alone.  Every document must give both the same
instance, matrices bit for bit, or the same schema error.
"""

import gc
import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

from ordmech import SchemaError
from ordmech.cli import main
from ordmech.fileio import _decode, parse_instance

from helpers import instance_state, stdlib_parse_instance

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def _outcome(parse, raw):
    try:
        return "instance", instance_state(parse(raw))
    except SchemaError as exc:
        return "error", str(exc), exc.field


def _assert_same(raw):
    got, expected = _outcome(parse_instance, raw), _outcome(stdlib_parse_instance, raw)
    assert got == expected
    return got[0]


@pytest.fixture(scope="module")
def bench_files(tmp_path_factory):
    """The benchmark generator's instance files at seeds 0-2."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    root = tmp_path_factory.mktemp("bench")
    for workload in ("small_audits", "large_profiles", "mechanisms_at_scale"):
        for seed in range(3):
            workloads.build(workload, seed, root / f"{workload}_{seed}")
    return sorted(root.glob("*/*.json"))


def test_fixtures_and_bench_files_decode_as_the_stdlib_reads_them(bench_files):
    paths = sorted(FIXTURES.glob("*.json")) + bench_files
    assert len(paths) == 7 + 3 * 7
    for path in paths:
        raw = path.read_bytes()
        assert _assert_same(raw) == "instance", path.name
        assert _assert_same(raw.decode()) == "instance", path.name


def _dumps_with(doc, path, literal):
    """``doc`` as JSON text with ``literal`` written at ``path``."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = "@@"
    return json.dumps(doc).replace('"@@"', literal)


NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
           str(2 ** 63), str(-2 ** 63), str(-2 ** 63 - 1), str(2 ** 64 - 1), str(2 ** 64),
           str(10 ** 30), str(10 ** 400), "-0", "-0.0", "1.7976931348623158e308",
           "2.4703282292062328e-324", "2.4703282292062327e-324", "3"]


def _documents():
    scen = json.loads((FIXTURES / "kmedian_scenarios.json").read_text())
    social = json.loads((FIXTURES / "social_sum_small.json").read_text())
    docs = {"k_median": scen, "social": dict(social, params={"k": 1, "weights": [1, {"w": 0}]}),
            "location": dict(scen, preset="facility_location",
                             params={"opening_costs": [1.5, 2, 3]})}
    places = [("k_median", "facility_distances", 0, 1), ("k_median", "metric", 2, 0),
              ("k_median", "scenarios", 0, "metric", 0, 0), ("k_median", "params", "k"),
              ("k_median", "scenarios", 0, "expected_ratio"), ("social", "params", "k"),
              ("social", "params", "weights", 1, "w"),
              ("location", "params", "opening_costs", 0)]
    for doc, *path in places:
        for literal in NUMBERS:
            yield (f"{literal} at {doc} {'.'.join(map(str, path))}",
                   _dumps_with(docs[doc], path, literal))

    text = json.dumps(scen)
    yield "lone surrogate in a name", text.replace('"Y"', '"\\ud800"')
    yield "raw lone surrogate in a name", text.replace('"Y"', '"\ud800"')
    yield "surrogate pair in a name", text.replace('"Y"', '"\\ud83d\\ude00"')
    yield "BOM", "﻿" + text
    yield "trailing comma in the object", text[:-1] + ",}"
    yield "trailing comma in a matrix row", text.replace("]]", ",]]", 1)
    yield "duplicate keys, the last valid", '{"preset": "nonsense", ' + text[1:]
    yield "duplicate keys, the last invalid", text[:-1] + ', "preset": "nonsense"}'
    yield "duplicate params", text[:-1] + ', "params": {"k": 2, "x": ' + str(2 ** 64) + "}}"
    yield "lists nested 500 deep in an unread key", text[:-1] + ', "x": ' + "[" * 500 + "]" * 500 + "}"
    yield "lists nested 100,000 deep", "[" * 100_000 + "]" * 100_000
    yield "objects nested 60,000 deep", '{"a":' * 60_000 + "1" + "}" * 60_000
    yield "brackets inside a string", text[:-1] + ', "x": "' + "[" * 20_000 + '"}'
    for name, bad in [("invalid escape", '"\\x41"'), ("leading zero", "01"), ("bare point", "1."),
                      ("leading point", ".5"), ("plus sign", "+1"), ("capital True", "True"),
                      ("control character", '"a\x01"'), ("form feed", "\x0c1")]:
        yield name, text.replace('"Y"', bad, 1)
    yield "trailing data", text + "x"
    yield "empty document", ""
    yield "whitespace only", " \n"


BYTES = [("latin-1 name", "é".encode("latin-1")), ("a lone 0xff", b"\xff"),
         ("encoded surrogate", b"\xed\xa0\x80"), ("overlong slash", b"\xc0\xaf"),
         ("beyond U+10FFFF", b"\xf4\x90\x80\x80"), ("truncated sequence", b"\xe2\x82")]


def test_mutated_documents_decode_as_the_stdlib_reads_them():
    kinds = {}
    for name, text in _documents():
        try:
            raw = [text, text.encode("utf-8")]
        except UnicodeEncodeError:  # a raw lone surrogate is only text
            raw = [text]
        for doc in raw:
            try:
                kinds[name] = _assert_same(doc)
            except AssertionError as exc:
                raise AssertionError(f"{name} ({type(doc).__name__})") from exc
    base = json.dumps(json.loads((FIXTURES / "kmedian_scenarios.json").read_text())).encode()
    for name, bad in BYTES:
        doc = base.replace(b'"Y"', b'"' + bad + b'"')
        assert _assert_same(doc) == "error", name
        assert _assert_same(doc[:-1] + bad) == "error", name
    # the numbers each decoder reads its own way reach instances, not only errors
    for name in (f"{2 ** 64} at social params.k", f"{10 ** 30} at k_median scenarios.0.expected_ratio",
                 f"{10 ** 30} at location params.opening_costs.0",
                 f"{-2 ** 63 - 1} at social params.weights.1.w", "NaN at social params.weights.1.w",
                 "lone surrogate in a name", "raw lone surrogate in a name", "duplicate params",
                 "duplicate keys, the last valid", "lists nested 500 deep in an unread key",
                 "brackets inside a string"):
        assert kinds[name] == "instance", name
    for name in ("1e400 at k_median facility_distances.0.1", f"{10 ** 400} at k_median metric.2.0",
                 f"{10 ** 400} at location params.opening_costs.0", "lists nested 100,000 deep",
                 "objects nested 60,000 deep", "BOM"):
        assert kinds[name] == "error", name


def test_random_float64_bit_patterns_decode_bit_identically():
    rng = np.random.default_rng(22)
    values = rng.integers(0, 2 ** 64, size=120_000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 100_000
    text = json.dumps({"values": values.tolist()})
    for doc in (text, text.encode()):
        got = np.array(_decode(doc)["values"], dtype=np.float64)
        expected = np.array(json.loads(text)["values"], dtype=np.float64)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(got.view(np.uint64), values.view(np.uint64))


def _gc_documents():
    """(name, text, loads): documents that load, fail on a name, and take the
    ``json`` fallback for a NaN that fails or that ``params`` keeps."""
    scen = json.loads((FIXTURES / "kmedian_scenarios.json").read_text())
    social = json.loads((FIXTURES / "social_sum_small.json").read_text())
    yield "loads", json.dumps(scen), True
    yield "unknown facility", json.dumps(scen).replace('"Y"', '"nowhere"', 1), False
    yield "NaN in the metric", _dumps_with(scen, ("metric", 0, 0), "NaN"), False
    yield "NaN in params", _dumps_with(dict(social, params={"w": 0}), ("params", "w"), "NaN"), True


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_instance_restores_the_collector_state(enabled):
    was = gc.isenabled()
    try:
        for name, text, loads in _gc_documents():
            (gc.enable if enabled else gc.disable)()
            try:
                parse_instance(text)
                assert loads, name
            except SchemaError:
                assert not loads, name
            assert gc.isenabled() is enabled, name
    finally:
        (gc.enable if was else gc.disable)()


def test_parse_instance_runs_no_cyclic_collection():
    """The cyclic collector is paused while a document is decoded and built,
    so the lists of a large file are not walked again and again."""
    rng = np.random.default_rng(27)
    n, m = 2000, 25
    pts, agents = rng.uniform(0, 10, (m, 2)), rng.uniform(0, 10, (n, 2))
    names = [f"F{j}" for j in range(m)]
    d = np.linalg.norm(agents[:, None] - pts[None], axis=2)
    text = json.dumps({"schema": "ordmech-instance-v1", "facilities": names,
                       "facility_distances": np.linalg.norm(pts[:, None] - pts[None], axis=2).tolist(),
                       "preferences": [[names[j] for j in np.argsort(row)] for row in d],
                       "preset": "social_choice_sum", "metric": d.tolist()})
    starts = []

    def count(phase, info):  # a collection that starts inside parse_instance's call
        frame = sys._getframe(1) if phase == "start" else None
        while frame is not None and frame.f_code is not parse_instance.__code__:
            frame = frame.f_back
        if frame is not None:
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        inst = parse_instance(text)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    assert inst.n == n and inst.metric is not None
    assert starts == []


def test_each_json_fallback_logs_its_reason_at_debug_only(tmp_path, caplog, capsys):
    social = json.loads((FIXTURES / "social_sum_small.json").read_text())
    big = _dumps_with(dict(social, params={"w": 0}), ("params", "w"), str(2 ** 64))
    cases = [(json.dumps(social), None), (big, "a number kept as written is >= 2**63"),
             (_dumps_with(social, ("metric", 0, 0), "NaN"), "orjson refused it"),
             ("[" * 100_000 + "]" * 100_000, "it may nest over 10000 deep")]
    for text, reason in cases:
        with caplog.at_level(logging.DEBUG, logger="ordmech.fileio"):
            caplog.clear()
            _outcome(parse_instance, text)
        got = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        if reason is None:
            assert got == []
        else:  # orjson's refusal is followed by its own message
            assert len(got) == 1 and got[0][:2] == ("ordmech.fileio", logging.DEBUG)
            assert got[0][2].startswith(f"json decodes the document: {reason}"), got
    # at the default level the fallback prints nothing and the report is the same
    path = tmp_path / "big.json"
    path.write_text(big)
    argv = ["solve", "--instance", str(path), "--mechanism", "alg1"]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").read_text() == printed.out
    assert capsys.readouterr() == ("", "")
