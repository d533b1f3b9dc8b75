"""File schema round trips and the command-line surface."""

import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from ordmech import (FullMetric, InternalInvariantError, PreferenceProfile, SchemaError,
                     audit_sum_social_choice)
from ordmech import audit, cli
from ordmech.cli import build_parser, main
from ordmech.core import MAX_DISTANCE
from ordmech.fileio import (PARAMS_MAX_DEPTH, InstanceFile, Scenario, _matrix_json,
                            audit_report_to_dict, instance_digest, instance_from_dict,
                            instance_to_dict, load_instance, parse_instance, report_text,
                            serialize_instance)

from helpers import (loop_instance_digest, random_consistent_metric, random_instance,
                     text_instance_digest)

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_paths():
    return sorted(FIXTURES.glob("*.json"))


def test_fixtures_exist():
    assert len(_fixture_paths()) >= 5


@pytest.mark.parametrize("path", _fixture_paths(), ids=lambda p: p.name)
def test_fixture_round_trip(path):
    text = path.read_text()
    inst = parse_instance(text)
    normalized = serialize_instance(inst)
    assert serialize_instance(parse_instance(normalized)) == normalized
    assert instance_digest(parse_instance(normalized)) == instance_digest(inst)


def test_schema_requires_geometry():
    raw = {
        "schema": "ordmech-instance-v1",
        "facilities": ["A", "B"],
        "preferences": [["A", "B"]],
        "preset": "social_choice_sum",
    }
    with pytest.raises(SchemaError) as err:
        parse_instance(json.dumps(raw))
    assert "facility_distances" in str(err.value)


def test_schema_rejects_bad_json_with_position():
    with pytest.raises(SchemaError) as err:
        parse_instance("{\n  broken")
    assert "line 2" in str(err.value)


def test_schema_rejects_inconsistent_fields():
    base = {
        "schema": "ordmech-instance-v1",
        "facilities": ["A", "B"],
        "facility_distances": [[0, 1], [1, 0]],
        "preferences": [["A", "B"]],
        "preset": "social_choice_sum",
    }
    bad = dict(base)
    bad["preferences"] = [["A"]]
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(bad))
    bad = dict(base)
    bad["preset"] = "nope"
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(bad))
    bad = dict(base)
    bad["tops"] = ["A"]
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(bad))
    bad = dict(base)
    bad["facility_distances"] = [[0, 1], [2, 0]]
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(bad))
    bad = dict(base)
    bad["scenarios"] = [{"label": "missing_pieces"}]
    with pytest.raises(SchemaError) as err:
        parse_instance(json.dumps(bad))
    assert "scenarios[0]" in str(err.value)
    bad = dict(base)
    bad["preset"] = "matching_min_cost"  # one agent, two facilities
    with pytest.raises(SchemaError) as err:
        parse_instance(json.dumps(bad))
    assert "params" in str(err.value)
    bad = dict(base)
    bad["preset"] = "k_center"
    bad["params"] = {"k": 9}
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(bad))
    # params the schema rejects: k an integer >= 1, opening costs numbers >= 0
    for preset, params in (("k_center", {"k": "x"}), ("k_center", {"k": [1]}),
                           ("k_center", {"k": 1.7}), ("k_median", {"k": 0}),
                           ("k_median", {"k": True}),
                           ("facility_location", {"opening_costs": ["a", 1]}),
                           ("facility_location", {"opening_costs": 3}),
                           ("facility_location", {"opening_costs": [float("nan"), 1]}),
                           ("facility_location", {"opening_costs": [-1, 1]})):
        bad = dict(base, preset=preset, params=params)
        with pytest.raises(SchemaError) as err:
            parse_instance(json.dumps(bad))
        assert err.value.field == "params", params
    # constraints no preset honours are refused by name, not silently ignored
    two = dict(base, preferences=[["A", "B"], ["A", "B"]], preset="k_median")
    for key, value in (("capacities", [1, 1]), ("must_separate", [[0, 1]]),
                       ("must_coassign", [[0, 1]]), ("coassign_penalties", [[0, 1, 2.0]])):
        with pytest.raises(SchemaError) as err:
            parse_instance(json.dumps(dict(two, params={"k": 2, key: value})))
        assert err.value.field == "params" and key in str(err.value), key
    # a scenario's expected ratio is a number, its note a string, and its
    # assignment and choice lists of names: a string or a dict of names is
    # not read element by element
    scenario = {"label": "s", "facility_distances": [[0, 1], [1, 0]], "metric": [[0, 1]]}
    for key, value in (("expected_ratio", "x"), ("expected_ratio", True),
                       ("expected_ratio", [3]), ("note", 7),
                       ("assignment", "A"), ("assignment", 0), ("assignment", {"A": 1}),
                       ("choice", "A"), ("choice", 0), ("choice", {"A": 1})):
        bad = dict(base, scenarios=[dict(scenario, **{key: value})])
        with pytest.raises(SchemaError) as err:
            parse_instance(json.dumps(bad))
        assert err.value.field == f"scenarios[0].{key}", (key, value)
    good = parse_instance(json.dumps(dict(base, scenarios=[dict(
        scenario, expected_ratio=3, note="tight")])))
    assert good.scenarios[0].expected_ratio == 3 and good.scenarios[0].note == "tight"


def test_cli_gen_solve_audit_pipeline(tmp_path):
    inst_path = tmp_path / "pair.json"
    assert main(["gen", "--example", "matching_lb3", "--out", str(inst_path)]) == 0

    report_path = tmp_path / "solved.json"
    assert main(["solve", "--instance", str(inst_path),
                 "--mechanism", "reduce:matching",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["beta"] == 1.0
    assert report["guarantee"]["distance_factor"] == 3.0
    assert sorted(report["outcome"]["assignment"]) == ["F1", "F2"]
    assert report["instance_digest"] == instance_digest(load_instance(inst_path))

    audit_path = tmp_path / "audited.json"
    outcome = ",".join(report["outcome"]["assignment"])
    assert main(["audit", "--instance", str(inst_path), "--outcome", outcome,
                 "--objective", "sum", "--out", str(audit_path)]) == 0
    audit = json.loads(audit_path.read_text())
    assert audit["exact"] is True
    assert math.isclose(audit["value"], 3.0, abs_tol=1e-6)
    assert audit["witness_metric"] is not None


def test_cli_solve_social_choice_with_embedded_audit(tmp_path, monkeypatch):
    from ordmech import cli

    hashed = []
    monkeypatch.setattr(cli, "instance_digest",
                        lambda inst: hashed.append(inst) or instance_digest(inst))
    out = tmp_path / "report.json"
    fixture = FIXTURES / "social_sum_small.json"
    assert main(["solve", "--instance", str(fixture), "--mechanism", "alg1",
                 "--audit", "sum", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["audit"]["objective"] == "sum"
    # one digest per command, shared by the report and its audit
    assert len(hashed) == 1
    assert report["instance_digest"] == report["audit"]["instance_digest"] \
        == instance_digest(load_instance(fixture))
    assert report["audit"]["value"] <= 3 + 1e-6

    assert main(["solve", "--instance", str(fixture), "--mechanism", "alg2",
                 "--audit", "median", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["audit"]["value"] <= 3 + 1e-6
    assert report["guarantee"]["sum_distortion_bound"] == 5.0


def test_cli_alg2_works_without_numeric_geometry(tmp_path):
    out = tmp_path / "report.json"
    fixture = FIXTURES / "rankings_only.json"
    assert main(["solve", "--instance", str(fixture), "--mechanism", "alg2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "winner" in report["outcome"]
    # audits need numbers: asking for one is a usage error
    assert main(["solve", "--instance", str(fixture), "--mechanism", "alg2",
                 "--audit", "median", "--out", str(out)]) == 2


def test_cli_top_only_instance_runs_alg1(tmp_path):
    out = tmp_path / "report.json"
    fixture = FIXTURES / "tops_only.json"
    assert main(["solve", "--instance", str(fixture), "--mechanism", "alg1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outcome"]["winner"] == "A"
    # full-ranking mechanisms cannot run on top-only data
    assert main(["solve", "--instance", str(fixture), "--mechanism", "alg2",
                 "--out", str(out)]) == 2


def test_cli_usage_and_schema_errors(tmp_path, capsys):
    assert main(["solve", "--instance", "missing.json",
                 "--mechanism", "alg1"]) == 2
    assert main(["gen", "--example", "not_an_example"]) == 2
    # a parameter the example does not take, or of the wrong type, names its key
    # and so is one out of its range
    for params, key in (("q=abc", "q"), ("zz=1", "zz"), ("q=2.5", "q"), ("eps=x", "eps"),
                        ("q=0", "q"), ("q=-3", "q"), ("eps=0", "eps")):
        capsys.readouterr()
        assert main(["gen", "--example", "sum5_tight", "--params", params]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: params: {key}=") and "Traceback" not in err, err
    assert main(["gen", "--example", "matching_lb3", "--params", "q=1"]) == 2
    assert main(["nonsense"]) == 2
    fixture = FIXTURES / "social_sum_small.json"
    for alpha in ("0.25", "nan"):
        assert main(["audit", "--instance", str(fixture), "--outcome", "A",
                     "--objective", f"percentile:{alpha}"]) == 2
    # audits are exact, so there is nothing to seed or budget
    for flag in ("--seed", "--budget"):
        assert main(["audit", "--instance", str(fixture), "--outcome", "A",
                     "--objective", "median", flag, "3"]) == 2
        assert main(["solve", "--instance", str(fixture), "--mechanism", "alg1",
                     "--audit", "median", flag, "3"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["solve", "--instance", str(bad), "--mechanism", "alg1"]) == 2
    # a scenario whose expected ratio is not a number is refused on load
    scenario = json.loads((FIXTURES / "kmedian_scenarios.json").read_text())
    scenario["scenarios"][0]["expected_ratio"] = "x"
    bad.write_text(json.dumps(scenario))
    assert main(["solve", "--instance", str(bad), "--mechanism", "reduce:k_median"]) == 2
    assert "scenarios[0].expected_ratio" in capsys.readouterr().err
    # an outcome that does not fit the preset cannot be audited
    for name, mechanism in (("social_sum_small.json", "reduce:brute_force"),
                            ("tops_only.json", "reduce:brute_force"),
                            ("matching_pair.json", "alg1")):
        assert main(["solve", "--instance", str(FIXTURES / name),
                     "--mechanism", mechanism, "--audit", "sum"]) == 2
        assert main(["solve", "--instance", str(FIXTURES / name),
                     "--mechanism", mechanism]) == 0


@pytest.mark.parametrize("argv, message", [
    ("audit social_sum_small.json --outcome A --objective nope",
     "objective: unknown objective 'nope'; use sum, median or percentile:<alpha>"),
    ("audit social_sum_small.json --outcome A --objective percentile:abc",
     "objective: bad percentile spec 'percentile:abc'"),
    ("solve social_sum_small.json --mechanism nope", "mechanism: unknown mechanism 'nope'"),
    ("solve social_sum_small.json --mechanism reduce:nope", "mechanism: unknown solver 'nope'; "),
    ("gen --example sum5_tight --params q", "params: bad parameter 'q'; use key=value"),
    ("audit kmedian_scenarios.json --outcome F1,F2 --objective sum",
     "outcome: assignment outcome needs 11 comma-separated facility names, got 2"),
    ("audit matching_pair.json --outcome F1,F2 --objective median",
     "objective: assignment audits support the sum objective only"),
])
def test_cli_usage_errors_exit_2_with_their_message(argv, message, capsys):
    command, *rest = argv.split()
    if command != "gen":
        rest = ["--instance", str(FIXTURES / rest[0]), *rest[1:]]
    capsys.readouterr()
    assert main([command, *rest]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err, err


def _solve_exit_and_error(path, mechanism, capsys):
    capsys.readouterr()
    code = main(["solve", "--instance", str(path), "--mechanism", mechanism])
    return code, capsys.readouterr().err


def _twelve_rows(metric):
    return metric + metric[:1]


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["facilities"].__setitem__(1, d["facilities"][0]),
     "facilities: facility identifiers must be unique"),
    # a scenario's matrices are read as the top-level ones are: by shape first
    (lambda d: d.update(metric=_twelve_rows(d["metric"])), "metric: must be 11x3"),
    (lambda d: d["scenarios"][0].update(metric=_twelve_rows(d["scenarios"][0]["metric"])),
     "scenarios[0].metric: must be 11x3"),
    (lambda d: d.update(facility_distances=[[0, 1], [1, 0]]), "facility_distances: must be 3x3"),
    (lambda d: d["scenarios"][0].update(facility_distances=[[0, 1], [1, 0]]),
     "scenarios[0].facility_distances: must be 3x3"),
])
def test_cli_refuses_a_malformed_file_naming_its_field(edit, message, tmp_path, capsys):
    data = json.loads((FIXTURES / "kmedian_scenarios.json").read_text())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert _solve_exit_and_error(path, "reduce:k_median", capsys) == (2, f"error: {message}\n")


def test_cli_refuses_an_integer_beyond_float64(tmp_path, capsys):
    """An integer literal too large for a float64 (10^400) in a matrix, in
    the opening costs or as an expected ratio used to raise OverflowError
    (exit 1, a traceback); it is a schema error of its field."""
    huge = "1" + "0" * 400
    doc = json.loads((FIXTURES / "kmedian_scenarios.json").read_text())
    location = dict(doc, preset="facility_location", params={"opening_costs": [7.25, 1, 1]})
    scen = dict(doc, scenarios=[dict(doc["scenarios"][0], expected_ratio=7.25)])
    for name, text, mechanism, field in (
            ("matrix", json.dumps(doc).replace("1000000.0", huge, 1), "reduce:k_median",
             "facility_distances"),
            ("metric", json.dumps(dict(doc, metric=[[7.25] + row[1:] for row in doc["metric"]]))
             .replace("7.25", huge, 1), "reduce:k_median", "metric"),
            ("costs", json.dumps(location).replace("7.25", huge), "reduce:facility_location",
             "params"),
            ("ratio", json.dumps(scen).replace("7.25", huge), "reduce:k_median",
             "scenarios[0].expected_ratio")):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            load_instance(path)
        assert err.value.field == field, name
        code, message = _solve_exit_and_error(path, mechanism, capsys)
        assert code == 2 and message.startswith(f"error: {field}: "), message


def test_matrix_entries_written_as_strings_booleans_or_null_are_refused(tmp_path, capsys):
    """Matrix entries must be JSON numbers: "1.5" and " 0.5 " used to load
    as numbers, and booleans as 1 and 0, so a file with string entries
    solved and shared the numeric file's digest."""
    doc = json.loads((FIXTURES / "kmedian_scenarios.json").read_text())
    for field in ("facility_distances", "metric", "scenarios[0].facility_distances",
                  "scenarios[0].metric"):
        for value in ("1.5", " 0.5 ", "0", True, False, None):
            bad = json.loads(json.dumps(doc))
            holder = bad["scenarios"][0] if field.startswith("scenarios") else bad
            holder[field.rsplit(".", 1)[-1]][0][1] = value
            with pytest.raises(SchemaError, match="entries must be numbers") as err:
                instance_from_dict(bad)
            assert err.value.field == field, (field, value)
    # every entry of social_sum_small.json written as a string: exit 2
    doc = json.loads((FIXTURES / "social_sum_small.json").read_text())
    for key in ("facility_distances", "metric"):
        doc[key] = [[repr(float(x)) for x in row] for row in doc[key]]
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(doc))
    code, message = _solve_exit_and_error(path, "alg1", capsys)
    assert code == 2 and message == "error: facility_distances: entries must be numbers\n"


def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    """Bytes that are not UTF-8 used to raise UnicodeDecodeError (exit 1);
    they are a schema error of the document that gives the byte offset."""
    text = (FIXTURES / "kmedian_scenarios.json").read_text().replace('"Y"', '"é"')
    path = tmp_path / "latin1.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(SchemaError) as err:
        load_instance(path)
    offset = text.index("é")
    assert err.value.field == "<document>" and f"at byte {offset}" in str(err.value)
    code, message = _solve_exit_and_error(path, "reduce:k_median", capsys)
    assert code == 2 and message.startswith("error: <document>: not UTF-8 text"), message


def test_cli_refuses_a_document_nested_too_deeply(tmp_path, capsys):
    """A document nested 100,000 deep used to raise RecursionError from the
    decoder (exit 1); it is a schema error of the document, for nested lists
    and objects alike, and inside an otherwise valid instance."""
    base = (FIXTURES / "kmedian_scenarios.json").read_text().rstrip()
    for name, text in (("lists", "[" * 100_000 + "]" * 100_000),
                       ("objects", '{"a":' * 100_000 + "1" + "}" * 100_000),
                       ("inside", base[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}")):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            load_instance(path)
        assert err.value.field == "<document>" and "nested too deeply" in str(err.value), name
        code, message = _solve_exit_and_error(path, "alg1", capsys)
        assert code == 2 and message == "error: <document>: nested too deeply\n", message


def test_cli_refuses_params_nested_too_deeply(tmp_path, capsys):
    """``params`` nested 995 or 5,000 deep used to raise RecursionError while
    the digest encoded it (exit 1).  Lists and objects nested beyond
    PARAMS_MAX_DEPTH levels, ``params`` itself the first, are a schema error
    of ``params``; at that depth the file still solves."""
    base = (FIXTURES / "social_sum_small.json").read_text().rstrip()
    assert '"params"' not in base and base.endswith("}")
    for depth in (PARAMS_MAX_DEPTH, PARAMS_MAX_DEPTH + 1, 995, 5000):
        path = tmp_path / f"params_{depth}.json"
        path.write_text(base[:-1] + ', "params": {"x": ' + "[" * (depth - 1)
                        + "]" * (depth - 1) + "}}")
        code, message = _solve_exit_and_error(path, "alg1", capsys)
        if depth == PARAMS_MAX_DEPTH:
            assert code == 0, message
            continue
        assert code == 2 and message == "error: params: nested too deeply\n", (depth, message)
        with pytest.raises(SchemaError) as err:
            load_instance(path)
        assert err.value.field == "params", depth


def test_cli_refuses_scenarios_that_are_not_a_list(tmp_path, capsys):
    """``"scenarios": 5`` (or null) used to raise TypeError (exit 1)."""
    doc = json.loads((FIXTURES / "social_sum_small.json").read_text())
    for value in (5, None, "s", {"label": "s"}):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(dict(doc, scenarios=value)))
        code, message = _solve_exit_and_error(path, "alg1", capsys)
        assert code == 2 and message == "error: scenarios: must be a list\n", message


@pytest.mark.parametrize("example, params", [
    ("kmedian_lb", "q=0"), ("kmedian_lb", "q=-2"),
    ("median_matching_unbounded", "eps=0"), ("median_matching_unbounded", "eps=-0.001"),
    ("median_matching_unbounded", "eps=0.7")])
def test_cli_gen_refuses_out_of_range_params(example, params, capsys):
    # kmedian_lb has 2q + 1 agents, q >= 1; median_matching_unbounded needs
    # 0 < eps <= 1/2
    assert main(["gen", "--example", example, "--params", params]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"error: params: {params}: {example} needs "), err


def test_cli_outputs_are_deterministic(tmp_path):
    fixture = FIXTURES / "social_sum_small.json"
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["solve", "--instance", str(fixture), "--mechanism", "alg1",
                     "--audit", "sum", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_gen_output_parses_identically(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["gen", "--example", "sum5_tight", "--params", "q=5,eps=1e-3",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert serialize_instance(parse_instance(text)) == text


def _printed(argv, capsys):
    """What the command ``argv`` prints on stdout, with exit status 0."""
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


def test_out_overwrites_a_longer_file_in_place(tmp_path, capsys):
    audit = ["audit", "--instance", str(FIXTURES / "clustered_n400.json"), "--outcome", "F1",
             "--objective", "sum"]
    solve = ["solve", "--instance", str(FIXTURES / "tops_only.json"), "--mechanism", "alg1"]
    gen = ["gen", "--example", "kmedian_lb"]
    long, short, instance = (_printed(argv, capsys) for argv in (audit, solve, gen))
    assert len(long) > len(instance) > len(short) and len(long) > 20 * len(short)
    out = tmp_path / "out.json"
    for argv, expected in ((audit, long), (solve, short), (solve, short), (audit, long),
                           (gen, instance), (gen, instance), (solve, short)):
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected, argv[0]


def test_out_writes_to_devices_pipes_and_fifos(tmp_path, capsys):
    solve = ["solve", "--instance", str(FIXTURES / "tops_only.json"), "--mechanism", "alg1"]
    expected = _printed(solve, capsys)
    assert main(solve + ["--out", os.devnull]) == 0
    fifo, chunks = tmp_path / "fifo", []
    os.mkfifo(fifo)

    def drain():  # opening a FIFO waits for the other end, so read it meanwhile
        with open(fifo, "rb") as f:
            chunks.append(f.read())

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    assert main(solve + ["--out", str(fifo)]) == 0
    thread.join(timeout=30)
    assert not thread.is_alive() and chunks == [expected]
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        try:  # the report fits in the pipe's buffer
            assert main(solve + ["--out", f"/dev/fd/{write_end}"]) == 0
        finally:
            os.close(write_end)
        assert reader.read() == expected
    assert capsys.readouterr().err == ""


def test_out_naming_a_directory_or_a_missing_one_exits_2(tmp_path, capsys):
    solve = ["solve", "--instance", str(FIXTURES / "tops_only.json"), "--mechanism", "alg1"]
    missing = tmp_path / "missing" / "out.json"
    for target, message in ((tmp_path, "[Errno 21] Is a directory"),
                            (missing, "[Errno 2] No such file or directory")):
        capsys.readouterr()
        assert main(solve + ["--out", str(target)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}: {str(target)!r}\n")
    assert not missing.parent.exists()


def test_shipped_schemas_validate_real_files(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    root = Path(__file__).parent.parent
    inst_schema = json.loads((root / "schemas" / "instance.schema.json").read_text())
    rep_schema = json.loads((root / "schemas" / "report.schema.json").read_text())
    for path in _fixture_paths():
        jsonschema.validate(json.loads(path.read_text()), inst_schema)
    inst = tmp_path / "pair.json"
    solved = tmp_path / "solved.json"
    audited = tmp_path / "audited.json"
    assert main(["gen", "--example", "matching_lb3", "--out", str(inst)]) == 0
    jsonschema.validate(json.loads(inst.read_text()), inst_schema)
    assert main(["solve", "--instance", str(inst), "--mechanism",
                 "reduce:matching", "--audit", "sum", "--out", str(solved)]) == 0
    jsonschema.validate(json.loads(solved.read_text()), rep_schema)
    assert main(["audit", "--instance", str(inst), "--outcome", "F2,F1",
                 "--objective", "sum", "--out", str(audited)]) == 0
    jsonschema.validate(json.loads(audited.read_text()), rep_schema)


def test_every_fixture_solves_and_audits(tmp_path):
    for path in _fixture_paths():
        inst = load_instance(path)
        social = inst.preset in ("social_choice_sum", "social_choice_median")
        mechanisms = []
        if inst.fd is not None:
            mechanisms.append("alg1")
        if not inst.profile.top_only:
            mechanisms.append("alg2")
            mechanisms.append("copeland")
        if inst.fd is not None and inst.preset != "social_choice_median":
            mechanisms.append("reduce:brute_force")
        assert mechanisms, path.name
        outcomes = {}
        for mech in mechanisms:
            out = tmp_path / f"{path.stem}-{mech.replace(':', '-')}.json"
            code = main(["solve", "--instance", str(path), "--mechanism", mech,
                         "--out", str(out)])
            assert code == 0, (path.name, mech)
            outcomes[mech] = json.loads(out.read_text())["outcome"]
        if inst.fd is None:
            continue
        if social:
            winner = (outcomes.get("alg1") or outcomes["alg2"])["winner"]
            spec = ["--outcome", winner, "--objective", "sum"]
        elif (inst.preset in ("matching_min_cost", "k_median", "facility_location")
              and inst.n <= 6):  # keep the alternative enumeration small here
            assignment = outcomes["reduce:brute_force"]["assignment"]
            spec = ["--outcome", ",".join(assignment), "--objective", "sum"]
        else:
            continue  # max-cost presets have no additive audit
        out = tmp_path / f"{path.stem}-audit.json"
        code = main(["audit", "--instance", str(path)] + spec + ["--out", str(out)])
        assert code == 0, path.name
        report = json.loads(out.read_text())
        assert report["value"] == "inf" or report["value"] >= 1.0


def test_infinite_audit_value_serializes(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    inst = {
        "schema": "ordmech-instance-v1",
        "facilities": ["A", "B"],
        "facility_distances": [[0.0, 2.0], [2.0, 0.0]],
        "preferences": [["A", "B"], ["A", "B"]],
        "preset": "social_choice_sum",
    }
    path = tmp_path / "unanimous.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "audit.json"
    # auditing the unanimously rejected facility has unbounded distortion
    assert main(["audit", "--instance", str(path), "--outcome", "B",
                 "--objective", "sum", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["value"] == "inf"
    assert report["witness_ratio"] == "inf"
    assert report["certified_upper"] == "inf"
    assert "denominator_vanishes" in report["flags"]
    root = Path(__file__).parent.parent
    schema = json.loads((root / "schemas" / "report.schema.json").read_text())
    jsonschema.validate(report, schema)


@pytest.mark.filterwarnings("error")
def test_cli_refuses_distances_beyond_the_cap(tmp_path, capsys):
    """Facility distances of 1e308 used to load and then crash the audit
    (exit 3, a NaN witness ratio).  Beyond the cap, facility distances and
    bundled metrics are refused by field with exit 2; at the cap, audits run
    with no overflow and give the values of the same geometry at scale 1."""
    cap, far = MAX_DISTANCE, 10 * MAX_DISTANCE

    def run(path, *argv):
        out = tmp_path / "report.json"
        code = main([argv[0], "--instance", str(path), *argv[1:], "--out", str(out)])
        return code, capsys.readouterr().err, code == 0 and json.loads(out.read_text())

    def write(name, v, **extra):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "schema": "ordmech-instance-v1", "facilities": ["A", "B", "C"],
            "facility_distances": [[0, v, v], [v, 0, v], [v, v, 0]],
            "preferences": [["A", "B", "C"], ["B", "A", "C"], ["C", "B", "A"]],
            "preset": "social_choice_sum", **extra}))
        return path

    scenario = {"label": "s", "facility_distances": [[0, cap, cap], [cap, 0, cap], [cap, cap, 0]],
                "metric": [[far] * 3] * 3}
    for path, field in (
            (write("l", 1e308), "facility_distances"),
            (write("metric", cap, metric=[[1e308] * 3] * 3), "metric"),
            (write("scen_l", cap, scenarios=[dict(scenario, facility_distances=[
                [0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]])]),
             "scenarios[0].facility_distances"),
            (write("scen_metric", cap, scenarios=[dict(scenario, metric=[[1e308] * 3] * 3)]),
             "scenarios[0].metric")):
        code, err, _ = run(path, "audit", "--outcome", "A", "--objective", "sum")
        assert code == 2 and err.startswith(f"error: {field}: ") and "exceeds" in err, err
    at_cap = write("at_cap", cap, metric=[[far] * 3] * 3, scenarios=[scenario])
    unit = write("unit", 1.0)
    for argv in (("audit", "--outcome", "A", "--objective", "sum"),
                 ("audit", "--outcome", "C", "--objective", "sum"),
                 ("solve", "--mechanism", "alg1", "--audit", "median"),
                 ("solve", "--mechanism", "alg2", "--audit", "sum")):
        code, err, report = run(at_cap, *argv)
        assert code == 0, err
        expected = run(unit, *argv)[2]
        audited, expected = report.get("audit") or report, expected.get("audit") or expected
        assert audited["value"] == pytest.approx(expected["value"], rel=1e-12)
        assert audited["witness_ratio"] == pytest.approx(expected["witness_ratio"], rel=1e-9)


def test_cli_audit_reports_its_certified_upper_bound(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    root = Path(__file__).parent.parent
    schema = json.loads((root / "schemas" / "report.schema.json").read_text())
    path = FIXTURES / "clustered_n400.json"
    for objective in ("sum", "median"):
        out = tmp_path / f"{objective}.json"
        assert main(["audit", "--instance", str(path), "--outcome", "F1",
                     "--objective", objective, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        value, upper = report["value"], report["certified_upper"]
        assert report["witness_ratio"] <= value + 1e-9 * value
        assert value <= upper <= value + 1e-9 * value


def test_cli_repro_single_example():
    assert main(["repro", "--example", "egalitarian_lb"]) == 0


def test_cli_reduce_with_preset_params(tmp_path):
    inst = {
        "schema": "ordmech-instance-v1",
        "facilities": ["A", "B", "C"],
        "facility_distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        "preferences": [["A", "B", "C"], ["B", "A", "C"], ["C", "B", "A"]],
        "preset": "k_median",
        "params": {"k": 2},
    }
    path = tmp_path / "km.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "r.json"
    assert main(["solve", "--instance", str(path),
                 "--mechanism", "reduce:k_median",
                 "--audit", "sum", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["exact"] is True and report["beta"] == 1.0
    assert report["guarantee"]["distance_factor"] == 3.0
    assert report["audit"]["value"] <= 3 + 1e-6


def test_cli_thousands_of_agents_audit_by_open_sets(tmp_path, capsys):
    # a 1500-agent, one-facility instance is checked for a valid assignment
    # at load time, a 1200-agent k-median audit runs over its three open
    # sets and lists the maximizing one, and 2^17 - 1 facility-location
    # open sets are refused for their number
    one = {"schema": "ordmech-instance-v1", "facilities": ["A"],
           "facility_distances": [[0]], "tops": ["A"] * 1500,
           "preset": "social_choice_sum"}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(one))
    assert main(["solve", "--instance", str(path), "--mechanism", "alg1",
                 "--audit", "sum"]) == 0
    wide = {"schema": "ordmech-instance-v1", "facilities": ["A", "B", "C"],
            "facility_distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
            "preferences": [["A", "B", "C"], ["C", "B", "A"]] * 600,
            "preset": "k_median", "params": {"k": 2}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide))
    capsys.readouterr()
    assert main(["solve", "--instance", str(path), "--mechanism", "reduce:k_median",
                 "--audit", "sum"]) == 0
    audit = json.loads(capsys.readouterr().out)["audit"]
    assert len(audit["per_alternative"]) == 1 and audit["value"] >= 1.0
    line = [[abs(f - g) for g in range(17)] for f in range(17)]
    many = {"schema": "ordmech-instance-v1", "facilities": [f"F{f}" for f in range(17)],
            "facility_distances": line, "tops": ["F0", "F16"] * 600,
            "preset": "facility_location", "params": {"opening_costs": [1.0] * 17}}
    path = tmp_path / "many.json"
    path.write_text(json.dumps(many))
    assert main(["solve", "--instance", str(path), "--mechanism",
                 "reduce:facility_location", "--audit", "sum"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: more than") and err.count("\n") == 1


def test_cli_median_preset_has_no_reduction(tmp_path):
    inst = tmp_path / "square.json"
    assert main(["gen", "--example", "median_topchoice_bad",
                 "--out", str(inst)]) == 0
    assert main(["solve", "--instance", str(inst),
                 "--mechanism", "reduce:brute_force"]) == 2


def test_cli_strawman_square_full_rankings_audit(tmp_path):
    inst = tmp_path / "square.json"
    assert main(["gen", "--example", "median_topchoice_bad",
                 "--out", str(inst)]) == 0
    out = tmp_path / "report.json"
    assert main(["solve", "--instance", str(inst), "--mechanism", "alg2",
                 "--audit", "median", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outcome"]["winner"] == "X"
    assert report["audit"]["exact"] is True
    assert report["audit"]["value"] <= 3 + 1e-6


@pytest.mark.parametrize("key, value, field, message", [
    ("preferences", [["A", "B"], ["B", "Z"]], "preferences[1]", "unknown facility 'Z'"),
    ("preferences", [["A", 1]], "preferences[0]", "facility references are names"),
    ("preferences", [["A", ["B"]]], "preferences[0]", "facility references are names"),
    ("tops", ["A", "Q"], "tops", "unknown facility 'Q'"),
    ("candidate_rankings", {"A": ["B"], "B": ["C"]}, "candidate_rankings.B",
     "unknown facility 'C'"),
    # agents 0-2 share a ranking, whose names are resolved once for them
    ("preferences", [["A", "B"]] * 3 + [["A", "Z"]], "preferences[3]", "unknown facility 'Z'"),
    ("preferences", [["A", "B"]] * 3 + ["A,B"], "preferences[3]", "ranking must be a list"),
    ("preferences", [["A", "B"]] * 3 + [["A", 2]], "preferences[3]",
     "facility references are names"),
])
def test_unknown_facility_names_name_their_field(key, value, field, message):
    raw = {"schema": "ordmech-instance-v1", "facilities": ["A", "B"],
           "facility_distances": [[0, 1], [1, 0]], "preset": "social_choice_sum"}
    raw[key] = value
    if key == "candidate_rankings":
        raw["preferences"] = [["A", "B"]]
    with pytest.raises(SchemaError) as err:
        parse_instance(json.dumps(raw))
    assert err.value.field == field
    assert message in str(err.value)


def _random_instance_file(rng) -> InstanceFile:
    """A random instance whose agents repeat rankings, with at random
    top-only preferences, candidate rankings, a true metric and a scenario.
    Half the metrics repeat one row per ranking class, as a witness does,
    and turn some zeros into -0.0."""
    profile, fd, _ = random_instance(rng, n_max=6, m_max=5)
    rankings = profile.rankings * int(rng.integers(1, 4))
    rankings = tuple(rankings[i] for i in rng.permutation(len(rankings)))
    top_only = bool(rng.random() < 0.3)
    if top_only:
        rankings = tuple(r[:1] for r in rankings)
    n, m = len(rankings), fd.m
    profile = PreferenceProfile(m, rankings, top_only)
    candidates = None
    if rng.random() < 0.4:
        candidates = tuple(tuple(int(g) for g in np.argsort(fd.values[f], kind="stable") if g != f)
                           for f in range(m))

    def metric():
        if rng.random() < 0.5:
            return random_consistent_metric(rng, fd, n)
        rows = random_consistent_metric(rng, fd, len(profile.classes)).distances[profile.class_of]
        return FullMetric(np.where(rows == 0, rng.choice([0.0, -0.0], rows.shape), rows), fd)

    scenarios = ()
    if rng.random() < 0.4:
        scenarios = (Scenario("worst", fd, metric(), "a note", None,
                              (int(rng.integers(0, m)),), 2.5),)
    return InstanceFile(fd.facilities, profile, "social_choice_sum", fd, candidates, {},
                        metric() if rng.random() < 0.5 else None, scenarios)


def test_instance_digest_matches_agent_by_agent_oracle():
    for path in _fixture_paths():
        inst = load_instance(path)
        assert instance_digest(inst) == loop_instance_digest(inst), path.name
    rng = np.random.default_rng(211)
    kinds, repeated, signed = set(), 0, 0
    for _ in range(150):
        inst = _random_instance_file(rng)
        assert instance_digest(inst) == loop_instance_digest(inst)
        assert instance_digest(parse_instance(serialize_instance(inst))) == instance_digest(inst)
        kinds.add((inst.profile.top_only, inst.candidate_rankings is not None,
                   inst.metric is not None, bool(inst.scenarios),
                   len(inst.profile.classes) < inst.n))
        if inst.metric is not None:
            d = inst.metric.distances
            repeated += len(np.unique(d, axis=0)) < len(d)
            signed += bool(np.signbit(d).any())
    assert len(kinds) >= 20  # every feature turns up, alone and combined
    assert repeated >= 20 and signed >= 5, (repeated, signed)


def _variants(data: dict) -> list[dict]:
    """Copies of an instance dict with one change each: a zero's sign
    flipped, integral entries written as integers, an entry moved to the
    next float, two metric rows swapped, the scenario's matrices doubled,
    and the preferences cut to their tops."""
    def copy():
        return json.loads(json.dumps(data))  # "-0.0" reads back as -0.0

    def matrices(d):
        return [(entry, key) for entry in (d, *d.get("scenarios", ()))
                for key in ("facility_distances", "metric") if entry.get(key) is not None]

    out = []
    if matrices(data):
        d = copy()
        entry, key = matrices(d)[0]
        entry[key][0][0] = -entry[key][0][0]  # a diagonal zero
        out.append(d)
        d = copy()
        for entry, key in matrices(d):
            entry[key] = [[int(x) if x == int(x) and math.copysign(1, x) > 0 else x
                           for x in row] for row in entry[key]]
        out.append(d)
        d = copy()
        entry, key = matrices(d)[-1]
        entry[key][0][-1] = float(np.nextafter(entry[key][0][-1], np.inf))
        out.append(d)
    if len(data.get("metric") or ()) > 1:
        d = copy()
        d["metric"][0], d["metric"][1] = d["metric"][1], d["metric"][0]
        out.append(d)
    if data.get("scenarios"):
        d = copy()
        for key in ("facility_distances", "metric"):
            d["scenarios"][0][key] = [[2 * x for x in row] for row in d["scenarios"][0][key]]
        out.append(d)
    if "preferences" in data:
        d = copy()
        d["tops"] = [ranking[0] for ranking in d.pop("preferences")]
        out.append(d)
    return out


def test_digests_tell_instances_apart_as_their_canonical_texts_do():
    rng = np.random.default_rng(212)
    bases = [load_instance(path) for path in _fixture_paths()]
    bases += [_random_instance_file(rng) for _ in range(150)]
    seen, count, same_text = set(), 0, 0
    for base in bases:
        family = [base, *map(instance_from_dict, _variants(instance_to_dict(base)))]
        texts = [text_instance_digest(inst) for inst in family]
        count, same_text = count + len(family), same_text + texts[1:].count(texts[0])
        seen.update(zip(texts, map(instance_digest, family)))
    # one digest per canonical text and one text per digest: for every
    # pair of instances, equal digests exactly when the texts are equal
    assert len({text for text, _ in seen}) == len({digest for _, digest in seen}) == len(seen)
    # texts equal to their base's come from the integer copies and from
    # swapped rows that are equal; every other copy has a text of its own
    assert same_text > len(bases) and len(seen) == count - same_text, (count, same_text)


@pytest.mark.parametrize("rows", [
    [[0.0, 1.5, 2.0], [0.0, 1.5, 2.0], [3.0, 1.5, 0.25], [0.0, 1.5, 2.0]],  # repeated rows
    [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 1.0], [0.0, 1.0]],  # equal, not the same bytes
    [[5e-324, 2.2250738585072014e-308], [1e16, 1e-05], [9999999999999998.0, 0.0001],
     [5e-324, 2.2250738585072014e-308], [1e16, 1e-05]],  # subnormal, repr's exponent switches
    [[1.0, 2.0, 1.0]],  # one row
    [[2.0], [1e16], [2.0], [-0.0], [0.0]],  # one column
    [[3.0, 1.0], [2.0, 1.0], [1.0, 2.0]],  # all rows distinct
    [[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]],  # a first column that repeats
])
def test_matrix_json_matches_json_dumps(rows):
    matrix = np.array(rows, dtype=float)
    assert _matrix_json(matrix, ", ") == json.dumps(rows)
    assert _matrix_json(matrix, ",\n  ") == json.dumps(rows).replace("], [", "],\n  [")
    rng = np.random.default_rng(len(rows))
    shuffled = [rows[i] for i in rng.integers(0, len(rows), 40)]
    assert _matrix_json(np.array(shuffled), ", ") == json.dumps(shuffled)


def test_reports_put_one_witness_row_per_line(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parent.parent / "schemas"
                         / "report.schema.json").read_text())
    fixture = FIXTURES / "clustered_n400.json"
    inst = load_instance(fixture)
    audited = audit_report_to_dict(audit_sum_social_choice(0, inst.profile, inst.fd), inst,
                                   instance_digest(inst))
    argv = ["audit", "--instance", str(fixture), "--outcome", "F1", "--objective", "sum"]
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert printed == out.read_text() == report_text(audited)  # the same bytes either way
    # the witness reaches the writer as the audit's read-only float64 array
    witness = audited["witness_metric"]
    assert isinstance(witness, np.ndarray) and witness.dtype == np.float64
    assert not witness.flags.writeable
    listed = {**audited, "witness_metric": witness.tolist()}
    assert report_text(listed) == printed
    assert main(["solve", "--instance", str(fixture), "--mechanism", "alg1", "--audit", "median",
                 "--out", str(out)]) == 0
    for report, text in ((listed, printed), (json.loads(out.read_text()), out.read_text())):
        indented = json.dumps(report, indent=2)
        assert json.loads(text) == json.loads(indented)
        assert "".join(text.split()) == "".join(indented.split())  # only whitespace moved
        jsonschema.validate(json.loads(text), schema)
        witness, lines = report.get("audit", report)["witness_metric"], text.splitlines()
        start = next(k for k, line in enumerate(lines) if '"witness_metric": [' in line) + 1
        rows = lines[start:start + len(witness)]
        assert [json.loads(line.rstrip(",")) for line in rows] == witness
        assert lines[start + len(witness)].strip() == "],"
        # the rest keeps the two-space layout with one number per line
        assert len(lines) == len(indented.splitlines()) - len(witness) * (len(witness[0]) + 1)
    # rows equal by value but not by bytes keep their own text, in both layouts
    signed = [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, -0.0], [-0.0, 1.0]]
    for report, pad in (({**audited, "witness_metric": signed}, "    "),
                        ({"audit": {**audited, "witness_metric": signed}}, "      ")):
        lines = report_text(report).splitlines()
        start = lines.index(pad[2:] + '"witness_metric": [') + 1
        rows = [pad + json.dumps(row) + "," for row in signed[:-1]] + [pad + "[-0.0, 1.0]"]
        assert lines[start:start + len(signed) + 1] == rows + [pad[2:] + "],"]
        # the same rows as an array give the same text as the lists
        inner = report.get("audit", report)
        arrayed = {**inner, "witness_metric": np.array(signed)}
        assert report_text(arrayed if inner is report else {"audit": arrayed}) == report_text(
            report)


# The --out files of these commands, recorded before the witness reached the
# writer as an array; every later report change must leave them byte for byte
GOLDEN = {
    "audit_clustered_n400_F1_sum.json": ["audit", "--instance", "clustered_n400.json",
                                         "--outcome", "F1", "--objective", "sum"],
    "audit_clustered_n400_F1_median.json": ["audit", "--instance", "clustered_n400.json",
                                            "--outcome", "F1", "--objective", "median"],
    "solve_clustered_n400_alg1_sum.json": ["solve", "--instance", "clustered_n400.json",
                                           "--mechanism", "alg1", "--audit", "sum"],
    "solve_kmedian_scenarios_k_median_sum.json": [
        "solve", "--instance", "kmedian_scenarios.json", "--mechanism", "reduce:k_median",
        "--audit", "sum"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_keep_their_recorded_bytes(name, tmp_path):
    argv = [str(FIXTURES / arg) if arg.endswith(".json") else arg for arg in GOLDEN[name]]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "reports" / name).read_bytes()


def test_internal_faults_exit_3(monkeypatch, capsys):
    fixture = FIXTURES / "social_sum_small.json"
    inst = load_instance(fixture)

    def broken_rows(poly, r, fixed):  # |d(f) - d(g)| far above any l(f, g)
        return np.broadcast_to(np.arange(poly.m) * 1e6, (*np.shape(r), poly.m))

    monkeypatch.setattr(audit, "_greatest_rows", broken_rows)
    with pytest.raises(InternalInvariantError):
        audit_sum_social_choice(0, inst.profile, inst.fd)
    capsys.readouterr()
    assert main(["audit", "--instance", str(fixture), "--outcome", "A",
                 "--objective", "sum"]) == 3
    assert capsys.readouterr().err.startswith("internal error: witness is not a metric")


def test_audit_of_a_geometry_scaled_down_reads_its_unscaled_value(tmp_path):
    # clustered_n400's F1 sum audit reads 3.20975345547811 at unit scale.
    # Distortion does not depend on the unit of length, and the audit tests
    # zero exactly on input numbers, so with the facility distances scaled
    # far down it reads the same value
    raw = json.loads((FIXTURES / "clustered_n400.json").read_text())
    for scale in (1e-9, 2.0 ** -30, 1e-10, 1e-12, 1e-15):
        scaled = dict(raw, facility_distances=(np.array(raw["facility_distances"])
                                               * scale).tolist())
        inst, out = tmp_path / f"scaled{scale}.json", tmp_path / f"report{scale}.json"
        inst.write_text(json.dumps(scaled))
        assert main(["audit", "--instance", str(inst), "--outcome", "F1", "--objective", "sum",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(3.20975345547811, rel=1e-9)


def test_one_parser_serves_every_call_of_a_process(tmp_path, monkeypatch, capsys):
    fixture = str(FIXTURES / "social_sum_small.json")
    calls = [["solve", "--instance", fixture],                       # usage: no mechanism
             ["repro", "--all", "--example", "sum5_tight"],          # mutually exclusive
             ["solve", "--instance", fixture, "--mechanism", "alg1", "--audit", "median"],
             ["audit", "--instance", fixture, "--outcome", "B", "--objective", "sum"]]

    def run(tag):
        results = []
        for i, argv in enumerate(calls):
            out = tmp_path / f"{tag}{i}.json"
            code = main(argv if i < 2 else [*argv, "--out", str(out)])
            results.append((code, out.read_bytes() if out.exists() else None))
        return results

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    reused = run("reused")
    assert [code for code, _ in reused] == [2, 2, 0, 0]
    with monkeypatch.context() as patch:  # dispatch reads the module's _cmd_* when it runs
        patch.setattr(cli, "_cmd_audit", lambda args: 7)
        assert main(calls[3]) == 7
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", build_parser)  # a new parser for every call
    assert run("fresh") == reused
