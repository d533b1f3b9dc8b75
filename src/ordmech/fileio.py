"""Instance and report files: one JSON schema for every preset.

Instances carry the facility list, the facility geometry (numeric matrix
or per-candidate ordinal rankings, at least one required), agent
preferences (full rankings or top choices), a problem preset with its
parameters, and optionally a true metric plus named adversarial
scenarios.  Serialization is canonical, so parse/serialize round-trips
are byte-identical and reports can embed a digest of the instance they
describe.  Infinite ratios serialize as the string "inf".

Files are decoded with orjson, and the standard library's ``json`` stays
the reference: a document that orjson refuses, that nests too deeply for
it, or where it may change a number kept as written is decoded again with
``json``, so every instance and every error message is what ``json`` gives.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import stat
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .assignment import PRESET_NAMES, build_preset
from .audit import AuditReport
from .core import FacilityDistances, FacilitySet, FullMetric, PreferenceProfile
from .errors import (InvalidCostError, MetricError, ProfileError,
                     SchemaError, SolverError)

SCHEMA_INSTANCE = "ordmech-instance-v1"
SCHEMA_REPORT = "ordmech-report-v1"
SCHEMA_AUDIT = "ordmech-audit-v1"
PARAMS_MAX_DEPTH = 100  # levels of lists and objects in params, params itself the first


@dataclass(frozen=True)
class Scenario:
    """One adversarial metric paired with the decision it punishes."""

    label: str
    fd: FacilityDistances
    metric: FullMetric
    note: str
    assignment: tuple[int, ...] | None = None
    choice: tuple[int, ...] | None = None   # opened facilities
    expected_ratio: float | None = None


@dataclass(frozen=True)
class InstanceFile:
    facilities: FacilitySet
    profile: PreferenceProfile
    preset: str
    fd: FacilityDistances | None = None
    candidate_rankings: tuple[tuple[int, ...], ...] | None = None
    params: dict = field(default_factory=dict)
    metric: FullMetric | None = None
    scenarios: tuple[Scenario, ...] = ()

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def m(self) -> int:
        return self.facilities.m


def _expect(condition: bool, message: str, fieldname: str):
    if not condition:
        raise SchemaError(message, field=fieldname)


def _is_number(value) -> bool:
    """A JSON number with a finite float64 value; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float64's range
        return False


def _matrix(raw, fieldname: str) -> np.ndarray:
    _expect(isinstance(raw, list) and raw and set(map(type, raw)) == {list}
            and len(set(map(len, raw))) == 1, "must be a matrix", fieldname)
    _expect(set(map(type, chain.from_iterable(raw))) <= {int, float},
            "entries must be numbers", fieldname)
    try:
        arr = np.fromiter(chain.from_iterable(raw), float).reshape(len(raw), -1)
    except OverflowError:  # an integer beyond float64's range
        raise SchemaError("entries must be finite", field=fieldname) from None
    _expect(bool(np.isfinite(arr).all()), "entries must be finite", fieldname)
    return arr


def _facility_indices(index: dict[str, int], raw, fieldname: str) -> tuple[int, ...]:
    """Positions of the facilities named in ``raw``, through the file's one
    name -> index map; the first bad reference raises."""
    _expect(isinstance(raw, list), "must be a list of facility names", fieldname)
    try:
        return tuple([index[g] for g in raw])
    except (KeyError, TypeError):  # not a name, or not a known one
        for g in raw:
            _expect(isinstance(g, str), "facility references are names", fieldname)
            _expect(g in index, f"unknown facility {g!r}", fieldname)
        raise


# orjson reads integer literals in [-2⁶³, 2⁶⁴) exactly and any other as a float.
_EXACT_INT = 2.0 ** 63
# orjson builds nested containers by recursion, at up to about 170 bytes of C
# stack per level; deeper documents go to ``json``, which raises RecursionError.
_ORJSON_DEPTH = 10_000
_CHUNK = 1 << 16  # bytes per array pass, so that its temporaries stay small


def _holds_big_float(value) -> bool:
    """Whether ``value`` holds a float of magnitude >= 2⁶³ at any depth:
    where orjson may have rounded an integer literal that ``json`` keeps."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, float):
            if abs(v) >= _EXACT_INT:
                return True
        elif isinstance(v, (list, dict)):
            stack.extend(v.values() if isinstance(v, dict) else v)
    return False


def _shallow(data: bytes) -> bool:
    """Whether the JSON text ``data`` nests at most ``_ORJSON_DEPTH`` deep:
    it opens no more brackets than that, or (backslash-free, so that every
    quote delimits a string) no more are open at once outside strings."""
    a = np.frombuffer(data, np.uint8)
    chunks = [a[i:i + _CHUNK] for i in range(0, a.size, _CHUNK)]
    # '[' and '{' are the bytes that fold to 0x7B under | 0x20, ']' and '}' to 0x7D
    if sum(np.count_nonzero((c | 0x20) == 0x7B) for c in chunks) <= _ORJSON_DEPTH:
        return True
    if b"\\" in data:
        return False
    s = np.concatenate([c[((c | 0x20) == 0x7B) | ((c | 0x20) == 0x7D) | (c == 0x22)]
                        for c in chunks])
    quote = s == 0x22
    outside = ~quote & (np.cumsum(quote) % 2 == 0)
    return int(np.cumsum(np.where(s[outside] & 4, -1, 1)).max(initial=0)) <= _ORJSON_DEPTH


def _stdlib_decode(text: str | bytes, reason: str, *args):
    """The document as ``json`` reads UTF-8 text, its errors as schema errors.
    Why orjson did not read it is logged at DEBUG; ``logging`` loads only here."""
    import logging
    logging.getLogger(__name__).debug("json decodes the document: " + reason, *args)
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                          field="<document>") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            field="<document>") from None
    except RecursionError:
        raise SchemaError("nested too deeply", field="<document>") from None


def _decode(text: str | bytes):
    """The document as ``_stdlib_decode`` reads it, through orjson.  orjson
    refuses NaN, infinities, numbers beyond float64 and lone surrogates, and
    reads integer literals beyond 64 bits as floats; ``json`` decodes those
    documents, any whose numbers kept as written (``params``, each scenario's
    ``expected_ratio``) hold such a float, and any nested too deeply."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if not _shallow(data):
        return _stdlib_decode(text, "it may nest over %d deep", _ORJSON_DEPTH)
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        return _stdlib_decode(text, "orjson refused it (%s)", exc)
    if isinstance(doc, dict):
        kept, scenarios = [doc.get("params")], doc.get("scenarios")
        if isinstance(scenarios, list):
            kept += [s.get("expected_ratio") for s in scenarios if isinstance(s, dict)]
        if _holds_big_float(kept):
            return _stdlib_decode(text, "a number kept as written is >= 2**63")
    return doc


def parse_instance(text: str | bytes) -> InstanceFile:
    """The instance in a JSON document, given as text or as UTF-8 bytes.

    The cyclic garbage collector is paused while the document is decoded and
    built: everything made here is a JSON tree, a tuple or a frozen dataclass,
    which holds no cycle, so reference counting frees all of it, and a
    collection would only walk the fresh lists again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return instance_from_dict(_decode(text))
    finally:
        if enabled:
            gc.enable()


def instance_from_dict(data) -> InstanceFile:
    _expect(isinstance(data, dict), "instance must be a JSON object", "<document>")
    _expect(data.get("schema") == SCHEMA_INSTANCE,
            f"schema must be {SCHEMA_INSTANCE!r}", "schema")
    raw_names = data.get("facilities")
    _expect(isinstance(raw_names, list) and raw_names
            and all(isinstance(s, str) for s in raw_names),
            "must be a nonempty list of names", "facilities")
    try:
        facilities = FacilitySet(tuple(raw_names))
    except MetricError as exc:
        raise SchemaError(str(exc), field="facilities") from None
    m = facilities.m
    index = {name: f for f, name in enumerate(facilities.names)}

    fd = None
    if "facility_distances" in data:
        arr = _matrix(data["facility_distances"], "facility_distances")
        _expect(arr.shape == (m, m), f"must be {m}x{m}", "facility_distances")
        try:
            fd = FacilityDistances(facilities, arr)
        except MetricError as exc:
            raise SchemaError(str(exc), field="facility_distances") from None

    candidate_rankings = None
    if "candidate_rankings" in data:
        raw = data["candidate_rankings"]
        _expect(isinstance(raw, dict), "must map facility to ranking",
                "candidate_rankings")
        _expect(set(raw) == set(facilities.names),
                "must rank every facility exactly once", "candidate_rankings")
        rankings = []
        for f, name in enumerate(facilities.names):
            where = f"candidate_rankings.{name}"
            _expect(isinstance(raw[name], list), "ranking must be a list", where)
            rankings.append(_facility_indices(index, raw[name], where))
            _expect(sorted(rankings[-1]) == sorted(set(range(m)) - {f}),
                    "must order all other facilities", where)
        candidate_rankings = tuple(rankings)

    _expect(fd is not None or candidate_rankings is not None,
            "need facility_distances or candidate_rankings",
            "facility_distances")

    has_full = "preferences" in data
    has_tops = "tops" in data
    _expect(has_full != has_tops, "give exactly one of preferences / tops",
            "preferences")
    if has_full:
        raw = data["preferences"]
        _expect(isinstance(raw, list) and raw, "must be a nonempty list",
                "preferences")
        try:  # a class id per agent, the distinct rankings' names resolved in one pass
            if set(map(type, raw)) != {list}:
                raise TypeError("a ranking is not a list")
            ids: dict = {}
            class_of = [ids.setdefault(tuple(r), len(ids)) for r in raw]
            flat = np.fromiter(map(index.__getitem__, chain.from_iterable(ids)), np.intp)
        except (KeyError, TypeError):  # the per-agent loop names the first bad entry
            for i, entry in enumerate(raw):
                _expect(isinstance(entry, list), "ranking must be a list", f"preferences[{i}]")
                _facility_indices(index, entry, f"preferences[{i}]")
            raise
        classes = (flat.reshape(-1, m) if set(map(len, ids)) == {m}  # else refused by the check
                   else np.split(flat, np.cumsum(list(map(len, ids)))[:-1]))
        try:  # names map to indices one to one, so the classes stay distinct
            profile = PreferenceProfile._of_classes(m, classes, class_of)
        except ProfileError as exc:
            raise SchemaError(str(exc), field="preferences") from None
        del flat, classes  # the profile keeps its own copy; free this one before the metric
    else:
        raw = data["tops"]
        _expect(isinstance(raw, list) and raw, "must be a nonempty list", "tops")
        tops = tuple((f,) for f in _facility_indices(index, raw, "tops"))
        profile = PreferenceProfile(m, tops, top_only=True)

    preset = data.get("preset")
    _expect(preset in PRESET_NAMES,
            f"preset must be one of {list(PRESET_NAMES)}", "preset")
    params = data.get("params", {})
    _expect(isinstance(params, dict), "must be an object", "params")
    level = [params]  # the values PARAMS_MAX_DEPTH levels down, walked without recursion
    for _ in range(PARAMS_MAX_DEPTH):
        level = [v for u in level if isinstance(u, (dict, list))
                 for v in (u.values() if isinstance(u, dict) else u)]
        if not level:  # nothing nests deeper
            break
    _expect(not any(isinstance(u, (dict, list)) for u in level), "nested too deeply", "params")
    for key in ("capacities", "must_coassign", "must_separate", "coassign_penalties"):
        _expect(key not in params, f"{key} is not supported by any preset", "params")
    k, costs = params.get("k", 1), params.get("opening_costs", [])
    # an integer k of any size is left for the preset to bound
    _expect(isinstance(k, int) and not isinstance(k, bool) and k >= 1
            or _is_number(k) and k >= 1 and k == int(k), "k must be an integer >= 1", "params")
    _expect(isinstance(costs, list) and all(_is_number(c) and c >= 0 for c in costs),
            "opening_costs must be a list of numbers >= 0", "params")
    if preset != "social_choice_median":  # has no assignment-framework form
        try:
            build_preset(preset, profile.n, facilities, params)
        except (InvalidCostError, SolverError) as exc:
            raise SchemaError(str(exc), field="params") from None

    metric = None
    if data.get("metric") is not None:
        _expect(fd is not None, "a true metric needs facility_distances", "metric")
        arr = _matrix(data["metric"], "metric")
        _expect(arr.shape == (profile.n, m), f"must be {profile.n}x{m}", "metric")
        try:
            metric = FullMetric(arr, fd)
        except MetricError as exc:
            raise SchemaError(str(exc), field="metric") from None

    scenarios = []
    raw_scenarios = data.get("scenarios", [])
    _expect(isinstance(raw_scenarios, list), "must be a list", "scenarios")
    for s, raw_scen in enumerate(raw_scenarios):
        where = f"scenarios[{s}]"
        _expect(isinstance(raw_scen, dict), "must be an object", where)
        label = raw_scen.get("label")
        _expect(isinstance(label, str) and label, "needs a label", f"{where}.label")
        for required in ("facility_distances", "metric"):
            _expect(required in raw_scen, "is required", f"{where}.{required}")
        arr = _matrix(raw_scen["facility_distances"], f"{where}.facility_distances")
        try:
            scen_fd = FacilityDistances(facilities, arr)
        except MetricError as exc:
            raise SchemaError(str(exc), field=f"{where}.facility_distances") from None
        arr = _matrix(raw_scen["metric"], f"{where}.metric")
        try:
            scen_metric = FullMetric(arr, scen_fd)
        except MetricError as exc:
            raise SchemaError(str(exc), field=f"{where}.metric") from None
        assignment = None
        choice = None
        if raw_scen.get("assignment") is not None:
            assignment = _facility_indices(index, raw_scen["assignment"],
                                           f"{where}.assignment")
            _expect(len(assignment) == profile.n, "one facility per agent",
                    f"{where}.assignment")
        if raw_scen.get("choice") is not None:
            choice = _facility_indices(index, raw_scen["choice"], f"{where}.choice")
        expected, note = raw_scen.get("expected_ratio"), raw_scen.get("note", "")
        _expect(expected is None or _is_number(expected), "must be a number",
                f"{where}.expected_ratio")
        _expect(isinstance(note, str), "must be a string", f"{where}.note")
        scenarios.append(Scenario(label, scen_fd, scen_metric, note, assignment, choice, expected))

    return InstanceFile(facilities, profile, preset, fd, candidate_rankings,
                        params, metric, tuple(scenarios))


def _matrix_out(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _matrix_json(matrix, row_sep: str) -> str:
    """A float64 matrix as the JSON text ``json.dumps`` writes for its rows,
    with rows split by ``row_sep``.  Each distinct row is encoded once and
    its text repeated in row order.  Rows are keyed by their float64 bytes,
    so 0.0 and -0.0 stay apart."""
    a = np.ascontiguousarray(matrix, dtype=np.float64)
    keys = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    texts = json.dumps(a[first].tolist())[2:-2].split("], [")
    return "[[" + ("]" + row_sep + "[").join(map(texts.__getitem__, inverse.tolist())) + "]]"


@dataclass(frozen=True)
class _Json:
    """Canonical JSON text that stands in for its value in a skeleton."""

    text: str


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(obj: dict):
    """Canonical JSON of an object (sorted keys, no spaces) whose ``_Json``
    values are already encoded, in pieces to hash in turn."""
    yield "{"
    for i, (k, v) in enumerate(sorted(obj.items())):
        yield f"{',' if i else ''}{json.dumps(k)}:"
        yield v.text if isinstance(v, _Json) else _CANONICAL.encode(v)
    yield "}"


def _instance_skeleton(inst: InstanceFile, matrix=_matrix_out) -> dict:
    """``instance_to_dict`` with None in place of the agents' preferences
    and each matrix written by ``matrix``."""
    names = inst.facilities.names
    out: dict = {"schema": SCHEMA_INSTANCE, "facilities": list(names)}
    if inst.fd is not None:
        out["facility_distances"] = matrix(inst.fd.values)
    if inst.candidate_rankings is not None:
        out["candidate_rankings"] = {
            names[f]: [names[g] for g in ranking]
            for f, ranking in enumerate(inst.candidate_rankings)}
    out["tops" if inst.profile.top_only else "preferences"] = None
    out["preset"] = inst.preset
    if inst.params:
        out["params"] = inst.params
    if inst.metric is not None:
        out["metric"] = matrix(inst.metric.distances)
    if inst.scenarios:
        out["scenarios"] = []
        for scen in inst.scenarios:
            entry = {
                "label": scen.label,
                "facility_distances": matrix(scen.fd.values),
                "metric": matrix(scen.metric.distances),
            }
            if scen.assignment is not None:
                entry["assignment"] = [names[f] for f in scen.assignment]
            if scen.choice is not None:
                entry["choice"] = [names[f] for f in scen.choice]
            if scen.note:
                entry["note"] = scen.note
            if scen.expected_ratio is not None:
                entry["expected_ratio"] = float(scen.expected_ratio)
            out["scenarios"].append(entry)
    return out


def instance_to_dict(inst: InstanceFile) -> dict:
    names, top_only, out = inst.facilities.names, inst.profile.top_only, _instance_skeleton(inst)
    per_class = [names[r[0]] if top_only else [names[g] for g in r]
                 for r in inst.profile.class_array.tolist()]
    agents = inst.profile.class_of.tolist()
    out["tops" if top_only else "preferences"] = list(map(per_class.__getitem__, agents))
    return out


def serialize_instance(inst: InstanceFile) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def instance_digest(inst: InstanceFile) -> str:
    """SHA-256 of the instance as canonical JSON (sorted keys, no spaces),
    each matrix written as ``{"float64le_sha256": <hex>, "shape": [rows,
    cols]}``, the SHA-256 of its row-major little-endian float64 bytes: equal
    exactly when the canonical texts with every matrix written out are.  The
    preferences are encoded once per ranking class, joined in agent order,
    and the text is hashed piece by piece."""
    profile = inst.profile
    names = np.array([json.dumps(name) for name in inst.facilities.names], dtype=object)
    pieces = list(map(",".join, names[profile.class_array].tolist()))  # each class, encoded
    key, sep, head, tail = (("tops", ",", "[", "]") if profile.top_only
                            else ("preferences", "],[", "[[", "]]"))  # a ranking's brackets
    out = _instance_skeleton(inst, lambda arr: {
        "float64le_sha256": hashlib.sha256(np.ascontiguousarray(arr, "<f8")).hexdigest(),
        "shape": list(arr.shape)})
    out[key] = _Json(head + sep.join(map(pieces.__getitem__, profile.class_of.tolist())) + tail)
    digest = hashlib.sha256()
    for piece in _canonical(out):
        digest.update(piece.encode())
    return "sha256:" + digest.hexdigest()


def _number_out(value: float):
    return None if value is None else "inf" if math.isinf(value) else float(value)


def _outcome_out(target, names) -> dict:
    if isinstance(target, (int, np.integer)):
        return {"winner": names[int(target)]}
    return {"assignment": [names[f] for f in target]}


def audit_report_to_dict(report: AuditReport, inst: InstanceFile, digest: str) -> dict:
    names = inst.facilities.names
    return {
        "schema": SCHEMA_AUDIT,
        "instance_digest": digest,
        "objective": report.objective,
        "alpha": report.alpha,
        "outcome": _outcome_out(report.target, names),
        "value": _number_out(report.value),
        "exact": report.exact,
        "per_alternative": [
            {"alternative": _outcome_out(alt, names), "ratio": _number_out(ratio)}
            for alt, ratio in report.per_alternative],
        "witness_metric": (None if report.witness is None
                           else _matrix_out(report.witness.distances)),
        "witness_ratio": _number_out(report.witness_ratio),
        "certified_upper": _number_out(report.certified_upper),
        "flags": list(report.flags),
    }


def solve_report_to_dict(inst: InstanceFile, digest: str, mechanism: str, target,
                         beta: float | None, exact: bool | None,
                         guarantee: dict, audit: dict | None = None) -> dict:
    return {
        "schema": SCHEMA_REPORT,
        "instance_digest": digest,
        "mechanism": mechanism,
        "outcome": _outcome_out(target, inst.facilities.names),
        "beta": beta,
        "exact": exact,
        "guarantee": guarantee,
        "audit": audit,
    }


def load_instance(path) -> InstanceFile:
    return parse_instance(Path(path).read_bytes())


def _write_over(text: str, path) -> None:
    """``text`` as UTF-8 over ``path``, without O_TRUNC: ext4 writes back a cut file on close."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # not a pipe or a device
            f.truncate()


def save_instance(inst: InstanceFile, path) -> None:
    _write_over(serialize_instance(inst), path)


def report_text(report: dict) -> str:
    """A solve or audit report as JSON indented by two spaces, but each row
    of its witness on one line.  Each distinct witness row is encoded once
    (``_matrix_json``), with the bytes ``json.dumps`` gives it; the rows are
    spliced in where the skeleton holds null (a quote inside a JSON string
    is escaped, so the key's text can only be the key)."""
    audit = report.get("audit") or report
    if audit.get("witness_metric") is None:
        return json.dumps(report, indent=2) + "\n"
    pad, skeleton = "  " * (2 + (audit is not report)), {**audit, "witness_metric": None}
    rows = _matrix_json(np.array(audit["witness_metric"], dtype=float), ",\n" + pad)
    text = json.dumps(skeleton if audit is report else {**report, "audit": skeleton}, indent=2)
    key = '"witness_metric": '
    return text.replace(key + "null", f"{key}[\n{pad}{rows[1:-1]}\n{pad[2:]}]", 1) + "\n"


def save_report(report: dict, path) -> None:
    _write_over(report_text(report), path)
