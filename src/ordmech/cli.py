"""Command-line surface: solve, audit, gen, repro.

Exit codes: 0 success, 1 reproduction/assertion failure, 2 usage or schema
errors, 3 internal errors (bugs).  Commands are deterministic; audits exact.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import suppress

from . import social_choice as sc
from .assignment import build_preset, reduce_and_solve
from .audit import (audit_additive_assignment, audit_percentile_social_choice,
                    audit_sum_social_choice)
from .core import project_agents
from .errors import InternalInvariantError, OrdmechError, SchemaError
from .fileio import (InstanceFile, audit_report_to_dict, instance_digest,
                     load_instance, report_text, save_instance, save_report,
                     serialize_instance, solve_report_to_dict)
from .gallery import EXAMPLES, gen_worked_example, verify_worked_example
from .solvers import SOLVERS

SOCIAL_PRESETS = ("social_choice_sum", "social_choice_median")


def _order_for(inst: InstanceFile) -> sc.DistancePartialOrder:
    if inst.candidate_rankings is not None:
        return sc.distance_partial_order(inst.candidate_rankings)
    return sc.distance_partial_order(inst.fd)


def _require_fd(inst: InstanceFile):
    if inst.fd is None:
        raise SchemaError("this operation needs the numeric facility distances",
                          field="facility_distances")
    return inst.fd


def _parse_outcome(inst: InstanceFile, raw: str):
    names = inst.facilities
    if inst.preset in SOCIAL_PRESETS:
        return names.index(raw)
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != inst.n:
        raise SchemaError(f"assignment outcome needs {inst.n} comma-separated "
                          f"facility names, got {len(parts)}", field="outcome")
    return tuple(names.index(p) for p in parts)


def _parse_objective(raw: str) -> tuple[str, float | None]:
    if raw == "sum":
        return "sum", None
    if raw == "median":
        return "percentile", 0.5
    if raw.startswith("percentile:"):
        try:
            return "percentile", float(raw.split(":", 1)[1])
        except ValueError:
            raise SchemaError(f"bad percentile spec {raw!r}", field="objective") from None
    raise SchemaError(f"unknown objective {raw!r}; use sum, median or "
                      "percentile:<alpha>", field="objective")


def _run_audit(inst: InstanceFile, digest: str, target, objective: str,
               alpha: float | None) -> dict:
    fd = _require_fd(inst)
    social = inst.preset in SOCIAL_PRESETS
    if social == isinstance(target, tuple):
        raise SchemaError(f"{inst.preset} audits {'a facility' if social else 'an assignment'}, "
                          f"but the outcome is {'an assignment' if social else 'a facility'}",
                          field="preset")
    if social:
        if objective == "sum":
            report = audit_sum_social_choice(target, inst.profile, fd)
        else:
            report = audit_percentile_social_choice(target, inst.profile, fd, alpha)
    else:
        if objective != "sum":
            raise SchemaError("assignment audits support the sum objective only",
                              field="objective")
        problem = build_preset(inst.preset, inst.n, inst.facilities, inst.params)
        report = audit_additive_assignment(target, inst.profile, fd, problem)
    return audit_report_to_dict(report, inst, digest)


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    digest = instance_digest(inst)
    mechanism = args.mechanism
    audit_dict = beta = exact = None
    if mechanism == "alg1":
        target = sc.sum_winner(project_agents(inst.profile, _require_fd(inst))).winner
        guarantee = {"objective": "sum", "distortion_bound": 3.0}
    elif mechanism == "alg2":
        target = sc.median_winner(inst.profile, _order_for(inst)).winner
        guarantee = {"objective": "median", "distortion_bound": 3.0,
                     "percentile_bound": 3.0, "sum_distortion_bound": 5.0}
    elif mechanism == "copeland":
        target = sc.copeland_winner(inst.profile).winner
        guarantee = {"objective": "sum", "distortion_bound": 5.0,
                     "note": "baseline rule"}
    elif mechanism.startswith("reduce:"):
        solver_name = mechanism.split(":", 1)[1]
        if solver_name not in SOLVERS:
            raise SchemaError(f"unknown solver {solver_name!r}; choose from "
                              f"{sorted(SOLVERS)}", field="mechanism")
        problem = build_preset(inst.preset, inst.n, inst.facilities, inst.params)
        solution = reduce_and_solve(problem, inst.profile, _require_fd(inst),
                                    SOLVERS[solver_name])
        target, beta, exact = solution.assignment, solution.beta, solution.exact
        guarantee = {"formula": "1+2*beta", "beta": beta,
                     "distance_factor": 1.0 + 2.0 * beta, "facility_cost_factor": beta}
    else:
        raise SchemaError(f"unknown mechanism {mechanism!r}", field="mechanism")

    if args.audit is not None:
        objective, alpha = _parse_objective(args.audit)
        audit_dict = _run_audit(inst, digest, target, objective, alpha)
    report = solve_report_to_dict(inst, digest, mechanism, target, beta, exact,
                                  guarantee, audit_dict)
    _emit(report, args.out)
    return 0


def _cmd_audit(args) -> int:
    inst = load_instance(args.instance)
    target = _parse_outcome(inst, args.outcome)
    objective, alpha = _parse_objective(args.objective)
    report = _run_audit(inst, instance_digest(inst), target, objective, alpha)
    _emit(report, args.out)
    return 0


def _parse_params(raw: str | None) -> dict:
    params = {}
    for part in raw.split(",") if raw else ():
        key, eq, value = part.partition("=")
        if not eq:
            raise SchemaError(f"bad parameter {part!r}; use key=value", field="params")
        for kind in (int, float, str.strip):
            with suppress(ValueError):
                params[key.strip()] = kind(value)
                break
    return params


def _cmd_gen(args) -> int:
    inst = gen_worked_example(args.example, **_parse_params(args.params))
    if args.out:
        save_instance(inst, args.out)
    else:
        sys.stdout.write(serialize_instance(inst))
    return 0


def _cmd_repro(args) -> int:
    names = [args.example] if args.example else list(EXAMPLES)
    failures = 0
    for name in names:
        for result in verify_worked_example(name):
            status = "ok" if result.passed else "FAIL"
            print(f"{status:4s} {name} :: {result.label}"
                  + (f" ({result.detail})" if result.detail and not result.passed
                     else ""))
            failures += 0 if result.passed else 1
    print(f"repro: {'all checks passed' if failures == 0 else f'{failures} failures'}")
    return 0 if failures == 0 else 1


def _emit(report: dict, out: str | None) -> None:
    if out:
        save_report(report, out)
    else:
        sys.stdout.write(report_text(report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordmech",
        description="Ordinal facility assignment and social choice with "
                    "worst-case distortion audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a mechanism on an instance")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--mechanism", required=True,
                         help="alg1 | alg2 | copeland | reduce:<solver>")
    p_solve.add_argument("--audit", default=None,
                         help="also audit the outcome: sum | median | percentile:a")
    p_solve.add_argument("--out", default=None)

    p_audit = sub.add_parser("audit", help="worst-case distortion of an outcome")
    p_audit.add_argument("--instance", required=True)
    p_audit.add_argument("--outcome", required=True,
                         help="facility name, or comma-separated assignment")
    p_audit.add_argument("--objective", required=True,
                         help="sum | median | percentile:<alpha>")
    p_audit.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen", help="emit a named worked instance")
    p_gen.add_argument("--example", required=True,
                       help=f"one of {sorted(EXAMPLES)}")
    p_gen.add_argument("--params", default=None, help="comma list of key=value")
    p_gen.add_argument("--out", default=None)

    p_repro = sub.add_parser("repro",
                             help="regenerate worked instances and check "
                                  "their documented numbers")
    group = p_repro.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--example", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:  # by name, so that the module's current _cmd_* runs
        return globals()[f"_cmd_{args.command}"](args)
    except (OrdmechError, OSError) as exc:
        internal = isinstance(exc, InternalInvariantError)  # a bug, not bad input
        print(f"{'internal error' if internal else 'error'}: {exc}", file=sys.stderr)
        return 3 if internal else 2


if __name__ == "__main__":
    sys.exit(main())
