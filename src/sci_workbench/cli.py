"""Command-line surface: one dispatcher, deterministic JSON run reports.

Every subcommand executes a library operation, records the measured checks
it ran, and serializes to a versioned report.  Reports are byte-identical
for identical (argv, seed, catalog); the seed comes from the
SCI_WORKBENCH_SEED environment variable (default 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import certificates as ct
from . import degrees as dg
from . import integration as ig
from . import spectral as sp
from .catalog import diagonal_from_json, function_from_json, load_catalog, reduction_from_json
from .core import evaluate_tower, run_algorithm
from .errors import CatalogError, NonFiniteReport, UsageError, WorkbenchError
from .reductions import compose, pullback_tower, verify_reduction

REPORT_SCHEMA = "sci-workbench/run-report@1"
SEED_ENV = "SCI_WORKBENCH_SEED"


@dataclass
class CheckItem:
    name: str
    passed: bool
    measured: Any = None
    tolerance: Any = None


@dataclass
class RunReport:
    command: str
    parameters: dict
    result: Any
    checks: list[CheckItem]
    seed: int
    schema: str = REPORT_SCHEMA

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def to_jsonable(value):
    """Lossless-enough JSON encoding: exact rationals as strings, complex as pairs."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        # a field left out of the repr (a report's bound reduction, say) stays out of the report
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value) if f.repr}
    return str(value)


def _seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected a rational like 3/4, got {text!r}") from None


#: The mini grammar spells the catalog kinds: CLI spelling -> (JSON kind, field names).
#: Fields are comma-separated; ``list`` puts "|" between its listed values and the tail.
_FUNCTION_SPELLINGS = {
    "poly": ("poly", ("coeffs",)),
    "sine": ("sine", ("amplitude", "frequency")),
    "bump": ("bump", ("u", "v")),
}
_DIAGONAL_SPELLINGS = {
    "const": ("const", ("value",)),
    "list": ("finite_list", ("values", "tail")),
    "harmonic": ("harmonic", ("base", "coef")),
    "enum": ("enum", ("lo", "hi")),
}


def _parse_spelled(text: str, what: str, spellings: dict, from_json):
    """Lower one mini-grammar spec to its catalog JSON object and build it there."""
    spelling, _, body = text.partition(":")
    if spelling not in spellings:
        raise UsageError(f"unknown {what} kind {spelling!r} ({'|'.join(spellings)})")
    kind, fields = spellings[spelling]
    if spelling == "poly":
        values = [body.split(",") if body else []]
    elif spelling == "list":
        listed, _, tail = body.partition("|")
        values = [listed.split(",") if listed else [], tail]
    else:
        values = body.split(",")
    if len(values) != len(fields):
        raise UsageError(f"bad {what} spec {text!r}: expected {','.join(fields)}")
    try:
        return from_json({"kind": kind, **dict(zip(fields, values))})
    except (ValueError, CatalogError) as exc:
        raise UsageError(f"bad {what} spec {text!r}: {exc}") from None


def parse_function_spec(text: str) -> ig.FunctionDescription:
    """Mini grammar: poly:c0,c1,...  sine:amp,freq  bump:u,v"""
    return _parse_spelled(text, "function", _FUNCTION_SPELLINGS, function_from_json)


def parse_diagonal_spec(text: str) -> sp.DiagonalSpec:
    """Mini grammar: const:c  list:v1,v2|tail  harmonic:base,coef  enum:lo,hi"""
    return _parse_spelled(text, "diagonal", _DIAGONAL_SPELLINGS, diagonal_from_json)


def _points_list(text: str) -> list[Fraction]:
    if not text.strip():
        return []
    return [_fraction(p) for p in text.split(",")]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface a typed error instead
        raise UsageError(f"{message}\n{self.format_usage()}")

    def _parse_optional(self, arg_string):
        # no option starts with a digit, so "-3/2" or "-1.5" is a value, not an option
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: ``parse_args`` keeps no state between calls."""
    parser = _Parser(prog="sci-workbench", description=__doc__, allow_abbrev=False)
    parser.add_argument("--json", action="store_true", help="emit the versioned JSON report")
    parser.add_argument("--catalog", default=None, help="path to a catalog document")
    top = parser.add_subparsers(dest="group", required=True)

    integrate = top.add_parser("integrate").add_subparsers(dest="action", required=True)
    tower = integrate.add_parser("tower")
    tower.add_argument("--interval", nargs=2, required=True, metavar=("A", "B"))
    tower.add_argument("--function", required=True)
    tower.add_argument("--n", type=int, required=True)
    adversary = integrate.add_parser("adversary")
    adversary.add_argument("--points", default="")
    ireduce = integrate.add_parser("reduce")
    ireduce.add_argument("--interval", nargs=2, required=True, metavar=("A", "B"))
    ireduce.add_argument("--samples", type=int, default=100)

    spectral_cmd = top.add_parser("spectral").add_subparsers(dest="action", required=True)
    decide = spectral_cmd.add_parser("decide")
    decide.add_argument("--diagonal", required=True)
    decide.add_argument("--z", required=True)
    decide.add_argument("--domain", nargs=2, default=("0", "1"), metavar=("J0", "J1"))
    decide.add_argument("--n2", type=int, default=None)
    decide.add_argument("--n1", type=int, default=None)
    stabilize = spectral_cmd.add_parser("stabilize")
    stabilize.add_argument("--diagonal", required=True)
    stabilize.add_argument("--z", required=True)
    stabilize.add_argument("--domain", nargs=2, default=("0", "1"), metavar=("J0", "J1"))
    stabilize.add_argument("--stabilizer", required=True)
    sreduce = spectral_cmd.add_parser("reduce")
    sreduce.add_argument("--stabilizer", default="const:5")
    sreduce.add_argument("--domain", nargs=2, default=("0", "1"), metavar=("J0", "J1"))
    sreduce.add_argument("--samples", type=int, default=100)

    koopman_cmd = top.add_parser("koopman").add_subparsers(dest="action", required=True)
    finite = koopman_cmd.add_parser("finite")
    finite.add_argument("--map", required=True, help="image tuple, e.g. 2,1")
    finite.add_argument("--weights", default=None, help="positive rationals, e.g. 1,1")
    finite.add_argument("--target", choices=("ap", "apeps"), default="ap")
    finite.add_argument("--epsilon", type=float, default=0.1)
    finite.add_argument("--grid", nargs=5, type=float, default=(-1.5, 1.5, -1.5, 1.5, 0.02),
                        metavar=("RELO", "REHI", "IMLO", "IMHI", "SPACING"))

    family = top.add_parser("family").add_subparsers(dest="action", required=True)
    classify = family.add_parser("classify")
    classify.add_argument("--heights", required=True, help="comma-separated exact heights")
    classify.add_argument("--k", type=int, required=True)

    certify = top.add_parser("certify").add_subparsers(dest="action", required=True)
    package = certify.add_parser("package")
    package.add_argument("--family", choices=("integration", "spectral"), required=True)
    package.add_argument("--samples", type=int, default=60)
    saturate = certify.add_parser("saturate")
    saturate.add_argument("--samples", type=int, default=60)

    degrees_cmd = top.add_parser("degrees").add_subparsers(dest="action", required=True)
    join = degrees_cmd.add_parser("join")
    join.add_argument("--samples", type=int, default=60)
    meet = degrees_cmd.add_parser("meet")
    meet.add_argument("--samples", type=int, default=60)
    counter = degrees_cmd.add_parser("counterexample")
    counter.add_argument("--class", dest="decoder_class", choices=("cont", "bor", "id"),
                         required=True)

    reduce_cmd = top.add_parser("reduce").add_subparsers(dest="action", required=True)
    verify = reduce_cmd.add_parser("verify")
    verify.add_argument("--spec", required=True, help="JSON file or inline JSON naming a shipped rule")
    verify.add_argument("--samples", type=int, default=100)
    composec = reduce_cmd.add_parser("compose")
    composec.add_argument("--intervals", required=True,
                          help="semicolon-separated chain, e.g. '0,1;0,2;0,4'")
    composec.add_argument("--samples", type=int, default=60)
    pullback = reduce_cmd.add_parser("pullback")
    pullback.add_argument("--interval", nargs=2, required=True, metavar=("A", "B"))
    pullback.add_argument("--n", type=int, default=8)
    pullback.add_argument("--function", default="poly:0,1")

    return parser


def _sine_in_double_range(args, func) -> None:
    """A sine is evaluated in doubles, so refuse an ``--interval`` endpoint that has none."""
    if isinstance(func, ig.Sine):
        for label, text in zip("AB", args.interval):
            try:
                float(_fraction(text))
            except OverflowError:
                raise ValueError(
                    f"--interval {label} = {text} is out of double range, which a sine function needs"
                ) from None


def _cmd_integrate_tower(args, seed):
    iv = ig.Interval(_fraction(args.interval[0]), _fraction(args.interval[1]))
    func = parse_function_spec(args.function)
    _sine_in_double_range(args, func)
    problem = ig.make_problem(iv, (func,))
    tower = ig.rectangle_tower(iv)
    value = evaluate_tower(tower, (args.n,), problem, func)
    exact = func.integral(iv.a, iv.b)
    bound = ig.quadrature_error_bound(func, iv, args.n)
    error = abs(value - exact)
    result = {"stage": args.n, "value": value, "exact": exact, "error": error}
    tolerance = _double(args, "error bound", bound)
    checks = [CheckItem("left-endpoint error bound", error <= bound, _double(args, "error", error), tolerance)]
    return result, checks


def _double(args, name: str, value: Fraction) -> float:
    """``value`` as a double; a rational out of double range names ``--interval``, which set it."""
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value.numerator) // value.denominator))
        raise ValueError(
            f"--interval {' '.join(args.interval)} gives a left-endpoint {name} of about 10^{digits - 1},"
            " which is out of double range"
        ) from None


def _cmd_integrate_adversary(args, seed):
    points = _points_list(args.points)
    gadget = ig.adversary_bump(points)
    vanishes = all(gadget.value(p) == 0 for p in points)
    result = {"u": gadget.u, "v": gadget.v, "integral": gadget.integral}
    checks = [
        CheckItem("vanishes at every query point", vanishes),
        CheckItem("positive integral", gadget.integral > 0, to_jsonable(gadget.integral)),
    ]
    # replay demo: defeat the stage-4 rectangle protocol by avoiding its nodes too
    unit = ig.interval(0, 1)
    probe = ig.rectangle_tower(unit).stage((4,))
    aware = ig.adversary_bump(points + [Fraction(j, 4) for j in range(4)])
    problem = ig.make_problem(unit, (ig.polynomial(0), aware.function()))
    out_zero, _ = run_algorithm(probe, problem, ig.polynomial(0))
    out_bump, _ = run_algorithm(probe, problem, aware.function())
    checks.append(
        CheckItem("fixed protocol cannot separate the gadget from 0", out_zero == out_bump)
    )
    return result, checks


def _cmd_integrate_reduce(args, seed):
    iv = ig.Interval(_fraction(args.interval[0]), _fraction(args.interval[1]))
    reduction = ig.affine_reduction(ig.make_problem(iv))
    report = verify_reduction(reduction, args.samples, seed=seed)
    return {"reduction": reduction.name, "report": report}, [
        CheckItem("reduction verifies", report.passed, report.max_discrepancy, report.tol)
    ]


def _decide_stages(spec, window, args):
    n2, n1 = sp.stabilization_stages(spec, window)
    return (args.n2 if args.n2 is not None else n2, args.n1 if args.n1 is not None else n1)


def _cmd_spectral_decide(args, seed):
    j_domain = sp.domain(_fraction(args.domain[0]), _fraction(args.domain[1]))
    spec = parse_diagonal_spec(args.diagonal)
    window = sp.Window(_fraction(args.z), j_domain)
    problem = sp.source_problem(j_domain, ((spec, window),))
    tower = sp.decision_tower(j_domain)
    n2, n1 = _decide_stages(spec, window, args)
    stage_value = evaluate_tower(tower, (n2, n1), problem, (spec, window))
    oracle = sp.exact_decision_oracle(spec, window)
    result = {"n2": n2, "n1": n1, "stage_value": stage_value, "oracle": oracle,
              "spectral_gap": spec.spectrum_distance(window.z)}
    return result, [CheckItem("tower agrees with exact oracle", stage_value == oracle)]


def _cmd_spectral_stabilize(args, seed):
    j_domain = sp.domain(_fraction(args.domain[0]), _fraction(args.domain[1]))
    spec = parse_diagonal_spec(args.diagonal)
    window = sp.Window(_fraction(args.z), j_domain)
    stabilizer = sp.StabilizerSpec.certify(parse_diagonal_spec(args.stabilizer), j_domain)
    block = sp.BlockOperator(spec, stabilizer)
    stabilized = sp.stabilized_problem(j_domain, stabilizer, ((spec, window),))
    source_value = sp.exact_decision_oracle(spec, window)
    stabilized_value = stabilized.target((block, window))
    result = {"margin": stabilizer.margin, "source": source_value, "stabilized": stabilized_value}
    return result, [
        CheckItem("stabilization leaves the decision invariant", source_value == stabilized_value)
    ]


def _spectral_catalog_pairs(args):
    catalog = load_catalog(args.catalog)
    return catalog.first("spectral_source").problem.inputs.members


def _cmd_spectral_reduce(args, seed):
    j_domain = sp.domain(_fraction(args.domain[0]), _fraction(args.domain[1]))
    stabilizer = sp.StabilizerSpec.certify(parse_diagonal_spec(args.stabilizer), j_domain)
    pairs = _spectral_catalog_pairs(args)
    forward, backward = sp.stabilization_reductions(j_domain, stabilizer, pairs)
    fwd_report = verify_reduction(forward, args.samples, seed=seed)
    bwd_report = verify_reduction(backward, args.samples, seed=seed)
    round_trip = all(backward.encoder(forward.encoder(pair)) == pair for pair in pairs)
    result = {"forward": forward.name, "backward": backward.name,
              "forward_report": fwd_report, "backward_report": bwd_report}
    return result, [
        CheckItem("forward verifies", fwd_report.passed, fwd_report.max_discrepancy),
        CheckItem("backward verifies", bwd_report.passed, bwd_report.max_discrepancy),
        CheckItem("encoder round trip is the identity", round_trip),
    ]


def _cmd_koopman_finite(args, seed):
    from . import koopman as kp  # numpy, which only this command needs

    image = tuple(int(v) for v in args.map.split(","))
    table = kp.MapTable(image)
    n = table.size
    weights = (
        tuple(_fraction(w) for w in args.weights.split(",")) if args.weights else (Fraction(1),) * n
    )
    space = kp.FiniteSpace(weights)
    if args.target == "ap":
        target = kp.AP
    else:
        target = kp.ap_eps(args.epsilon, kp.GridSpec(*args.grid))
    problem = kp.make_problem(space, (table,), target)
    collapse = kp.height0_algorithm(space, target)
    output, trace = run_algorithm(collapse.stage(()), problem, table)
    direct = problem.target(table)
    agreement = kp.hausdorff(output, direct)
    result = {"points": output.points, "queries": len(trace), "resolution": output.resolution}
    checks = [
        CheckItem("exactly N queries", len(trace) == n, len(trace), n),
        CheckItem("factorized output equals direct computation", agreement == 0.0, agreement, 0.0),
    ]
    if args.target == "ap":
        numeric = kp.hausdorff(output, kp.eigenvalue_oracle(kp.koopman_matrix(space, table)))
        checks.append(CheckItem("matches numeric eigenvalue oracle", numeric <= 1e-10, numeric, 1e-10))
    return result, checks


def _cmd_family_classify(args, seed):
    heights = [int(h) for h in args.heights.split(",")]
    record = ct.FamilyRecord(
        {f"member-{i}": ct.exact_certificate(f"member-{i}", h, "cli-input")
         for i, h in enumerate(heights)}
    )
    verdict = ct.classify_family(record, args.k)
    result = {"heights": heights, "k": args.k,
              "pointwise_exact": verdict.pointwise_exact,
              "witness_sharp": verdict.witness_sharp,
              "worst_case_exact": verdict.worst_case_exact}
    return result, [CheckItem("witness equals worst-case",
                              verdict.witness_sharp == verdict.worst_case_exact)]


def _integration_package(samples: int, seed: int, intervals=None):
    unit = ig.make_problem(ig.interval(0, 1))
    source_cert = ct.recorded_certificate("integration/unit-interval", unit.name)
    reductions, upper_bounds = {}, {}
    for iv in intervals or (ig.interval(0, 2), ig.interval(-1, 3), ig.interval("1/2", "5/2")):
        member = ig.make_problem(iv)
        reduction = ig.affine_reduction(member, unit)
        reductions[member.name] = (reduction, verify_reduction(reduction, samples, seed=seed))
        upper_bounds[member.name] = ct.tower_upper_bound(member.name, ig.rectangle_tower(iv))
    return ct.sufficiency_package(source_cert, reductions, upper_bounds)


def _spectral_package(samples: int, seed: int, catalog_path=None):
    catalog = load_catalog(catalog_path)
    source = catalog.first("spectral_source").problem
    j_domain = source.params["domain"]
    pairs = source.inputs.members
    source_cert = ct.recorded_certificate("spectral/singleton-window-source", source.name)
    tower = sp.decision_tower(j_domain)
    reductions, upper_bounds = {}, {}
    for stab_spec in (sp.constant_diagonal(5), sp.constant_diagonal(-2)):
        stabilizer = sp.StabilizerSpec.certify(stab_spec, j_domain)
        member = sp.stabilized_problem(j_domain, stabilizer, pairs)
        forward, backward = sp.stabilization_reductions(
            j_domain, stabilizer, pairs, source=source, stabilized=member
        )
        reductions[member.name] = (forward, verify_reduction(forward, samples, seed=seed))
        # ub witness: the source tower pulled back along the backward transport
        upper_bounds[member.name] = ct.tower_upper_bound(member.name, pullback_tower(backward, tower))
    return ct.sufficiency_package(source_cert, reductions, upper_bounds)


def _tree_result(record, verdict):
    lines = []
    for cert in record.certificates.values():
        lines.extend(ct.describe_certificate(cert))
    return {"derivations": lines,
            "verdict": {"k": verdict.k, "pointwise_exact": verdict.pointwise_exact,
                        "witness_sharp": verdict.witness_sharp,
                        "worst_case_exact": verdict.worst_case_exact}}


def _cmd_certify_package(args, seed):
    if args.family == "integration":
        record, verdict = _integration_package(args.samples, seed)
    else:
        record, verdict = _spectral_package(args.samples, seed, args.catalog)
    return _tree_result(record, verdict), [
        CheckItem("family-pointwise exact", verdict.flags() == (True, True, True))
    ]


def _cmd_certify_saturate(args, seed):
    unit = ig.make_problem(ig.interval(0, 1))
    two = ig.make_problem(ig.interval(0, 2))
    basis_record, _ = _integration_package(args.samples, seed, intervals=(ig.interval(0, 2),))
    basis = {unit.name: ct.recorded_certificate("integration/unit-interval", unit.name),
             two.name: basis_record.certificates[two.name]}
    members = {}
    reductions, upper_bounds, assignment = {}, {}, {}
    for iv, basis_problem in ((ig.interval(-1, 3), unit), (ig.interval(3, 7), two)):
        member = ig.make_problem(iv)
        reduction = ig.affine_reduction(member, basis_problem)
        members[member.name] = member
        assignment[member.name] = basis_problem.name
        reductions[member.name] = (reduction, verify_reduction(reduction, args.samples, seed=seed))
        upper_bounds[member.name] = ct.tower_upper_bound(member.name, ig.rectangle_tower(iv))
    record, verdict = ct.transport_saturation(basis, assignment, reductions, upper_bounds)
    return _tree_result(record, verdict), [
        CheckItem("saturated family is pointwise exact", verdict.flags() == (True, True, True))
    ]


def _degree_operands(args):
    catalog = load_catalog(args.catalog)
    p0 = ig.make_problem(ig.interval(0, 1),
                         (ig.polynomial(1), ig.polynomial(0, 1), ig.polynomial(0, 0, 1)))
    p1 = catalog.first("spectral_source").problem
    return p0, p1


def _cmd_degrees_join(args, seed):
    p0, p1 = _degree_operands(args)
    joined = dg.upper_bound_join(p0, p1)
    left = verify_reduction(joined.left, args.samples, seed=seed)
    right = verify_reduction(joined.right, args.samples, seed=seed)
    cross = joined.problem.output_space.distance((0, Fraction(0)), (1, 0))
    result = {"problem": joined.problem.name, "left": left, "right": right}
    return result, [
        CheckItem("left component transports", left.passed, left.max_discrepancy),
        CheckItem("right component transports", right.passed, right.max_discrepancy),
        CheckItem("cross-tag distance is exactly 2", cross == 2, cross, 2),
    ]


def _cmd_degrees_meet(args, seed):
    p0, p1 = _degree_operands(args)
    met = dg.lower_bound_meet(p0, p1)
    left = verify_reduction(met.left, args.samples, seed=seed)
    right = verify_reduction(met.right, args.samples, seed=seed)
    result = {"problem": met.problem.name, "left": left, "right": right}
    return result, [
        CheckItem("meet reduces into the left", left.passed, left.max_discrepancy),
        CheckItem("meet reduces into the right", right.passed, right.max_discrepancy),
    ]


def _cmd_degrees_counterexample(args, seed):
    report = dg.counterexample_demo(args.decoder_class)
    result = {"decoder_class": report.decoder_class,
              "checks": list(report.checks),
              "recorded_argument": report.recorded_argument}
    return result, [CheckItem(c.name, c.passed, c.detail) for c in report.checks]


def _cmd_reduce_verify(args, seed):
    raw = args.spec
    if os.path.exists(raw):
        try:
            raw = Path(raw).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read --spec file {args.spec!r}: {exc}") from None
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--spec is neither a file nor valid JSON: {exc}") from None
    reduction = reduction_from_json(spec)
    report = verify_reduction(reduction, args.samples, seed=seed)
    return {"reduction": reduction.name, "report": report}, [
        CheckItem("reduction verifies", report.passed, report.max_discrepancy, report.tol)
    ]


#: Most intervals ``reduce compose`` takes: the encoded input nests one affine
#: image per link, and each query expands through every link of the chain.
_MAX_CHAIN = 64


def _cmd_reduce_compose(args, seed):
    parts = args.intervals.split(";")
    if len(parts) > _MAX_CHAIN:
        raise UsageError(f"--intervals holds {len(parts)} intervals, more than the {_MAX_CHAIN} a chain may have")
    chain = []
    for part in parts:
        ends = part.split(",")
        if len(ends) != 2:
            raise UsageError(f"--intervals part {part!r} is not an interval a,b")
        chain.append(ig.make_problem(ig.Interval(_fraction(ends[0]), _fraction(ends[1]))))
    if len(chain) < 3:
        raise UsageError("--intervals needs at least three intervals, e.g. '0,1;0,2;0,4'")
    # compose the whole chain left to right; the width law is checked on the last step
    composed = ig.affine_reduction(chain[1], chain[0])
    for previous, nxt in zip(chain[1:], chain[2:]):
        first, second = composed, ig.affine_reduction(nxt, previous)
        composed = compose(first, second)
    report = verify_reduction(composed, args.samples, seed=seed)
    probe = composed.target.queries.canonical_ids[1]
    width = composed.plan.entry(probe).width
    expected = sum(
        first.plan.entry(mid).width for mid in second.plan.entry(probe).source_ids
    )
    result = {"composed": composed.name, "report": report, "probe_width": width}
    return result, [
        CheckItem("composed reduction verifies", report.passed, report.max_discrepancy),
        CheckItem("blockwise width law", width == expected, width, expected),
    ]


def _cmd_reduce_pullback(args, seed):
    iv = ig.Interval(_fraction(args.interval[0]), _fraction(args.interval[1]))
    func = parse_function_spec(args.function)
    _sine_in_double_range(args, func)
    unit = ig.make_problem(ig.interval(0, 1), (func,))
    member = ig.make_problem(iv)
    reduction = ig.affine_reduction(member, unit)
    pulled = pullback_tower(reduction, ig.rectangle_tower(iv))
    native = ig.rectangle_tower(ig.interval(0, 1))
    got = evaluate_tower(pulled, (args.n,), unit, func)
    want = evaluate_tower(native, (args.n,), unit, func)
    gap = abs(got - want)
    result = {"stage": args.n, "pulled_back": got, "native": want}
    return result, [CheckItem("pullback equals native stage", gap <= 1e-12, float(gap), 1e-12)]


_HANDLERS = {
    ("integrate", "tower"): _cmd_integrate_tower,
    ("integrate", "adversary"): _cmd_integrate_adversary,
    ("integrate", "reduce"): _cmd_integrate_reduce,
    ("spectral", "decide"): _cmd_spectral_decide,
    ("spectral", "stabilize"): _cmd_spectral_stabilize,
    ("spectral", "reduce"): _cmd_spectral_reduce,
    ("koopman", "finite"): _cmd_koopman_finite,
    ("family", "classify"): _cmd_family_classify,
    ("certify", "package"): _cmd_certify_package,
    ("certify", "saturate"): _cmd_certify_saturate,
    ("degrees", "join"): _cmd_degrees_join,
    ("degrees", "meet"): _cmd_degrees_meet,
    ("degrees", "counterexample"): _cmd_degrees_counterexample,
    ("reduce", "verify"): _cmd_reduce_verify,
    ("reduce", "compose"): _cmd_reduce_compose,
    ("reduce", "pullback"): _cmd_reduce_pullback,
}


def _require_finite(value, path: str) -> None:
    """Refuse a JSON-ready value holding Infinity or NaN, naming the first such field."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteReport(f"{path} is {value!r}, which strict JSON cannot encode")
    elif isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _require_finite(item, f"{path}[{index}]")


def dispatch(argv: Sequence[str]) -> RunReport:
    """Parse, execute and report one subcommand; raises UsageError/CatalogError.

    A report whose result or checks hold Infinity or NaN raises
    :class:`NonFiniteReport` instead of being returned.
    """
    args = build_parser().parse_args(list(argv))
    seed = _seed()
    action = args.action
    handler = _HANDLERS[(args.group, action)]
    result, checks = handler(args, seed)
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in ("group", "action", "json") and value is not None
    }
    report = RunReport(
        command=f"{args.group} {action}",
        parameters=to_jsonable(parameters),
        result=to_jsonable(result),
        checks=checks,
        seed=seed,
    )
    _require_finite(report.result, "result")
    _require_finite(to_jsonable(checks), "checks")
    return report


def _print_human(report: RunReport) -> None:
    print(f"# {report.command} (seed {report.seed})")
    body = json.dumps(report.result, indent=2, sort_keys=True)
    print(body)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        extra = "" if check.measured is None else f"  [{check.measured}]"
        print(f"{status}  {check.name}{extra}")


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        report = dispatch(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:  # OverflowError: a rational out of double range
        print(f"bad argument value: {exc}", file=sys.stderr)
        return 2
    try:
        if "--json" in argv:
            print(json.dumps(to_jsonable(report), indent=2, sort_keys=True))
        else:
            _print_human(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``, say); send the unflushed rest to
        # the null device, so the exit flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
