"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from sci_workbench import certificates as ct
from sci_workbench import degrees as dg
from sci_workbench import integration as ig
from sci_workbench import koopman as kp
from sci_workbench import spectral as sp
from sci_workbench.catalog import load_catalog
from sci_workbench.core import evaluate_tower, fixed_query_algorithm, interval, run_algorithm
from sci_workbench.errors import MissingClause
from sci_workbench.reductions import (
    PlanEntry,
    QueryPlan,
    Reduction,
    compose,
    identity_reduction,
    pullback_tower,
    verify_reduction,
)

J = interval(0, 1)

QUAD_INTERVALS = (
    ig.interval(0, 1),
    ig.interval(0, 2),
    ig.interval(-1, 1),
    ig.interval(-2, "-1/2"),
    ig.interval("1/2", "7/2"),
)
QUAD_POLYS = (
    ig.polynomial(1),
    ig.polynomial(0, 1),
    ig.polynomial(0, 0, 1),
    ig.polynomial("1/2", "-1/3", 0, "1/4"),
    ig.polynomial(2, -1),
)
QUAD_SINES = (
    ig.Sine(1.0, 1.0),
    ig.Sine(0.5, 2.0),
    ig.Sine(1.0, 0.5),
    ig.Sine(1.0 / 3.0, 3.0),
    ig.Sine(0.75, 2.0),
)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}  {name}{suffix}")
    assert passed, f"criterion {number}: {name} {detail}"


def test_criterion_01_quadrature_convergence():
    functions = QUAD_POLYS + QUAD_SINES
    start = time.perf_counter()
    checked = 0
    worst_sine_tail = 0.0
    for iv in QUAD_INTERVALS:
        problem = ig.make_problem(iv, functions)
        tower = ig.rectangle_tower(iv)
        for f in functions:
            exact = f.integral(iv.a, iv.b)
            for k in range(4, 13):
                n = 2**k
                error = abs(evaluate_tower(tower, (n,), problem, f) - exact)
                bound = ig.quadrature_error_bound(f, iv, n)
                assert error <= bound, (iv, f.label(), n, float(error), float(bound))
                checked += 1
                if isinstance(f, ig.Sine) and n == 2**12:
                    worst_sine_tail = max(worst_sine_tail, float(error))
    elapsed = time.perf_counter() - start
    assert worst_sine_tail <= 1e-3
    assert elapsed < 5.0, f"quadrature sweep took {elapsed:.2f}s"
    _report(
        1,
        "quadrature error bound on 10 functions x 5 intervals",
        True,
        f"{checked} stage checks, sine tail {worst_sine_tail:.2e}, {elapsed:.2f}s",
    )


def _fixed_probe_protocols():
    unit = ig.interval(0, 1)
    rect = ig.rectangle_tower(unit)
    protocols = [rect.stage((n,)) for n in (1, 3, 7)]
    protocols.append(
        fixed_query_algorithm(
            "spot-checks",
            [("ev", Fraction(1, 3)), ("ev", Fraction(2, 3)), ("ev", Fraction(1))],
            lambda vals: sum(vals) / 3,
        )
    )

    def adaptive():
        # branches on its first answer, so the emitted set is input-dependent
        from sci_workbench.core import Ask

        (first,) = yield Ask(("ev", Fraction(1, 2)))
        probe = Fraction(1, 4) if first == 0 else Fraction(3, 4)
        (second,) = yield Ask(("ev", probe))
        return first + second

    from sci_workbench.core import GeneralAlgorithm

    protocols.append(GeneralAlgorithm("adaptive-probe", adaptive))
    return protocols


def test_criterion_02_adversary_soundness():
    rng = random.Random(0)
    for _ in range(200):
        size = rng.randrange(0, 51)
        points = [
            Fraction(rng.randrange(den + 1), den)
            for den in (rng.choice((7, 16, 24, 53, 64)) for _ in range(size))
        ]
        gadget = ig.adversary_bump(points)
        assert all(gadget.value(p) == 0 for p in points)
        assert gadget.integral(gadget.u, gadget.v) == (gadget.v - gadget.u) / 2 > 0

    problem = ig.make_problem(ig.interval(0, 1))
    zero = ig.polynomial(0)
    replayed = 0
    for protocol in _fixed_probe_protocols():
        out_zero, trace_zero = run_algorithm(protocol, problem, zero)
        gadget = ig.adversary_bump([qid[1] for qid in trace_zero.ids])
        out_bump, trace_bump = run_algorithm(protocol, problem, gadget)
        assert out_zero == out_bump and trace_zero == trace_bump
        assert problem.target(gadget) > 0
        replayed += 1
    _report(
        2,
        "bump adversary sound on 200 random query sets",
        True,
        f"{replayed}/5 fixed protocols blinded",
    )


def test_criterion_03_reduction_laws(spectral_source):
    unit = ig.make_problem(ig.interval(0, 1))
    two = ig.make_problem(ig.interval(0, 2))
    four = ig.make_problem(ig.interval(0, 4))

    for reduction in (identity_reduction(unit), identity_reduction(spectral_source)):
        report = verify_reduction(reduction, 100)
        assert report.passed and report.target_failures == report.query_failures == 0

    first = ig.affine_reduction(two, unit)
    second = ig.affine_reduction(four, two)
    for reduction in (first, second, ig.affine_reduction(ig.make_problem(ig.interval(-1, 3)), unit)):
        report = verify_reduction(reduction, 100)
        assert report.passed and report.target_failures == report.query_failures == 0

    composed = compose(first, second)
    assert verify_reduction(composed, 100).passed

    # width law, including a deliberately wider simulation block
    def doubled_rule(qid):
        entry = first.plan.rule(qid)
        if entry is None:
            return None
        sid = entry.source_ids[0]
        return PlanEntry((sid, sid), lambda vals, _e=entry: _e.combine(((vals[0] + vals[1]) / 2,)))

    doubled = Reduction(
        "doubled", first.source, first.target, first.encoder, first.decoder,
        QueryPlan("doubled", doubled_rule),
    )
    wide = compose(doubled, second)
    rng = random.Random(1)
    sampled = 0
    for narrow_or_wide, inner in ((composed, first), (wide, doubled)):
        for qid in four.queries.sample_ids(rng, 40):
            outer_entry = second.plan.entry(qid)
            expected = sum(inner.plan.entry(mid).width for mid in outer_entry.source_ids)
            assert narrow_or_wide.plan.entry(qid).width == expected
            sampled += 1
    assert verify_reduction(wide, 60).passed
    _report(3, "identity/affine/compose reduction laws", True, f"width law on {sampled} samples")


def test_criterion_04_pullback_identity():
    polys = QUAD_POLYS
    sines = QUAD_SINES
    unit = ig.make_problem(ig.interval(0, 1), polys + sines)
    native = ig.rectangle_tower(ig.interval(0, 1))
    stages = (1, 2, 4, 8, 16, 32, 64)
    compared = 0
    for iv in (ig.interval(0, 2), ig.interval(-1, 3), ig.interval("1/2", "5/2")):
        member = ig.make_problem(iv, polys + sines)
        pulled = pullback_tower(ig.affine_reduction(member, unit), ig.rectangle_tower(iv))
        for f in polys:
            for n in stages:
                got = evaluate_tower(pulled, (n,), unit, f)
                want = evaluate_tower(native, (n,), unit, f)
                assert got == want, (iv, f.label(), n)  # exact rational equality
                compared += 1
        for f in sines:
            for n in stages:
                gap = abs(evaluate_tower(pulled, (n,), unit, f) - evaluate_tower(native, (n,), unit, f))
                assert gap <= 1e-12, (iv, f.label(), n, gap)
                compared += 1
    _report(4, "pulled-back rectangle tower equals native tower", True, f"{compared} stage comparisons")


def test_criterion_05_spectral_tower_vs_oracle(spectral_source):
    pairs = spectral_source.inputs.members
    assert len(pairs) >= 30
    tower = sp.decision_tower(spectral_source.params["domain"])
    agreements = 0
    for pair in pairs:
        spec, window = pair
        n2, n1 = sp.stabilization_stages(spec, window)
        delta = spec.spectrum_distance(window.z)
        if delta > 0:
            assert Fraction(5, 2 ** (n2 + 2)) < delta  # the derived stage rule
        assert evaluate_tower(tower, (n2, n1), spectral_source, pair) == spectral_source.target(pair)
        agreements += 1
        for n in range(1, 21):
            approx = sp.window_approximant(window, n)
            assert abs(approx.value - window.z) < Fraction(1, 2 ** (n + 2))
    _report(5, "decision tower matches exact oracle on catalog", True, f"{agreements}/{len(pairs)} pairs")


def test_criterion_06_stabilization_invariance(spectral_source):
    pairs = spectral_source.inputs.members
    stabilizers = (
        sp.StabilizerSpec.certify(sp.constant_diagonal(5), J),
        sp.StabilizerSpec.certify(sp.constant_diagonal(-2), J),
    )
    combos = 0
    for stabilizer in stabilizers:
        stabilized = sp.stabilized_problem(J, stabilizer, pairs)
        forward, backward = sp.stabilization_reductions(
            J, stabilizer, pairs, source=spectral_source, stabilized=stabilized
        )
        for pair in pairs:
            encoded = forward.encoder(pair)
            assert stabilized.target(encoded) == spectral_source.target(pair)
            assert backward.encoder(encoded) == pair
            combos += 1
        for reduction in (forward, backward):
            report = verify_reduction(reduction, 100)
            assert report.passed and report.max_discrepancy == 0.0
    assert combos >= 60
    _report(6, "block stabilization leaves decisions invariant", True, f"{combos} combinations")


def test_criterion_07_koopman_collapse():
    start = time.perf_counter()
    cases = 0
    for n in (1, 2, 3, 4):
        space = kp.uniform_space(n)
        tables = [kp.MapTable(img) for img in itertools.product(range(1, n + 1), repeat=n)]
        problem = kp.make_problem(space, tuple(tables))
        tower = kp.height0_algorithm(space)
        algorithm = tower.stage(())
        for table in tables:
            output, trace = run_algorithm(algorithm, problem, table)
            assert len(trace) == n
            assert kp.hausdorff(output, problem.target(table)) == 0.0
            gap = kp.hausdorff(output, kp.eigenvalue_oracle(kp.koopman_matrix(space, table)))
            assert gap <= 1e-10
            cases += 1
    assert cases == 1 + 4 + 27 + 256

    # N=2 swap epsilon-set vs the analytic disks around +-1
    eps, spacing = 0.1, 0.02
    matrix = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((2, 1)))
    approx = kp.sigma_ap_eps(matrix, eps, kp.GridSpec(-1.5, 1.5, -1.5, 1.5, spacing))
    step = spacing / 4
    disks = [
        complex(center + i * step, j * step)
        for center in (-1.0, 1.0)
        for i in range(-24, 25)
        for j in range(-24, 25)
        if abs(complex(center + i * step, j * step) - center) <= eps
    ]
    sample_to_disks = max(min(abs(p - q) for q in disks) for p in approx.points)
    disks_to_sample = max(min(abs(p - q) for q in approx.points) for p in disks)
    hausdorff_gap = max(sample_to_disks, disks_to_sample)
    assert hausdorff_gap <= spacing + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"koopman sweep took {elapsed:.2f}s"
    _report(
        7,
        "finite-space collapse exhaustive to N=4",
        True,
        f"{cases} maps, eps-set dH {hausdorff_gap:.4f} <= {spacing}, {elapsed:.1f}s",
    )


def test_criterion_08_classifier_truth_table():
    cases = 0
    for size in range(1, 5):
        for heights in itertools.combinations_with_replacement(range(4), size):
            record = ct.FamilyRecord(
                {f"m{i}": ct.exact_certificate(f"m{i}", h, "grid") for i, h in enumerate(heights)}
            )
            for k in range(4):
                verdict = ct.classify_family(record, k)
                # brute-force restatement of the three definitions
                pointwise = all(h == k for h in heights)
                witness = all(h <= k for h in heights) and any(h == k for h in heights)
                worst = max(heights) == k
                assert verdict.flags() == (pointwise, witness, worst)
                assert verdict.witness_sharp == verdict.worst_case_exact
                cases += 1
    _report(8, "sharpness classifier matches brute force", True, f"{cases} (multiset, k) cases")


def _integration_package_inputs():
    unit = ig.make_problem(ig.interval(0, 1))
    source_cert = ct.recorded_certificate("integration/unit-interval", unit.name)
    reductions, upper_bounds = {}, {}
    for iv in (ig.interval(0, 2), ig.interval(-1, 3), ig.interval("1/2", "5/2"), ig.interval(3, 7)):
        member = ig.make_problem(iv)
        reduction = ig.affine_reduction(member, unit)
        reductions[member.name] = (reduction, verify_reduction(reduction, 60))
        upper_bounds[member.name] = ct.tower_upper_bound(member.name, ig.rectangle_tower(iv))
    return source_cert, reductions, upper_bounds


def test_criterion_09_certificate_engine(spectral_source):
    source_cert, reductions, upper_bounds = _integration_package_inputs()
    record, verdict = ct.sufficiency_package(source_cert, reductions, upper_bounds)
    assert verdict.flags() == (True, True, True)
    assert all(c.interval.exact and c.interval.lb == 1 for c in record.certificates.values())

    pairs = spectral_source.inputs.members
    spectral_cert = ct.recorded_certificate(
        "spectral/singleton-window-source", spectral_source.name
    )
    tower = sp.decision_tower(spectral_source.params["domain"])
    s_reductions, s_upper = {}, {}
    for value in (5, -2, "7/2"):
        stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(Fraction(value)), J)
        member = sp.stabilized_problem(J, stabilizer, pairs)
        forward, backward = sp.stabilization_reductions(
            J, stabilizer, pairs, source=spectral_source, stabilized=member
        )
        pulled = pullback_tower(backward, tower)
        for pair in member.inputs.members[:5]:  # spot-check the ub witness before trusting it
            stages = sp.stabilization_stages(pair[0].first, pair[1])
            assert evaluate_tower(pulled, stages, member, pair) == member.target(pair)
        s_reductions[member.name] = (forward, verify_reduction(forward, 60))
        s_upper[member.name] = ct.tower_upper_bound(member.name, pulled)
    s_record, s_verdict = ct.sufficiency_package(spectral_cert, s_reductions, s_upper)
    assert s_verdict.flags() == (True, True, True)
    assert all(c.interval.exact and c.interval.lb == 2 for c in s_record.certificates.values())

    # negative controls: each clause failure is named
    with pytest.raises(MissingClause) as c1:
        loose = ct.HeightCertificate(source_cert.problem_id, ct.HeightInterval(0, 1), ())
        ct.sufficiency_package(loose, reductions, upper_bounds)
    partial = dict(reductions)
    partial.popitem()
    with pytest.raises(MissingClause) as c2:
        ct.sufficiency_package(source_cert, partial, upper_bounds)
    weak = dict(upper_bounds)
    member_id = next(iter(weak))
    weak[member_id] = ct.HeightCertificate(member_id, ct.HeightInterval(0, 2), ())
    with pytest.raises(MissingClause) as c3:
        ct.sufficiency_package(source_cert, reductions, weak)
    assert (c1.value.clause, c2.value.clause, c3.value.clause) == ("C1", "C2", "C3")
    _report(
        9,
        "sufficiency packages certify heights 1 and 2",
        True,
        f"{len(record.certificates)} interval + {len(s_record.certificates)} stabilized members",
    )


def test_criterion_10_appendix_constructions(spectral_source):
    rng = random.Random(3)
    pool = [
        ig.make_problem(ig.interval(0, 1), (ig.polynomial(1), ig.polynomial(0, 1))),
        ig.make_problem(ig.interval(-1, 2), (ig.polynomial(0, 1), ig.polynomial(0, 0, 1))),
        ig.make_problem(ig.interval(0, 3), (ig.polynomial(2), ig.polynomial(0, 1))),
        spectral_source,
        dg.singleton_problem(),
    ]
    verified = 0
    for _ in range(20):
        p0, p1 = rng.choice(pool), rng.choice(pool)
        joined = dg.upper_bound_join(p0, p1)
        met = dg.lower_bound_meet(p0, p1)
        for reduction in (joined.left, joined.right, met.left, met.right):
            report = verify_reduction(reduction, 40, seed=verified)
            assert report.passed and report.max_discrepancy == 0.0
        verified += 1

    for tag in ("cont", "bor"):
        report = dg.counterexample_demo(tag)
        assert report.passed
        assert any(c.name == "structural obstruction" and c.passed for c in report.checks)
        assert report == dg.counterexample_demo(tag)  # deterministic
    id_report = dg.counterexample_demo("id")
    assert id_report.passed and id_report.checks[0].name == "output carriers clash"
    assert id_report == dg.counterexample_demo("id")
    _report(10, "join/meet transports and counterexample demos", True, f"{verified} random pairs")


def test_shipped_catalog_supports_the_suite(default_catalog):
    spectral_entries = default_catalog.problems("spectral_source")
    assert spectral_entries and len(spectral_entries[0].inputs) >= 30
    assert load_catalog().entries  # reloadable from the packaged data file
