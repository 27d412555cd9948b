import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import integration as ig
from sci_workbench.core import DEFAULT_BUDGET, evaluate_tower, run_algorithm
from sci_workbench.errors import BudgetExceeded, DegenerateInterval
from sci_workbench.reductions import verify_reduction

rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestProblems:
    def test_unit_interval_x(self):
        problem = ig.make_problem(ig.interval(0, 1))
        assert problem.target(ig.polynomial(0, 1)) == Fraction(1, 2)

    def test_constant_on_longer_interval(self):
        problem = ig.make_problem(ig.interval(0, 2))
        assert problem.target(ig.polynomial(1)) == 2

    def test_degenerate_target_zero(self):
        problem = ig.make_problem(ig.interval(5, 5))
        for f in problem.inputs:
            assert problem.target(f) == 0

    def test_query_resolution_bounds(self):
        problem = ig.make_problem(ig.interval(0, 1))
        assert ("ev", Fraction(1, 3)) in problem.queries
        assert ("ev", Fraction(3, 2)) not in problem.queries
        assert ("mu", 1, 1) not in problem.queries

    @pytest.mark.parametrize("iv", [ig.interval(5, 5), ig.interval(0, 1), ig.interval(-3, "-1/2")],
                             ids=["degenerate", "unit", "negative"])
    def test_default_functions_are_the_mixed_catalog_in_order(self, iv):
        # the interval-free members are built once; only the bump follows the interval
        expected = [
            ig.polynomial(1),
            ig.polynomial(0, 1),
            ig.polynomial(0, 0, 1),
            ig.polynomial("1/2", "-1/3", 0, "1/4"),
            ig.Sine(1.0, 1.0),
            ig.Sine(0.5, 2.0),
        ]
        if not iv.degenerate:
            expected.append(ig.Bump(iv.a + iv.length / 4, iv.a + 3 * iv.length / 4))
        assert list(ig.default_functions(iv)) == expected
        assert list(ig.make_problem(iv).inputs) == expected


class TestRectangleTower:
    def test_stage_values(self):
        problem = ig.make_problem(ig.interval(0, 1))
        tower = ig.rectangle_tower(ig.interval(0, 1))
        assert evaluate_tower(tower, (4,), problem, ig.polynomial(0, 1)) == Fraction(3, 8)
        assert evaluate_tower(tower, (8,), problem, ig.polynomial(0, 0, 1)) == Fraction(35, 128)

    def test_constants_are_exact_at_every_stage(self):
        iv = ig.interval(-2, 5)
        problem = ig.make_problem(iv)
        tower = ig.rectangle_tower(iv)
        for n in (1, 2, 7, 33):
            assert evaluate_tower(tower, (n,), problem, ig.polynomial(3)) == 21

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInterval):
            ig.rectangle_tower(ig.interval(1, 1))

    def test_grid_nodes_increasing(self):
        nodes = ig.grid_nodes(ig.interval(0, 1), 5)
        assert nodes == tuple(Fraction(j, 5) for j in range(5))
        assert all(a < b for a, b in zip(nodes, nodes[1:]))

    def test_oversized_stage_refused_before_any_query_id(self, monkeypatch):
        built = []
        monkeypatch.setattr(ig, "_grid_ids", lambda a, b, n: built.append(n) or (("ev", a),))
        tower = ig.rectangle_tower(ig.interval(0, 1))
        with pytest.raises(BudgetExceeded):
            tower.stage((DEFAULT_BUDGET + 1,))
        with pytest.raises(BudgetExceeded):
            ig.grid_nodes(ig.interval(0, 1), DEFAULT_BUDGET + 1)
        assert built == []
        tower.stage((DEFAULT_BUDGET,))  # the budget itself is allowed
        ig.grid_nodes(ig.interval(0, 1), DEFAULT_BUDGET)
        assert built == [DEFAULT_BUDGET, DEFAULT_BUDGET]

    def test_a_run_leaves_no_object_behind(self):
        def run(a, b):
            iv = ig.interval(a, b)
            stage = ig.rectangle_tower(iv).stage((4096,))
            value, trace = run_algorithm(stage, ig.make_problem(iv), ig.polynomial(1))
            assert value == iv.length and len(trace) == 4096

        run(0, 1)  # first use of every code path the measured run takes
        gc.collect()
        before = len(gc.get_objects())
        run(Fraction(1, 9973), Fraction(7919, 9973))  # an interval no other test uses
        gc.collect()
        assert abs(len(gc.get_objects()) - before) <= 100
        assert ig._grid_ids.cache_info().currsize == 0

    def test_error_bound_brute_force(self):
        # the derived bound, checked against exact integrals on a dense stage sweep
        iv = ig.interval(0, 2)
        problem = ig.make_problem(iv)
        tower = ig.rectangle_tower(iv)
        for f in (ig.polynomial(0, 1), ig.polynomial(1, -2, 1), ig.Bump(Fraction(1, 2), Fraction(3, 2))):
            exact = f.integral(iv.a, iv.b)
            for n in range(1, 64):
                err = abs(evaluate_tower(tower, (n,), problem, f) - exact)
                assert err <= ig.quadrature_error_bound(f, iv, n)


class TestAdversary:
    @pytest.mark.parametrize(
        "points,u,v",
        [
            ([Fraction(1, 2)], Fraction(1, 8), Fraction(3, 8)),
            ([], Fraction(1, 4), Fraction(3, 4)),
            ([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)], Fraction(1, 16), Fraction(3, 16)),
        ],
    )
    def test_spec_gap_selection(self, points, u, v):
        gadget = ig.adversary_bump(points)
        assert gadget == ig.Bump(u, v)
        assert gadget.integral(gadget.u, gadget.v) == (v - u) / 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(rationals_01, max_size=50))
    def test_soundness_properties(self, points):
        gadget = ig.adversary_bump(points)
        assert 0 < gadget.u < gadget.v < 1
        assert all(gadget.value(p) == 0 for p in points)
        assert gadget.integral(gadget.u, gadget.v) == (gadget.v - gadget.u) / 2 > 0
        assert gadget.integral(Fraction(0), Fraction(1)) == (gadget.v - gadget.u) / 2

    def test_replay_blinds_fixed_protocol(self):
        problem = ig.make_problem(ig.interval(0, 1))
        stage = ig.rectangle_tower(ig.interval(0, 1)).stage((6,))
        zero = ig.polynomial(0)
        _, trace = run_algorithm(stage, problem, zero)
        gadget = ig.adversary_bump([qid[1] for qid in trace.ids])
        out_zero, trace_zero = run_algorithm(stage, problem, zero)
        out_bump, trace_bump = run_algorithm(stage, problem, gadget)
        assert out_zero == out_bump == 0
        assert trace_zero == trace_bump
        assert problem.target(gadget) > 0  # the targets still differ


class TestAffineReduction:
    def test_plan_rule_to_double_interval(self):
        reduction = ig.affine_reduction(ig.make_problem(ig.interval(0, 2)))
        entry = reduction.plan.entry(("ev", Fraction(1)))
        assert entry.source_ids == (("ev", Fraction(1, 2)),)
        assert entry.combine((Fraction(1),)) == Fraction(1, 2)

    def test_plan_rule_shifted_interval(self):
        reduction = ig.affine_reduction(ig.make_problem(ig.interval(-1, 3)))
        entry = reduction.plan.entry(("ev", Fraction(0)))
        assert entry.source_ids == (("ev", Fraction(1, 4)),)
        assert entry.combine((Fraction(1),)) == Fraction(1, 4)

    def test_constant_function_target_relation(self):
        target = ig.make_problem(ig.interval(0, 2))
        reduction = ig.affine_reduction(target)
        encoded = reduction.encoder(ig.polynomial(1))
        assert target.target(encoded) == reduction.source.target(ig.polynomial(1)) == 1

    def test_verifies_on_catalog(self):
        for iv in (ig.interval(0, 2), ig.interval(-1, 3), ig.interval("1/2", "5/2")):
            report = verify_reduction(ig.affine_reduction(ig.make_problem(iv)), 100)
            assert report.passed

    def test_degenerate_target_rejected(self):
        with pytest.raises(DegenerateInterval):
            ig.affine_reduction(ig.make_problem(ig.interval(2, 2)))


class TestDegenerateAlgorithm:
    def test_outputs_zero_with_single_query(self):
        problem = ig.make_problem(ig.interval(5, 5))
        tower = ig.degenerate_algorithm(5)
        for f in (ig.Sine(3.0, 1.0), ig.polynomial(7)):
            value, trace = run_algorithm(tower.stage(()), problem, f)
            assert value == 0
            assert len(trace) == 1

    def test_passes_factorization_check(self):
        from sci_workbench.core import finite_query_factorization

        problem = ig.make_problem(ig.interval(5, 5))
        tower = finite_query_factorization(
            problem, [("ev", Fraction(5))], lambda vals: Fraction(0)
        )
        assert tower.height == 0


class TestClassifyInterval:
    @pytest.mark.parametrize(
        "iv,expected",
        [
            (ig.interval(0, 1), (1, True)),
            (ig.interval(3, 3), (0, False)),
            (ig.interval(-2, 5), (1, True)),
        ],
    )
    def test_examples(self, iv, expected):
        got = ig.classify_interval(iv)
        assert (got.height, got.reduction_available) == expected

    def test_consistent_with_certificate_engine(self):
        from sci_workbench import certificates as ct

        unit = ig.make_problem(ig.interval(0, 1))
        source_cert = ct.recorded_certificate("integration/unit-interval", unit.name)
        reductions, upper_bounds = {}, {}
        for iv in (ig.interval(0, 3), ig.interval(-1, 1)):
            assert ig.classify_interval(iv).reduction_available
            member = ig.make_problem(iv)
            reduction = ig.affine_reduction(member, unit)
            reductions[member.name] = (reduction, verify_reduction(reduction, 40))
            upper_bounds[member.name] = ct.tower_upper_bound(member.name, ig.rectangle_tower(iv))
        _, verdict = ct.sufficiency_package(source_cert, reductions, upper_bounds)
        assert verdict.flags() == (True, True, True)


class TestSine:
    @pytest.mark.parametrize("frequency", [1e-9, 1e-12, 1e-200])
    @pytest.mark.parametrize("a, b", [(0, 1), (-1, 3), ("1/2", "5/2")])
    def test_integral_matches_taylor_value_for_tiny_frequency(self, frequency, a, b):
        a, b = Fraction(a), Fraction(b)
        taylor = 2.0 * frequency * float(b * b - a * a) / 2
        assert ig.Sine(2.0, frequency).integral(a, b) == pytest.approx(taylor, rel=1e-12)

    @pytest.mark.parametrize("frequency", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("amplitude", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a, b", [(0, 1), (0, 2), (-1, 3), ("1/2", "5/2")])
    def test_integral_agrees_with_cosine_difference(self, amplitude, frequency, a, b):
        a, b = Fraction(a), Fraction(b)
        cosines = amplitude * (math.cos(frequency * float(a)) - math.cos(frequency * float(b))) / frequency
        # the cosine difference is itself only accurate to rounding at its terms' scale
        scale = math.ulp(amplitude / frequency)
        assert abs(ig.Sine(amplitude, frequency).integral(a, b) - cosines) <= 4 * scale

    @pytest.mark.parametrize("fields", [(1e308, 1e308), (-1e200, 1e200), (1e300, -1e10)])
    def test_infinite_lipschitz_bound_refused(self, fields):
        with pytest.raises(ValueError, match="Lipschitz"):
            ig.Sine(*fields)

    def test_largest_finite_lipschitz_bound_accepted(self):
        f = ig.Sine(1.7e308, 1.0)
        assert math.isfinite(f.lipschitz(0, 1))

