import math
from fractions import Fraction

import pytest

import sci_workbench
from sci_workbench import integration as ig
from sci_workbench import koopman as kp
from sci_workbench import spectral as sp
from sci_workbench.core import (
    Ask,
    GeneralAlgorithm,
    Interval,
    QueryFamily,
    QueryTrace,
    check_budget,
    check_consistency,
    check_locality,
    constant_algorithm,
    evaluate_tower,
    finite_query_factorization,
    fixed_query_algorithm,
    interval,
    probe_convergence,
    run_algorithm,
)
from sci_workbench.errors import (
    BudgetExceeded,
    FactorizationMismatch,
    IndexArityMismatch,
    ProtocolViolation,
    UnknownQuery,
)
from sci_workbench.reductions import pullback_algorithm


@pytest.fixture
def unit_problem():
    return ig.make_problem(ig.interval(0, 1))


class TestInterval:
    def test_both_families_share_the_one_interval_type(self, spectral_source):
        assert ig.Interval is Interval and ig.interval is interval
        assert spectral_source.params["domain"] == interval(0, 1)

    @pytest.mark.parametrize("build, name", [
        (lambda: sp.source_problem(interval(0, 1), ()).name, "spectral-window[0,1]"),
        (lambda: sp.source_problem(interval("-1/2", 3), ()).queries.name, "spectral-queries[-1/2,3]"),
        (lambda: sp.stabilized_problem(
            interval(0, 1), sp.StabilizerSpec.certify(sp.constant_diagonal(5), interval(0, 1)), ()
        ).name, "stabilized[0,1|const:5]"),
        (lambda: sp.decision_tower(interval(0, 1)).stage((3, 2)).name, "decide[0,1]@(3,2)"),
        (lambda: ig.make_problem(ig.interval("1/2", "5/2")).name, "integration[1/2,5/2]"),
    ], ids=["source", "source-queries", "stabilized", "decide-stage", "integration"])
    def test_names_print_the_interval(self, build, name):
        assert build() == name


class TestQueryTraceShape:
    """A trace holds the run's ids and values; ``steps`` pairs them on demand."""

    @staticmethod
    def twice(run):
        (value, trace), again = run(), run()
        assert trace.steps == tuple(zip(trace.ids, trace.values))
        assert len(trace) == len(trace.ids) == len(trace.values)
        assert again == (value, trace)
        return trace

    def test_package_exports_query_trace(self):
        assert sci_workbench.QueryTrace is QueryTrace

    def test_one_round_run_keeps_its_round_tuples(self, unit_problem):
        stage = ig.rectangle_tower(ig.interval(0, 1)).stage((64,))
        trace = self.twice(lambda: run_algorithm(stage, unit_problem, ig.polynomial(0, 1)))
        assert len(trace) == 64
        assert trace.ids is stage.protocol().send(None).query_ids  # the Ask's own tuple
        assert trace.values == tuple(Fraction(j, 64) for j in range(64))

    def test_adaptive_run_of_many_one_id_rounds(self, unit_problem):
        rounds = 5000

        def walk():
            x = Fraction(0)
            for _ in range(rounds):
                (y,) = yield Ask(("ev", x))
                x = y + Fraction(1, rounds)  # the next point comes from the answer
            return x

        alg = GeneralAlgorithm("walk", walk)
        trace = self.twice(lambda: run_algorithm(alg, unit_problem, ig.polynomial(0, 1)))
        assert len(trace) == rounds
        assert trace.ids == tuple(("ev", Fraction(j, rounds)) for j in range(rounds))
        assert trace.values == tuple(Fraction(j, rounds) for j in range(rounds))

    def test_pulled_back_stage(self, unit_problem):
        iv = ig.interval(0, 2)
        pulled = pullback_algorithm(ig.affine_reduction(ig.make_problem(iv)), ig.rectangle_tower(iv).stage((16,)))
        trace = self.twice(lambda: run_algorithm(pulled, unit_problem, ig.polynomial(0, 1)))
        assert len(trace) == 16
        assert trace.ids == tuple(("ev", Fraction(j, 16)) for j in range(16))


class TestRunAlgorithm:
    def test_constant_protocol(self, unit_problem):
        alg = constant_algorithm("const0", ("ev", Fraction(0)), 0)
        value, trace = run_algorithm(alg, unit_problem, ig.polynomial(3))
        assert value == 0
        assert trace.steps == ((("ev", Fraction(0)), Fraction(3)),)

    def test_rectangle_stage_four_on_x(self, unit_problem):
        tower = ig.rectangle_tower(ig.interval(0, 1))
        value, trace = run_algorithm(tower.stage((4,)), unit_problem, ig.polynomial(0, 1))
        assert value == Fraction(3, 8)
        assert len(trace) == 4
        assert trace.ids == tuple(("ev", Fraction(j, 4)) for j in range(4))

    def test_height0_koopman_identity(self):
        space = kp.uniform_space(1)
        table = kp.MapTable((1,))
        problem = kp.make_problem(space, (table,))
        tower = kp.height0_algorithm(space)
        value, trace = run_algorithm(tower.stage(()), problem, table)
        assert value.points == (1 + 0j,)
        assert len(trace) == 1

    def test_unknown_query(self, unit_problem):
        alg = constant_algorithm("bad", ("ev", Fraction(7)), 0)  # 7 outside [0,1]
        with pytest.raises(UnknownQuery):
            run_algorithm(alg, unit_problem, ig.polynomial(1))

    def test_budget_exceeded(self, unit_problem):
        def loop():
            while True:
                yield Ask(("ev", Fraction(0)))

        alg = GeneralAlgorithm("loop", loop, budget=16)
        with pytest.raises(BudgetExceeded):
            run_algorithm(alg, unit_problem, ig.polynomial(1))

    @pytest.mark.parametrize("count, amount", [
        (10**6 + 1, "1000001"), (10**4300 - 1, "9" * 4300), (10**4300, "about 10^4300"), (15 * 10**9998, "about 10^9999"),
    ], ids=["printable", "at-the-print-limit", "one-digit-more", "far-beyond"])
    def test_budget_message_names_a_count_too_long_to_print_by_its_magnitude(self, count, amount, print_limit):
        with pytest.raises(BudgetExceeded) as refused:
            check_budget("run", count)
        assert str(refused.value) == f"run would need {amount} queries, over the budget of 1000000 queries"

    def test_empty_trace_rejected(self, unit_problem):
        def mute():
            yield from ()
            return 0

        alg = GeneralAlgorithm("mute", mute)
        with pytest.raises(ProtocolViolation):
            run_algorithm(alg, unit_problem, ig.polynomial(1))

    def test_determinism(self, unit_problem):
        tower = ig.rectangle_tower(ig.interval(0, 1))
        f = ig.Sine(1.0, 1.0)
        first = run_algorithm(tower.stage((17,)), unit_problem, f)
        second = run_algorithm(tower.stage((17,)), unit_problem, f)
        assert first == second


class TestLocality:
    def test_bump_invisible_to_avoiding_protocol(self, unit_problem):
        # queries at {0, 1/2, 1}; bump supported inside (0, 1/2) avoiding them
        ids = [("ev", Fraction(0)), ("ev", Fraction(1, 2)), ("ev", Fraction(1))]
        alg = fixed_query_algorithm("probe", ids, lambda vals: sum(vals))
        gadget = ig.adversary_bump([Fraction(0), Fraction(1, 2), Fraction(1)])
        report = check_locality(alg, unit_problem, ig.polynomial(0), gadget)
        assert report.passed and report.premise_holds

    def test_same_input(self, unit_problem):
        alg = constant_algorithm("const", ("ev", Fraction(1, 2)), 1)
        report = check_locality(alg, unit_problem, ig.polynomial(0, 1), ig.polynomial(0, 1))
        assert report.passed

    def test_diagonal_specs_agreeing_on_queried_entries(self, spectral_source):
        domain = spectral_source.params["domain"]
        tower = sp.decision_tower(domain)
        shallow = sp.FiniteThenConstant((Fraction(2), Fraction(2), Fraction(2)), Fraction(2))
        deep = sp.FiniteThenConstant((Fraction(2), Fraction(2), Fraction(2), Fraction(5)), Fraction(5))
        window = sp.Window(Fraction(1), domain)
        report = check_locality(
            tower.stage((2, 3)), spectral_source, (shallow, window), (deep, window)
        )
        assert report.passed and report.premise_holds

    def test_vacuous_when_answers_differ(self, unit_problem):
        alg = constant_algorithm("const", ("ev", Fraction(1, 2)), 1)
        report = check_locality(alg, unit_problem, ig.polynomial(0, 1), ig.polynomial(1))
        assert report.passed and not report.premise_holds

    def test_random_catalog_pairs(self, unit_problem, rng):
        tower = ig.rectangle_tower(ig.interval(0, 1))
        members = unit_problem.inputs.members
        for _ in range(100):
            a, b = rng.choice(members), rng.choice(members)
            n = rng.randrange(1, 9)
            assert check_locality(tower.stage((n,)), unit_problem, a, b).passed


class TestEvaluateTower:
    def test_rectangle_x_squared(self, unit_problem):
        tower = ig.rectangle_tower(ig.interval(0, 1))
        value = evaluate_tower(tower, (8,), unit_problem, ig.polynomial(0, 0, 1))
        assert value == Fraction(35, 128)
        assert float(value) == 0.2734375

    def test_degenerate_height_zero(self):
        problem = ig.make_problem(ig.interval(5, 5))
        tower = ig.degenerate_algorithm(5)
        assert evaluate_tower(tower, (), problem, ig.Sine(2.0, 3.0)) == 0

    def test_spectral_stage(self, spectral_source):
        tower = sp.decision_tower(spectral_source.params["domain"])
        pair = (sp.constant_diagonal(2), sp.Window(Fraction(1), spectral_source.params["domain"]))
        assert evaluate_tower(tower, (3, 5), spectral_source, pair) == 1

    def test_arity_mismatch(self, unit_problem):
        tower = ig.rectangle_tower(ig.interval(0, 1))
        with pytest.raises(IndexArityMismatch):
            evaluate_tower(tower, (2, 2), unit_problem, ig.polynomial(1))


class TestProbeConvergence:
    def test_sine_stabilizes_to_closed_form(self):
        iv = ig.interval(0, 2)
        problem = ig.make_problem(iv)
        tower = ig.rectangle_tower(iv)
        schedule = [2**k for k in range(4, 11)]
        report = probe_convergence(tower, problem, ig.Sine(1.0, 1.0), schedule, 1e-3)
        assert report.stabilized
        assert abs(report.final - (1 - math.cos(2))) < 1e-3

    def test_spectral_inner_zero_when_z_in_closure(self, spectral_source):
        domain = spectral_source.params["domain"]
        tower = sp.decision_tower(domain)
        pair = (sp.RationalEnumeration(Fraction(0), Fraction(1)), sp.Window(Fraction(1, 3), domain))
        report = probe_convergence(
            tower, spectral_source, pair, [[2, 3, 4], [4, 8, 16, 32]], Fraction(1, 2)
        )
        assert report.values == (0, 0, 0)
        assert report.stabilized and report.final == 0

    def test_height0_stabilizes_immediately(self):
        problem = ig.make_problem(ig.interval(0, 0))
        report = probe_convergence(ig.degenerate_algorithm(0), problem, ig.polynomial(7), [1, 2], 1e-9)
        assert report.stabilized and report.final == 0

    def test_non_stabilization_is_reported_not_raised(self):
        iv = ig.interval(0, 1)
        problem = ig.make_problem(iv)
        tower = ig.rectangle_tower(iv)
        report = probe_convergence(tower, problem, ig.polynomial(0, 0, 1), [1, 2], 1e-12)
        assert not report.stabilized


class TestFiniteQueryFactorization:
    def test_two_point_koopman_table(self):
        space = kp.uniform_space(2)
        tables = tuple(kp.MapTable(img) for img in ((1, 1), (1, 2), (2, 1), (2, 2)))
        problem = kp.make_problem(space, tables)
        rows = {
            tuple(t.image): kp.sigma_ap(kp.koopman_matrix(space, t), space.weights)
            for t in tables
        }
        tower = finite_query_factorization(problem, [("ev", 1), ("ev", 2)], rows)
        assert tower.height == 0
        for table in tables:
            got = evaluate_tower(tower, (), problem, table)
            assert kp.hausdorff(got, problem.target(table)) == 0.0

    def test_constant_target_single_query(self):
        problem = ig.make_problem(ig.interval(0, 0), (ig.polynomial(1), ig.polynomial(2)))
        tower = finite_query_factorization(problem, [("ev", Fraction(0))], lambda vals: Fraction(0))
        assert evaluate_tower(tower, (), problem, ig.polynomial(2)) == 0

    def test_mismatch_detected_eagerly(self, unit_problem):
        with pytest.raises(FactorizationMismatch):
            finite_query_factorization(unit_problem, [("ev", Fraction(0))], lambda vals: Fraction(0))


class TestConsistency:
    def test_shipped_catalogs_are_consistent(self, default_catalog):
        for entry in default_catalog.entries:
            report = check_consistency(entry.problem)
            assert report.passed, (entry.problem.name, report.failures)

    def test_inconsistent_problem_detected(self, unit_problem):
        from sci_workbench.core import InputCatalog, OutputSpace, Problem

        broken = Problem(
            name="broken",
            inputs=InputCatalog(("a", "b")),
            output_space=OutputSpace("bit", lambda p, q: 0 if p == q else 1),
            target=lambda x: 0 if x == "a" else 1,
            queries=QueryFamily(
                "blind", lambda qid: (lambda _x: 0) if qid == ("q",) else None,
                canonical_ids=(("q",),),
            ),
        )
        assert not check_consistency(broken).passed
