import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import spectral as sp
from sci_workbench.core import DEFAULT_BUDGET, evaluate_tower, interval
from sci_workbench.errors import BudgetExceeded, UncertifiedStabilizer, UnsupportedKind, WindowOutsideDomain
from sci_workbench.reductions import compose, verify_reduction

J = interval(0, 1)
SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


class NoPower(int):
    """An index whose power of two, or any sum on the way to one, fails instead of being built."""

    def __add__(self, other):
        raise AssertionError("power built")

    def __rpow__(self, other):
        raise AssertionError("power built")


class NoScan(Fraction):
    """An interval end whose multiples, which the enumeration scan forms, fail instead of being built."""

    def __mul__(self, other):
        raise AssertionError("scan started")


class TestWindowApproximant:
    def test_one_third(self):
        approx = sp.window_approximant(sp.Window(Fraction(1, 3), J), 1)
        assert approx.value == Fraction(1, 4)
        assert abs(approx.value - Fraction(1, 3)) == Fraction(1, 12) < Fraction(1, 8)

    def test_dyadic_fixed_points(self):
        assert sp.window_approximant(sp.Window(Fraction(1, 2), J), 1).value == Fraction(1, 2)
        assert sp.window_approximant(sp.Window(Fraction(3, 4), J), 2).value == Fraction(3, 4)

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=997),
        st.integers(min_value=1, max_value=20),
    )
    def test_dyadic_bound_strict(self, z, n):
        approx = sp.window_approximant(sp.Window(z, J), n)
        assert abs(approx.value - z) < Fraction(1, 2 ** (n + 2))

    def test_index_over_the_budget_is_refused_before_the_power(self):
        with pytest.raises(BudgetExceeded, match=r"window-approximant would need 1000001 dyadic bits"):
            sp.window_approximant(sp.Window(Fraction(1, 3), J), DEFAULT_BUDGET + 1)
        with pytest.raises(BudgetExceeded):  # 2^(10^12) would not fit in memory
            sp.window_approximant(sp.Window(Fraction(1, 3), J), NoPower(10**12))
        with pytest.raises(AssertionError, match="power built"):  # the budget itself is allowed
            sp.window_approximant(sp.Window(Fraction(1, 3), J), NoPower(DEFAULT_BUDGET))

    def test_window_outside_domain(self):
        with pytest.raises(WindowOutsideDomain):
            sp.Window(Fraction(2), J)

    @pytest.mark.parametrize("z", [Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1, 2**40 + 1), Fraction(1)])
    def test_rho_answers_equal_the_approximant(self, z):
        window = sp.Window(z, J)
        problem = sp.source_problem(J, ((sp.constant_diagonal(2), window),))
        ids = [("rho", n) for n in range(1, 65)]
        expected = tuple(sp.window_approximant(window, n).value for n in range(1, 65))
        assert tuple(sp._approximant_value(window, n) for n in range(1, 65)) == expected
        assert problem.queries.answer(ids, problem.inputs.members[0]) == expected

    def test_rho_over_the_budget_is_a_member_refused_when_answered(self):
        problem = sp.source_problem(J, ((sp.constant_diagonal(2), sp.Window(Fraction(1, 3), J)),))
        assert ("rho", DEFAULT_BUDGET + 1) in problem.queries
        with pytest.raises(BudgetExceeded, match=r"window-approximant would need 1000001 dyadic bits"):
            problem.queries.answer([("rho", DEFAULT_BUDGET + 1)], problem.inputs.members[0])


class TestExactOracle:
    def test_finite_list_hit(self):
        spec = sp.FiniteThenConstant((Fraction(1), Fraction(2), Fraction(3)), Fraction(3))
        wide = interval(0, 3)
        assert sp.exact_decision_oracle(spec, sp.Window(Fraction(2), wide)) == 0
        assert sp.exact_decision_oracle(spec, sp.Window(Fraction(5, 2), wide)) == 1

    def test_enumeration_distances(self):
        spec = sp.RationalEnumeration(Fraction(0), Fraction(1))
        assert sp.exact_decision_oracle(spec, sp.Window(Fraction(2), interval(0, 2))) == 1
        assert sp.exact_decision_oracle(spec, sp.Window(Fraction(1, 3), J)) == 0

    def test_harmonic_distances(self):
        spec = sp.HarmonicSequence(Fraction(1, 2), Fraction(1, 2))
        assert spec.spectrum_distance(Fraction(1, 2)) == 0  # the limit point
        assert spec.spectrum_distance(Fraction(3, 4)) == 0  # d_2
        assert spec.spectrum_distance(Fraction(5, 6)) == Fraction(1, 12)
        assert spec.spectrum_distance(Fraction(0)) == Fraction(1, 2)

    def test_harmonic_negative_coefficient(self):
        spec = sp.HarmonicSequence(Fraction(3, 4), Fraction(-1, 4))
        assert spec.spectrum_distance(Fraction(1, 2)) == 0  # d_1
        assert spec.spectrum_distance(Fraction(7, 12)) == Fraction(1, 24)

    @settings(max_examples=120, deadline=None)
    @given(
        st.fractions(min_value=-2, max_value=2, max_denominator=40),
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        st.fractions(min_value=-2, max_value=2, max_denominator=12).filter(lambda c: c != 0),
    )
    def test_harmonic_distance_matches_brute_force(self, z, base, coef):
        spec = sp.HarmonicSequence(base, coef)
        # past the bracketing index the entries only approach the limit point,
        # so a finite scan plus |z - base| is the exact distance
        horizon = 64
        if z != base:
            t = coef / (z - base)
            if t >= 1:
                horizon = max(horizon, math.ceil(t) + 2)
        brute = min(
            min(abs(z - spec.entry(j)) for j in range(1, horizon + 1)),
            abs(z - base),
        )
        assert spec.spectrum_distance(z) == brute

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["list", "harmonic", "enum"]), SMALL_FRACTIONS, SMALL_FRACTIONS)
    def test_in_spectrum_is_distance_zero(self, data, kind, x, y):
        if kind == "list":
            spec = sp.FiniteThenConstant((x, y, x + 1), y - 1)
        elif kind == "harmonic":
            spec = sp.HarmonicSequence(x, y or Fraction(1, 3))
        else:
            spec = sp.RationalEnumeration(min(x, y), max(x, y) + Fraction(1, 7))
        # entries, the limit points and ends, nearby points and integers
        near = [spec.entry(j) for j in (1, 2, 3, 7, 40)] + [x, y, x + y, min(x, y) - 1]
        z = data.draw(st.one_of(st.sampled_from(near), SMALL_FRACTIONS, st.integers(-3, 3)))
        assert spec.in_spectrum(z) == (spec.spectrum_distance(z) == 0)
        window = sp.Window(Fraction(z), interval(-10, 10))
        assert sp.exact_decision_oracle(spec, window) == (1 if spec.spectrum_distance(window.z) > 0 else 0)

    def test_enumeration_entries_are_dense_prefix(self):
        spec = sp.RationalEnumeration(Fraction(0), Fraction(1))
        entries = [spec.entry(j) for j in range(1, 8)]
        assert entries[:2] == [Fraction(0), Fraction(1)]
        assert Fraction(1, 2) in entries

    @settings(max_examples=25, deadline=None)
    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
    )
    def test_enumeration_entries_equal_a_direct_scan(self, lo, width):
        hi = lo + width

        def direct():
            for q in itertools.count(1):
                for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
                    yield Fraction(p, q)

        spec = sp.RationalEnumeration(lo, hi)
        sp._rational_block.cache_clear()
        assert [spec.entry(j) for j in range(1, 4097)] == list(itertools.islice(direct(), 4096))
        assert sp._rational_block.cache_info().misses <= 13  # one per power-of-two block

    def test_narrow_enumeration_is_refused_before_the_scan(self):
        lo = NoScan(1, 10**9)
        spec = sp.RationalEnumeration(lo, lo + Fraction(1, 10**9))
        before = sp._rational_block.cache_info().currsize
        with pytest.raises(BudgetExceeded, match=r"would need 1000000000 denominators"):
            spec.entry(2)
        assert sp._rational_block.cache_info().currsize == before

    def test_wide_enumeration_is_not_refused_for_a_large_block(self):
        # entry 2^19 + 1 asks for a block of 2^20 terms, over DEFAULT_BUDGET; the scan starts all the same
        spec = sp.RationalEnumeration(NoScan(0), NoScan(1))
        with pytest.raises(AssertionError, match="scan started"):
            spec.entry(2**19 + 1)

    def test_narrow_enumeration_within_the_budget_is_scanned(self):
        spec = sp.RationalEnumeration(Fraction(1, 1000), Fraction(2, 1000))
        # denominators 1..499 miss the interval, and each of the next ones adds 1/q
        assert [spec.entry(j) for j in range(1, 5)] == [Fraction(1, q) for q in range(500, 504)]

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedKind):
            sp.exact_decision_oracle("not a spec", sp.Window(Fraction(0), J))


class TestSourceProblem:
    def test_targets(self, spectral_source):
        dom = spectral_source.params["domain"]
        assert spectral_source.target((sp.constant_diagonal(2), sp.Window(Fraction(1), dom))) == 1
        enum = sp.RationalEnumeration(Fraction(0), Fraction(1))
        assert spectral_source.target((enum, sp.Window(Fraction(1, 3), dom))) == 0

    def test_off_diagonal_entries_zero(self, spectral_source):
        query = spectral_source.queries.resolve(("mu", 1, 2))
        for pair in spectral_source.inputs.members[:5]:
            assert query.evaluate(pair) == 0

    def test_catalog_size(self, spectral_source):
        assert len(spectral_source.inputs) >= 30


class TestDecisionTower:
    def test_positive_gap_stage(self, spectral_source):
        dom = spectral_source.params["domain"]
        tower = sp.decision_tower(dom)
        pair = (sp.constant_diagonal(2), sp.Window(Fraction(1), dom))
        assert evaluate_tower(tower, (1, 1), spectral_source, pair) == 1

    def test_zero_gap_goes_to_zero(self, spectral_source):
        dom = spectral_source.params["domain"]
        tower = sp.decision_tower(dom)
        spec = sp.HarmonicSequence(Fraction(1, 2), Fraction(1, 2))
        pair = (spec, sp.Window(Fraction(1, 2), dom))
        for n2 in (1, 2, 3, 4):
            n1 = sp.stabilization_stages(spec, pair[1])[1]
            assert evaluate_tower(tower, (n2, max(n1, 2 ** (n2 + 2))), spectral_source, pair) == 0

    def test_inner_value_nonincreasing_in_n1(self, spectral_source):
        dom = spectral_source.params["domain"]
        tower = sp.decision_tower(dom)
        for pair in spectral_source.inputs.members[:12]:
            previous = 1
            for n1 in (1, 2, 4, 8, 16):
                value = evaluate_tower(tower, (3, n1), spectral_source, pair)
                assert value <= previous
                previous = value

    def test_oversized_stage_refused_before_any_query_id(self, monkeypatch):
        def no_algorithm(*args):
            raise AssertionError("query ids built")

        monkeypatch.setattr(sp, "fixed_query_algorithm", no_algorithm)
        tower = sp.decision_tower(J)
        with pytest.raises(BudgetExceeded):  # rho plus 10^6 entries
            tower.stage((1, DEFAULT_BUDGET))
        with pytest.raises(AssertionError, match="query ids built"):
            tower.stage((1, 8))

    def test_n2_over_the_budget_is_refused_before_the_threshold(self, monkeypatch):
        def no_algorithm(*args):
            raise AssertionError("query ids built")

        monkeypatch.setattr(sp, "fixed_query_algorithm", no_algorithm)
        tower = sp.decision_tower(J)
        with pytest.raises(BudgetExceeded, match=r"would need 1000000000000 dyadic bits"):
            tower.stage((NoPower(10**12), 1))
        with pytest.raises(AssertionError, match="power built"):
            tower.stage((NoPower(DEFAULT_BUDGET), 1))

    def test_oracle_agreement_at_derived_stages(self, spectral_source):
        tower = sp.decision_tower(spectral_source.params["domain"])
        for pair in spectral_source.inputs.members:
            stages = sp.stabilization_stages(*pair)
            assert evaluate_tower(tower, stages, spectral_source, pair) == spectral_source.target(pair)


class TestStabilization:
    @pytest.fixture
    def stabilizer(self):
        return sp.StabilizerSpec.certify(sp.constant_diagonal(5), J)

    def test_certification_margin(self, stabilizer):
        assert stabilizer.margin == 4

    def test_uncertifiable_stabilizer(self):
        with pytest.raises(UncertifiedStabilizer):
            sp.StabilizerSpec.certify(sp.constant_diagonal(Fraction(1, 2)), J)
        with pytest.raises(UncertifiedStabilizer):
            sp.StabilizerSpec.certify(sp.RationalEnumeration(Fraction(0), Fraction(2)), J)
        # a margin handed to the constructor meets the one check, with the message certify gives
        with pytest.raises(UncertifiedStabilizer, match=r"^cannot certify spectrum of const:5 away from \[0,1\]$"):
            sp.StabilizerSpec(sp.constant_diagonal(5), J, Fraction(0))

    def test_stabilized_targets(self, stabilizer):
        pairs = (
            (sp.constant_diagonal(2), sp.Window(Fraction(1), J)),
            (sp.RationalEnumeration(Fraction(0), Fraction(1)), sp.Window(Fraction(1, 2), J)),
        )
        problem = sp.stabilized_problem(J, stabilizer, pairs)
        block_a, block_b = problem.inputs.members
        assert problem.target(block_a) == 1
        assert problem.target(block_b) == 0

    def test_mixed_block_entries_zero(self, stabilizer):
        pairs = ((sp.constant_diagonal(2), sp.Window(Fraction(1), J)),)
        problem = sp.stabilized_problem(J, stabilizer, pairs)
        query = problem.queries.resolve(("nu", 1, 1, 1, 2))
        assert query.evaluate(problem.inputs.members[0]) == 0
        query = problem.queries.resolve(("nu", 3, 2, 3, 2))
        assert query.evaluate(problem.inputs.members[0]) == 5  # the fixed block's entry

    def test_nu_members_are_four_int_indices(self, stabilizer):
        problem = sp.stabilized_problem(J, stabilizer, ((sp.constant_diagonal(2), sp.Window(Fraction(1), J)),))
        values = (-1, 0, 1, 2, 3, True, False, 1.0, Fraction(1), "1", None)

        def member(qid):  # the rule as a predicate: four ints (bools among them), i, j >= 1, r, s in {1, 2}
            _, i, r, j, s = qid
            return all(isinstance(k, int) for k in qid[1:]) and i >= 1 and j >= 1 and r in (1, 2) and s in (1, 2)

        for i, r, j, s in itertools.product(values, repeat=4):
            qid = ("nu", i, r, j, s)
            assert (qid in problem.queries) == member(qid), qid
        assert ("nu", True, True, 1, 2) in problem.queries
        for qid in (("nu", 1, 1, 1), ("nu", 1, 1, 1, 1, 1), ("mu", 1, 1, 1, 1), ("nu",), ()):
            assert qid not in problem.queries

    def test_union_invariance_over_catalog(self, spectral_source, stabilizer):
        pairs = spectral_source.inputs.members
        problem = sp.stabilized_problem(J, stabilizer, pairs)
        for pair, block_pair in zip(pairs, problem.inputs.members):
            assert spectral_source.target(pair) == problem.target(block_pair)

    def test_reductions_verify_exactly(self, spectral_source, stabilizer):
        pairs = spectral_source.inputs.members
        forward, backward = sp.stabilization_reductions(
            J, stabilizer, pairs, source=spectral_source
        )
        for reduction in (forward, backward):
            report = verify_reduction(reduction, 100)
            assert report.passed and report.max_discrepancy == 0.0

    def test_round_trip_encoder_and_width(self, spectral_source, stabilizer):
        pairs = spectral_source.inputs.members
        forward, backward = sp.stabilization_reductions(
            J, stabilizer, pairs, source=spectral_source
        )
        for pair in pairs:
            assert backward.encoder(forward.encoder(pair)) == pair
        src_loop = compose(forward, backward)
        assert verify_reduction(src_loop, 60).passed
        assert src_loop.plan.entry(("mu", 2, 2)).width == 1
        stab_loop = compose(backward, forward)
        assert verify_reduction(stab_loop, 60).passed
        assert stab_loop.plan.entry(("nu", 1, 1, 1, 1)).width == 1
