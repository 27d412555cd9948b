"""The verification hot path against the expressions it replaces.

``reference_verify`` is the sampling loop of ``verify_reduction`` before
equal query answers were settled by equality and before each distinct
(input, id) draw was checked once: it checks every draw in turn, and every
numeric answer pays the gap arithmetic.  ``reference_sampler`` and ``reference_grid_point``
build sampled and canonical point ids as ``a + length * Fraction(j, den)``;
``reference_window_sampler`` and ``reference_join_sampler`` are the window
and padded id samplers as they were before verification drew keys;
and ``reference_approximant`` takes the window floor through a Fraction
product.  Reports are compared through ``repr``, so every field, floats
included, must match bit for bit.  NaN answers are left out: the
reference passes them and ``verify_reduction`` fails them (see
``tests/test_reductions.py``).
"""

import copy
import dataclasses
import math
import random
from fractions import Fraction
from numbers import Number

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import degrees as dg
from sci_workbench import integration as ig
from sci_workbench import spectral as sp
from sci_workbench.core import InputCatalog, OutputSpace, Problem, QueryFamily, check_budget, interval
from sci_workbench.reductions import (
    PlanEntry,
    QueryPlan,
    VerificationReport,
    compose,
    identity_reduction,
    verify_reduction,
)

# --- references: the expressions the hot path replaces --------------------


def _is_exact(value) -> bool:
    if isinstance(value, (bool, int, Fraction)):
        return True
    if isinstance(value, tuple):
        return all(_is_exact(v) for v in value)
    return False


def _mismatch(want, got, gap, tol):
    if _is_exact(want) and _is_exact(got):
        return gap != 0
    return gap > tol


def reference_verify(reduction, sample_count=100, tol=1e-9, *, queries_per_sample=20, seed=0):
    check_budget(f"verify[{reduction.name}]", sample_count * queries_per_sample)
    rng = random.Random(seed)
    source, target = reduction.source, reduction.target
    distance = source.output_space.distance
    target_failures = 0
    query_failures = 0
    max_discrepancy = 0.0

    for _ in range(sample_count):
        a = source.inputs.sample(rng)
        encoded = reduction.encoder(a)
        if not target.inputs.admits(encoded):
            target_failures += 1
            continue

        want = source.target(a)
        got = reduction.decoder.map(target.target(encoded))
        gap = distance(want, got)
        max_discrepancy = max(max_discrepancy, float(gap))
        if _mismatch(want, got, gap, tol):
            target_failures += 1

        for query_id in target.queries.sample_ids(rng, queries_per_sample):
            entry = reduction.plan.rule(query_id)
            if entry is None:
                query_failures += 1
                continue
            want_q = target.queries.resolve(query_id).evaluate(encoded)
            answers = tuple(source.queries.resolve(sid).evaluate(a) for sid in entry.source_ids)
            got_q = entry.combine(answers)
            if isinstance(want_q, Number) and isinstance(got_q, Number):
                gap_q = abs(want_q - got_q)
                max_discrepancy = max(max_discrepancy, float(gap_q))
                if _mismatch(want_q, got_q, gap_q, tol):
                    query_failures += 1
            elif want_q != got_q:
                query_failures += 1

    return VerificationReport(
        samples=sample_count,
        queries_per_sample=queries_per_sample,
        target_failures=target_failures,
        query_failures=query_failures,
        max_discrepancy=max_discrepancy,
        tol=tol,
        seed=seed,
    )


def reference_grid_point(iv, j, den):
    return ("ev", iv.a + iv.length * Fraction(j, den))


def reference_sampler(iv, rng):
    den = rng.choice((8, 16, 32, 64))
    return ("ev", iv.a + iv.length * Fraction(rng.randrange(den + 1), den))


def reference_window_sampler(entry, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return ("rho", rng.randrange(1, 13))
    return entry(rng, kind)


def reference_source_entry(rng, kind):
    if kind == 1:
        return ("mu", rng.randrange(1, 9), rng.randrange(1, 9))
    j = rng.randrange(1, 9)
    return ("mu", j, j)


def reference_stabilized_entry(rng, kind):
    i, j = rng.randrange(1, 7), rng.randrange(1, 7)
    r, s = rng.choice(((1, 1), (2, 2), (1, 2), (2, 1)))
    if kind == 1:
        return ("nu", i, r, i, s)
    return ("nu", i, r, j, s)


def reference_join_sampler(inner_samplers, rng):
    if rng.randrange(8) == 0:
        return ("tag",)
    i = rng.randrange(2)
    return ("pad", i, inner_samplers[i](rng))


def reference_approximant(z, n):
    scale = 2 ** (n + 2)
    return Fraction(math.floor(z * scale), scale)


def same_report(reduction, samples, queries, seed=0):
    got = verify_reduction(reduction, samples, queries_per_sample=queries, seed=seed)
    want = reference_verify(reduction, samples, queries_per_sample=queries, seed=seed)
    assert repr(got) == repr(want)
    return got


# --- strategies -------------------------------------------------------------

ENDPOINT = st.fractions(min_value=-8, max_value=8, max_denominator=48)


@st.composite
def intervals(draw):
    a = draw(ENDPOINT)
    width = draw(st.fractions(min_value=Fraction(1, 36), max_value=8, max_denominator=36))
    return ig.interval(a, a + width)


# --- verify_reduction -------------------------------------------------------


class TestVerifyEqualsReference:
    @settings(max_examples=25, deadline=None)
    @given(intervals(), intervals(), st.integers(0, 2**16))
    def test_generated_affine_reductions(self, s, t, seed):
        reduction = ig.affine_reduction(ig.make_problem(t), ig.make_problem(s))
        assert same_report(reduction, 6, 6, seed).passed

    @settings(max_examples=10, deadline=None)
    @given(st.lists(intervals(), min_size=3, max_size=5), st.integers(0, 2**16))
    def test_compose_chains_of_length_2_to_4(self, ivs, seed):
        problems = [ig.make_problem(iv) for iv in ivs]
        chain = ig.affine_reduction(problems[1], problems[0])
        for lo, hi in zip(problems[1:], problems[2:]):
            chain = compose(chain, ig.affine_reduction(hi, lo))
        assert same_report(chain, 5, 6, seed).passed

    def test_both_stabilization_reductions(self, spectral_source):
        domain = spectral_source.params["domain"]
        stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
        for reduction in sp.stabilization_reductions(
            domain, stabilizer, spectral_source.inputs.members, source=spectral_source
        ):
            assert same_report(reduction, 20, 20).passed

    def test_identity_of_every_catalog_entry(self, default_catalog):
        for entry in default_catalog.entries:
            samples = min(10, 2 * len(entry.problem.inputs))
            assert same_report(identity_reduction(entry.problem), samples, 10).passed, entry.problem.name

    @pytest.mark.parametrize("off", [Fraction(1, 3), 1e-12, 1e-6], ids=["third", "1e-12", "1e-6"])
    def test_wrong_combiners(self, off):
        # sine inputs give float answers, polynomial inputs exact ones
        good = ig.affine_reduction(ig.make_problem(ig.interval(0, 2)))

        def shifted(qid):
            entry = good.plan.rule(qid)
            return PlanEntry(entry.source_ids, lambda vals, _e=entry: _e.combine(vals) + off)

        bad = dataclasses.replace(good, plan=QueryPlan("off", shifted))
        report = same_report(bad, 10, 8)
        assert report.passed == (off == 1e-12)  # within tol = 1e-9 only the 1e-12 float shift

    def test_tuple_valued_mismatch(self):
        # answers are pairs (k, k + input + 1); the combiner swaps them
        problem = Problem(
            name="pairs",
            inputs=InputCatalog(range(5)),
            output_space=OutputSpace("integers", lambda p, q: abs(p - q)),
            target=lambda a: a,
            queries=QueryFamily(
                "pair-queries",
                lambda qid: (lambda a, _k=qid[1]: (_k, _k + a + 1)) if qid[0] == "pair" else None,
                canonical_ids=tuple(("pair", k) for k in range(1, 4)),
            ),
        )
        assert same_report(identity_reduction(problem), 10, 4).passed
        swapped = QueryPlan("swap", lambda qid: PlanEntry((qid,), lambda vals: vals[0][::-1]))
        bad = dataclasses.replace(identity_reduction(problem), plan=swapped)
        assert same_report(bad, 10, 4).query_failures == 40


class TestDistinctDrawsEqualReference:
    """Verification checks each distinct (input, id) once and counts it per draw."""

    def test_200_samples_over_the_default_functions(self):
        reduction = ig.affine_reduction(ig.make_problem(ig.interval(0, 2)))
        assert same_report(reduction, 200, 20, seed=5).passed

    def test_stabilization_pair(self, spectral_source):
        domain = spectral_source.params["domain"]
        stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(3), domain)
        for reduction in sp.stabilization_reductions(
            domain, stabilizer, spectral_source.inputs.members, source=spectral_source
        ):
            assert same_report(reduction, 60, 20, seed=2).passed

    def test_both_join_sides(self, spectral_source):
        p0 = ig.make_problem(ig.interval(-1, 2), (ig.polynomial(0, 1), ig.polynomial(2)))
        joined = dg.upper_bound_join(p0, spectral_source)
        for reduction in (joined.left, joined.right):
            assert same_report(reduction, 40, 20, seed=1).passed

    def test_both_meet_sides(self, spectral_source):
        p0 = ig.make_problem(ig.interval(-1, 2), (ig.polynomial(0, 1), ig.polynomial(2)))
        met = dg.lower_bound_meet(p0, spectral_source)
        for reduction in (met.left, met.right):
            assert same_report(reduction, 40, 20, seed=1).passed

    def test_fresh_equal_inputs_are_checked_one_by_one(self):
        problem = ig.make_problem(ig.interval(0, 1), (ig.polynomial(0, 1), ig.Sine(1.0, 1.0)))
        fresh = InputCatalog(
            problem.inputs.members,
            admits=problem.inputs.admits,
            sampler=lambda rng: copy.copy(rng.choice(problem.inputs.members)),
        )
        reduction, calls = counted(ig.affine_reduction(
            ig.make_problem(ig.interval(0, 2)), dataclasses.replace(problem, inputs=fresh)
        ))
        report = verify_reduction(reduction, 30, queries_per_sample=10)
        # every draw is a new object, so each is encoded and checked on its own
        assert sorted(step for step, _ in calls) == ["encoder"] * 30 + ["source.target"] * 30
        assert len({key for _, key in calls}) == 30
        assert report.passed
        assert repr(report) == repr(reference_verify(reduction, 30, queries_per_sample=10))

    def test_encoder_and_target_run_once_per_distinct_input(self):
        reduction, calls = counted(ig.affine_reduction(ig.make_problem(ig.interval(0, 2))))
        report = verify_reduction(reduction, 50, queries_per_sample=5, seed=4)
        assert report.passed
        rng = random.Random(4)
        distinct = set()
        for _ in range(50):
            distinct.add(id(reduction.source.inputs.sample(rng)))
            reduction.target.queries.sample_ids(rng, 5)
        assert len(distinct) < 50
        assert sorted(calls) == sorted(
            (step, key) for key in distinct for step in ("encoder", "source.target")
        )

    def test_a_combiner_wrong_on_one_id_fails_once_per_draw(self):
        good = ig.affine_reduction(ig.make_problem(ig.interval(0, 2)))
        one = ("ev", Fraction(1))

        def off_at_one(qid):
            entry = good.plan.rule(qid)
            if qid != one:
                return entry
            return PlanEntry(entry.source_ids, lambda vals, _e=entry: _e.combine(vals) + 1)

        bad = dataclasses.replace(good, plan=QueryPlan("off-at-one", off_at_one))
        rng = random.Random(7)
        draws = 0
        for _ in range(40):
            good.source.inputs.sample(rng)
            draws += good.target.queries.sample_ids(rng, 10).count(one)
        report = same_report(bad, 40, 10, seed=7)
        assert report.target_failures == 0
        assert report.query_failures == draws > 40 / 7  # the inputs repeat, and so does the id


def counted(reduction):
    """``reduction`` with its encoder and source target recording (step, id(input)) per call."""
    calls = []

    def encoder(a, _encode=reduction.encoder):
        calls.append(("encoder", id(a)))
        return _encode(a)

    def target(a, _target=reduction.source.target):
        calls.append(("source.target", id(a)))
        return _target(a)

    source = dataclasses.replace(reduction.source, target=target)
    return dataclasses.replace(reduction, source=source, encoder=encoder), calls


# --- sampled, canonical and separator ids ------------------------------------


class TestGridIdsEqualReference:
    @settings(max_examples=60, deadline=None)
    @given(intervals(), st.integers(0, 2**32))
    def test_sampler_same_ids_and_rng_state(self, iv, seed):
        queries = ig.make_problem(iv).queries
        rng, ref = random.Random(seed), random.Random(seed)
        got = queries.sample_ids(rng, 40)
        want = [reference_sampler(iv, ref) for _ in range(40)]
        assert [(x, type(x[1])) for x in got] == [(x, type(x[1])) for x in want]
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=15, deadline=None)
    @given(intervals())
    def test_canonical_and_separator_ids(self, iv):
        queries = ig.make_problem(iv).queries
        assert queries.canonical_ids == tuple(reference_grid_point(iv, j, 8) for j in range(9))
        f = ig.polynomial(1)
        want = [reference_grid_point(iv, num, den) for den in range(1, 65) for num in range(den + 1)]
        assert list(queries.separator_ids(f, f)) == want

    def test_degenerate_interval_keeps_its_one_id(self):
        iv = ig.interval(Fraction(-3, 7), Fraction(-3, 7))
        assert ig.make_problem(iv).queries.canonical_ids == (("ev", Fraction(-3, 7)),)


def window_families(spectral_source):
    """The source and stabilized window problems, each with its reference sampler."""
    domain = spectral_source.params["domain"]
    pairs = spectral_source.inputs.members
    stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
    return (
        (sp.source_problem(domain, pairs),
         lambda rng: reference_window_sampler(reference_source_entry, rng)),
        (sp.stabilized_problem(domain, stabilizer, pairs),
         lambda rng: reference_window_sampler(reference_stabilized_entry, rng)),
    )


def integration_family(iv):
    """An integration problem with its reference sampler (one canonical draw if degenerate)."""
    problem = ig.make_problem(iv)
    if iv.degenerate:
        return problem, lambda rng: rng.choice(problem.queries.canonical_ids)
    return problem, lambda rng: reference_sampler(iv, rng)


class TestDrawKeys:
    """Every family draws keys; ``sample_ids`` is their id view, with the rng calls of the id samplers."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32))
    def test_window_families_same_ids_and_rng_state(self, spectral_source, seed):
        for problem, reference in window_families(spectral_source):
            rng, ref = random.Random(seed), random.Random(seed)
            assert problem.queries.sample_ids(rng, 40) == [reference(ref) for _ in range(40)]
            assert rng.getstate() == ref.getstate()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), intervals(), ENDPOINT, st.integers(0, 2**32))
    def test_padded_family_same_ids_and_rng_state(self, spectral_source, left, right, iv, point, seed):
        families = (
            integration_family(iv),
            integration_family(ig.interval(point, point)),
            *window_families(spectral_source),
        )
        (p0, draw0), (p1, draw1) = families[left], families[right]
        join = dg.upper_bound_join(p0, p1).problem
        rng, ref = random.Random(seed), random.Random(seed)
        got = join.queries.sample_ids(rng, 40)
        want = [reference_join_sampler((draw0, draw1), ref) for _ in range(40)]
        assert list(map(repr, got)) == list(map(repr, want))  # Fraction coordinates stay Fractions
        assert rng.getstate() == ref.getstate()

    def test_integration_keys_are_grid_indices_shared_by_equal_points(self):
        queries = ig.make_problem(ig.interval(-1, 2)).queries
        keys = queries.sample_keys(random.Random(3), 400)
        assert all(type(k) is int and 0 <= k <= 64 for k in keys)
        ids = [queries.key_id(k) for k in keys]
        assert ids == queries.sample_ids(random.Random(3), 400)
        assert len(set(keys)) == len(set(ids))

    def test_each_distinct_key_becomes_an_id_once_per_verification(self, monkeypatch):
        target = ig.make_problem(ig.interval(0, 2))
        reduction = ig.affine_reduction(target)
        key_id, mapped = target.queries.key_id, []

        def counted(key):
            mapped.append(key)
            return key_id(key)

        def no_id_per_draw(*args):
            raise AssertionError("an id was built per draw")

        monkeypatch.setattr(target.queries, "key_id", counted)
        monkeypatch.setattr(QueryFamily, "sample_ids", no_id_per_draw)
        report = verify_reduction(reduction, 200, queries_per_sample=20, seed=3)
        assert report.passed
        rng, drawn = random.Random(3), set()
        for _ in range(200):
            reduction.source.inputs.sample(rng)
            drawn.update(target.queries.sample_keys(rng, 20))
        # 4000 draws, at most 65 points on the 1/64 grid, each id built once
        assert sorted(mapped) == sorted(drawn) and len(drawn) <= 65


# --- window approximant -------------------------------------------------------


WIDE = interval(-(10**6), 10**6)


class TestWindowApproximantEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**30),
            st.fractions(min_value=-1, max_value=1, max_denominator=97),
            st.integers(-(10**6), 10**6).map(Fraction),
        ),
        st.integers(1, 60),
    )
    def test_equals_reference(self, z, n):
        got = sp.window_approximant(sp.Window(z, WIDE), n)
        assert got.value == reference_approximant(z, n)
        assert type(got.value) is Fraction

    @pytest.mark.parametrize("z", [Fraction(0), Fraction(-1, 3), Fraction(-5, 8), Fraction(-1, 10**40),
                                   Fraction(10**40 - 1, 10**40), Fraction(-(2**70) - 1, 2**70)])
    @pytest.mark.parametrize("n", [1, 2, 30, 60])
    def test_edge_values(self, z, n):
        assert sp.window_approximant(sp.Window(z, WIDE), n).value == reference_approximant(z, n)
