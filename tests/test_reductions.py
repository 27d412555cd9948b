import dataclasses
import functools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import integration as ig
from sci_workbench import spectral as sp
from sci_workbench.core import (
    DEFAULT_BUDGET,
    Ask,
    GeneralAlgorithm,
    InputCatalog,
    OutputSpace,
    Problem,
    QueryFamily,
    check_locality,
    evaluate_tower,
    interval,
    run_algorithm,
)
from sci_workbench.errors import (
    BudgetExceeded,
    EmptyInputClass,
    PlanGap,
    ProblemMismatch,
    ProtocolViolation,
    TagIncompatible,
)
from sci_workbench.reductions import (
    Decoder,
    DecoderClass,
    PlanEntry,
    QueryPlan,
    Reduction,
    _blockwise,
    compose,
    decoder_compose_class,
    identity_reduction,
    pullback_algorithm,
    pullback_tower,
    structural_feasibility,
    verify_reduction,
)


def _pair_problem() -> Problem:
    """Inputs 0..4 answering query ("pair", k) with the tuple (k, k + input + 1)."""
    return Problem(
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


@pytest.fixture
def unit_problem():
    return ig.make_problem(ig.interval(0, 1))


@pytest.fixture
def chain():
    return tuple(ig.make_problem(ig.interval(0, 2**k)) for k in range(3))  # [0,1],[0,2],[0,4]


class TestIdentity:
    def test_verifies_with_zero_discrepancy(self, unit_problem):
        report = verify_reduction(identity_reduction(unit_problem))
        assert report.passed and report.max_discrepancy == 0.0

    def test_identity_on_spectral_source(self, spectral_source):
        report = verify_reduction(identity_reduction(spectral_source))
        assert report.passed and report.max_discrepancy == 0.0

    def test_identity_on_every_shipped_problem(self, default_catalog):
        for entry in default_catalog.entries:
            samples = min(20, 2 * len(entry.problem.inputs))
            report = verify_reduction(identity_reduction(entry.problem), samples)
            assert report.passed, entry.problem.name

    def test_unit_law_pointwise(self, chain):
        affine = ig.affine_reduction(chain[1], chain[0])
        composed = compose(identity_reduction(chain[0]), affine)
        f = ig.polynomial(0, 1)
        assert composed.encoder(f) == affine.encoder(f)
        qid = ("ev", Fraction(3, 2))
        assert composed.plan.entry(qid).source_ids == affine.plan.entry(qid).source_ids
        assert composed.plan.entry(qid).combine((Fraction(1),)) == affine.plan.entry(qid).combine(
            (Fraction(1),)
        )


class TestCompose:
    def test_affine_chain_plan(self, chain):
        r1 = ig.affine_reduction(chain[1], chain[0])
        r2 = ig.affine_reduction(chain[2], chain[1])
        composed = compose(r1, r2)
        entry = composed.plan.entry(("ev", Fraction(1)))
        assert entry.source_ids == (("ev", Fraction(1, 4)),)
        assert entry.combine((Fraction(1),)) == Fraction(1, 4)
        assert verify_reduction(composed).passed

    def test_width_law_blockwise_sum(self, chain):
        r1 = ig.affine_reduction(chain[1], chain[0])
        r2 = ig.affine_reduction(chain[2], chain[1])
        composed = compose(r1, r2)
        for x in (Fraction(0), Fraction(1), Fraction(7, 2)):
            outer = r2.plan.entry(("ev", x))
            total = sum(r1.plan.entry(mid).width for mid in outer.source_ids)
            assert composed.plan.entry(("ev", x)).width == total == 1

    def test_width_law_with_wider_blocks(self, chain):
        # same affine simulation, but each query is answered twice and averaged
        base = ig.affine_reduction(chain[1], chain[0])

        def doubled_rule(qid):
            entry = base.plan.rule(qid)
            if entry is None:
                return None
            sid = entry.source_ids[0]
            return PlanEntry(
                (sid, sid), lambda vals, _e=entry: _e.combine(((vals[0] + vals[1]) / 2,))
            )

        doubled = Reduction(
            "doubled-affine", base.source, base.target, base.encoder, base.decoder,
            QueryPlan("doubled", doubled_rule),
        )
        assert verify_reduction(doubled).passed
        composed = compose(doubled, ig.affine_reduction(chain[2], chain[1]))
        entry = composed.plan.entry(("ev", Fraction(2)))
        assert entry.width == 2
        assert verify_reduction(composed).passed

    def test_problem_mismatch(self, chain):
        r1 = ig.affine_reduction(chain[1], chain[0])
        with pytest.raises(ProblemMismatch):
            compose(r1, r1)

    def test_transitivity_on_samples(self, chain):
        r1 = ig.affine_reduction(chain[1], chain[0])
        r2 = ig.affine_reduction(chain[2], chain[1])
        assert verify_reduction(r1).passed
        assert verify_reduction(r2).passed
        assert verify_reduction(compose(r1, r2)).passed


class TestVerify:
    def test_inadmissible_encoding_is_a_target_failure(self, spectral_source):
        domain = spectral_source.params["domain"]
        stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
        forward, _ = sp.stabilization_reductions(
            domain, stabilizer, spectral_source.inputs.members, source=spectral_source
        )
        assert verify_reduction(forward, 20).passed
        # same entries, but a stabilizer certified against [0, 2]: not a target input
        elsewhere = sp.StabilizerSpec.certify(sp.constant_diagonal(5), interval(0, 2))
        moved = dataclasses.replace(
            forward, encoder=lambda pair: (sp.BlockOperator(pair[0], elsewhere), pair[1])
        )
        report = verify_reduction(moved, 20)
        assert not report.passed
        assert report.target_failures == 20 and report.query_failures == 0

    def test_affine_reductions_pass(self, chain):
        for target in chain[1:]:
            report = verify_reduction(ig.affine_reduction(target, chain[0]), 100)
            assert report.passed
            assert report.target_failures == report.query_failures == 0

    def test_corrupted_combiner_counted(self, chain):
        good = ig.affine_reduction(chain[1], chain[0])

        def corrupt_rule(qid):
            entry = good.plan.rule(qid)
            if entry is None:
                return None
            return PlanEntry(entry.source_ids, lambda vals, _e=entry: 2 * _e.combine(vals))

        bad = Reduction(
            "corrupted", good.source, good.target, good.encoder, good.decoder,
            QueryPlan("corrupted", corrupt_rule),
        )
        report = verify_reduction(bad)
        assert not report.passed
        assert report.query_failures > 0
        assert report.target_failures == 0

    def test_tuple_valued_answers_compare_exactly(self):
        # query answers are pairs; the abs() comparison raised TypeError on them
        problem = _pair_problem()
        assert verify_reduction(identity_reduction(problem), 10).passed

        def swapped(qid):
            return PlanEntry((qid,), lambda vals: vals[0][::-1])

        bad = dataclasses.replace(identity_reduction(problem), plan=QueryPlan("swap", swapped))
        report = verify_reduction(bad, 10, queries_per_sample=4)
        assert not report.passed
        assert report.query_failures == 40 and report.max_discrepancy == 0.0

    def test_exact_number_mismatch_reports_its_gap(self, chain):
        good = ig.affine_reduction(chain[1], chain[0])

        def off_by_third(qid):
            entry = good.plan.rule(qid)
            if entry is None:
                return None
            return PlanEntry(entry.source_ids, lambda vals, _e=entry: _e.combine(vals) + Fraction(1, 3))

        bad = dataclasses.replace(good, plan=QueryPlan("off", off_by_third))
        report = verify_reduction(bad, 5, queries_per_sample=4)
        assert not report.passed
        assert report.query_failures == 20 and report.max_discrepancy == pytest.approx(1 / 3)

    def test_float_answers_keep_the_tolerance(self):
        problem = ig.make_problem(ig.interval(0, 1), (ig.Sine(1.0, 1.0),))

        def nudged(qid, _by=1e-12):
            return PlanEntry((qid,), lambda vals: vals[0] + _by)

        near = dataclasses.replace(identity_reduction(problem), plan=QueryPlan("near", nudged))
        report = verify_reduction(near, 5)
        assert report.passed and 0 < report.max_discrepancy <= report.tol

    def test_nan_combiner_fails(self, chain):
        # max(x, nan) keeps x and nan > tol is False, so these answers used to pass
        good = ig.affine_reduction(chain[1], chain[0])
        nan_plan = QueryPlan("nan", lambda qid: PlanEntry(good.plan.rule(qid).source_ids, lambda vals: math.nan))
        report = verify_reduction(dataclasses.replace(good, plan=nan_plan), 5, queries_per_sample=4)
        assert not report.passed
        assert report.query_failures == 20 and report.target_failures == 0
        assert report.max_discrepancy == 0.0

    def test_nan_decoder_fails(self, chain):
        good = ig.affine_reduction(chain[1], chain[0])
        bad = dataclasses.replace(good, decoder=Decoder(lambda y: math.nan, DecoderClass.CONT, "nan"))
        report = verify_reduction(bad, 5, queries_per_sample=4)
        assert not report.passed
        assert report.target_failures == 5 and report.query_failures == 0
        assert math.isfinite(report.max_discrepancy)

    def test_equal_infinite_targets_fail(self):
        # this sine integrates to inf on [0, 2]: the targets are equal, but their gap inf - inf is NaN
        overflow = ig.Sine(1e308, 1e-300)
        problem = ig.make_problem(ig.interval(0, 2), (overflow, ig.polynomial(1)))
        assert problem.target(overflow) == math.inf
        report = verify_reduction(identity_reduction(problem), 12, queries_per_sample=4, seed=3)
        rng = random.Random(3)
        draws = 0
        for _ in range(12):
            draws += problem.inputs.sample(rng) is overflow
            problem.queries.sample_keys(rng, 4)
        assert 0 < draws < 12
        assert report.target_failures == draws and report.query_failures == 0
        assert report.max_discrepancy == 0.0

    def test_plan_entries_are_named_tuples(self):
        entry = PlanEntry((("ev", 0), ("ev", 1)), sum)
        assert entry == (entry.source_ids, entry.combine) and entry.width == 2
        assert repr(entry) == f"PlanEntry(source_ids=(('ev', 0), ('ev', 1)), combine={sum!r})"

    @pytest.mark.parametrize("tol", [-1e-9, math.nan])
    def test_tolerance_must_be_non_negative(self, chain, tol):
        with pytest.raises(ValueError, match="tol must be a non-negative number"):
            verify_reduction(ig.affine_reduction(chain[1], chain[0]), 5, tol)

    @pytest.mark.parametrize("queries", [0, -1])
    def test_at_least_one_query_per_sample(self, chain, queries):
        # with no query drawn, a plan that covers no id would pass
        uncovered = dataclasses.replace(ig.affine_reduction(chain[1], chain[0]),
                                        plan=QueryPlan("none", lambda qid: None))
        with pytest.raises(ValueError, match="queries_per_sample must be >= 1"):
            verify_reduction(uncovered, 5, queries_per_sample=queries)
        report = verify_reduction(uncovered, 5, queries_per_sample=1)
        assert not report.passed and report.query_failures == 5

    def test_oversized_request_refused_before_sampling(self, chain, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(InputCatalog, "sample", no_sampling)
        reduction = ig.affine_reduction(chain[1], chain[0])
        with pytest.raises(BudgetExceeded):
            verify_reduction(reduction, DEFAULT_BUDGET // 20 + 1)
        with pytest.raises(BudgetExceeded):
            verify_reduction(reduction, 2, queries_per_sample=DEFAULT_BUDGET)
        with pytest.raises(AssertionError, match="sampled"):  # the budget itself is allowed
            verify_reduction(reduction, DEFAULT_BUDGET // 20)

    def test_empty_input_catalog_refused_before_sampling(self, chain, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(InputCatalog, "sample", no_sampling)
        monkeypatch.setattr(QueryFamily, "sample_keys", no_sampling)
        empty = ig.make_problem(ig.interval(0, 1), ())
        for reduction in (identity_reduction(empty), ig.affine_reduction(chain[1], empty)):
            with pytest.raises(EmptyInputClass, match="empty input catalog"):
                verify_reduction(reduction, 5)

    def test_stabilization_forward_mixed_blocks(self, spectral_source):
        domain = spectral_source.params["domain"]
        stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
        forward, _ = sp.stabilization_reductions(
            domain, stabilizer, spectral_source.inputs.members, source=spectral_source
        )
        assert verify_reduction(forward).passed
        mixed = forward.plan.entry(("nu", 1, 1, 1, 2))
        assert mixed.combine((Fraction(99),)) == 0


ENDPOINT = st.fractions(min_value=-6, max_value=6, max_denominator=24)
WIDTH = st.fractions(min_value=Fraction(1, 24), max_value=6, max_denominator=24)


@st.composite
def problems(draw):
    a = draw(ENDPOINT)
    return ig.make_problem(ig.interval(a, a + draw(WIDTH)))


def widened(reduction: Reduction, copies: int) -> Reduction:
    """The same simulation with each source id asked ``copies`` times; the last copy is used."""

    def rule(qid):
        entry = reduction.plan.rule(qid)
        if entry is None:
            return None
        return PlanEntry(
            entry.source_ids * copies, lambda vals, _e=entry: _e.combine(vals[-_e.width:])
        )

    return dataclasses.replace(reduction, plan=QueryPlan(f"{reduction.plan.name}x{copies}", rule))


def affine_step(source, target, copies):
    return widened(ig.affine_reduction(target, source), copies)


class TestPreorderLaws:
    """Reflexivity and transitivity of the transport preorder over generated intervals."""

    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(0, 2**16))
    def test_identity_reduction_verifies(self, problem, seed):
        report = verify_reduction(identity_reduction(problem), 5, queries_per_sample=6, seed=seed)
        assert report.passed and report.max_discrepancy == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(problems(), min_size=3, max_size=3), st.lists(st.integers(1, 3), min_size=2, max_size=2),
           st.integers(0, 2**16))
    def test_compose_of_verified_reductions_verifies(self, chain, copies, seed):
        r1 = affine_step(chain[0], chain[1], copies[0])
        r2 = affine_step(chain[1], chain[2], copies[1])
        assert verify_reduction(r1, 4, queries_per_sample=5, seed=seed).passed
        assert verify_reduction(r2, 4, queries_per_sample=5, seed=seed).passed
        composed = compose(r1, r2)
        assert verify_reduction(composed, 4, queries_per_sample=5, seed=seed).passed
        for qid in chain[2].queries.sample_ids(random.Random(seed), 10):
            outer = r2.plan.entry(qid)
            total = sum(r1.plan.entry(mid).width for mid in outer.source_ids)
            assert composed.plan.entry(qid).width == total == copies[0] * copies[1]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(problems(), min_size=4, max_size=4), st.lists(st.integers(1, 2), min_size=3, max_size=3),
           st.integers(0, 2**16))
    def test_compose_is_associative_on_sampled_queries(self, chain, copies, seed):
        r1, r2, r3 = (affine_step(chain[i], chain[i + 1], copies[i]) for i in range(3))
        left = compose(compose(r1, r2), r3)
        right = compose(r1, compose(r2, r3))
        rng = random.Random(seed)
        source = chain[0]
        for qid in chain[3].queries.sample_ids(rng, 6):
            lhs, rhs = left.plan.entry(qid), right.plan.entry(qid)
            assert lhs.source_ids == rhs.source_ids
            a = source.inputs.sample(rng)
            answers = tuple(source.queries.resolve(sid).evaluate(a) for sid in lhs.source_ids)
            assert repr(lhs.combine(answers)) == repr(rhs.combine(answers))


def nested_compose(first: Reduction, second: Reduction) -> Reduction:
    """Composition that nests each call's maps inside the next, as a reference for :func:`compose`."""
    if first.target is not second.source:
        raise ProblemMismatch(
            f"{first.name} ends at {first.target.name} but {second.name} starts at {second.source.name}"
        )
    same_space = (
        first.source.output_space.name
        == first.target.output_space.name
        == second.target.output_space.name
    )
    tag = decoder_compose_class(first.decoder.class_tag, second.decoder.class_tag, same_space=same_space)

    def encoder(a, _e1=first.encoder, _e2=second.encoder):
        return _e2(_e1(a))

    def decoder_map(y, _d1=first.decoder.map, _d2=second.decoder.map):
        return _d1(_d2(y))

    def rule(query_id):
        outer = second.plan.entry(query_id)
        if outer is None:
            return None
        blocks = []
        for mid_id in outer.source_ids:
            inner = first.plan.entry(mid_id)
            if inner is None:
                return None
            blocks.append(inner)
        source_ids, split = _blockwise(blocks)

        def combine(values: tuple, _split=split, _outer=outer.combine):
            return _outer(_split(values))

        return PlanEntry(source_ids, combine)

    return Reduction(
        name=f"{first.name}>>{second.name}",
        source=first.source,
        target=second.target,
        encoder=encoder,
        decoder=Decoder(decoder_map, tag, f"{first.decoder.name}.{second.decoder.name}"),
        plan=QueryPlan(f"{first.plan.name}>>{second.plan.name}", rule),
    )


@pytest.fixture(scope="module")
def stabilization(spectral_source):
    """The forward and backward stabilization reductions of the catalog's spectral source."""
    domain = spectral_source.params["domain"]
    stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
    return sp.stabilization_reductions(domain, stabilizer, spectral_source.inputs.members, source=spectral_source)


def chained(links):
    """``links`` composed left to right, one call per link."""
    return functools.reduce(compose, links)


class TestFlatChain:
    """A composite is a flat chain of links, however long and however bracketed."""

    def test_links_are_flat_and_associative(self, chain):
        r1 = ig.affine_reduction(chain[1], chain[0])
        r2 = ig.affine_reduction(chain[2], chain[1])
        r3 = identity_reduction(chain[2])
        assert r1.links == ()
        assert compose(compose(r1, r2), r3).links == compose(r1, compose(r2, r3)).links == (r1, r2, r3)

    def test_replaced_composite_composes_as_one_link(self, chain):
        """A ``dataclasses.replace`` copy of a composite has no links, and composes with what was replaced."""
        inner = compose(ig.affine_reduction(chain[1], chain[0]), ig.affine_reduction(chain[2], chain[1]))
        calls = []

        def counted(a):
            calls.append(a)
            return inner.encoder(a)

        replaced = dataclasses.replace(widened(inner, 2), encoder=counted)
        last = identity_reduction(chain[2])
        composed = compose(replaced, last)
        assert replaced.links == () and composed.links == (replaced, last)
        assert composed.plan.name == f"{inner.plan.name}x2>>identity"
        for qid in chain[2].queries.sample_ids(random.Random(0), 4):
            assert composed.plan.entry(qid).width == 2 * inner.plan.entry(qid).width
        a = chain[0].inputs.sample(random.Random(1))
        assert composed.encoder(a) == inner.encoder(a) and calls == [a]
        assert verify_reduction(composed, 3, queries_per_sample=3).passed

    def test_long_identity_chain_verifies(self, unit_problem):
        n = 2 * sys.getrecursionlimit()
        composed = chained([identity_reduction(unit_problem)] * n)
        assert len(composed.links) == n
        report = verify_reduction(composed, 3, queries_per_sample=3)
        assert report.passed and report.max_discrepancy == 0.0

    def test_long_stabilization_chain_verifies(self, stabilization):
        forward, backward = stabilization
        n = 2 * sys.getrecursionlimit()
        composed = chained([forward, backward] * (n // 2))
        assert len(composed.links) == n
        assert composed.plan.entry(("mu", 2, 2)).width == 1
        report = verify_reduction(composed, 3, queries_per_sample=3)
        assert report.passed and report.max_discrepancy == 0.0

    def test_long_affine_chain_verifies(self):
        # the left fold, one binary compose per link; its affine links fold into one
        unit, wide = ig.make_problem(ig.interval(0, 1)), ig.make_problem(ig.interval(-1, 2))
        there, back = ig.affine_reduction(wide, unit), ig.affine_reduction(unit, wide)
        n = sys.getrecursionlimit() // 2
        composed = chained([there, back] * (n // 2))
        assert len(composed.links) == n
        assert verify_reduction(composed, 3, queries_per_sample=3).passed

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_agrees_with_nested_compose(self, stabilization, data):
        """Flat and nested composites of one bracketed chain agree on every observable."""
        size = data.draw(st.integers(2, 5), label="links")
        if data.draw(st.booleans(), label="spectral"):
            forward, backward = stabilization
            here, links = forward.source, []
            for _ in range(size):
                step = forward if here is forward.source else backward
                link = data.draw(st.sampled_from([identity_reduction(here), step]))
                links.append(link)
                here = link.target
        else:
            here, links = data.draw(problems()), []
            for _ in range(size):
                if data.draw(st.booleans(), label="identity link"):
                    links.append(identity_reduction(here))
                    continue
                there = data.draw(problems())
                links.append(affine_step(here, there, data.draw(st.integers(1, 3), label="copies")))
                here = there
        # the same bracketing for both: each step composes a neighbouring pair
        merges = [data.draw(st.integers(0, k - 2), label="merge") for k in range(size, 1, -1)]
        seed = data.draw(st.integers(0, 2**16), label="seed")

        def bracketed(compose_fn):
            items = list(links)
            for i in merges:
                items[i:i + 2] = [compose_fn(items[i], items[i + 1])]
            return items[0]

        flat, nested = bracketed(compose), bracketed(nested_compose)
        assert flat.links == tuple(links)
        assert (flat.name, flat.decoder.class_tag, flat.decoder.name, flat.plan.name) == (
            nested.name, nested.decoder.class_tag, nested.decoder.name, nested.plan.name
        )
        source, target = flat.source, flat.target
        rng = random.Random(seed)
        for qid in target.queries.sample_ids(rng, 6):
            lhs, rhs = flat.plan.entry(qid), nested.plan.entry(qid)
            assert lhs.source_ids == rhs.source_ids
            answers = source.queries.answer(lhs.source_ids, source.inputs.sample(rng))
            assert repr(lhs.combine(answers)) == repr(rhs.combine(answers))
        a = source.inputs.sample(rng)
        encoded = flat.encoder(a)
        assert encoded == nested.encoder(a)
        y = target.target(encoded)
        assert repr(flat.decoder.map(y)) == repr(nested.decoder.map(y))
        assert verify_reduction(flat, 4, queries_per_sample=4, seed=seed) == verify_reduction(
            nested, 4, queries_per_sample=4, seed=seed
        )


def alternating_chain(n):
    """``n`` affine links between [0,1] and [-1,2], there and back, first to last."""
    unit, wide = ig.make_problem(ig.interval(0, 1)), ig.make_problem(ig.interval(-1, 2))
    there, back = ig.affine_reduction(wide, unit), ig.affine_reduction(unit, wide)
    return [there, back] * (n // 2) + [there] * (n % 2)


#: non-dyadic neighbours for affine chains, so that every link has a non-dyadic ratio and shift
NON_DYADIC = (("1/3", "7/5"), ("-2/7", "5/3"), ("1/2", "9/4"), ("-3/5", "1/7"), ("2/9", "11/3"), (0, 1))


def non_dyadic_chain(size):
    problems = [ig.make_problem(ig.interval(a, b)) for a, b in NON_DYADIC[: size + 1]]
    return [ig.affine_reduction(there, here) for here, there in zip(problems, problems[1:])]


def affine_depth(f) -> int:
    depth = 0
    while isinstance(f, ig.AffineImage):
        depth, f = depth + 1, f.base
    return depth


class TestFoldedChain:
    """Neighbouring affine links fold into one affine link; every observable stays that of the chain."""

    def test_ten_thousand_link_chain_builds_and_verifies(self):
        links = alternating_chain(10_000)
        composed = compose(*links)
        assert len(composed.links) == 10_000
        assert composed.name == ">>".join(link.name for link in links)
        assert composed.plan.name == ">>".join(link.plan.name for link in links)
        assert composed.decoder.name == ".".join(["identity"] * 10_000)
        f = ig.polynomial(0, 0, 1)
        encoded = composed.encoder(f)
        assert affine_depth(encoded) == 1 and encoded.base is f
        # an even chain goes there and back: the identity map of [0,1]
        entry = composed.plan.entry(("ev", Fraction(1, 3)))
        assert entry.source_ids == (("ev", Fraction(1, 3)),) and entry.combine((Fraction(5, 7),)) == Fraction(5, 7)
        report = verify_reduction(composed, 100, queries_per_sample=20)
        assert report.passed and report.max_discrepancy == 0.0

    def test_odd_chain_is_the_single_link(self):
        links = alternating_chain(2 * sys.getrecursionlimit() + 1)
        composed, single = compose(*links), links[0]
        for x in (Fraction(-1), Fraction(1, 7), Fraction(2)):
            assert composed.plan.entry(("ev", x)).source_ids == single.plan.entry(("ev", x)).source_ids
        assert composed.plan.entry(("ev", Fraction(3))) is None
        for seed in (0, 3):
            assert verify_reduction(composed, 20, seed=seed) == verify_reduction(single, 20, seed=seed)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_equals_the_binary_left_fold(self, stabilization, data):
        """``compose(*links)`` has the names, tag, links and report of one binary call per link."""
        size = data.draw(st.integers(2, 6), label="links")
        here, links = data.draw(problems()), []
        for _ in range(size):
            kind = data.draw(st.sampled_from(["affine", "identity", "widened"]), label="kind")
            if kind == "identity":
                links.append(identity_reduction(here))
                continue
            there = data.draw(problems())
            links.append(ig.affine_reduction(there, here) if kind == "affine" else affine_step(here, there, 2))
            here = there
        cut = data.draw(st.integers(1, size - 1), label="cut")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        folded, left = compose(*links), chained(links)
        bracketed = compose(compose(*links[:cut]), compose(*links[cut:]))
        for other in (left, bracketed):
            assert (folded.name, folded.decoder.name, folded.plan.name, folded.decoder.class_tag) == (
                other.name, other.decoder.name, other.plan.name, other.decoder.class_tag
            )
            assert folded.links == other.links == tuple(links)
            assert repr(verify_reduction(folded, 4, queries_per_sample=5, seed=seed)) == repr(
                verify_reduction(other, 4, queries_per_sample=5, seed=seed)
            )

    def test_errors_equal_the_binary_left_fold(self, chain, stabilization):
        r1 = ig.affine_reduction(chain[1], chain[0])
        r2 = ig.affine_reduction(chain[2], chain[1])
        for links in ([r1, r2, r1], [r1, r1, r2], [r1, r2, stabilization[0]]):
            with pytest.raises(ProblemMismatch) as folded:
                compose(*links)
            with pytest.raises(ProblemMismatch) as left:
                chained(links)
            assert str(folded.value) == str(left.value)
        exact = dataclasses.replace(r2, decoder=Decoder(lambda y: y, DecoderClass.ID, "exact"))
        for links in ([r1, exact], [identity_reduction(chain[0]), r1, exact]):
            with pytest.raises(TagIncompatible) as folded:
                compose(*links)
            with pytest.raises(TagIncompatible) as left:
                chained(links)
            assert str(folded.value) == str(left.value)
        assert compose(r1) is r1
        with pytest.raises(TypeError):
            compose()

    @pytest.mark.parametrize("seed", [0, 3, 7919])
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_folded_chain_reports_as_replace_copies(self, size, seed):
        """Copies made with ``dataclasses.replace`` do not fold, and the chain reports the same."""
        links = non_dyadic_chain(size)
        copies = [dataclasses.replace(link) for link in links]
        folded, unfolded = compose(*links), compose(*copies)
        members = folded.source.inputs.members
        assert any(isinstance(f, ig.Sine) for f in members)
        for f in members:
            assert affine_depth(folded.encoder(f)) == 1
            assert affine_depth(unfolded.encoder(f)) == size
        report = verify_reduction(folded, 100, seed=seed)
        assert report.passed
        assert repr(report) == repr(verify_reduction(unfolded, 100, seed=seed))

    def test_runs_fold_between_links_that_do_not(self, chain):
        r1 = ig.affine_reduction(chain[1], chain[0])
        r2 = ig.affine_reduction(chain[2], chain[1])
        r3 = ig.affine_reduction(chain[0], chain[2])
        middle = identity_reduction(chain[1])
        composed = compose(r1, middle, r2, r3, r1)
        f = ig.polynomial(0, 1)
        # [r1] then the identity, then the run [r2, r3, r1] folded into one link
        assert affine_depth(composed.encoder(f)) == 2
        for x in (Fraction(0), Fraction(1, 3), Fraction(2)):
            assert composed.plan.entry(("ev", x)).source_ids == (("ev", x / 2),)
        assert verify_reduction(composed, 30).passed


class TestPullback:
    def test_rectangle_stage_simplifies(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        stage = ig.rectangle_tower(ig.interval(0, 2)).stage((4,))
        pulled = pullback_algorithm(reduction, stage)
        f = ig.polynomial(0, 0, 1)
        value, trace = run_algorithm(pulled, chain[0], f)
        native, _ = run_algorithm(ig.rectangle_tower(ig.interval(0, 1)).stage((4,)), chain[0], f)
        assert value == native
        assert trace.ids == tuple(("ev", Fraction(j, 4)) for j in range(4))

    def test_constant_algorithm_pullback(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        from sci_workbench.core import constant_algorithm

        const = constant_algorithm("c", ("ev", Fraction(1)), Fraction(7))
        value, trace = run_algorithm(pullback_algorithm(reduction, const), chain[0], ig.polynomial(1))
        assert value == Fraction(7)
        assert len(trace) == 1

    def test_trace_width_is_block_sum(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        stage = ig.rectangle_tower(ig.interval(0, 2)).stage((8,))
        _, trace = run_algorithm(pullback_algorithm(reduction, stage), chain[0], ig.polynomial(1))
        widths = sum(
            reduction.plan.entry(("ev", Fraction(j, 4))).width for j in range(8)
        )
        assert len(trace) == widths == 8

    def test_tower_pullback_height_and_values(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        pulled = pullback_tower(reduction, ig.rectangle_tower(ig.interval(0, 2)))
        native = ig.rectangle_tower(ig.interval(0, 1))
        assert pulled.height == native.height == 1
        for f in (ig.polynomial(1), ig.polynomial(0, 1), ig.polynomial("1/2", 0, "1/3")):
            for n in (1, 2, 5, 16):
                assert evaluate_tower(pulled, (n,), chain[0], f) == evaluate_tower(
                    native, (n,), chain[0], f
                )

    def test_height0_pullback_stays_height0(self):
        problem = ig.make_problem(ig.interval(0, 0))
        pulled = pullback_tower(identity_reduction(problem), ig.degenerate_algorithm(0))
        assert pulled.height == 0
        assert evaluate_tower(pulled, (), problem, ig.polynomial(5)) == 0

    def test_pullback_preserves_locality(self, chain, rng):
        reduction = ig.affine_reduction(chain[1], chain[0])
        pulled = pullback_algorithm(reduction, ig.rectangle_tower(ig.interval(0, 2)).stage((3,)))
        members = chain[0].inputs.members
        for _ in range(25):
            a, b = rng.choice(members), rng.choice(members)
            assert check_locality(pulled, chain[0], a, b).passed

    def test_plan_gap(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        from sci_workbench.core import constant_algorithm

        outside = constant_algorithm("bad", ("ev", Fraction(9)), 0)  # 9 not in [0, 2]
        with pytest.raises(PlanGap):
            run_algorithm(pullback_algorithm(reduction, outside), chain[0], ig.polynomial(1))

    def test_plan_rule_runs_once_per_target_query(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        asked = []

        def counting_rule(qid):
            asked.append(qid)
            return reduction.plan.rule(qid)

        counted = dataclasses.replace(reduction, plan=QueryPlan("counted", counting_rule))
        stage = ig.rectangle_tower(ig.interval(0, 2)).stage((256,))
        _, trace = run_algorithm(pullback_algorithm(counted, stage), chain[0], ig.polynomial(1))
        assert len(trace) == 256
        assert asked == [("ev", x) for x in ig.grid_nodes(ig.interval(0, 2), 256)]

    def test_adaptive_protocol_matches_hand_simulation(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])

        def adaptive():
            (first,) = yield Ask(("ev", Fraction(1)))
            probe = Fraction(1, 2) if first == 0 else Fraction(3, 2)
            (second,) = yield Ask(("ev", probe))
            return first + second

        alg = GeneralAlgorithm("adaptive", adaptive)
        pulled = pullback_algorithm(reduction, alg)
        branches = set()
        for f in (ig.polynomial(0), ig.polynomial(1), ig.polynomial(0, 1)):
            value, trace = run_algorithm(pulled, chain[0], f)
            target_value, target_trace = run_algorithm(alg, chain[1], reduction.encoder(f))
            steps = []
            for qid, answer in target_trace.steps:
                entry = reduction.plan.entry(qid)
                block = tuple(chain[0].queries.resolve(sid).evaluate(f) for sid in entry.source_ids)
                assert entry.combine(block) == answer
                steps.extend(zip(entry.source_ids, block))
            assert trace.steps == tuple(steps)
            assert value == reduction.decoder.map(target_value)
            branches.add(trace.ids)
        assert len(branches) == 2

    def test_non_ask_step_is_a_violation(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])

        def rogue():
            yield Ask(("ev", Fraction(1)))
            yield "not a query"
            return 0

        alg = GeneralAlgorithm("rogue", rogue)
        with pytest.raises(ProtocolViolation):
            run_algorithm(alg, chain[1], ig.polynomial(1))
        with pytest.raises(ProtocolViolation):
            run_algorithm(pullback_algorithm(reduction, alg), chain[0], ig.polynomial(1))

    def test_spectral_backward_pullback_decides_stabilized(self, spectral_source):
        domain = spectral_source.params["domain"]
        stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
        pairs = spectral_source.inputs.members
        stabilized = sp.stabilized_problem(domain, stabilizer, pairs)
        _, backward = sp.stabilization_reductions(
            domain, stabilizer, pairs, source=spectral_source, stabilized=stabilized
        )
        pulled = pullback_tower(backward, sp.decision_tower(domain))
        assert pulled.height == 2
        for pair in stabilized.inputs.members[:10]:
            spec, window = pair[0].first, pair[1]
            stages = sp.stabilization_stages(spec, window)
            assert evaluate_tower(pulled, stages, stabilized, pair) == stabilized.target(pair)


class TestStructuralFeasibility:
    def test_empty_source_family_infeasible(self):
        from sci_workbench.degrees import counterexample_pair

        p0, p1 = counterexample_pair()
        assert structural_feasibility(p0, p1).infeasible

    def test_nonempty_source_unknown(self, unit_problem, spectral_source):
        assert structural_feasibility(unit_problem, spectral_source).verdict == "unknown"

    def test_empty_target_vacuous(self):
        from sci_workbench.degrees import counterexample_pair

        p0, _ = counterexample_pair()
        assert structural_feasibility(p0, p0).verdict == "unknown"


class TestDecoderClasses:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (DecoderClass.CONT, DecoderClass.CONT, DecoderClass.CONT),
            (DecoderClass.BOR, DecoderClass.BOR, DecoderClass.BOR),
            (DecoderClass.CONT, DecoderClass.BOR, DecoderClass.BOR),
            (DecoderClass.BOR, DecoderClass.CONT, DecoderClass.BOR),
            (DecoderClass.ID, DecoderClass.ID, DecoderClass.ID),
        ],
    )
    def test_table(self, a, b, expected):
        assert decoder_compose_class(a, b) is expected

    def test_id_needs_same_space(self):
        with pytest.raises(TagIncompatible):
            decoder_compose_class(DecoderClass.ID, DecoderClass.ID, same_space=False)

    @pytest.mark.parametrize("other", [DecoderClass.CONT, DecoderClass.BOR])
    def test_id_mixes_with_nothing_else(self, other):
        with pytest.raises(TagIncompatible):
            decoder_compose_class(DecoderClass.ID, other)
        with pytest.raises(TagIncompatible):
            decoder_compose_class(other, DecoderClass.ID)
