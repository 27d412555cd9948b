"""One coverage rule and one answer path for verification, composition and pullback.

A plan entry with an empty block simulates nothing: every target query
needs at least one source query, which is what the empty-family
obstruction of ``structural_feasibility`` rests on.  Verification,
composition and pullback must all treat such an entry as a gap.  The
round-shape tests record ``QueryFamily.answer`` to check that verification
asks the same kind of rounds as a pulled-back run: per distinct sampled
input, one round of its distinct target ids and one of their plan blocks.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from sci_workbench import certificates as ct
from sci_workbench import degrees as dg
from sci_workbench import integration as ig
from sci_workbench.core import Ask, GeneralAlgorithm, QueryFamily, constant_algorithm, run_algorithm
from sci_workbench.errors import MissingClause, PlanGap, UnverifiedReduction
from sci_workbench.reductions import (
    Decoder,
    DecoderClass,
    PlanEntry,
    QueryPlan,
    Reduction,
    compose,
    identity_reduction,
    pullback_algorithm,
    structural_feasibility,
    verify_reduction,
)


@pytest.fixture
def empty_block():
    """The query-less problem "reduced" to the singleton by plan blocks of width 0."""
    no_queries, _ = dg.counterexample_pair()
    single = dg.singleton_problem()
    plan = QueryPlan("empty-block", lambda qid: PlanEntry((), lambda values: 0))
    decoder = Decoder(lambda y: y, DecoderClass.CONT, "identity")
    return Reduction("empty-block", no_queries, single, lambda a: a, decoder, plan)


class TestEmptyBlock:
    def test_entry_is_a_gap(self, empty_block):
        assert empty_block.plan.rule(dg.CONST_QUERY).width == 0
        assert empty_block.plan.entry(dg.CONST_QUERY) is None

    def test_verification_counts_query_failures(self, empty_block):
        report = verify_reduction(empty_block, 5, queries_per_sample=3)
        assert report.target_failures == 0
        assert report.query_failures == 5 * 3
        assert not report.passed

    def test_certificates_refuse_it(self, empty_block):
        report = verify_reduction(empty_block, 5, queries_per_sample=3)
        source_cert = ct.exact_certificate(empty_block.source.name, 0, "test")
        with pytest.raises(UnverifiedReduction):
            ct.transfer_lower_bound(source_cert, [(empty_block, report)])
        target = empty_block.target.name
        upper = {target: ct.HeightCertificate(target, ct.HeightInterval(0, 0), ())}
        with pytest.raises(MissingClause) as refused:
            ct.sufficiency_package(source_cert, {target: (empty_block, report)}, upper)
        assert refused.value.clause == "C2"

    def test_compose_through_it_gives_no_entry(self, empty_block):
        after = compose(empty_block, identity_reduction(empty_block.target))
        assert after.plan.rule(dg.CONST_QUERY) is None
        assert after.plan.entry(dg.CONST_QUERY) is None
        before = compose(identity_reduction(empty_block.source), empty_block)
        assert before.plan.entry(dg.CONST_QUERY) is None

    def test_pullback_raises_plan_gap(self, empty_block):
        pulled = pullback_algorithm(empty_block, constant_algorithm("c", dg.CONST_QUERY, 0))
        with pytest.raises(PlanGap):
            run_algorithm(pulled, empty_block.source, dg.POINT)

    def test_agrees_with_the_structural_obstruction(self, empty_block):
        assert structural_feasibility(empty_block.source, empty_block.target).infeasible


@pytest.fixture
def rounds(monkeypatch):
    """Every ``QueryFamily.answer`` call as (family, ids, input), in call order."""
    calls = []
    answer = QueryFamily.answer

    def recording(self, query_ids, input):
        query_ids = tuple(query_ids)
        calls.append((self, query_ids, input))
        return answer(self, query_ids, input)

    monkeypatch.setattr(QueryFamily, "answer", recording)
    return calls


def replay(reduction, sample_count, queries_per_sample, seed):
    """The draws of ``verify_reduction`` when every input is admitted: per distinct
    input (by identity, in first-draw order), its target ids as a Counter of draws."""
    rng = random.Random(seed)
    drawn = {}
    for _ in range(sample_count):
        a = reduction.source.inputs.sample(rng)
        ids = drawn.setdefault(id(a), (a, Counter()))[1]
        ids.update(reduction.target.queries.sample_ids(rng, queries_per_sample))
    return list(drawn.values())


def affine_reduction():
    return ig.affine_reduction(ig.make_problem(ig.interval(0, 2)), ig.make_problem(ig.interval(0, 1)))


class TestRoundShape:
    def test_verification_asks_one_target_and_one_source_round_per_sample(self, rounds):
        # one round pair per distinct sampled input, of its distinct ids in first-draw order
        reduction = affine_reduction()
        report = verify_reduction(reduction, 6, queries_per_sample=5, seed=3)
        assert report.passed
        drawn = replay(reduction, 6, 5, seed=3)
        assert len(drawn) < 6 and any(sum(ids.values()) > len(ids) for _, ids in drawn)
        assert len(rounds) == 2 * len(drawn)
        for (a, ids), (family, asked, encoded), (source_family, source_ids, source_input) in zip(
            drawn, rounds[::2], rounds[1::2]
        ):
            assert family is reduction.target.queries and asked == tuple(ids)
            assert source_family is reduction.source.queries and source_input is a
            assert encoded == reduction.encoder(a)
            assert source_ids == tuple(sid for qid in ids for sid in reduction.plan.entry(qid).source_ids)

    def test_samples_the_target_refuses_ask_nothing(self, rounds):
        reduction = affine_reduction()
        refused = dataclasses.replace(reduction, encoder=lambda f: "not a function")
        assert verify_reduction(refused, 4).target_failures == 4
        assert rounds == []

    def test_gaps_leave_the_target_round(self, rounds):
        reduction = affine_reduction()
        half = ("ev", Fraction(1, 2))
        plan = QueryPlan("no-half", lambda qid: None if qid == half else reduction.plan.rule(qid))
        gappy = dataclasses.replace(reduction, plan=plan)
        report = verify_reduction(gappy, 8, queries_per_sample=10, seed=1)
        drawn = replay(reduction, 8, 10, seed=1)
        assert report.query_failures == sum(ids[half] for _, ids in drawn) > 1
        assert [asked for _, asked, _ in rounds[::2]] == [tuple(q for q in ids if q != half) for _, ids in drawn]

    def test_run_algorithm_answers_each_ask_with_one_call(self, rounds):
        problem = ig.make_problem(ig.interval(0, 1))

        def protocol():
            (first,) = yield Ask(("ev", Fraction(0)))
            second = yield Ask(("ev", Fraction(1, 4)), ("ev", Fraction(1, 2)))
            (third,) = yield Ask(("ev", Fraction(1)))
            return first + sum(second) + third

        value, trace = run_algorithm(GeneralAlgorithm("three-rounds", protocol), problem, ig.polynomial(0, 1))
        assert value == Fraction(7, 4)
        assert [ids for _, ids, _ in rounds] == [
            (("ev", Fraction(0)),),
            (("ev", Fraction(1, 4)), ("ev", Fraction(1, 2))),
            (("ev", Fraction(1)),),
        ]
        assert trace.ids == tuple(qid for _, ids, _ in rounds for qid in ids)
