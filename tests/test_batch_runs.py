"""Rounds: run_algorithm answers each round of queries in one batch.

Every shipped stage asks one round.  Each is run as it is and with every
round split into one-query rounds (an adaptive protocol asking the same
ids); both must agree, and so must their pullbacks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import integration as ig
from sci_workbench import koopman as kp
from sci_workbench import spectral as sp
from sci_workbench.core import (
    Ask,
    GeneralAlgorithm,
    InputCatalog,
    OutputSpace,
    Problem,
    QueryFamily,
    constant_algorithm,
    finite_query_factorization,
    fixed_query_algorithm,
    run_algorithm,
)
from sci_workbench.errors import BudgetExceeded, PlanGap, ProtocolViolation, UnknownQuery
from sci_workbench.reductions import (
    Decoder,
    DecoderClass,
    PlanEntry,
    QueryPlan,
    Reduction,
    compose,
    pullback_algorithm,
    pullback_tower,
    verify_reduction,
)


def one_at_a_time(alg: GeneralAlgorithm) -> GeneralAlgorithm:
    """The same algorithm with each of its rounds asked as one-query rounds."""

    def protocol():
        run = alg.protocol()
        answers = None
        while True:
            try:
                step = run.send(answers)
            except StopIteration as done:
                return done.value
            block = []
            for qid in step.query_ids:
                (value,) = yield Ask(qid)
                block.append(value)
            answers = tuple(block)

    return GeneralAlgorithm(alg.name, protocol, alg.budget)


def run_both(alg: GeneralAlgorithm, problem: Problem, input):
    """Run ``alg`` in its own rounds and one query per round; both must agree."""
    batch = run_algorithm(alg, problem, input)
    assert run_algorithm(one_at_a_time(alg), problem, input) == batch
    return batch


def run_pullback_all_ways(reduction: Reduction, alg: GeneralAlgorithm, input):
    """The pullback run both ways, and the pullback of the one-query-per-round inner."""
    batch = run_both(pullback_algorithm(reduction, alg), reduction.source, input)
    assert run_algorithm(pullback_algorithm(reduction, one_at_a_time(alg)), reduction.source, input) == batch
    return batch


@pytest.fixture
def unit_problem():
    return ig.make_problem(ig.interval(0, 1))


@pytest.fixture
def chain():
    return tuple(ig.make_problem(ig.interval(0, 2**k)) for k in range(3))  # [0,1],[0,2],[0,4]


@pytest.fixture
def stabilization(spectral_source):
    domain = spectral_source.params["domain"]
    stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
    pairs = spectral_source.inputs.members
    stabilized = sp.stabilized_problem(domain, stabilizer, pairs)
    forward, backward = sp.stabilization_reductions(
        domain, stabilizer, pairs, source=spectral_source, stabilized=stabilized
    )
    return domain, stabilized, forward, backward


class TestShippedTowersBothWays:
    @pytest.mark.parametrize("interval", [(0, 1), ("-3/2", 1), ("1/3", "7/5")])
    def test_rectangle(self, interval):
        iv = ig.interval(*interval)
        problem = ig.make_problem(iv)
        tower = ig.rectangle_tower(iv)
        for f in problem.inputs.members:
            for n in (1, 3, 16, 257):
                value, trace = run_both(tower.stage((n,)), problem, f)
                assert trace.ids == tuple(("ev", x) for x in ig.grid_nodes(iv, n))

    def test_decision(self, spectral_source):
        tower = sp.decision_tower(spectral_source.params["domain"])
        for pair in spectral_source.inputs.members:
            for stage in ((2, 3), (4, 17), sp.stabilization_stages(*pair)):
                value, trace = run_both(tower.stage(stage), spectral_source, pair)
                assert len(trace) == stage[1] + 1
            assert value == spectral_source.target(pair)

    def test_stabilized_decision(self, stabilization):
        domain, stabilized, _, backward = stabilization
        pulled = pullback_tower(backward, sp.decision_tower(domain))
        for pair in stabilized.inputs.members:
            stage = sp.stabilization_stages(pair[0].first, pair[1])
            value, _ = run_both(pulled.stage(stage), stabilized, pair)
            assert value == stabilized.target(pair)

    @pytest.mark.parametrize("image", [(1,), (2, 1), (1, 1, 2), (2, 3, 1), (2, 2, 4, 1)])
    def test_koopman_collapse(self, image):
        for weights in (None, tuple(Fraction(k, 3) for k in range(1, len(image) + 1))):
            space = kp.FiniteSpace(weights) if weights else kp.uniform_space(len(image))
            table = kp.MapTable(image)
            problem = kp.make_problem(space, (table,))
            value, trace = run_both(kp.height0_algorithm(space).stage(()), problem, table)
            assert value == problem.target(table) and len(trace) == len(image)

    def test_degenerate(self):
        problem = ig.make_problem(ig.interval(5, 5))
        for f in problem.inputs.members:
            assert run_both(ig.degenerate_algorithm(5).stage(()), problem, f)[0] == 0

    def test_factorization(self):
        space = kp.uniform_space(2)
        tables = tuple(kp.MapTable(img) for img in ((1, 1), (1, 2), (2, 1), (2, 2)))
        problem = kp.make_problem(space, tables)
        rows = {t.image: problem.target(t) for t in tables}
        tower = finite_query_factorization(problem, [("ev", 1), ("ev", 2)], rows)
        for table in tables:
            assert run_both(tower.stage(()), problem, table)[0] == problem.target(table)


class TestPullbacksBothWays:
    def test_affine(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        tower = ig.rectangle_tower(ig.interval(0, 2))
        native = ig.rectangle_tower(ig.interval(0, 1))
        for f in chain[0].inputs.members:
            for n in (1, 5, 64):
                value, trace = run_pullback_all_ways(reduction, tower.stage((n,)), f)
                assert (value, trace) == run_algorithm(native.stage((n,)), chain[0], f)

    def test_stabilization_backward_and_forward(self, spectral_source, stabilization):
        domain, stabilized, forward, backward = stabilization
        tower = sp.decision_tower(domain)
        for pair in spectral_source.inputs.members:
            stage = tower.stage(sp.stabilization_stages(*pair))
            encoded = forward.encoder(pair)
            on_stabilized = run_pullback_all_ways(backward, stage, encoded)
            # forward pulls the stabilized-problem algorithm back onto the source
            there = pullback_algorithm(backward, stage)
            value, trace = run_pullback_all_ways(forward, there, pair)
            assert value == on_stabilized[0] == spectral_source.target(pair)
            assert trace == run_algorithm(stage, spectral_source, pair)[1]

    def test_compose_chain(self, chain):
        composed = compose(ig.affine_reduction(chain[1], chain[0]), ig.affine_reduction(chain[2], chain[1]))
        tower = ig.rectangle_tower(ig.interval(0, 4))
        native = ig.rectangle_tower(ig.interval(0, 1))
        for f in chain[0].inputs.members:
            for n in (2, 9, 32):
                value, _ = run_pullback_all_ways(composed, tower.stage((n,)), f)
                assert value == run_algorithm(native.stage((n,)), chain[0], f)[0]

    def test_width_two_plan(self):
        reduction = width_two_reduction(3)
        assert verify_reduction(reduction, 20).passed
        alg = fixed_query_algorithm("ask", [("w", 2), ("w", 0), ("w", 2)], lambda vals: vals)
        value, trace = run_pullback_all_ways(reduction, alg, (1, 2, 3, 4, 5, 6))
        assert value == ("decoded", (5 + 18, 1 + 6, 5 + 18))
        assert trace.ids == (("v", 4), ("v", 5), ("v", 0), ("v", 1), ("v", 4), ("v", 5))
        assert trace.values == (5, 6, 1, 2, 5, 6)

    def test_plan_entries_expand_once_per_run(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        asked = []

        def counting_rule(qid):
            asked.append(qid)
            return reduction.plan.rule(qid)

        counted = Reduction(reduction.name, reduction.source, reduction.target, reduction.encoder,
                            reduction.decoder, QueryPlan("counted", counting_rule))
        pulled = pullback_algorithm(counted, ig.rectangle_tower(ig.interval(0, 2)).stage((8,)))
        assert asked == []
        run_algorithm(pulled, chain[0], ig.polynomial(1))
        assert len(asked) == 8
        run_algorithm(pulled, chain[0], ig.polynomial(0, 1))
        assert len(asked) == 16

    def test_plan_gap_raised_when_its_round_is_asked(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])
        outside = constant_algorithm("bad", ("ev", Fraction(9)), 0)  # 9 not in [0, 2]
        for alg in (outside, one_at_a_time(outside)):
            pulled = pullback_algorithm(reduction, alg)
            with pytest.raises(PlanGap):
                run_algorithm(pulled, chain[0], ig.polynomial(1))


def vector_problem(name: str, prefix: str, length: int, target) -> Problem:
    """Inputs are integer tuples of ``length``; query (prefix, i) answers entry i."""

    def resolver(qid):
        if len(qid) == 2 and qid[0] == prefix and isinstance(qid[1], int) and 0 <= qid[1] < length:
            return lambda v, _i=qid[1]: v[_i]
        return None

    return Problem(
        name=name,
        inputs=InputCatalog(
            [tuple(range(k, k + length)) for k in range(4)],
            admits=lambda v: isinstance(v, tuple) and len(v) == length,
        ),
        output_space=OutputSpace("pairs", lambda p, q: 0 if p == q else 1),
        target=target,
        queries=QueryFamily(name, resolver, canonical_ids=[(prefix, i) for i in range(length)]),
    )


def width_two_reduction(m: int) -> Reduction:
    """Every target entry w_i = v_2i + 3 v_(2i+1) is simulated by a block of two source queries."""
    source = vector_problem(
        "v", "v", 2 * m, lambda v: ("decoded", sum(v[2 * i] + 3 * v[2 * i + 1] for i in range(m)))
    )
    target = vector_problem("w", "w", m, sum)

    def rule(qid):
        if qid in target.queries:
            i = qid[1]
            return PlanEntry((("v", 2 * i), ("v", 2 * i + 1)), lambda vals: vals[0] + 3 * vals[1])
        return None

    return Reduction(
        name=f"pairs[{m}]",
        source=source,
        target=target,
        encoder=lambda v: tuple(v[2 * i] + 3 * v[2 * i + 1] for i in range(m)),
        decoder=Decoder(lambda y: ("decoded", y), DecoderClass.BOR, "tag"),
        plan=QueryPlan("pairs", rule),
    )


def assert_pullback_law(reduction: Reduction, alg: GeneralAlgorithm, a) -> None:
    """run(pullback(R, A), S, a) = decode(run(A, T, enc(a))), trace = concatenated plan blocks."""
    source, target = reduction.source, reduction.target
    target_value, target_trace = run_algorithm(alg, target, reduction.encoder(a))
    blocks = [reduction.plan.entry(qid) for qid in target_trace.ids]
    for pulled in (pullback_algorithm(reduction, alg), pullback_algorithm(reduction, one_at_a_time(alg))):
        value, trace = run_algorithm(pulled, source, a)
        assert value == reduction.decoder.map(target_value)
        assert trace.ids == tuple(sid for block in blocks for sid in block.source_ids)
        assert trace.values == tuple(source.queries.resolve(sid).evaluate(a) for sid in trace.ids)
        position = 0
        for block, answer in zip(blocks, target_trace.values):
            assert block.combine(trace.values[position : position + block.width]) == answer
            position += block.width
        assert position == len(trace)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(-50, 50), min_size=2 * m, max_size=2 * m).map(tuple),
            st.lists(st.integers(0, m - 1), min_size=1, max_size=12),
        )
    )
)
def test_pullback_law_width_two(case):
    m, v, order = case
    alg = fixed_query_algorithm("order", [("w", i) for i in order], lambda vals: (vals, sum(vals)))
    assert_pullback_law(width_two_reduction(m), alg, v)


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(
    RATIONALS,
    st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12),
    st.lists(RATIONALS, min_size=1, max_size=4),
    st.integers(1, 40),
)
def test_pullback_law_affine(a, width, coeffs, n):
    iv = ig.interval(a, a + width)
    reduction = ig.affine_reduction(ig.make_problem(iv))
    f = ig.Polynomial(tuple(coeffs))
    assert_pullback_law(reduction, ig.rectangle_tower(iv).stage((n,)), f)


def two_rounds(first: list[int], m: int) -> GeneralAlgorithm:
    """Asks ``("w", i)`` for ``i`` in ``first``, then a second round chosen from those answers."""

    def protocol():
        answers = yield Ask(*[("w", i) for i in first])
        width = 1 + answers[0] % 3
        more = yield Ask(*[("w", (answers[-1] + k) % m) for k in range(width)])
        return answers + more

    return GeneralAlgorithm("two-rounds", protocol)


def recorded(alg: GeneralAlgorithm, rounds: list) -> GeneralAlgorithm:
    """The same algorithm, appending the ids of each round it asks to ``rounds``."""

    def protocol():
        run = alg.protocol()
        answers = None
        while True:
            try:
                step = run.send(answers)
            except StopIteration as done:
                return done.value
            rounds.append(step.query_ids)
            answers = yield step

    return GeneralAlgorithm(alg.name, protocol, alg.budget)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(-50, 50), min_size=2 * m, max_size=2 * m).map(tuple),
            st.lists(st.integers(0, m - 1), min_size=2, max_size=8),
        )
    )
)
def test_pullback_law_two_rounds(case):
    m, v, first = case
    reduction = width_two_reduction(m)
    alg = two_rounds(first, m)
    assert_pullback_law(reduction, alg, v)
    # each inner round is asked as one source round of its concatenated blocks
    inner, outer = [], []
    run_algorithm(recorded(alg, inner), reduction.target, reduction.encoder(v))
    run_algorithm(recorded(pullback_algorithm(reduction, alg), outer), reduction.source, v)
    assert len(inner) == 2 and len(inner[0]) >= 2
    assert outer == [tuple(sid for qid in ids for sid in reduction.plan.entry(qid).source_ids) for ids in inner]


class TestBatchRun:
    def recording(self, problem: Problem, monkeypatch) -> list:
        resolved = []
        resolve = problem.queries.resolve
        monkeypatch.setattr(problem.queries, "resolve", lambda qid: resolved.append(qid) or resolve(qid))
        return resolved

    def test_budget_refused_before_anything_is_resolved(self, unit_problem, monkeypatch):
        resolved = self.recording(unit_problem, monkeypatch)
        ids = [("ev", Fraction(j, 4)) for j in range(4)]
        alg = fixed_query_algorithm("four", ids, sum, budget=3)
        with pytest.raises(BudgetExceeded):
            run_algorithm(alg, unit_problem, ig.polynomial(1))
        assert resolved == []
        # one query per round: the first three rounds are answered, the fourth refused
        with pytest.raises(BudgetExceeded):
            run_algorithm(one_at_a_time(alg), unit_problem, ig.polynomial(1))
        assert resolved == ids[:3]
        assert run_algorithm(fixed_query_algorithm("three", ids[:3], sum, budget=3), unit_problem,
                             ig.polynomial(1))[0] == 3

    def test_unknown_query_raised_in_id_order(self, unit_problem, monkeypatch):
        resolved = self.recording(unit_problem, monkeypatch)
        ids = [("ev", Fraction(0)), ("ev", Fraction(7)), ("ev", Fraction(1, 2)), ("ev", Fraction(9))]
        alg = fixed_query_algorithm("strays", ids, sum)
        messages = []
        for driven in (alg, one_at_a_time(alg)):
            with pytest.raises(UnknownQuery) as raised:
                run_algorithm(driven, unit_problem, ig.polynomial(1))
            messages.append(str(raised.value))
        assert messages[0] == messages[1] and repr(Fraction(7)) in messages[0]
        assert resolved == ids[:2] * 2

    def test_inadmissible_input_refused_first(self, unit_problem, monkeypatch):
        resolved = self.recording(unit_problem, monkeypatch)
        alg = constant_algorithm("c", ("ev", Fraction(0)), 0)
        with pytest.raises(ValueError, match="not admissible"):
            run_algorithm(alg, unit_problem, "not a function")
        assert resolved == []

    def test_round_over_budget_resolves_none_of_its_ids(self, unit_problem, monkeypatch):
        resolved = self.recording(unit_problem, monkeypatch)
        first = [("ev", Fraction(0)), ("ev", Fraction(1))]
        second = [("ev", Fraction(1, 3)), ("ev", Fraction(2, 3))]

        def protocol():
            yield Ask(*first)
            yield Ask(*second)
            return 0

        with pytest.raises(BudgetExceeded):
            run_algorithm(GeneralAlgorithm("over", protocol, budget=3), unit_problem, ig.polynomial(1))
        assert resolved == first
        assert run_algorithm(GeneralAlgorithm("fits", protocol, budget=4), unit_problem,
                             ig.polynomial(1))[1].ids == tuple(first + second)

    def test_empty_round_is_a_violation(self, chain):
        reduction = ig.affine_reduction(chain[1], chain[0])

        def silent():
            yield Ask(("ev", Fraction(1)))
            yield Ask()
            return 0

        alg = GeneralAlgorithm("silent", silent)
        with pytest.raises(ProtocolViolation, match="nonempty Ask"):
            run_algorithm(alg, chain[1], ig.polynomial(1))
        with pytest.raises(ProtocolViolation, match="nonempty Ask"):
            run_algorithm(pullback_algorithm(reduction, alg), chain[0], ig.polynomial(1))

    def test_derived_protocol_asks_the_ids_in_order(self):
        ids = (("ev", Fraction(1)), ("ev", Fraction(0)))
        alg = fixed_query_algorithm("two", ids, lambda vals: vals[0] - vals[1])
        run = alg.protocol()
        assert run.send(None) == Ask(*ids)
        with pytest.raises(StopIteration) as done:
            run.send((5, 2))
        assert done.value.value == 3

    def test_construction_checks(self):
        with pytest.raises(ValueError, match="at least one query"):
            fixed_query_algorithm("empty", [], sum)
        with pytest.raises(ValueError, match="budget"):
            fixed_query_algorithm("zero", [("ev", 0)], sum, budget=0)
