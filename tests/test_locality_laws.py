"""Locality of the decision tower, its stabilized pullback, the Koopman
collapse and a finite-query factorization, over generated agreeing pairs.

Each law runs a stage on an input a, builds an input b that answers every
query of a's trace as a does and is drawn afresh everywhere else, and asks
:func:`check_locality` for the implication: the premise holds, and the two
runs emit the same queries and outputs.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import integration as ig
from sci_workbench import koopman as kp
from sci_workbench import spectral as sp
from sci_workbench.core import check_locality, finite_query_factorization, interval, run_algorithm
from sci_workbench.reductions import pullback_algorithm

J = interval(0, 1)
DECISION = sp.decision_tower(J)
STABILIZER = sp.StabilizerSpec.certify(sp.constant_diagonal(5), J)
_, STRIP = sp.stabilization_reductions(J, STABILIZER, [(sp.constant_diagonal(0), sp.Window(Fraction(0), J))])
SOURCE = STRIP.target

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=16)
unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)
stages = st.tuples(st.integers(1, 6), st.integers(1, 8))


def asked(alg, problem, a) -> dict:
    """The answers of a's trace, by query id."""
    return dict(run_algorithm(alg, problem, a)[1].steps)


def assert_local(alg, problem, a, b):
    report = check_locality(alg, problem, a, b)
    assert report.premise_holds, report.detail
    assert report.passed, report.detail


@st.composite
def diagonal_inputs(draw):
    values = tuple(draw(st.lists(rationals, max_size=10)))
    return sp.FiniteThenConstant(values, draw(rationals)), sp.Window(draw(unit_rationals), J)


def agreeing_diagonal(draw, answers: dict, entry_id):
    """A diagonal and window with the asked entries and window data of ``answers``, fresh elsewhere."""
    depth = max((j for j in range(1, 65) if entry_id(j) in answers), default=0)
    values = tuple(
        answers[entry_id(j)] if entry_id(j) in answers else draw(rationals)
        for j in range(1, depth + draw(st.integers(0, 4)) + 1)
    )
    # rho_n is the floor of z on the dyadic grid of step 2^-(n+2); the cells
    # nest, so any z in the finest asked cell keeps every asked rho
    n = max((qid[1] for qid in answers if qid[0] == "rho"), default=None)
    if n is None:
        z = draw(unit_rationals)
    else:
        step = Fraction(1, 2 ** (n + 2))
        z = min(answers[("rho", n)] + step * Fraction(draw(st.integers(0, 63)), 64), Fraction(1))
    return sp.FiniteThenConstant(values, draw(rationals)), sp.Window(z, J)


@settings(max_examples=40, deadline=None)
@given(st.data(), diagonal_inputs(), stages)
def test_decision_tower_is_local(data, a, stage):
    alg = DECISION.stage(stage)
    answers = asked(alg, SOURCE, a)
    b = agreeing_diagonal(data.draw, answers, lambda j: ("mu", j, j))
    assert_local(alg, SOURCE, a, b)


@settings(max_examples=30, deadline=None)
@given(st.data(), diagonal_inputs(), stages)
def test_stabilized_decision_pullback_is_local(data, pair, stage):
    problem = STRIP.source
    alg = pullback_algorithm(STRIP, DECISION.stage(stage))
    a = (sp.BlockOperator(pair[0], STABILIZER), pair[1])
    answers = asked(alg, problem, a)
    spec, window = agreeing_diagonal(data.draw, answers, lambda j: ("nu", j, 1, j, 1))
    assert_local(alg, problem, a, (sp.BlockOperator(spec, STABILIZER), window))


@st.composite
def koopman_inputs(draw):
    n = draw(st.integers(1, 8))
    image = tuple(draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    weights = tuple(draw(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
                                  min_size=n, max_size=n)))
    target = draw(st.sampled_from([kp.AP, kp.ap_eps(1.0, kp.GridSpec(-2.25, 2.25, -2.25, 2.25, 0.25))]))
    return kp.FiniteSpace(weights), kp.MapTable(image), target


@settings(max_examples=30, deadline=None)
@given(st.data(), koopman_inputs())
def test_koopman_collapse_is_local(data, case):
    space, a, target = case
    n = space.size
    problem = kp.make_problem(space, (a,), target)
    alg = kp.height0_algorithm(space, target).stage(())
    answers = asked(alg, problem, a)
    b = kp.MapTable(tuple(
        answers[("ev", i)] if ("ev", i) in answers else data.draw(st.integers(1, n)) for i in range(1, n + 1)
    ))
    assert_local(alg, problem, a, b)


SIMPSON_IDS = (("ev", Fraction(0)), ("ev", Fraction(1, 2)), ("ev", Fraction(1)))


def simpson(values):
    """Simpson's rule on [0, 1], exact for polynomials of degree at most 3."""
    return (values[0] + 4 * values[1] + values[2]) / 6


def times(p, q):
    """Coefficients of the product of two polynomials, lowest degree first."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(rationals, max_size=4), min_size=1, max_size=4), rationals,
       st.lists(rationals, max_size=3))
def test_finite_query_factorization_stage_is_local(cubics, scale, extra):
    # b = a + scale * (1 + extra) * (product of x - p over a's asked points p),
    # which vanishes at every asked point
    members = tuple(ig.polynomial(*coeffs) for coeffs in cubics)
    problem = ig.make_problem(ig.interval(0, 1), members)
    alg = finite_query_factorization(problem, SIMPSON_IDS, simpson).stage(())
    a = members[0]
    offset = [scale, *(scale * e for e in extra)]
    for _, p in asked(alg, problem, a):
        offset = times(offset, [-p, Fraction(1)])
    coeffs = [*a.coeffs] + [Fraction(0)] * (len(offset) - len(a.coeffs))
    b = ig.polynomial(*(c + d for c, d in zip(coeffs, offset + [Fraction(0)] * len(coeffs))))
    assert_local(alg, problem, a, b)
