"""The integer kernels of the exact tower and verification paths against the expressions they replace.

Each reference below is the plain Fraction expression the kernel stands
for.  Every kernel must return a value equal to its reference and of the
same type; floats must match bit for bit (compared through ``repr``).
"""

import contextlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import integration as ig
from sci_workbench import spectral as sp
from sci_workbench.core import evaluate_tower, interval
from sci_workbench.integration import _exact_sum, _is_coordinate
from sci_workbench.spectral import _all_farther


def same(got, want):
    assert (type(got), repr(got)) == (type(want), repr(want))


# --- references: the expressions the kernels replace -----------------------


def ref_bump(f, x):
    slope = Fraction(2, 1) / (f.v - f.u)
    return max(1 - slope * abs(x - (f.u + f.v) / 2), Fraction(0))


def ref_poly(f, x):
    if not f.coeffs:
        return Fraction(0)
    if isinstance(x, Fraction):
        p, q = x.numerator, x.denominator
        lead, *rest = reversed(f.coeffs)
        num, den = lead.numerator, lead.denominator
        for c in rest:
            num = num * c.denominator * p + c.numerator * den * q
            den = den * c.denominator * q
        return Fraction(num, den)
    acc = f.coeffs[-1]
    for c in reversed(f.coeffs[:-1]):
        acc = acc * x + c
    return acc


def ref_value(f, x):
    if isinstance(f, ig.Bump):
        return ref_bump(f, x)
    if isinstance(f, ig.Polynomial):
        return ref_poly(f, x)
    if isinstance(f, ig.AffineImage):
        return f.scale * ref_value(f.base, f.alpha * x + f.beta)
    return f.value(x)  # Sine: unchanged


@contextlib.contextmanager
def fractions_built():
    """Record the arguments of every Fraction built inside the block."""
    built = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield built
    finally:
        Fraction.__new__ = new


def ref_member(iv, qid):
    return (
        isinstance(qid, tuple)
        and len(qid) == 2
        and qid[0] == "ev"
        and _is_coordinate(qid[1])
        and iv.a <= qid[1] <= iv.b
    )


def ref_decision(vals, cut):
    r, entries = vals[0], vals[1:]
    return 1 if min(abs(d - r) for d in entries) > cut else 0


def ref_mu_member(qid):
    return len(qid) == 3 and qid[0] == "mu" and all(isinstance(k, int) and k >= 1 for k in qid[1:])


def ref_integral(f, a, b):
    if isinstance(f, ig.Polynomial):
        total = Fraction(0)
        for i, c in enumerate(f.coeffs):
            total += c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
        return total
    if isinstance(f, ig.Bump):
        total = Fraction(0)
        for lo, hi in ((f.u, f.apex), (f.apex, f.v)):
            p, q = max(a, lo), min(b, hi)
            if p < q:
                total += (ref_bump(f, p) + ref_bump(f, q)) * (q - p) / 2
        return total
    if isinstance(f, ig.AffineImage):
        return (f.scale / f.alpha) * ref_integral(f.base, f.alpha * a + f.beta, f.alpha * b + f.beta)
    return f.integral(a, b)  # Sine: unchanged


# --- strategies ------------------------------------------------------------

DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 10**6))
SMALL = st.builds(lambda q, d: Fraction(q, d), st.integers(-50 * 12, 50 * 12), DENOMINATORS)
POSITIVE = st.builds(lambda q, d: Fraction(q, d), st.integers(1, 50 * 12), DENOMINATORS)
FLOATS = st.floats(min_value=-100, max_value=100, allow_nan=False)
ORDERED = st.tuples(SMALL, SMALL).filter(lambda p: p[0] != p[1]).map(sorted)
POLYS = st.lists(SMALL, max_size=6).map(lambda cs: ig.Polynomial(tuple(cs)))
BUMPS = ORDERED.map(lambda p: ig.Bump(*p))
SINES = st.builds(ig.Sine, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([1.0, 2.0, 3.0]))
AFFINES = st.builds(ig.AffineImage, st.one_of(POLYS, BUMPS, SINES), SMALL, POSITIVE, SMALL)


@st.composite
def points_near(draw, lo, hi):
    """Rationals inside, on and just outside [lo, hi], plus ints, bools and floats."""
    tiny = Fraction(1, draw(st.integers(1, 10**12)))
    return draw(st.one_of(
        st.sampled_from([lo, hi, lo - tiny, hi + tiny, lo + tiny, hi - tiny, (lo + hi) / 2]),
        SMALL.map(lambda d: (lo + hi) / 2 + d / 50 * (hi - lo)),
        st.integers(-60, 60),
        st.booleans(),
        FLOATS,
    ))


# --- function values ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data(), BUMPS)
def test_bump_value_matches_reference(data, f):
    x = data.draw(points_near(f.u, f.v))
    same(f.value(x), ref_bump(f, x))


@settings(max_examples=150, deadline=None)
@given(POLYS, st.one_of(SMALL, st.integers(-60, 60), st.booleans(), FLOATS))
def test_polynomial_value_matches_reference(f, x):
    same(f.value(x), ref_poly(f, x))


@settings(max_examples=150, deadline=None)
@given(AFFINES, st.one_of(SMALL, st.integers(-60, 60), st.booleans(), FLOATS))
def test_affine_image_value_matches_reference(f, x):
    same(f.value(x), ref_value(f, x))


@st.composite
def nested_images(draw, leaves=st.one_of(POLYS, BUMPS, SINES), depth=3):
    """An AffineImage of depth 1 to ``depth`` over a drawn leaf (a polynomial, a bump or a sine)."""
    f = draw(leaves)
    for _ in range(draw(st.integers(1, depth))):
        f = ig.AffineImage(f, draw(SMALL), draw(POSITIVE), draw(SMALL))
    return f


@settings(max_examples=150, deadline=None)
@given(nested_images(), st.one_of(SMALL, st.integers(-60, 60), st.booleans(), FLOATS))
def test_nested_affine_image_matches_reference_and_normalises_once(f, x):
    want = ref_value(f, x)
    with fractions_built() as built:
        got = f.value(x)
    same(got, want)
    leaf = f
    while isinstance(leaf, ig.AffineImage):
        leaf = leaf.base
    if not isinstance(leaf, ig.Sine) and not isinstance(x, float):
        assert len(built) == 1  # the answer itself, at any depth


def test_affine_image_covers_every_base_kind():
    x = Fraction(3, 7)
    for base in (ig.polynomial("1/2", -3, "2/5"), ig.Bump(Fraction(0), Fraction(1)), ig.Sine(1.0, 2.0)):
        f = ig.AffineImage(base, Fraction(-5, 3), Fraction(7, 4), Fraction(1, 9))
        same(f.value(x), ref_value(f, x))
        same(f.value(0.3), ref_value(f, 0.3))


@settings(max_examples=150, deadline=None)
@given(SMALL, SMALL.filter(bool), st.one_of(st.integers(1, 10**6), st.just(True)))
def test_harmonic_entry_matches_reference(base, coef, j):
    same(sp.HarmonicSequence(base, coef).entry(j), base + coef / j)


# --- reference integrals ---------------------------------------------------

ENDS = st.one_of(SMALL, st.integers(-60, 60))
# ordered, equal and reversed ends, rational or not
ENDPOINTS = st.one_of(
    st.tuples(ENDS, ENDS),
    ENDS.map(lambda a: (a, a)),
    st.tuples(FLOATS, FLOATS),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(SMALL, max_size=8).map(lambda cs: ig.Polynomial(tuple(cs))), ENDPOINTS)
def test_polynomial_integral_matches_reference(f, ends):
    same(f.integral(*ends), ref_integral(f, *ends))


@pytest.mark.parametrize("f", [ig.polynomial("1/2", "-1/3", 0, "1/4", "5/7"),
                               ig.Bump(Fraction(-1, 2), Fraction(4, 3))])
def test_integral_builds_one_fraction(f):
    a, b = Fraction(-2, 3), Fraction(9, 5)
    with fractions_built() as built:
        got = f.integral(a, b)
    assert len(built) == 1
    same(got, ref_integral(f, a, b))


@settings(max_examples=200, deadline=None)
@given(st.data(), BUMPS)
def test_bump_integral_matches_reference(data, f):
    # ends inside, on and outside the support and its apex, in either order
    a, b = data.draw(points_near(f.u, f.v)), data.draw(points_near(f.apex, f.v))
    same(f.integral(a, b), ref_integral(f, a, b))
    same(f.integral(b, a), ref_integral(f, b, a))


def test_integer_polynomial_integral_is_exact():
    # int coefficients and int ends give Fractions, never an int / int float
    same(ig.Polynomial((1, 2, 3)).integral(0, 1), Fraction(3))
    same(ig.Polynomial((0, 5)).integral(0, 1), Fraction(5, 2))


@settings(max_examples=200, deadline=None)
@given(nested_images(st.one_of(POLYS, BUMPS), 4), ENDPOINTS)
def test_nested_affine_image_integral_matches_reference(f, ends):
    same(f.integral(*ends), ref_integral(f, *ends))


@settings(max_examples=100, deadline=None)
@given(st.one_of(SINES, nested_images(SINES, 4)), ENDPOINTS)
def test_sine_integrals_stay_bit_identical(f, ends):
    same(f.integral(*ends), ref_integral(f, *ends))


# --- stage finishes -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(SMALL, min_size=1, max_size=40),
    st.lists(FLOATS, min_size=1, max_size=40),
    st.lists(st.one_of(SMALL, FLOATS, st.integers(-9, 9)), min_size=1, max_size=40),
))
def test_exact_sum_matches_builtin_sum(values):
    same(_exact_sum(values), sum(values))
    same(_exact_sum(tuple(values)), sum(values))


@settings(max_examples=100, deadline=None)
@given(ORDERED, st.one_of(POLYS, BUMPS, SINES, AFFINES), st.integers(1, 64))
def test_rectangle_stage_matches_reference_finish(ends, f, n):
    iv = ig.Interval(*ends)
    value = evaluate_tower(ig.rectangle_tower(iv), (n,), ig.make_problem(iv, (f,)), f)
    h = iv.length / n
    same(value, h * sum(ref_value(f, x) for x in ig.grid_nodes(iv, n)))


DECISION_VALUES = st.one_of(SMALL, st.sampled_from([0.25, -1.5, 3.0]))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(SMALL, st.sampled_from([0.5, -0.25])),
    st.lists(DECISION_VALUES, min_size=1, max_size=12),
    st.one_of(POSITIVE, st.just(Fraction(0)), st.sampled_from([0.125, 1.0])),
)
def test_decision_finish_matches_min_reference(r, entries, cut):
    assert _all_farther(entries, r, cut) == (ref_decision((r, *entries), cut) == 1)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-2, max_value=2, max_denominator=64), st.integers(1, 12))
def test_decision_finish_on_gap_zero_entries(r, n):
    # an entry at distance exactly cut, or at distance 0, makes the stage output 0
    cut = Fraction(1, 2**n)
    for entries in ((r + cut,), (r - cut, r + 4), (r + 5, r)):
        assert not _all_farther(entries, r, cut)
        assert ref_decision((r, *entries), cut) == 0


def test_decision_stages_match_reference(spectral_source):
    tower = sp.decision_tower(spectral_source.params["domain"])
    for pair in spectral_source.inputs.members:
        for n2, n1 in ((1, 1), (3, 9), sp.stabilization_stages(*pair)):
            ids = (("rho", n2),) + tuple(("mu", j, j) for j in range(1, n1 + 1))
            vals = tuple(spectral_source.queries.resolve(q).evaluate(pair) for q in ids)
            want = ref_decision(vals, Fraction(1, 2**n2))
            same(evaluate_tower(tower, (n2, n1), spectral_source, pair), want)


# --- query membership ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data(), ORDERED)
def test_resolver_membership_matches_reference(data, ends):
    iv = ig.Interval(*ends)
    problem = ig.make_problem(iv)
    x = data.draw(points_near(iv.a, iv.b))
    # ends themselves, just outside them, ints, bools, floats and non-ev ids
    qid = data.draw(st.sampled_from([("ev", x), ("ev", x, 0), ("mu", x), ["ev", x]]))
    assert (qid in problem.queries) == ref_member(iv, qid)
    if ref_member(iv, qid):
        same(problem.queries.resolve(qid).evaluate(ig.polynomial(1, 1)), 1 + Fraction(x))


@settings(max_examples=150, deadline=None)
@given(st.data(), ORDERED, ORDERED)
def test_affine_rule_matches_reference(data, source_ends, target_ends):
    s, t = ig.Interval(*source_ends), ig.Interval(*target_ends)
    reduction = ig.affine_reduction(ig.make_problem(t), ig.make_problem(s))
    ratio = s.length / t.length
    shift = s.a - t.a * ratio
    x = data.draw(points_near(t.a, t.b))
    entry = reduction.plan.rule(("ev", x))
    assert (entry is not None) == ref_member(t, ("ev", x))
    if entry is not None:
        ((tag, y),) = entry.source_ids
        assert tag == "ev"
        same(y, ratio * x + shift)
        z = data.draw(st.one_of(SMALL, FLOATS))
        same(entry.combine((z,)), z * ratio)


@settings(max_examples=150, deadline=None)
@given(st.tuples(
    st.sampled_from(["mu", "nu", "rho"]),
    *[st.one_of(st.integers(-2, 9), st.booleans(), st.sampled_from([1.0, Fraction(2), "1"]))] * 2,
))
def test_spectral_matrix_entry_membership_matches_reference(qid):
    problem = sp.source_problem(interval(0, 1), ())
    assert (qid in problem.queries) == ref_mu_member(qid)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ig.Polynomial((Fraction(1), 0.5)), "Polynomial.coeffs[1]"),
        (lambda: ig.Bump(0.25, Fraction(1)), "Bump.u"),
        (lambda: ig.Bump(Fraction(0), 1.0), "Bump.v"),
        (lambda: ig.AffineImage(ig.Bump(Fraction(0), Fraction(1)), 1, 0.5, 0), "AffineImage.alpha"),
        (lambda: sp.HarmonicSequence(Fraction(1), 0.5), "HarmonicSequence.coef"),
    ],
)
def test_kernel_fields_refuse_floats_by_name(build, field):
    with pytest.raises(TypeError, match=re.escape(field)):
        build()
