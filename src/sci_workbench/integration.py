"""Exact point-evaluation integration on compact rational intervals.

Catalog functions are finite symbolic descriptions with exact reference
integrals: polynomials and tent bumps evaluate and integrate in rational
arithmetic, sines fall back to floats with a declared tolerance.  The
catalog is closed under affine precomposition so that encoded inputs keep
exact reference integrals, which is what reduction verification needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Any, Callable, Sequence

from .core import (
    GeneralAlgorithm,
    InputCatalog,
    Interval,
    OutputSpace,
    Problem,
    QueryFamily,
    Tower,
    _magnitude,
    _randbelow,
    check_budget,
    fixed_query_algorithm,
    interval,
)
from .errors import DegenerateInterval
from .reductions import Decoder, DecoderClass, PlanEntry, QueryPlan, Reduction


class FunctionDescription:
    """Finite symbolic description of a continuous real function.

    A description whose rational points have exact rational values may give
    an integer ``kernel(p, q) -> (num, den)`` with ``value(p/q) == num/den``
    for any integers p and q > 0, neither side normalised.  The default
    ``None`` means the value is not exact (a sine's float, say).
    """

    kernel = None

    def value(self, x):
        raise NotImplementedError

    def integral(self, a, b):
        """Exact reference integral over [a, b] (rational or closed form)."""
        raise NotImplementedError

    def lipschitz(self, a, b):
        """An upper bound for the Lipschitz constant on [a, b]."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def __call__(self, x):
        return self.value(x)


#: The endpoint types whose integrals run on integer numerators and denominators.
_EXACT = (int, Fraction)


def _scaled_horner(ints: tuple[int, ...], p: int, q: int) -> tuple[int, int]:
    """q^deg * P(p/q) and q^deg, for P given by its integer coefficients, highest degree first."""
    num, qk = ints[0], 1
    for c in ints[1:]:
        qk *= q
        num = num * p + c * qk
    return num, qk


def _require_rational(field: str, value) -> None:
    """The exact kernels read numerator and denominator; refuse anything else by name."""
    if not isinstance(value, Rational):
        raise TypeError(f"{field} must be rational (Fraction or int), got {value!r}")


@dataclass(frozen=True)
class Polynomial(FunctionDescription):
    """sum(coeffs[i] * x**i); all arithmetic exact."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        for i, c in enumerate(self.coeffs):
            _require_rational(f"Polynomial.coeffs[{i}]", c)
        # the coefficients as one integer vector over a common denominator,
        # highest degree first (leading one apart), for the integer Horner kernel
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = tuple(c.numerator * (den // c.denominator) for c in reversed(self.coeffs)) or (0,)
        object.__setattr__(self, "_horner", (den, ints[0], ints[1:]))
        # the antiderivative sum(coeffs[i] * x**(i + 1) / (i + 1)) in the same form,
        # its constant term 0 included, for the integer reference integral
        terms = [(c, i + 1) for i, c in enumerate(self.coeffs)]
        den = math.lcm(*(c.denominator * j for c, j in terms))
        ints = tuple(c.numerator * (den // (c.denominator * j)) for c, j in reversed(terms)) + (0,)
        object.__setattr__(self, "_antiderivative", (den, ints))

    def kernel(self, p: int, q: int) -> tuple[int, int]:
        """q^deg * P(p/q) by integer Horner, over den * q^deg."""
        den, num, rest = self._horner
        qk = 1
        for c in rest:
            qk *= q
            num = num * p + c * qk
        return num, den * qk

    def value(self, x):
        if isinstance(x, Fraction):
            return Fraction(*self.kernel(x.numerator, x.denominator))
        if not self.coeffs:
            return Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def integral(self, a, b):
        """F(b) - F(a) for the antiderivative F, as one Fraction when both ends are rational."""
        if type(a) in _EXACT and type(b) in _EXACT:
            den, ints = self._antiderivative
            fa, qa = _scaled_horner(ints, a.numerator, a.denominator)
            fb, qb = _scaled_horner(ints, b.numerator, b.denominator)
            return Fraction(fb * qa - fa * qb, den * qa * qb)
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            total += c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
        return total

    def lipschitz(self, a, b):
        m = max(abs(a), abs(b))
        return sum(abs(c) * i * m ** (i - 1) for i, c in enumerate(self.coeffs) if i >= 1)

    def label(self) -> str:
        return "poly:" + ",".join(str(c) for c in self.coeffs)


def polynomial(*coeffs) -> Polynomial:
    return Polynomial(tuple(Fraction(c) for c in coeffs))


@dataclass(frozen=True)
class Sine(FunctionDescription):
    """amplitude * sin(frequency * x); double precision, declared tolerance."""

    amplitude: float
    frequency: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude * self.frequency):
            raise ValueError(
                "sine amplitude, frequency and their product (the Lipschitz bound) must be finite"
            )
        if self.frequency == 0:
            raise ValueError("sine frequency must be nonzero; use the zero polynomial instead")

    def value(self, x):
        return self.amplitude * math.sin(self.frequency * float(x))

    def integral(self, a, b):
        # cos(fa) - cos(fb) = 2 sin(f(a+b)/2) sin(f(b-a)/2), which does not
        # cancel to 0 when f*a and f*b are both small
        f, a, b = self.frequency, float(a), float(b)
        return self.amplitude * (2 * math.sin(f * (a + b) / 2) / f) * math.sin(f * (b - a) / 2)

    def lipschitz(self, a, b):
        return abs(self.amplitude * self.frequency)

    def label(self) -> str:
        return f"sine:{self.amplitude},{self.frequency}"


@dataclass(frozen=True)
class Bump(FunctionDescription):
    """Tent supported on [u, v] with apex value 1; exact piecewise-linear arithmetic."""

    u: Fraction
    v: Fraction

    def __post_init__(self):
        _require_rational("Bump.u", self.u)
        _require_rational("Bump.v", self.v)
        if not self.u < self.v:
            raise ValueError("bump support needs u < v")
        # value(p/q) = (w*q - |2*d*p - s*q|) / (w*q), clipped at 0, where d is a
        # common denominator of u and v, s = (u + v)*d and w = (v - u)*d
        un, ud = self.u.numerator, self.u.denominator
        vn, vd = self.v.numerator, self.v.denominator
        object.__setattr__(self, "_tent", (2 * ud * vd, un * vd + vn * ud, vn * ud - un * vd))

    @property
    def apex(self) -> Fraction:
        return (self.u + self.v) / 2

    def kernel(self, p: int, q: int) -> tuple[int, int]:
        d2, s, w = self._tent
        num = w * q - abs(d2 * p - s * q)
        return (num, w * q) if num > 0 else (0, 1)

    def value(self, x):
        if type(x) is Fraction or isinstance(x, Rational):
            return Fraction(*self.kernel(x.numerator, x.denominator))
        slope = Fraction(2, 1) / (self.v - self.u)
        return max(1 - slope * abs(x - self.apex), Fraction(0))

    def _area(self, p: int, q: int) -> int:
        """4*d*w*q^2 times the area under the tent left of p/q (see ``__post_init__``)."""
        d2, s, w = self._tent
        t, wq = d2 * p - s * q, w * q  # 2*d*(x - apex) and w, both times q
        if t <= -wq:
            return 0
        if t <= 0:
            return (t + wq) ** 2
        if t < wq:
            return 2 * wq * wq - (wq - t) ** 2
        return 2 * wq * wq

    def integral(self, a, b):
        """The area between a and b, 0 when a >= b; one Fraction when both ends are rational."""
        if type(a) in _EXACT and type(b) in _EXACT:
            pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
            if pa * qb >= pb * qa:
                return Fraction(0)
            d2, _, w = self._tent
            return Fraction(self._area(pb, qb) * qa * qa - self._area(pa, qa) * qb * qb,
                            2 * d2 * w * qa * qa * qb * qb)
        total = Fraction(0)
        for lo, hi in ((self.u, self.apex), (self.apex, self.v)):
            p, q = max(a, lo), min(b, hi)
            if p < q:
                total += (self.value(p) + self.value(q)) * (q - p) / 2
        return total

    def lipschitz(self, a, b):
        return Fraction(2, 1) / (self.v - self.u)

    def label(self) -> str:
        return f"bump:{self.u},{self.v}"


@dataclass(frozen=True)
class AffineImage(FunctionDescription):
    """scale * base(alpha * x + beta); closes the catalog under affine encodings.

    An image has a kernel exactly when its base has one: it maps the inner
    point through the base's kernel unnormalised, so a rational point of a
    nested image costs one normalising Fraction at any depth.
    """

    base: FunctionDescription
    scale: Fraction
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        for field in ("scale", "alpha", "beta"):
            _require_rational(f"AffineImage.{field}", getattr(self, field))
        if self.alpha <= 0:
            raise ValueError("affine images here use alpha > 0")
        # alpha*x + beta = (m*p + k*q) / (d*q) for x = p/q; scale = sn/sd
        an, ad = self.alpha.numerator, self.alpha.denominator
        bn, bd = self.beta.numerator, self.beta.denominator
        sn, sd = self.scale.numerator, self.scale.denominator
        m, k, d = an * bd, bn * ad, ad * bd
        object.__setattr__(self, "_inner", (m, k, d))
        object.__setattr__(self, "_ratio", self.scale / self.alpha)
        base_kernel = self.base.kernel
        if base_kernel is not None:
            def kernel(p: int, q: int) -> tuple[int, int]:
                num, den = base_kernel(m * p + k * q, d * q)
                return sn * num, sd * den

            object.__setattr__(self, "kernel", kernel)

    def value(self, x):
        if type(x) is Fraction or isinstance(x, Rational):
            p, q = x.numerator, x.denominator
            if self.kernel is not None:
                return Fraction(*self.kernel(p, q))
            m, k, d = self._inner
            v = self.base.value(Fraction(m * p + k * q, d * q))
        else:
            v = self.base.value(self.alpha * x + self.beta)
        if type(v) is float:  # what scale * v computes, with a scale out of double range named
            return _double(self.scale, "an affine image's scale") * v
        return self.scale * v

    def integral(self, a, b):
        if type(a) in _EXACT and type(b) in _EXACT:
            m, k, d = self._inner
            pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
            return self._ratio * self.base.integral(
                Fraction(m * pa + k * qa, d * qa), Fraction(m * pb + k * qb, d * qb)
            )
        return self._ratio * self.base.integral(self.alpha * a + self.beta, self.alpha * b + self.beta)

    def lipschitz(self, a, b):
        inner = self.base.lipschitz(self.alpha * a + self.beta, self.alpha * b + self.beta)
        return abs(self.scale * self.alpha) * inner

    def label(self) -> str:
        return f"affine[{self.scale}*({self.base.label()})({self.alpha}x+{self.beta})]"


#: The members of every default catalog that do not depend on the interval, built once.
_INTERVAL_FREE_DEFAULTS: tuple[FunctionDescription, ...] = (
    polynomial(1),
    polynomial(0, 1),
    polynomial(0, 0, 1),
    polynomial("1/2", "-1/3", 0, "1/4"),
    Sine(1.0, 1.0),
    Sine(0.5, 2.0),
)


def default_functions(iv: Interval) -> tuple[FunctionDescription, ...]:
    """A small mixed catalog: exact polynomials plus float sines, and a bump on a nondegenerate ``iv``."""
    if iv.degenerate:
        return _INTERVAL_FREE_DEFAULTS
    width = iv.length
    return (*_INTERVAL_FREE_DEFAULTS, Bump(iv.a + width / 4, iv.a + 3 * width / 4))


def _double(value: Fraction, what: str) -> float:
    """``value`` as a double; one out of double range raises OverflowError naming ``what`` by its magnitude."""
    try:
        return float(value)
    except OverflowError:
        raise OverflowError(
            f"{what} is {_magnitude(value)}, which is out of double range, so no float can be scaled by it"
        ) from None


def _is_coordinate(x) -> bool:
    return isinstance(x, Rational) and not isinstance(x, bool)


def _ev_point(iv: Interval) -> Callable[[Any], Any]:
    """Membership test of point-evaluation ids on ``iv``.

    The returned function maps ("ev", x) with rational, non-bool x in
    [a, b] to x and every other id to None; the range check is integer
    cross-multiplication on the numerators and denominators.
    """
    an, ad = iv.a.numerator, iv.a.denominator
    bn, bd = iv.b.numerator, iv.b.denominator

    def point(qid):
        if isinstance(qid, tuple) and len(qid) == 2 and qid[0] == "ev":
            x = qid[1]
            if type(x) is Fraction or _is_coordinate(x):
                p, q = x.numerator, x.denominator
                if an * q <= p * ad and p * bd <= bn * q:
                    return x
        return None

    return point


def make_problem(iv: Interval, functions: Sequence[FunctionDescription] | None = None) -> Problem:
    """The integration problem on ``iv``: point-evaluation queries, exact target.

    Query ids are ("ev", x) with rational x in [a, b]; the target is the
    exact reference integral of the description.  Degenerate intervals are
    legal inputs: their target is identically 0.
    """
    members = tuple(functions) if functions is not None else default_functions(iv)
    a, b = iv.a, iv.b
    point = _ev_point(iv)

    def resolver(qid):
        x = point(qid)
        if x is None:
            return None
        return lambda f: f.value(x)

    # a + length*(j/den) = (an*ld*den + ln*ad*j) / (ad*ld*den), one Fraction per id
    an, ad = a.numerator, a.denominator
    ln, ld = iv.length.numerator, iv.length.denominator
    a_num, l_num, base = an * ld, ln * ad, ad * ld

    def grid_point(j: int, den: int):
        return ("ev", Fraction(a_num * den + l_num * j, base * den))

    if iv.degenerate:
        canonical = (("ev", a),)
    else:
        canonical = tuple(grid_point(j, 8) for j in range(9))

    # a draw j/den, den one of 8, 16, 32 and 64, is keyed by its index
    # j * (64 // den) on the 1/64 grid, so equal points share one integer key
    def sampler(rng):
        points, step = ((9, 8), (17, 4), (33, 2), (65, 1))[_randbelow(rng, 4)]  # den + 1, 64 // den
        return _randbelow(rng, points) * step

    def key_id(k: int):
        return grid_point(k, 64)

    def separators(f, g):
        for den in range(1, 65):
            for num in range(den + 1):
                yield grid_point(num, den)

    return Problem(
        name=f"integration{iv}",
        inputs=InputCatalog(
            members,
            admits=lambda f: isinstance(f, FunctionDescription),
        ),
        output_space=OutputSpace("real-line", lambda p, q: abs(p - q)),
        target=lambda f: f.integral(a, b),
        queries=QueryFamily(
            f"point-evaluations{iv}",
            resolver,
            canonical_ids=canonical,
            sampler=None if iv.degenerate else sampler,
            key_id=None if iv.degenerate else key_id,
            separators=None if iv.degenerate else separators,
        ),
        params=iv,
    )


def rectangle_tower(iv: Interval) -> Tower:
    """Height-1 tower of composite left-endpoint rectangle rules.

    Stage n queries the n grid nodes a + j*(b-a)/n (j < n) and outputs
    ((b-a)/n) * sum of the answers; this is the upper-bound witness at
    height 1 for every nondegenerate interval.
    """
    if iv.degenerate:
        raise DegenerateInterval(f"rectangle rule needs a < b, got {iv}")

    def stages(idx: tuple[int, ...]) -> GeneralAlgorithm:
        (n,) = idx
        if n < 1:
            raise ValueError("stage index must be >= 1")
        name = f"rectangle{iv}@{n}"
        check_budget(name, n)
        h = iv.length / n
        ids = _grid_ids(iv.a, iv.b, n)
        return fixed_query_algorithm(name, ids, lambda vals: h * _exact_sum(vals))

    return Tower(f"rectangle{iv}", 1, stages)


def _exact_sum(values):
    """``sum(values)``, accumulated as one integer over a running common denominator.

    Any value that is not a Fraction (a sine's float, say) sends the whole
    list to builtin ``sum``, so float results stay bit-identical.
    """
    num, den = 0, 1
    for v in values:
        if type(v) is not Fraction:
            return sum(values)
        d = v.denominator
        if den % d:
            g = math.gcd(den, d)
            num, den = num * (d // g) + v.numerator * (den // g), den // g * d
        else:
            num += v.numerator * (den // d)
    return Fraction(num, den)


def _build_grid_ids(a: Fraction, b: Fraction, n: int) -> tuple:
    num, den = a.numerator, a.denominator
    step_num, step_den = (b - a).numerator, (b - a).denominator * n
    return tuple(
        ("ev", Fraction(num * step_den + j * step_num * den, den * step_den))
        for j in range(n)
    )


#: Grid ids are built on each call and none is kept: every live id lengthens
#: each full pass of the cyclic garbage collector.  The size-0 ``lru_cache``
#: only counts the builds, in ``cache_info().misses``.
_grid_ids = lru_cache(maxsize=0)(_build_grid_ids)


def grid_nodes(iv: Interval, n: int) -> tuple[Fraction, ...]:
    """The n left-endpoint nodes used by stage n of the rectangle tower."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_budget(f"grid_nodes{iv}@{n}", n)
    return tuple(qid[1] for qid in _grid_ids(iv.a, iv.b, n))


def adversary_bump(query_points: Sequence) -> Bump:
    """Defeat any fixed finite-query protocol on the unit interval.

    Sort {0} | points | {1}, take the widest open gap between consecutive
    distinct values (ties resolved leftmost), and place the tent support on
    the middle half of that gap.  The tent vanishes at every query point yet
    integrates to (v-u)/2 > 0, so a protocol seeing only those points cannot
    tell it apart from the zero function.
    """
    cuts = {Fraction(0), Fraction(1)}
    for p in query_points:
        q = Fraction(p)
        if not 0 <= q <= 1:
            raise ValueError(f"query point {q} lies outside [0, 1]")
        cuts.add(q)
    ordered = sorted(cuts)
    best_left, best_right = ordered[0], ordered[1]
    for left, right in zip(ordered, ordered[1:]):
        if right - left > best_right - best_left:
            best_left, best_right = left, right
    gap = best_right - best_left
    return Bump(best_left + gap / 4, best_right - gap / 4)


def affine_reduction(target: Problem, source: Problem | None = None) -> Reduction:
    """Reduction from integration on [0,1] (or on ``source``) into ``target``.

    The encoder rescales: (E f)(x) = r * f(r*x + shift) with r the length
    ratio, so the reference integrals agree; each point evaluation of the
    target is simulated by exactly one source evaluation with combiner
    z -> r*z.  The decoder is the identity on the real line (tag Cont).
    """
    if source is None:
        source = make_problem(interval(0, 1))
    s, t = source.params, target.params
    if not isinstance(s, Interval) or not isinstance(t, Interval):
        raise ValueError("affine reductions are defined between integration problems")
    if s.degenerate or t.degenerate:
        raise DegenerateInterval("affine reductions need nondegenerate intervals")

    ratio = s.length / t.length
    shift = s.a - t.a * ratio

    def encoder(f: FunctionDescription) -> AffineImage:
        return AffineImage(f, ratio, ratio, shift)

    point = _ev_point(t)
    name = f"affine[{s}->{t}]"
    rn, rd = ratio.numerator, ratio.denominator
    sn, sd = shift.numerator, shift.denominator
    m, k, d = rn * sd, sn * rd, rd * sd  # ratio*x + shift = (m*p + k*q) / (d*q) for x = p/q
    # what float * Fraction converts the Fraction to, built on the first float answer:
    # a ratio out of double range fails only a reduction that meets a float
    ratio_float = None

    def combine(vals):
        nonlocal ratio_float
        z = vals[0]
        if type(z) is Fraction:
            return Fraction(rn * z.numerator, rd * z.denominator)
        if type(z) is float:
            try:  # free on the path that has the double
                return z * ratio_float
            except TypeError:  # float * None: the first float answer
                ratio_float = _double(ratio, f"the length ratio of {name}")
                return z * ratio_float
        return z * ratio

    def rule(qid):
        x = point(qid)
        if x is None:
            return None
        p, q = x.numerator, x.denominator
        return PlanEntry((("ev", Fraction(m * p + k * q, d * q)),), combine)

    reduction = Reduction(
        name=name,
        source=source,
        target=target,
        encoder=encoder,
        decoder=Decoder(lambda y: y, DecoderClass.CONT, "identity"),
        plan=QueryPlan(name, rule),
    )
    object.__setattr__(reduction, "fold", _fold_affine)
    return reduction


def _fold_affine(run: tuple[Reduction, ...]) -> Reduction:
    """The one affine link equal to a chain of affine links, first to last.

    Neighbouring links meet at one problem, and each maps its target's interval onto its
    source's, so the chain maps the last target's interval onto the first source's: it is
    ``affine_reduction(run[-1].target, run[0].source)``, whose ratio is the product of the
    links' ratios.  Its encoded input is one ``AffineImage``, and a target id costs one
    membership test, one source point and one combine, however long the run.
    """
    return affine_reduction(run[-1].target, run[0].source)


def degenerate_algorithm(a) -> Tower:
    """Height-0 tower for a one-point interval: query ev_a once, output 0.

    The empty integral makes the target constant zero, so this single
    algorithm equals the target outright; it passes the finite-query
    factorization check with the one-row table (value,) -> 0.
    """
    point = Fraction(a)
    alg = fixed_query_algorithm(f"degenerate[{point}]", (("ev", point),), lambda _vals: Fraction(0))
    return Tower(f"degenerate[{point}]", 0, lambda _idx, _alg=alg: _alg)


@dataclass(frozen=True)
class IntervalClassification:
    height: int
    reduction_available: bool


def classify_interval(iv: Interval) -> IntervalClassification:
    """Exact height of an interval member and whether the unit source reduces into it.

    Inside the interval ambient class the two answers coincide: height 1
    exactly on the nondegenerate members, which are exactly the members the
    unit-interval source reduces into.
    """
    if iv.degenerate:
        return IntervalClassification(0, False)
    return IntervalClassification(1, True)


def quadrature_error_bound(f: FunctionDescription, iv: Interval, n: int):
    """Left-endpoint error bound L*(b-a)^2/(2n) for an L-Lipschitz integrand."""
    return f.lipschitz(iv.a, iv.b) * iv.length**2 / (2 * n)
