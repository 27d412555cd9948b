"""Singleton-window spectral decision problems over diagonal operators.

Inputs pair a diagonal-operator description with a one-point window {z}
inside a fixed compact rational domain.  The decision target is 1 exactly
when the spectrum misses the window.  Window data reaches algorithms only
through dyadic approximants r_n = floor(2^(n+2) z) / 2^(n+2), so windows
are restricted to rational z to keep the floor exactly computable.

The shipped two-limit decision tower is a derived upper-bound witness
validated against the exact oracle on the catalog; the source's exact
height 2 itself enters the certificate layer as a recorded fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Callable, Sequence

from .core import (
    InputCatalog,
    Interval,
    OutputSpace,
    Problem,
    QueryFamily,
    Tower,
    _randbelow,
    check_budget,
    fixed_query_algorithm,
)
from .errors import BudgetExceeded, UncertifiedStabilizer, UnsupportedKind, WindowOutsideDomain
from .reductions import Decoder, DecoderClass, PlanEntry, QueryPlan, Reduction, _take_first

def _interval_distance(z: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return max(Fraction(0), lo - z, z - hi)


class DiagonalSpec:
    """Description of a real diagonal operator with an exact spectral oracle.

    ``entry(j)`` is the 1-indexed diagonal entry; ``spectrum_distance(z)``
    decides dist(z, closure of the entries) exactly in rational arithmetic,
    and ``in_spectrum(z)`` whether that distance is 0.
    """

    def entry(self, j: int) -> Fraction:
        raise NotImplementedError

    def spectrum_distance(self, z: Fraction) -> Fraction:
        raise NotImplementedError

    def in_spectrum(self, z: Fraction) -> bool:
        """Whether z lies in the closure of the entries, decided exactly."""
        return self.spectrum_distance(z) == 0

    def distance_to_interval(self, lo: Fraction, hi: Fraction) -> Fraction:
        """A certified rational lower bound for dist(spectrum, [lo, hi])."""
        raise NotImplementedError

    def approximation_index(self, z: Fraction, eps: Fraction) -> int:
        """Some j with |entry(j) - z| <= eps; requires z in the spectrum."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteThenConstant(DiagonalSpec):
    """Finitely many listed entries, then a constant tail; spectrum is a finite set."""

    values: tuple[Fraction, ...]
    tail: Fraction

    def entry(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("entries are 1-indexed")
        return self.values[j - 1] if j <= len(self.values) else self.tail

    def _points(self) -> tuple[Fraction, ...]:
        return tuple(dict.fromkeys((*self.values, self.tail)))

    def spectrum_distance(self, z: Fraction) -> Fraction:
        return min(abs(z - p) for p in self._points())

    def in_spectrum(self, z: Fraction) -> bool:
        return z == self.tail or z in self.values

    def distance_to_interval(self, lo, hi) -> Fraction:
        return min(_interval_distance(p, lo, hi) for p in self._points())

    def approximation_index(self, z, eps) -> int:
        for j in range(1, len(self.values) + 2):
            if abs(self.entry(j) - z) <= eps:
                return j
        raise ValueError(f"{z} is not in the spectrum of {self.label()}")

    def label(self) -> str:
        listed = ",".join(str(v) for v in self.values)
        return f"list:{listed}|{self.tail}" if listed else f"const:{self.tail}"


def constant_diagonal(value) -> FiniteThenConstant:
    return FiniteThenConstant((), Fraction(value))


@dataclass(frozen=True)
class HarmonicSequence(DiagonalSpec):
    """Arithmetic rule d_j = base + coef/j; closure adds the limit point base."""

    base: Fraction
    coef: Fraction

    def __post_init__(self):
        for field in ("base", "coef"):
            value = getattr(self, field)
            if not isinstance(value, Rational):
                raise TypeError(
                    f"HarmonicSequence.{field} must be rational (Fraction or int), got {value!r}"
                )
        if self.coef == 0:
            raise ValueError("coef = 0 is the constant kind; use constant_diagonal")
        # d_j = (m*j + k) / (d*j)
        bn, bd = self.base.numerator, self.base.denominator
        cn, cd = self.coef.numerator, self.coef.denominator
        object.__setattr__(self, "_entry", (bn * cd, cn * bd, bd * cd))

    def entry(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("entries are 1-indexed")
        m, k, d = self._entry
        return Fraction(m * j + k, d * j)

    def spectrum_distance(self, z: Fraction) -> Fraction:
        # |z - d_j| = |coef| * |1/t - 1/j| with t = coef/(z - base); the 1/j
        # ladder is monotone, so the minimum is attained at one of the two
        # integers bracketing t (or at j = 1, or at the limit point).
        if z == self.base:
            return Fraction(0)
        best = abs(z - self.base)
        t = self.coef / (z - self.base)
        candidates = {1}
        if t >= 1:
            floor_t = int(t)
            candidates.update((floor_t, floor_t + 1))
        for j in candidates:
            best = min(best, abs(z - self.entry(j)))
        return best

    def in_spectrum(self, z: Fraction) -> bool:
        # z = p/q is d_j exactly when j*(p*d - q*m) = q*k, and base = m/d when p*d = q*m
        m, k, d = self._entry
        p, q = z.numerator, z.denominator
        a, b = p * d - q * m, q * k
        return a == 0 or (b % a == 0 and b // a >= 1)

    def distance_to_interval(self, lo, hi) -> Fraction:
        # The closure lies in the hull of {base, base + coef}; the hull-to-
        # interval distance is a certified (possibly conservative) margin.
        hull_lo = min(self.base, self.base + self.coef)
        hull_hi = max(self.base, self.base + self.coef)
        return max(Fraction(0), lo - hull_hi, hull_lo - hi)

    def approximation_index(self, z, eps) -> int:
        if z == self.base:
            return max(1, math.ceil(abs(self.coef) / eps))
        t = self.coef / (z - self.base)
        if t >= 1 and t.denominator == 1 and self.entry(int(t)) == z:
            return int(t)
        raise ValueError(f"{z} is not in the spectrum of {self.label()}")

    def label(self) -> str:
        return f"harmonic:{self.base},{self.coef}"


@lru_cache(maxsize=64)
def _rational_block(spec: RationalEnumeration, count: int) -> tuple[Fraction, ...]:
    """First ``count`` terms of the denominator-ordered enumeration of Q ∩ [spec.lo, spec.hi].

    Every denominator q >= 1/(hi - lo) adds at least one term, so the scan
    visits fewer than ``count + ceil(1/(hi - lo))`` denominators.  ``count``
    is at most twice an entry index, which the callers' query budget bounds;
    the width term is bounded by nothing else, so a width term over
    ``DEFAULT_BUDGET`` raises :class:`BudgetExceeded` before the scan.

    The memo is keyed on the spec, whose hash is computed once, and not on
    its two ends, whose Fraction hashes each lookup would compute again.
    """
    lo, hi = spec.lo, spec.hi
    check_budget(f"rational-enumeration[{lo},{hi}]", math.ceil(1 / (hi - lo)), "denominators")
    out: list[Fraction] = []
    q = 1
    while len(out) < count:
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            out.append(Fraction(p, q))
            if len(out) == count:
                break
        q += 1
    return tuple(out)


#: Most entries an enumeration scans for one within eps of a point.
_ENUMERATION_SCAN = 99999


@dataclass(frozen=True)
class RationalEnumeration(DiagonalSpec):
    """Enumeration (with repetitions) of the rationals in [lo, hi]; closure is [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("enumeration kind needs lo < hi")
        # the dataclass hash, computed once: ``entry`` hashes the spec on every lookup
        object.__setattr__(self, "_hash", hash((self.lo, self.hi)))

    def __hash__(self) -> int:
        return self._hash

    def entry(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("entries are 1-indexed")
        block = 1 << (j - 1).bit_length() if j > 1 else 1
        return _rational_block(self, block)[j - 1]

    def spectrum_distance(self, z: Fraction) -> Fraction:
        return _interval_distance(z, self.lo, self.hi)

    def in_spectrum(self, z: Fraction) -> bool:
        return self.lo <= z <= self.hi

    def distance_to_interval(self, lo, hi) -> Fraction:
        return max(Fraction(0), lo - self.hi, self.lo - hi)

    def approximation_index(self, z, eps) -> int:
        if self.spectrum_distance(z) != 0:
            raise ValueError(f"{z} is not in the spectrum of {self.label()}")
        for j in range(1, _ENUMERATION_SCAN + 1):
            if abs(self.entry(j) - z) <= eps:
                return j
        raise BudgetExceeded(f"{self.label()}: none of its first {_ENUMERATION_SCAN} entries lies within {eps} of {z}")

    def label(self) -> str:
        return f"enum:{self.lo},{self.hi}"


@dataclass(frozen=True)
class Window:
    """A one-point window {z} inside its compact domain."""

    z: Fraction
    domain: Interval

    def __post_init__(self):
        if not self.domain.a <= self.z <= self.domain.b:
            raise WindowOutsideDomain(f"window point {self.z} outside {self.domain}")


@dataclass(frozen=True)
class WindowApproximant:
    """Dyadic stand-in r_n for the window point, exact to strictly below 2^-(n+2)."""

    n: int
    value: Fraction


def window_approximant(window: Window, n: int) -> WindowApproximant:
    """r_n; an index over ``DEFAULT_BUDGET`` raises :class:`BudgetExceeded` before 2^(n+2) is built."""
    if n < 1:
        raise ValueError("approximant index must be >= 1")
    return WindowApproximant(n, _approximant_value(window, n))


def _approximant_value(window: Window, n: int) -> Fraction:
    """The value of r_n for n >= 1, floor(z * 2^(n+2)) / 2^(n+2), budget-checked before 2^(n+2) is built."""
    check_budget("window-approximant", n, "dyadic bits")
    scale = 2 ** (n + 2)
    p, q = window.z.numerator, window.z.denominator
    floor = p * scale // q
    assert 0 <= p * scale - floor * q < q
    return Fraction(floor, scale)


def exact_decision_oracle(spec: DiagonalSpec, window: Window) -> int:
    """Reference decision: 1 iff the spectrum misses the window point, decided exactly."""
    if not isinstance(spec, DiagonalSpec):
        raise UnsupportedKind(f"no exact membership oracle for {type(spec).__name__}")
    return 0 if spec.in_spectrum(window.z) else 1


_BIT_SPACE = OutputSpace("bit", lambda p, q: 0 if p == q else 1, carrier=(0, 1))

Pair = tuple[DiagonalSpec, Window]


def _window_problem(
    name: str,
    queries_name: str,
    j_domain: Interval,
    members: tuple,
    *,
    is_operator: Callable[[object], bool],
    matrix_entry: Callable,
    diagonal_id: Callable[[int], tuple],
    sample_entry: Callable,
    canonical_ids: tuple,
    target: Callable,
    params: dict,
) -> Problem:
    """Scaffold of the source and stabilized problems: (operator, window) inputs
    over ``j_domain``, matrix-entry queries plus window data rho_n, bit outputs.
    A sampled query is rho_n, n drawn from 1..12, for draw 0 of an index below 4,
    else ``sample_entry(rng, draw)``; separators are ``diagonal_id(1..64)``, then rho_1..40.
    """
    for _, window in members:
        if window.domain != j_domain:
            raise WindowOutsideDomain(
                f"window domain {window.domain} differs from problem domain {j_domain}"
            )

    def resolver(qid):
        if not isinstance(qid, tuple) or not qid:
            return None
        if qid[0] == "rho" and len(qid) == 2 and isinstance(qid[1], int) and qid[1] >= 1:
            n = qid[1]
            return lambda pair: _approximant_value(pair[1], n)
        return matrix_entry(qid)

    def admits(candidate) -> bool:
        return (
            isinstance(candidate, tuple)
            and len(candidate) == 2
            and is_operator(candidate[0])
            and isinstance(candidate[1], Window)
            and candidate[1].domain == j_domain
        )

    def sampler(rng):
        kind = _randbelow(rng, 4)
        if kind == 0:
            return ("rho", 1 + _randbelow(rng, 12))
        return sample_entry(rng, kind)

    def separators(a, b):
        for j in range(1, 65):
            yield diagonal_id(j)
        for n in range(1, 41):
            yield ("rho", n)

    return Problem(
        name=name,
        inputs=InputCatalog(members, admits=admits),
        output_space=_BIT_SPACE,
        target=target,
        queries=QueryFamily(
            queries_name, resolver, canonical_ids=canonical_ids, sampler=sampler, separators=separators
        ),
        params=params,
    )


def source_problem(j_domain: Interval, pairs: Sequence[Pair], name: str | None = None) -> Problem:
    """The singleton-window decision problem over diagonal operators.

    Queries: matrix entries mu_(i,j) (diagonal entries for i = j, exact 0
    otherwise) and window approximants rho_n.  Target: 1 iff the spectrum
    misses {z}.
    """

    def matrix_entry(qid):
        if len(qid) == 3 and qid[0] == "mu":
            i, j = qid[1], qid[2]
            if isinstance(i, int) and i >= 1 and isinstance(j, int) and j >= 1:
                if i == j:
                    return lambda pair: pair[0].entry(i)
                return lambda pair: Fraction(0)
        return None

    def sample_entry(rng, kind):
        if kind == 1:
            return ("mu", 1 + _randbelow(rng, 8), 1 + _randbelow(rng, 8))
        j = 1 + _randbelow(rng, 8)
        return ("mu", j, j)

    return _window_problem(
        name or f"spectral-window{j_domain}",
        f"spectral-queries{j_domain}",
        j_domain,
        tuple(pairs),
        is_operator=lambda op: isinstance(op, DiagonalSpec),
        matrix_entry=matrix_entry,
        diagonal_id=lambda j: ("mu", j, j),
        sample_entry=sample_entry,
        canonical_ids=(("mu", 1, 1), ("mu", 2, 2), ("mu", 3, 3), ("mu", 1, 2),
                       ("rho", 1), ("rho", 2), ("rho", 3)),
        target=lambda pair: exact_decision_oracle(*pair),
        params={"domain": j_domain},
    )


def decision_tower(j_domain: Interval) -> Tower:
    """Derived height-2 decision tower (an upper-bound witness on the catalog).

    Stage (n2, n1) asks rho_(n2) and the first n1 diagonal entries and
    returns 1 iff min_j |d_j - r_(n2)| exceeds the stage threshold 2^-n2,
    which dominates the window error 2^-(n2+2) with margin.
    The inner value is binary and nonincreasing in n1, hence convergent;
    the outer limit is validated against the exact oracle on the catalog,
    not assumed.  An n2 over ``DEFAULT_BUDGET`` raises :class:`BudgetExceeded`
    before the threshold is built.
    """

    def stages(idx: tuple[int, ...]):
        n2, n1 = idx
        if n2 < 1 or n1 < 1:
            raise ValueError("stage indices must be >= 1")
        name = f"decide{j_domain}@({n2},{n1})"
        check_budget(name, n2, "dyadic bits")
        check_budget(name, n1 + 1)
        ids = (("rho", n2),) + tuple(("mu", j, j) for j in range(1, n1 + 1))
        cut = Fraction(1, 2**n2)

        def finish(vals):
            return 1 if _all_farther(vals[1:], vals[0], cut) else 0

        return fixed_query_algorithm(name, ids, finish)

    return Tower(f"decision{j_domain}", 2, stages)


def _all_farther(values, r, cut) -> bool:
    """``all(abs(d - r) > cut for d in values)``; for a nonempty list, ``min(...) > cut``.

    Fractions compare by integer cross-multiplication; any other value
    (a float reaching a pulled-back stage, say) takes the expression itself.
    """
    exact = type(r) is Fraction and type(cut) is Fraction
    if exact:
        rn, rd, cn, cd = r.numerator, r.denominator, cut.numerator, cut.denominator
        cut_rd = cn * rd
    for d in values:
        if exact and type(d) is Fraction:
            dd = d.denominator
            if abs(d.numerator * rd - rn * dd) * cd <= cut_rd * dd:
                return False
        elif not abs(d - r) > cut:
            return False
    return True


def stabilization_stages(spec: DiagonalSpec, window: Window) -> tuple[int, int]:
    """Analytic stages (n2, n1) at which the decision tower equals the oracle.

    Positive spectral gap delta: any n2 with 5*2^-(n2+2) < delta works, with
    n1 = 1 (more entries only grow the minimum's index set).  Gap zero: the
    stage outputs 0 once some entry sits within 3*2^-(n2+2) of z, so n1 is
    the witnessing approximation index at a fixed small n2.
    """
    delta = spec.spectrum_distance(window.z)
    if delta > 0:
        n2 = 1
        while Fraction(5, 2 ** (n2 + 2)) >= delta:
            n2 += 1
        return n2, 1
    n2 = 3
    return n2, spec.approximation_index(window.z, Fraction(3, 2 ** (n2 + 2)))


@dataclass(frozen=True)
class StabilizerSpec:
    """A diagonal block certified to keep its spectrum away from the window domain."""

    spec: DiagonalSpec
    domain: Interval
    margin: Fraction

    def __post_init__(self):
        if self.margin <= 0:
            raise UncertifiedStabilizer(
                f"cannot certify spectrum of {self.spec.label()} away from {self.domain}"
            )

    @classmethod
    def certify(cls, spec: DiagonalSpec, j_domain: Interval) -> "StabilizerSpec":
        return cls(spec, j_domain, spec.distance_to_interval(j_domain.a, j_domain.b))


@dataclass(frozen=True)
class BlockOperator:
    """Direct sum of a catalog diagonal block and a fixed stabilizer block.

    Entries are diagonal within each block and exactly 0 across blocks.
    """

    first: DiagonalSpec
    second: StabilizerSpec

    def entry(self, i: int, r: int, j: int, s: int) -> Fraction:
        if r == s and i == j:
            block = self.first if r == 1 else self.second.spec
            return block.entry(i)
        return Fraction(0)


def stabilized_problem(
    j_domain: Interval,
    stabilizer: StabilizerSpec,
    pairs: Sequence[Pair],
    name: str | None = None,
) -> Problem:
    """Decision problem for the block sums (A + B, {z}) with B spectrally irrelevant.

    Queries nu_((i,r),(j,s)) expose the block matrix; the target is computed
    through the spectral union of the two blocks, so it agrees with the
    plain source decision on corresponding inputs.
    """

    def matrix_entry(qid):
        if len(qid) == 5 and qid[0] == "nu":
            _, i, r, j, s = qid
            if (
                isinstance(i, int) and isinstance(r, int) and isinstance(j, int) and isinstance(s, int)
                and i >= 1 and j >= 1 and r in (1, 2) and s in (1, 2)
            ):
                return lambda pair: pair[0].entry(i, r, j, s)
        return None

    def target(pair) -> int:
        block, window = pair
        return 0 if block.first.in_spectrum(window.z) or block.second.spec.in_spectrum(window.z) else 1

    def sample_entry(rng, kind):
        i, j = 1 + _randbelow(rng, 6), 1 + _randbelow(rng, 6)
        r, s = ((1, 1), (2, 2), (1, 2), (2, 1))[_randbelow(rng, 4)]
        if kind == 1:
            return ("nu", i, r, i, s)
        return ("nu", i, r, j, s)

    return _window_problem(
        name or f"stabilized[{j_domain.a},{j_domain.b}|{stabilizer.spec.label()}]",
        f"stabilized-queries{j_domain}",
        j_domain,
        tuple((BlockOperator(spec, stabilizer), window) for spec, window in pairs),
        is_operator=lambda op: isinstance(op, BlockOperator) and op.second == stabilizer,
        matrix_entry=matrix_entry,
        diagonal_id=lambda j: ("nu", j, 1, j, 1),
        sample_entry=sample_entry,
        canonical_ids=(("nu", 1, 1, 1, 1), ("nu", 2, 1, 2, 1), ("nu", 1, 2, 1, 2),
                       ("nu", 1, 1, 1, 2), ("rho", 1), ("rho", 2)),
        target=target,
        params={"domain": j_domain, "stabilizer": stabilizer},
    )


def stabilization_reductions(
    j_domain: Interval,
    stabilizer: StabilizerSpec,
    pairs: Sequence[Pair],
    *,
    source: Problem | None = None,
    stabilized: Problem | None = None,
) -> tuple[Reduction, Reduction]:
    """The two-sided transport between the source and its stabilized version.

    Forward (source <= stabilized): encode (A, K) as (A + B, K); first-block
    entries replay mu, second-block entries are constants of the fixed B,
    mixed-block entries are the constant 0, window data passes through.
    Backward (stabilized <= source): strip the second block.  Both decoders
    are the identity on bits.
    """
    src = source if source is not None else source_problem(j_domain, pairs)
    stab = (
        stabilized
        if stabilized is not None
        else stabilized_problem(j_domain, stabilizer, pairs)
    )
    b_spec = stabilizer.spec

    def forward_rule(qid):
        if not isinstance(qid, tuple) or not qid:
            return None
        if qid[0] == "rho" and qid in stab.queries:
            return PlanEntry((qid,), _take_first)
        if qid[0] == "nu" and qid in stab.queries:
            i, r, j, s = qid[1], qid[2], qid[3], qid[4]
            if r == 1 and s == 1:
                return PlanEntry((("mu", i, j),), _take_first)
            if r == 2 and s == 2:
                value = b_spec.entry(i) if i == j else Fraction(0)
                return PlanEntry((("rho", 1),), lambda _vals, _v=value: _v)
            return PlanEntry((("rho", 1),), lambda _vals: Fraction(0))
        return None

    forward = Reduction(
        name=f"stabilize[{b_spec.label()}]",
        source=src,
        target=stab,
        encoder=lambda pair: (BlockOperator(pair[0], stabilizer), pair[1]),
        decoder=Decoder(lambda y: y, DecoderClass.CONT, "identity"),
        plan=QueryPlan("stabilize-forward", forward_rule),
    )

    def backward_rule(qid):
        if not isinstance(qid, tuple) or not qid:
            return None
        if qid[0] == "rho" and qid in src.queries:
            return PlanEntry((qid,), _take_first)
        if qid[0] == "mu" and qid in src.queries:
            i, j = qid[1], qid[2]
            return PlanEntry((("nu", i, 1, j, 1),), _take_first)
        return None

    backward = Reduction(
        name=f"strip[{b_spec.label()}]",
        source=stab,
        target=src,
        encoder=lambda pair: (pair[0].first, pair[1]),
        decoder=Decoder(lambda y: y, DecoderClass.CONT, "identity"),
        plan=QueryPlan("stabilize-backward", backward_rule),
    )
    return forward, backward
