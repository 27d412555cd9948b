"""Finite-space Koopman operators and their height-0 collapse.

On a finite weighted space the composition operator (K_F g)(x) = g(F(x)) is
a row-selection matrix, and the full map F is readable off the N point
evaluations, so both spectral targets factor through finitely many fixed
queries.  ``sigma_ap`` is computed structurally from the functional graph
(cycle lengths give roots of unity, off-cycle nodes give 0); the numeric
SVD/eigenvalue routines serve as the independent oracle in tests.

numpy is imported by the functions that compute with it, on their first
call, so building a space, a map table, a grid or a problem and its
height-0 tower does not load it.

Only the weighted 2-norm is implemented; the weights enter sigma_inf via
the diagonal similarity and leave eigenvalues untouched.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import (
    DEFAULT_BUDGET,
    InputCatalog,
    OutputSpace,
    Problem,
    QueryFamily,
    Tower,
    check_budget,
    fixed_query_algorithm,
)
from .errors import BadGrid, EmptySet, GridTooCoarse, WeightOutOfRange

if TYPE_CHECKING:
    import numpy as np

#: Complex entries per temporary block (64 KiB) in the grid SVD and Hausdorff kernels;
#: a block never holds less than one matrix or one row of distances.
_CHUNK_ENTRIES = 4096


@dataclass(frozen=True)
class FiniteSpace:
    """N points coded as 1..N, each carrying a positive rational weight."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a finite space has at least one point")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive; zero atoms would change the space dimension")

    @property
    def size(self) -> int:
        return len(self.weights)


def uniform_space(n: int) -> FiniteSpace:
    return FiniteSpace((Fraction(1),) * n)


@dataclass(frozen=True)
class MapTable:
    """A total self-map of 1..N given by its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0:
            raise ValueError("empty map table")
        if any(not (1 <= v <= n) for v in self.image):
            raise ValueError(f"map values must lie in 1..{n}")

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]


@dataclass(frozen=True)
class KoopmanMatrix:
    """K_F held as its map table: the 0/1 matrix whose row i has its single 1 in column F(i)."""

    table: MapTable

    @property
    def size(self) -> int:
        return self.table.size

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The N x N 0/1 rows, built from the table on each call."""
        return tuple(tuple(int(j == f) for j in range(1, self.size + 1)) for f in self.table.image)

    def image(self) -> tuple[int, ...]:
        return self.table.image

    def as_array(self) -> np.ndarray:
        """The rows of the complex identity picked by the image: the entries as complex numbers."""
        import numpy as np

        return np.eye(self.size, dtype=complex)[np.array(self.image()) - 1]


def koopman_matrix(space: FiniteSpace, table: MapTable) -> KoopmanMatrix:
    """The N x N matrix of K_F; more than ``DEFAULT_BUDGET`` entries raise :class:`BudgetExceeded` first,
    since :meth:`KoopmanMatrix.as_array` forms all of them."""
    if table.size != space.size:
        raise ValueError("map table size differs from space size")
    n = space.size
    check_budget(f"koopman-matrix[N={n}]", n * n, "matrix entries")
    return KoopmanMatrix(table)


def sigma_inf(matrix: KoopmanMatrix, z: complex, weights: Sequence[Fraction] | None = None) -> float:
    """Injection modulus at z: smallest singular value of the weighted shift.

    With W = diag(weights) this is the smallest singular value of
    W^(1/2) (M - zI) W^(-1/2), i.e. the infimum of the weighted 2-norm of
    (K_F - zI)g over the weighted unit sphere.
    """
    _, values = next(_sigma_inf_many(matrix, (z,), weights))
    return float(values[0])


def _formed(matrix: KoopmanMatrix, weights: Sequence[Fraction] | None) -> tuple:
    """M as a complex array and the root weights D (see :func:`_root_weights`), formed once per caller.

    A weight vector whose length is not N raises ValueError.
    """
    if weights is not None and len(weights) != matrix.size:
        raise ValueError(f"{len(weights)} weights given for a Koopman matrix on {matrix.size} points")
    return matrix.as_array(), _root_weights(weights)


def _sigma_inf_many(
    matrix: KoopmanMatrix,
    zs: Iterable,
    weights: Sequence[Fraction] | None,
    index: np.ndarray | None = None,
    *,
    formed: tuple | None = None,
):
    """Yield (z chunk, sigma_inf array) over the z values, one stacked SVD per chunk.

    The entries of each shifted, weighted matrix are formed exactly as for a
    single z, so the values equal the one-point SVD bit for bit.  Given an
    increasing ``index`` array, the values are those of the diagonal block on
    those rows and columns, whose entries are the full matrix's.  A caller
    making many calls passes ``formed = _formed(matrix, weights)``.
    """
    import numpy as np

    base, w = formed or _formed(matrix, weights)
    if index is not None:
        base = base[np.ix_(index, index)]
        w = None if w is None else w[index]
    n = len(base)
    eye = np.eye(n)
    per_chunk = max(1, _CHUNK_ENTRIES // (n * n))
    zs = iter(zs)
    while chunk := list(itertools.islice(zs, per_chunk)):
        stack = base - np.array(chunk, dtype=complex)[:, None, None] * eye
        if w is not None:
            stack = (stack * w[:, None]) / w[None, :]
        yield chunk, np.linalg.svd(stack, compute_uv=False)[:, -1]


def _root_weights(weights: Sequence[Fraction] | None):
    """The diagonal of D = W^(1/2) in double precision, or None for unit weights.

    A weight whose double is 0 or infinite raises :class:`WeightOutOfRange`.
    """
    import numpy as np

    if weights is None:
        return None
    doubles = []
    for k, x in enumerate(weights, 1):
        try:
            d = float(x)
        except OverflowError:
            d = math.inf
        if not 0 < d < math.inf:
            raise WeightOutOfRange(f"weight {k} of {len(weights)} is out of double range: its double is {d}")
        doubles.append(d)
    return np.sqrt(np.array(doubles))


@dataclass(frozen=True)
class CompactSetApprox:
    """Finite point list standing for a nonempty compact subset of the plane."""

    points: tuple[complex, ...]
    resolution: float = 0.0

    def __post_init__(self):
        if not self.points:
            raise EmptySet("compact-set approximations are nonempty")
        _require_finite(self.points)


def hausdorff(a: CompactSetApprox, b: CompactSetApprox) -> float:
    """Max of the two directed max-min distances between the point lists.

    Equal point tuples are at distance 0.0, which is what the pass below
    returns for them, since every point is at ``hypot(0, 0) = 0`` from
    itself.  Otherwise
    one pass over blocks of rows of A: each block's distances to all of B
    give the row minima (A -> B) and update the running column minima
    (B -> A).  ``hypot`` of the difference is Python's ``abs`` bit for bit.
    Compact sets are bounded, so a non-finite point, in a
    :class:`CompactSetApprox` or in a raw point tuple, raises ValueError.
    """
    pa, pb = _points(a), _points(b)
    if pa == pb:
        return 0.0
    import numpy as np

    forward = 0.0
    backward = np.full(len(pb), np.inf)
    for dist in _distance_blocks(pa, pb):
        forward = max(forward, dist.min(axis=1).max())
        np.minimum(backward, dist.min(axis=0), out=backward)
    return float(max(forward, backward.max()))


def _distance_blocks(pa: Sequence[complex], pb: Sequence[complex]):
    """Yield the distances ``hypot(p - q)`` of each block of rows p of A to every q of B.

    A block holds at most ``_CHUNK_ENTRIES`` distances, and at least one row.
    """
    import numpy as np

    pa = np.array(pa, dtype=complex)
    pb = np.array(pb, dtype=complex)
    rows = max(1, _CHUNK_ENTRIES // len(pb))
    for start in range(0, len(pa), rows):
        d = pa[start:start + rows, None] - pb[None, :]
        yield np.hypot(d.real, d.imag)


def _distance_to(zs: Sequence[complex], points: Sequence[complex]) -> np.ndarray:
    """Per z, its computed distance to the nearest of the points."""
    import numpy as np

    return np.concatenate([dist.min(axis=1) for dist in _distance_blocks(zs, points)])


def _points(value) -> tuple[complex, ...]:
    if isinstance(value, CompactSetApprox):
        return value.points
    pts = tuple(value)
    if not pts:
        raise EmptySet("cannot take distances to an empty set")
    _require_finite(pts)
    return pts


def _require_finite(points: tuple) -> None:
    if not all(map(cmath.isfinite, points)):
        bad = next(p for p in points if not cmath.isfinite(p))
        raise ValueError(f"compact-set points are finite, got {bad}")


#: exp(2*pi*i*k/m) at the quarter turns, keyed by the reduced (k, m)
_EXACT_ROOTS = {(0, 1): 1 + 0j, (1, 2): -1 + 0j, (1, 4): 1j, (3, 4): -1j}


def _cycle_lengths(image: tuple[int, ...]) -> tuple[list[int], bool, list[int]]:
    """Per weakly connected component of the functional graph, the length of
    its cycle; whether any node is off-cycle; and per node (0-based) the
    number of its component.

    Each component holds exactly one cycle, so a path that closes a new
    cycle opens a new component, and a path that runs into settled nodes
    joins theirs.  The off-cycle nodes are the ones the cycles leave over.
    """
    n = len(image)
    state = [0] * (n + 1)  # 0 new, 1 on current path, 2 settled
    component = [0] * (n + 1)
    cycles: list[int] = []
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = image[node - 1]
        if state[node] == 1:  # found a new cycle along this path
            label = len(cycles)
            cycles.append(len(path) - path.index(node))
        else:
            label = component[node]
        for member in path:
            state[member] = 2
            component[member] = label
    return cycles, sum(cycles) < n, component[1:]


def _roots_of_unity(lengths: Iterable[int]) -> list[complex]:
    """The L-th roots of unity over the lengths L, each once: exact at quarter
    turns, double precision (``cmath.exp``) elsewhere."""
    roots = {}
    for m in set(lengths):
        for k in range(m):
            g = math.gcd(k, m)
            angle = (k // g, m // g)
            if angle not in roots:
                exact = _EXACT_ROOTS.get(angle)
                roots[angle] = cmath.exp(2j * cmath.pi * (k / m)) if exact is None else exact
    return list(roots.values())


def sigma_ap(matrix: KoopmanMatrix, weights: Sequence[Fraction] | None = None) -> CompactSetApprox:
    """Approximate point spectrum of the finite Koopman matrix (= its spectrum).

    Each cycle of length L contributes the L-th roots of unity; any node off
    a cycle contributes 0.  Roots at quarter turns are exact; the rest are
    double precision.  Weights are accepted for interface symmetry but do
    not move eigenvalues (the weighted operator is similar to the matrix).
    """
    return _spectrum_and_components(matrix)[0]


def _spectrum_and_components(matrix: KoopmanMatrix) -> tuple[CompactSetApprox, list[int], list[int]]:
    """:func:`sigma_ap` and the cycle lengths and component numbers of :func:`_cycle_lengths`, from one walk."""
    cycles, has_tail, component = _cycle_lengths(matrix.image())
    points = _roots_of_unity(cycles)
    if has_tail:
        points.append(0j)
    points.sort(key=lambda p: (p.real, p.imag))
    return CompactSetApprox(tuple(points)), cycles, component


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sampling rectangle with fixed spacing."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float
    spacing: float

    def __post_init__(self):
        fields = (self.re_lo, self.re_hi, self.im_lo, self.im_hi, self.spacing)
        if not all(math.isfinite(v) for v in fields):
            raise BadGrid(f"grid fields must be finite, got {fields}")
        if self.spacing <= 0 or self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise BadGrid("bad grid rectangle")
        try:
            count = self.size
        except OverflowError:
            raise BadGrid(f"grid rectangle overflows at spacing {self.spacing}") from None
        if count > DEFAULT_BUDGET:
            # the count may run to hundreds of digits, past float range: scale it by an exact power of ten
            e = len(str(count)) - 1
            raise BadGrid(f"grid has {count / 10**e:.3f} x 10^{e} points, more than the budget {DEFAULT_BUDGET}")

    @property
    def size(self) -> int:
        """Number of grid points."""
        n_re, n_im = self._steps()
        return (n_re + 1) * (n_im + 1)

    def _steps(self) -> tuple[int, int]:
        return (
            int((self.re_hi - self.re_lo) / self.spacing + 1e-9),
            int((self.im_hi - self.im_lo) / self.spacing + 1e-9),
        )

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Real parts ``re_lo + i*spacing`` and imaginary parts ``im_lo + j*spacing``.

        One rounded multiply and one rounded add per coordinate, as Python
        float arithmetic does it; grid point (i, j) is ``complex(re[i], im[j])``.
        """
        import numpy as np

        n_re, n_im = self._steps()
        return (
            self.re_lo + np.arange(n_re + 1) * self.spacing,
            self.im_lo + np.arange(n_im + 1) * self.spacing,
        )

    def points(self):
        re, im = self._axes()
        im = im.tolist()
        for x in re.tolist():
            for y in im:
                yield complex(x, y)


#: Largest grid points x N^3 that one sigma_ap_eps call accepts: SVD work grows with
#: both, and the default 22801-point CLI grid at N = 32 (7.5e8) stays inside.
AP_EPS_BUDGET = 2**30
#: Index step between anchor rows (and anchor columns) of the pruned grid pass.
_ANCHOR_STRIDE = 4
#: The constant c of the SVD error bound delta = c*n*u*(||B~||_F + sqrt(n)*max|z|).
_DELTA_C = 64
_UNIT_ROUNDOFF = 2.0**-53
#: Rounds a computed distance |z - z0| up past the rounding of dx, dy and hypot(dx, dy).
_DISTANCE_PAD = 1 + 4 * _UNIT_ROUNDOFF


def _axis_anchors(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor indices of one grid axis, and per index its enclosing anchor pair.

    The anchors are every ``_ANCHOR_STRIDE``-th index plus the last one; for
    index i, ``lo[i]`` and ``hi[i]`` are the positions in that list of the
    anchors at or below and at or above i (equal at the last anchor).
    """
    import numpy as np

    anchors = np.arange(0, count, _ANCHOR_STRIDE)
    if anchors[-1] != count - 1:
        anchors = np.append(anchors, count - 1)
    lo = np.minimum(np.arange(count) // _ANCHOR_STRIDE, len(anchors) - 1)
    return anchors, lo, np.minimum(lo + 1, len(anchors) - 1)


def _mirror_columns(im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns whose imaginary value is negative and whose exact negation
    is also a column, and their partner columns; ``im`` is increasing, so a
    binary search finds each partner."""
    import numpy as np

    at = np.minimum(np.searchsorted(im, -im), len(im) - 1)
    mirrored = np.flatnonzero((im < 0) & (im[at] == -im))
    return mirrored, at[mirrored]


def _svd_error_bound(
    matrix: KoopmanMatrix, weights: Sequence[Fraction] | None, z_max: float, *, formed: tuple | None = None
) -> float:
    """delta = c*n*u*(||B~||_F + sqrt(n)*z_max), c = 64: a bound on the error of
    the computed sigma_inf at every |z| <= z_max (see :func:`sigma_ap_eps`)."""
    import numpy as np

    n = matrix.size
    w = (formed or _formed(matrix, weights))[1]
    image = matrix.image()
    with np.errstate(over="ignore"):
        ratios = np.ones(n) if w is None else w / w[np.array(image) - 1]
        norm = float(np.linalg.norm(ratios))
    if not math.isfinite(norm):
        i = int(np.argmax(ratios))
        raise WeightOutOfRange(
            f"weights {i + 1} and {image[i]} put the weighted matrix out of double range: its entry "
            f"sqrt(w{i + 1}/w{image[i]}) is {ratios[i]} and its Frobenius norm {norm}"
        )
    return _DELTA_C * n * _UNIT_ROUNDOFF * (norm + math.sqrt(n) * z_max)


def sigma_ap_eps(
    matrix: KoopmanMatrix,
    eps: float,
    grid: GridSpec,
    weights: Sequence[Fraction] | None = None,
) -> CompactSetApprox:
    """Grid sample of the eps-approximate point spectrum.

    Retains every grid point with sigma_inf <= eps plus the eigenvalues
    themselves (their sigma_inf is 0), so sigma_ap is a subset as a point
    set.  Since sigma_inf is 1-Lipschitz in z, the sample is within one grid
    spacing of the true set in Hausdorff distance; the spacing must not
    exceed eps/4 and the rectangle must cover the spectrum plus an eps
    margin.  A request of more than ``AP_EPS_BUDGET`` grid points x N^3
    raises :class:`BudgetExceeded` before any SVD.

    The kept points are exactly those whose computed sigma_inf (the stacked
    SVD of :func:`sigma_inf`) is <= eps, but most are decided without an SVD.
    One stacked pass computes s0 at the anchors: the grid points whose row
    and column indices are both multiples of 4, the last row and column
    counting as anchor rows and columns.  Every point z is then checked
    against the four anchors z0 of its cell: it is dropped if
    s0 - |z - z0| - 2*delta > eps for one of them, kept if
    s0 + |z - z0| + 2*delta <= eps for one of them, and otherwise the
    spectrum rule below or its own SVD decides, in a second stacked pass.
    |z - z0| is rounded up by a (1 + 4u) factor.

    The rules are exact because the SVD input at z is a rounding of
    B~ - zI, with B~ = D M D^-1 and D the double-precision square-root
    weights, and sigma_min(B~ - zI) is 1-Lipschitz in z, weighted or not.
    delta bounds the distance of the computed value from it:
    delta = c*n*u*(||B~||_F + sqrt(n)*max|z|) over the grid, with u = 2^-53
    and c = 64.  Forming the entries (one subtraction, multiply and divide
    each) moves the matrix by at most 3u(||B~||_F + sqrt(n)|z|) in the
    Frobenius norm, and the LAPACK SVD adds at most p(n)*u*||A||_2 (LAPACK
    Users' Guide, section 4.9); c*n leaves room for p(n) up to 32n, for
    the formation error and for the rounding of the two disk tests, whose
    operands are at most a few times ||B~||_F + max|z|.  Weights whose
    doubles are 0 or infinite, or that put an entry of B~ or delta out of
    double range, raise :class:`WeightOutOfRange` before any SVD.

    Both stacked passes split the matrix over the weakly connected
    components of the map's functional graph.  Row i of K_F has its 1 in
    column F(i), in the component of i, so after a permutation B~ - zI is
    block-diagonal and sigma_inf(z) is the least over the components of
    the smallest singular value of the block on the component's indices:
    one stacked m x m SVD per component instead of one N x N SVD.  Each
    block's entries are the full matrix's, formed the same way (subtract
    zI, then weight).  The delta of the full matrix bounds the error of
    every block's computed value, since a block is no larger in n or in
    ||B~||_F, so the block minimum is within delta of sigma_min(B~ - zI)
    too, and the disk rules hold for it as they stand.

    A component that is a pure cycle (its size is its cycle length, as the
    cycle walk of :func:`sigma_ap` counts them) whose weights are equal as
    Fractions takes no SVD.  Its weights have one double and one square
    root, so its block of B~ is the m-cycle permutation matrix itself,
    which is normal with the m-th roots of unity as eigenvalues, and
    sigma_min of a normal matrix minus zI is the distance from z to its
    spectrum (Trefethen & Embree, Spectra and Pseudospectra, ch. 2).  Its
    value is therefore computed as min_k |z - w_k| over the computed roots
    w_k (one pass for all such components together).  A fixed point always
    qualifies: its block is 1 - z whatever its weight.  A computed root is
    within 21u of the true one (the angle 2*pi*k/m is rounded three times,
    then cos and sin once each), and the subtraction and ``hypot`` add at
    most 2.01u(|z| + 1), so the closed form is within 24u(1 + max|z|) of
    the exact value.  Every component holds a cycle, along which the
    ratios of B~ multiply to 1, so ||B~||_F >= 1 and
    delta >= 64u(1 + max|z|): the closed form is within 3*delta/8, well
    inside delta, and everything said of block values holds for it.

    The block minimum may still differ from the reference value by up to
    2*delta, so a second-pass point whose block minimum lies within
    2*delta of eps is decided by the full-matrix SVD instead.  That holds
    for every map split into more than one block or with a block value in
    closed form, a one-cycle map included; only a map whose one component
    takes the full-matrix SVD needs no such fallback.

    Only the columns that do not mirror go through the passes above.  B~ is
    real, so the SVD input at conj(z) is the entrywise conjugate of the
    input at z, and sigma_min(B~ - conj(z)I) = sigma_min(B~ - zI): the
    eps-pseudospectrum is symmetric about the real axis (Trefethen &
    Embree, ch. 2).  A column whose imaginary value is negative and whose
    exact negation is also a column is mirrored: its points take the
    decisions of their partners conj(z).  The other columns (the upper
    half, the real axis and every column without an exact partner) run
    the anchor pass, the rules and the second pass as a grid of their own,
    with anchors at every 4th of those columns and the last.  The disk
    rules and the spectrum rule decide only points whose exact value lies
    more than delta from eps, and a second-pass value more than 2*delta
    from eps puts the exact value more than delta from eps too; the
    computed value at conj(z), within delta of that same exact value,
    then decides alike.  Two computed values at z and conj(z) may differ
    by up to 2*delta, so a partner decided by a value within 2*delta of
    eps leaves its mirrored point to an SVD of its own, by the same
    block-then-full-matrix rule.  Only exact mirrors save work: a
    symmetric grid with dyadic spacing mirrors every negative column.

    Before its second-pass SVD, an undecided point z is kept if
    d*(1 + 4u) + 2*delta <= eps, with d its computed distance to the
    computed spectrum.  For every map and every weighting an eigenvector
    of B~ (similar to M, so with the same eigenvalues) for lambda gives
    sigma_min(B~ - zI) <= |z - lambda|, so the reference value is at most
    |z - lambda| + delta.  The (1 + 4u) factor covers the rounding of the
    distance, and the second delta covers the 21u error of a computed root
    and the rounding of the test, since delta >= 64u(1 + max|z|) and eps
    is at most max|z| (the grid covers the spectrum with an eps margin).
    """
    import numpy as np

    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    n = matrix.size
    check_budget(f"sigma_ap_eps[N={n}]", grid.size * n**3, "grid points x N^3", AP_EPS_BUDGET)
    if grid.spacing > eps / 4:
        raise GridTooCoarse(f"spacing {grid.spacing} exceeds eps/4 = {eps / 4}")
    spectrum, cycles, component = _spectrum_and_components(matrix)
    for lam in spectrum.points:
        if not (
            grid.re_lo <= lam.real - eps
            and lam.real + eps <= grid.re_hi
            and grid.im_lo <= lam.imag - eps
            and lam.imag + eps <= grid.im_hi
        ):
            raise GridTooCoarse(f"grid does not cover {lam} with an eps margin")
    re, im = grid._axes()
    formed = _formed(matrix, weights)
    z_max = math.hypot(np.abs(re).max(), np.abs(im).max())
    slack = 2 * _svd_error_bound(matrix, weights, z_max, formed=formed)
    labels = np.array(component)
    normal, parts = [], []
    for k, m in enumerate(cycles):
        index = np.flatnonzero(labels == k)
        if len(index) == m and (weights is None or len({weights[i] for i in index.tolist()}) == 1):
            normal.append(m)
        else:
            parts.append(index)
    whole = len(cycles) == 1 and not normal
    if whole:
        parts = [None]
    elif normal:
        parts.append(_roots_of_unity(normal))

    def sigma(zs: list[complex], parts: list) -> np.ndarray:
        """Per z, the least value over the parts: the distance to a list of roots
        (normal blocks), or the computed sigma_inf of the block on an index array
        (None: the full matrix)."""
        return np.min([
            _distance_to(zs, part) if isinstance(part, list) else
            np.concatenate([v for _, v in _sigma_inf_many(matrix, zs, weights, part, formed=formed)])
            for part in parts
        ], axis=0)

    def svd_values(zs: list[complex]) -> np.ndarray:
        """Per z, the block minimum, or the full-matrix value where that lies within 2*delta of eps."""
        values = sigma(zs, parts)
        if not whole:
            close = np.flatnonzero(np.abs(values - eps) <= slack)
            if len(close):
                values[close] = sigma([zs[k] for k in close], [None])
        return values

    mirrored, partner = _mirror_columns(im)
    own = np.delete(np.arange(len(im)), mirrored)
    partner = np.searchsorted(own, partner)
    y = im[own]
    row_anchors, row_lo, row_hi = _axis_anchors(len(re))
    col_anchors, col_lo, col_hi = _axis_anchors(len(y))
    anchor_im = y[col_anchors].tolist()
    s0 = sigma([complex(x, v) for x in re[row_anchors].tolist() for v in anchor_im], parts)
    s0 = s0.reshape(len(row_anchors), len(col_anchors))
    col_offsets = [(c, y - y[col_anchors[c]]) for c in (col_lo, col_hi)]
    rows = max(1, _CHUNK_ENTRIES // len(im))
    kept = []
    for start in range(0, len(re), rows):
        x, lo, hi = re[start:start + rows], row_lo[start:start + rows], row_hi[start:start + rows]
        keep = np.zeros((len(x), len(y)), dtype=bool)
        drop = np.zeros_like(keep)
        tight = np.zeros_like(keep)
        for r in (lo, hi):
            dx = (x - re[row_anchors[r]])[:, None]
            for c, dy in col_offsets:
                s = s0[r[:, None], c]
                reach = np.hypot(dx, dy) * _DISTANCE_PAD + slack
                keep |= s + reach <= eps
                drop |= s - reach > eps
        i, j = np.nonzero(~(keep | drop))
        zs = list(map(complex, x[i].tolist(), y[j].tolist()))
        if zs:
            spectral = _distance_to(zs, spectrum.points) * _DISTANCE_PAD + slack <= eps
            keep[i[spectral], j[spectral]] = True
            rest = np.flatnonzero(~spectral)
            i, j, zs = i[rest], j[rest], [zs[k] for k in rest]
        if zs:
            values = svd_values(zs)
            keep[i, j] = values <= eps
            tight[i, j] = np.abs(values - eps) <= slack
        grid_keep = np.zeros((len(x), len(im)), dtype=bool)
        grid_keep[:, own] = keep
        grid_keep[:, mirrored] = keep[:, partner]
        i, j = np.nonzero(tight[:, partner])
        if len(i):
            j = mirrored[j]
            grid_keep[i, j] = svd_values(list(map(complex, x[i].tolist(), im[j].tolist()))) <= eps
        i, j = np.nonzero(grid_keep)
        kept.extend(map(complex, x[i].tolist(), im[j].tolist()))
    kept.extend(spectrum.points)
    kept.sort(key=lambda p: (p.real, p.imag))
    return CompactSetApprox(tuple(kept), resolution=grid.spacing)


_HAUSDORFF_SPACE = OutputSpace("compact-sets", hausdorff)

TargetSpec = tuple  # ("ap",) or ("ap_eps", eps, GridSpec)

AP: TargetSpec = ("ap",)


def ap_eps(eps: float, grid: GridSpec) -> TargetSpec:
    return ("ap_eps", eps, grid)


def _compute_target(space: FiniteSpace, table: MapTable, target: TargetSpec) -> CompactSetApprox:
    matrix = koopman_matrix(space, table)
    if target[0] == "ap":
        return sigma_ap(matrix, space.weights)
    if target[0] == "ap_eps":
        return sigma_ap_eps(matrix, target[1], target[2], space.weights)
    raise ValueError(f"unknown spectral target {target!r}")


def _evaluation_ids(n: int) -> tuple:
    return tuple(("ev", i) for i in range(1, n + 1))


def make_problem(space: FiniteSpace, tables: Sequence[MapTable], target: TargetSpec = AP) -> Problem:
    """Spectral problem over map tables with point-evaluation queries ev_i = F(i)."""
    n = space.size

    def resolver(qid):
        if (
            isinstance(qid, tuple)
            and len(qid) == 2
            and qid[0] == "ev"
            and isinstance(qid[1], int)
            and 1 <= qid[1] <= n
        ):
            i = qid[1]
            return lambda table: table(i)
        return None

    label = "ap" if target[0] == "ap" else f"ap_eps[{target[1]}]"
    return Problem(
        name=f"koopman[N={n}|{label}]",
        inputs=InputCatalog(
            tuple(tables),
            admits=lambda t: isinstance(t, MapTable) and t.size == n,
        ),
        output_space=_HAUSDORFF_SPACE,
        target=lambda table: _compute_target(space, table, target),
        queries=QueryFamily(f"koopman-evals[N={n}]", resolver, canonical_ids=_evaluation_ids(n)),
        params={"space": space, "target": target},
    )


def height0_algorithm(space: FiniteSpace, target: TargetSpec = AP) -> Tower:
    """The finite-space collapse witness: N queries reconstruct F, then compute exactly.

    The single algorithm asks ev_1 .. ev_N, rebuilds the map table from the
    answers, forms the Koopman matrix and evaluates the requested spectral
    target; a concrete finite-query factorization through the point
    evaluations.
    """
    n = space.size

    def finish(values: tuple) -> CompactSetApprox:
        table = MapTable(tuple(int(v) for v in values))
        return _compute_target(space, table, target)

    alg = fixed_query_algorithm(f"koopman-collapse[N={n}]", _evaluation_ids(n), finish)
    return Tower(f"koopman-collapse[N={n}]", 0, lambda _idx, _alg=alg: _alg)


def eigenvalue_oracle(matrix: KoopmanMatrix) -> CompactSetApprox:
    """Independent numeric spectrum via dense eigenvalues (the brute-force route)."""
    import numpy as np

    values = np.linalg.eigvals(matrix.as_array())
    points = sorted((complex(v) for v in values), key=lambda p: (p.real, p.imag))
    return CompactSetApprox(tuple(points))
