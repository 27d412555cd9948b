import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import koopman as kp
from sci_workbench.core import DEFAULT_BUDGET, run_algorithm
from sci_workbench.errors import BadGrid, BudgetExceeded, EmptySet, GridTooCoarse, WeightOutOfRange


def all_tables(n):
    return [kp.MapTable(img) for img in itertools.product(range(1, n + 1), repeat=n)]


class TestMatrices:
    def test_identity(self):
        m = kp.koopman_matrix(kp.uniform_space(1), kp.MapTable((1,)))
        assert m.entries == ((1,),)

    def test_swap(self):
        m = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((2, 1)))
        assert m.entries == ((0, 1), (1, 0))

    def test_constant_map_selects_first_column(self):
        m = kp.koopman_matrix(kp.uniform_space(3), kp.MapTable((1, 1, 1)))
        assert all(row[0] == 1 and sum(row) == 1 for row in m.entries)

    def test_row_invariant_enforced(self):
        # K_F is held as its map table, so the one-1-per-row invariant is the table's
        with pytest.raises(ValueError, match="empty map table"):
            kp.MapTable(())
        with pytest.raises(ValueError, match=r"map values must lie in 1\.\.2"):
            kp.MapTable((3, 2))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            kp.FiniteSpace((Fraction(1), Fraction(0)))


class TestSigmaInf:
    def test_identity_at_eigenvalue(self):
        m = kp.koopman_matrix(kp.uniform_space(1), kp.MapTable((1,)))
        assert kp.sigma_inf(m, 1) == 0.0

    def test_swap_is_isometry(self):
        m = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((2, 1)))
        assert kp.sigma_inf(m, 0, kp.uniform_space(2).weights) == pytest.approx(1.0)

    def test_shifted_identity(self):
        m = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((1, 2)))
        assert kp.sigma_inf(m, 1.25) == pytest.approx(0.25)

    def test_lipschitz_in_z(self, rng):
        m = kp.koopman_matrix(kp.uniform_space(3), kp.MapTable((2, 3, 1)))
        weights = (Fraction(1), Fraction(1, 2), Fraction(2))
        for _ in range(50):
            z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            gap = abs(kp.sigma_inf(m, z1, weights) - kp.sigma_inf(m, z2, weights))
            assert gap <= abs(z1 - z2) + 1e-9


class TestSigmaAp:
    def test_identity_singleton(self):
        m = kp.koopman_matrix(kp.uniform_space(1), kp.MapTable((1,)))
        assert kp.sigma_ap(m).points == (1 + 0j,)

    def test_swap_pair(self):
        m = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((2, 1)))
        assert kp.sigma_ap(m).points == (-1 + 0j, 1 + 0j)

    def test_constant_map_adds_zero(self):
        m = kp.koopman_matrix(kp.uniform_space(3), kp.MapTable((1, 1, 1)))
        assert kp.sigma_ap(m).points == (0j, 1 + 0j)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_numeric_oracle_exhaustively(self, n):
        space = kp.uniform_space(n)
        for table in all_tables(n):
            m = kp.koopman_matrix(space, table)
            gap = kp.hausdorff(kp.sigma_ap(m), kp.eigenvalue_oracle(m))
            assert gap <= 1e-10

    def test_weights_do_not_move_eigenvalues(self):
        table = kp.MapTable((2, 3, 1))
        uniform = kp.sigma_ap(kp.koopman_matrix(kp.uniform_space(3), table))
        weighted = kp.sigma_ap(
            kp.koopman_matrix(kp.FiniteSpace((Fraction(1), Fraction(1, 2), Fraction(1, 4))), table)
        )
        assert uniform.points == weighted.points


class TestSigmaApEps:
    def test_identity_disk(self):
        m = kp.koopman_matrix(kp.uniform_space(1), kp.MapTable((1,)))
        grid = kp.GridSpec(0.0, 2.0, -1.0, 1.0, 0.025)
        approx = kp.sigma_ap_eps(m, 0.1, grid)
        assert all(abs(z - 1) <= 0.1 + 1e-12 for z in approx.points)
        assert (1 + 0j) in approx.points

    def test_contains_sigma_ap(self):
        m = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((2, 1)))
        grid = kp.GridSpec(-1.5, 1.5, -1.5, 1.5, 0.02)
        approx = kp.sigma_ap_eps(m, 0.1, grid)
        for p in kp.sigma_ap(m).points:
            assert p in approx.points

    def test_too_coarse_spacing(self):
        m = kp.koopman_matrix(kp.uniform_space(1), kp.MapTable((1,)))
        with pytest.raises(GridTooCoarse):
            kp.sigma_ap_eps(m, 0.1, kp.GridSpec(-2, 2, -2, 2, 0.5))

    def test_insufficient_margin(self):
        m = kp.koopman_matrix(kp.uniform_space(1), kp.MapTable((1,)))
        with pytest.raises(GridTooCoarse):
            kp.sigma_ap_eps(m, 0.5, kp.GridSpec(0.9, 1.1, -0.1, 0.1, 0.1))

    def test_cost_budget_is_inclusive_and_fits_the_default_grid(self):
        # 128 x 256 grid points at N = 32 is exactly the budget; one more grid row is over it
        m = kp.koopman_matrix(kp.uniform_space(32), kp.MapTable(tuple(range(2, 33)) + (1,)))
        assert kp.GridSpec(0, 127, 0, 255, 1).size * 32**3 == kp.AP_EPS_BUDGET
        with pytest.raises(GridTooCoarse):  # past the budget check, refused for its margin
            kp.sigma_ap_eps(m, 4.0, kp.GridSpec(0, 127, 0, 255, 1))
        with pytest.raises(BudgetExceeded, match=r"sigma_ap_eps\[N=32\] would need 1077936128 grid points x N\^3"):
            kp.sigma_ap_eps(m, 4.0, kp.GridSpec(0, 127, 0, 256, 1))
        assert kp.GridSpec(-1.5, 1.5, -1.5, 1.5, 0.02).size * 32**3 <= kp.AP_EPS_BUDGET

    def test_matrix_refusal_counts_entries(self):
        with pytest.raises(BudgetExceeded, match=r"would need 1002001 matrix entries"):
            kp.koopman_matrix(kp.uniform_space(1001), kp.MapTable((1,) * 1001))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), 0.0, -0.5])
    def test_non_positive_or_non_finite_eps_refused_by_name(self, eps):
        m = kp.koopman_matrix(kp.uniform_space(3), kp.MapTable((2, 3, 1)))
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            kp.sigma_ap_eps(m, eps, kp.GridSpec(-1.5, 1.5, -1.5, 1.5, 0.02))


class TestHausdorff:
    def test_trivia(self):
        assert kp.hausdorff(kp.CompactSetApprox((0j,)), kp.CompactSetApprox((0j,))) == 0
        assert kp.hausdorff(kp.CompactSetApprox((0j,)), kp.CompactSetApprox((1 + 0j,))) == 1

    def test_directed_asymmetry_resolved_by_max(self):
        a = kp.CompactSetApprox((0j, 1 + 0j))
        b = kp.CompactSetApprox((1 + 0j,))
        assert kp.hausdorff(a, b) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            kp.CompactSetApprox(())

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False), min_size=1, max_size=6),
    )
    def test_metric_axioms_on_samples(self, xs, ys, zs):
        a, b, c = (kp.CompactSetApprox(tuple(p)) for p in (xs, ys, zs))
        assert kp.hausdorff(a, b) >= 0
        assert kp.hausdorff(a, b) == kp.hausdorff(b, a)
        assert kp.hausdorff(a, a) == 0
        assert kp.hausdorff(a, c) <= kp.hausdorff(a, b) + kp.hausdorff(b, c) + 1e-9


class TestHeightZeroCollapse:
    def test_swap_two_queries(self):
        space = kp.uniform_space(2)
        problem = kp.make_problem(space, (kp.MapTable((2, 1)),))
        tower = kp.height0_algorithm(space)
        output, trace = run_algorithm(tower.stage(()), problem, kp.MapTable((2, 1)))
        assert output.points == (-1 + 0j, 1 + 0j)
        assert len(trace) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small_spaces(self, n):
        space = kp.uniform_space(n)
        tables = all_tables(n)
        problem = kp.make_problem(space, tables)
        tower = kp.height0_algorithm(space)
        for table in tables:
            output, trace = run_algorithm(tower.stage(()), problem, table)
            assert len(trace) == n
            assert kp.hausdorff(output, problem.target(table)) == 0.0

    def test_random_larger_spaces(self):
        rng = random.Random(7)
        for n in (5, 6):
            space = kp.uniform_space(n)
            tables = tuple(
                kp.MapTable(tuple(rng.randrange(1, n + 1) for _ in range(n))) for _ in range(50)
            )
            problem = kp.make_problem(space, tables)
            tower = kp.height0_algorithm(space)
            for table in tables:
                output, trace = run_algorithm(tower.stage(()), problem, table)
                assert len(trace) == n
                assert kp.hausdorff(output, problem.target(table)) == 0.0
                gap = kp.hausdorff(output, kp.eigenvalue_oracle(kp.koopman_matrix(space, table)))
                assert gap <= 1e-10


def reference_sigma_inf(matrix, z, weights=None):
    """One SVD per point: the loop the stacked kernel replaced."""
    a = matrix.as_array() - complex(z) * np.eye(matrix.size)
    if weights is not None:
        w = np.sqrt(np.array([float(x) for x in weights]))
        a = (a * w[:, None]) / w[None, :]
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def reference_hausdorff(a, b):
    """Double loop over point pairs: the kernel the single pass replaced."""
    pa, pb = a.points, b.points
    forward = max(min(abs(p - q) for q in pb) for p in pa)
    backward = max(min(abs(p - q) for q in pa) for p in pb)
    return float(max(forward, backward))


@st.composite
def koopman_cases(draw):
    n = draw(st.integers(1, 32))
    image = tuple(draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    weights = draw(st.none() | st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=8), min_size=n, max_size=n
    ).map(tuple))
    return kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(image)), weights


class TestStackedSigmaInf:
    @settings(max_examples=60, deadline=None)
    @given(koopman_cases(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_equals_per_point_svd_bit_for_bit(self, case, extra, seed):
        matrix, weights = case
        rng = random.Random(seed)
        per_chunk = max(1, kp._CHUNK_ENTRIES // matrix.size**2)
        zs = [0j, 1 + 0j, -1 + 0j, 1j]
        zs += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(per_chunk + extra)]
        chunks = list(kp._sigma_inf_many(matrix, zs, weights))
        assert len(chunks) > 1
        assert [z for chunk, _ in chunks for z in chunk] == zs
        stacked = [float(v) for _, values in chunks for v in values]
        assert stacked == [reference_sigma_inf(matrix, z, weights) for z in zs]
        assert kp.sigma_inf(matrix, zs[-1], weights) == stacked[-1]

    @pytest.mark.parametrize("n,eps,permutation", [(3, 0.5, False), (8, 0.25, True), (17, 0.5, False)])
    def test_ap_eps_equals_per_point_grid(self, n, eps, permutation):
        rng = random.Random(n)
        image = rng.sample(range(1, n + 1), n) if permutation else [rng.randint(1, n) for _ in range(n)]
        weights = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n))
        matrix = kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(tuple(image)))
        reach = 1 + eps + eps / 4
        grid = kp.GridSpec(-reach, reach, -reach, reach, eps / 4)
        kept = [z for z in grid.points() if reference_sigma_inf(matrix, z, weights) <= eps]
        kept.extend(kp.sigma_ap(matrix, weights).points)
        kept.sort(key=lambda p: (p.real, p.imag))
        assert kp.sigma_ap_eps(matrix, eps, grid, weights).points == tuple(kept)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))),
           st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
    def test_permutation_is_distance_to_spectrum(self, image, z):
        # K_F of a permutation is unitary, so sigma_inf(z) = dist(z, sigma_ap)
        space = kp.uniform_space(len(image))
        matrix = kp.koopman_matrix(space, kp.MapTable(tuple(image)))
        distance = min(abs(z - lam) for lam in kp.sigma_ap(matrix).points)
        assert abs(kp.sigma_inf(matrix, z, space.weights) - distance) <= 1e-12


def literal_points(grid):
    """Grid points in grid order, built as ``GridSpec.points`` documents them."""
    n_re, n_im = grid._steps()
    return [complex(grid.re_lo + i * grid.spacing, grid.im_lo + j * grid.spacing)
            for i in range(n_re + 1) for j in range(n_im + 1)]


def reference_ap_eps(matrix, eps, grid, weights, values=None):
    """The kept set from one SVD per literal grid point."""
    points = literal_points(grid)
    if values is None:
        values = [reference_sigma_inf(matrix, z, weights) for z in points]
    kept = [z for z, v in zip(points, values) if v <= eps]
    kept.extend(kp.sigma_ap(matrix, weights).points)
    kept.sort(key=lambda p: (p.real, p.imag))
    return tuple(kept)


def is_anchor(index, count):
    return index % kp._ANCHOR_STRIDE == 0 or index == count - 1


class TestPrunedGrid:
    @pytest.mark.parametrize("count", [1, 2, 4, 5, 9, 27, 43])
    def test_anchors_bracket_every_index(self, count):
        anchors, lo, hi = kp._axis_anchors(count)
        assert anchors.tolist() == sorted({*range(0, count, kp._ANCHOR_STRIDE), count - 1})
        for i in range(count):
            assert anchors[lo[i]] <= i <= anchors[hi[i]]
            assert anchors[hi[i]] - anchors[lo[i]] <= kp._ANCHOR_STRIDE

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(-2**20, 2**20), st.integers(-2**20, 2**20),
        st.integers(0, 40), st.integers(0, 40), st.sampled_from([0.25, 0.1, 0.02, 0.3]),
    )
    def test_points_follow_the_documented_formula(self, re0, im0, cols, rows, spacing):
        grid = kp.GridSpec(re0 / 1024, re0 / 1024 + cols * spacing, im0 / 1024,
                           im0 / 1024 + rows * spacing, spacing)
        points = list(grid.points())
        assert points == literal_points(grid)
        assert all(type(z) is complex for z in points)

    @settings(max_examples=20, deadline=None)
    @given(koopman_cases(), st.sampled_from([1.0, 0.75]), st.floats(0, 0.5), st.floats(0, 0.5),
           st.integers(0, 2**16), st.booleans())
    def test_kept_set_equals_per_point_reference_at_the_boundary(
        self, case, eps0, stretch_re, stretch_im, pick, ulp_below
    ):
        # the grid is valid for every eps in [eps0, 1.25*eps0]; eps is set to
        # the computed value of one non-anchor grid point there, or one ulp below
        matrix, weights = case
        reach = 1 + eps0 + eps0 / 4
        grid = kp.GridSpec(-reach, reach + stretch_re, -reach - stretch_im, reach, eps0 / 4)
        n_re, n_im = grid._steps()
        values = [reference_sigma_inf(matrix, z, weights) for z in literal_points(grid)]
        inner = [v for k, v in enumerate(values)
                 if eps0 < v <= 1.25 * eps0
                 and not (is_anchor(k // (n_im + 1), n_re + 1) and is_anchor(k % (n_im + 1), n_im + 1))]
        eps = inner[pick % len(inner)] if inner else eps0
        if ulp_below and inner:
            eps = math.nextafter(eps, 0)
        approx = kp.sigma_ap_eps(matrix, eps, grid, weights)
        assert approx.points == reference_ap_eps(matrix, eps, grid, weights, values)
        assert all(type(z) is complex for z in approx.points)

    @pytest.mark.parametrize("image,grid,eps", [
        ((3, 5, 1, 2, 4), (-1.75, 1.625, -1.875, 1.625, 0.125), 0.5590169943749471),
        ((3, 2, 4, 1), (-1.75, 1.625, -2.0, 1.625, 0.125), 0.6249999999999999),
    ])
    def test_lipschitz_tight_boundary_cases(self, image, grid, eps):
        # a permutation has sigma_inf(z) = dist(z, spectrum), so along a ray from
        # an eigenvalue the Lipschitz bound is tight and SVD rounding alone
        # decides these points; disk rules without delta misplace one of them
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = kp.GridSpec(*grid)
        assert kp.sigma_ap_eps(matrix, eps, grid).points == reference_ap_eps(matrix, eps, grid, None)

    @settings(max_examples=40, deadline=None)
    @given(koopman_cases(), st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
           st.sampled_from([1.0, 1e-3, 1e-9]))
    def test_computed_values_obey_the_pruning_bound(self, case, z, step, scale):
        # |s(z) - s(z')| <= |z - z'| + 2*delta, the inequality both disk rules rest on
        matrix, weights = case
        z2 = z + step * scale
        delta = kp._svd_error_bound(matrix, weights, max(abs(z), abs(z2)))
        gap = abs(reference_sigma_inf(matrix, z, weights) - reference_sigma_inf(matrix, z2, weights))
        assert gap <= abs(z - z2) * kp._DISTANCE_PAD + 2 * delta

    @pytest.mark.parametrize("weighted", [False, True])
    def test_most_points_are_settled_without_an_svd(self, weighted, monkeypatch):
        # bench shape: N = 32, a map with tails, eps = 0.5 on a 27 x 27 grid;
        # 24-29 % of the points get an SVD, 39-44 % when one anchor row or
        # column of each cell is ignored, and all of them without pruning
        rng = random.Random(32)
        n, eps = 32, 0.5
        image = tuple(rng.randint(1, n) for _ in range(n))
        weights = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)) if weighted else None
        matrix = kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(image))
        reach = 1 + eps + eps / 4
        grid = kp.GridSpec(-reach, reach, -reach, reach, eps / 4)
        expected = reference_ap_eps(matrix, eps, grid, weights)
        stacks = []
        svd = np.linalg.svd

        def counted(stack, *args, **kwargs):
            stacks.append(len(stack))
            return svd(stack, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert kp.sigma_ap_eps(matrix, eps, grid, weights).points == expected
        assert 0 < sum(stacks) <= len(literal_points(grid)) // 3


def random_points(rng, count):
    return kp.CompactSetApprox(tuple(complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(count)))


class TestSinglePassHausdorff:
    @pytest.mark.parametrize("sizes", [(1, 1), (1, 9), (9, 1), (3, 50), (100, 100), (5000, 2), (2, 5000)])
    def test_equals_double_loop_bit_for_bit(self, sizes, rng):
        a, b = (random_points(rng, size) for size in sizes)
        assert kp.hausdorff(a, b) == reference_hausdorff(a, b)
        assert kp.hausdorff(b, a) == reference_hausdorff(b, a)

    def test_grid_sample_against_spectrum(self):
        matrix = kp.koopman_matrix(kp.uniform_space(4), kp.MapTable((2, 1, 1, 3)))
        approx = kp.sigma_ap_eps(matrix, 0.25, kp.GridSpec(-1.4, 1.4, -1.4, 1.4, 0.0625))
        assert len(approx.points) > kp._CHUNK_ENTRIES ** 0.5
        spectrum = kp.sigma_ap(matrix)
        assert kp.hausdorff(approx, spectrum) == reference_hausdorff(approx, spectrum)
        assert kp.hausdorff(approx, approx) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=40),
        st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=40),
    )
    def test_equals_double_loop_on_samples(self, xs, ys):
        a, b = kp.CompactSetApprox(tuple(xs)), kp.CompactSetApprox(tuple(ys))
        assert kp.hausdorff(a, b) == reference_hausdorff(a, b)


class TestGridPreflight:
    @pytest.mark.parametrize("fields", [
        (-1.5, 1.5, -1.5, 1.5, float("nan")),
        (-1.5, 1.5, -1.5, 1.5, float("inf")),
        (float("-inf"), 1.5, -1.5, 1.5, 0.02),
        (-1.5, 1.5, -1.5, float("nan"), 0.02),
        (-1e308, 1e308, -1.5, 1.5, 1.0),
        (-1.5, 1.5, -1.5, 1.5, 1e-4),
        (-1.5, 1.5, -1.5, 1.5, 0.0),
        (1.5, -1.5, -1.5, 1.5, 0.02),
    ])
    def test_rejected_before_any_point(self, fields):
        with pytest.raises(BadGrid):
            kp.GridSpec(*fields)

    def test_budget_is_inclusive(self):
        side = int(DEFAULT_BUDGET**0.5)
        n_re, n_im = kp.GridSpec(0, side - 1, 0, side - 1, 1.0)._steps()
        assert (n_re + 1) * (n_im + 1) == DEFAULT_BUDGET
        with pytest.raises(BadGrid):
            kp.GridSpec(0, side, 0, side - 1, 1.0)


def reference_components(image):
    """Index arrays of the weakly connected components of i -> F(i), by union-find."""
    parent = list(range(len(image)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, f in enumerate(image):
        parent[root(i)] = root(f - 1)
    roots = [root(i) for i in range(len(image))]
    return [np.flatnonzero(np.array(roots) == r) for r in sorted(set(roots), key=roots.index)]


def reference_block_sigma_inf(matrix, z, weights, index):
    """One SVD of the diagonal block on ``index``: subtract zI, then weight."""
    a = np.array(matrix.entries, dtype=complex)[np.ix_(index, index)] - complex(z) * np.eye(len(index))
    if weights is not None:
        w = np.sqrt(np.array([float(x) for x in weights]))[index]
        a = (a * w[:, None]) / w[None, :]
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def reference_block_minimum(matrix, z, weights):
    return min(reference_block_sigma_inf(matrix, z, weights, index)
               for index in reference_components(matrix.image()))


def union_of_cycles_with_tails(parts, tail_targets, relabel):
    """A map whose components are the given (cycle length, tail count) parts.

    Tail node t of a part maps to an earlier node of the same part, picked by
    ``tail_targets``; ``relabel`` (a permutation of 1..N) interleaves the parts.
    """
    image = []
    targets = iter(tail_targets)
    for cycle, tail in parts:
        base = len(image)
        image += [base + (k + 1) % cycle + 1 for k in range(cycle)]
        for _ in range(tail):
            image.append(base + next(targets) % (len(image) - base) + 1)
    relabelled = [0] * len(image)
    for i, f in enumerate(image):
        relabelled[relabel[i] - 1] = relabel[f - 1]
    return tuple(relabelled)


@st.composite
def multi_component_cases(draw):
    parts = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=2, max_size=4))
    n = sum(cycle + tail for cycle, tail in parts)
    tail_targets = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
    relabel = draw(st.permutations(range(1, n + 1)))
    image = union_of_cycles_with_tails(parts, tail_targets, relabel)
    weights = draw(st.none() | st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=8), min_size=n, max_size=n
    ).map(tuple))
    return kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(image)), weights


def boundary_grid(eps0, stretch_re=0.0, stretch_im=0.0):
    """A grid valid for every eps in [eps0, 1.25*eps0] around the closed unit disk."""
    reach = 1 + eps0 + eps0 / 4
    return kp.GridSpec(-reach, reach + stretch_re, -reach - stretch_im, reach, eps0 / 4)


def record_svd_stacks(monkeypatch):
    """Patch np.linalg.svd to record every stacked input it is given."""
    stacks = []
    svd = np.linalg.svd

    def recorded(stack, *args, **kwargs):
        stacks.append(np.array(stack))
        return svd(stack, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return stacks


def full_matrix_points(stacks, matrix):
    """The z of every N x N matrix SVD'd, read off a diagonal entry 0 - z (unweighted maps)."""
    n = matrix.size
    i = next(k for k, f in enumerate(matrix.image()) if f != k + 1)
    return [complex(-a[i, i]) for stack in stacks if stack.shape[-1] == n for a in stack]


class TestComponentSplit:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)))
    def test_components_come_from_the_cycle_walk(self, image):
        lengths, has_tail, component = kp._cycle_lengths(tuple(image))
        labels = np.array(component)
        blocks = [np.flatnonzero(labels == k) for k in range(labels.max() + 1)]
        assert [b.tolist() for b in sorted(blocks, key=lambda b: b[0])] == \
            [b.tolist() for b in reference_components(image)]
        assert len(blocks) <= len(image) and len(lengths) <= len(blocks)

    @settings(max_examples=40, deadline=None)
    @given(multi_component_cases(), st.integers(0, 2**32 - 1))
    def test_block_values_equal_per_point_block_svd_bit_for_bit(self, case, seed):
        matrix, weights = case
        rng = random.Random(seed)
        zs = [0j, 1 + 0j, -1 + 0j, 1j] + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]
        for index in reference_components(matrix.image()):
            values = [float(v) for _, vs in kp._sigma_inf_many(matrix, zs, weights, index) for v in vs]
            assert values == [reference_block_sigma_inf(matrix, z, weights, index) for z in zs]
        whole = np.arange(matrix.size)
        assert [v for _, vs in kp._sigma_inf_many(matrix, zs, weights, whole) for v in vs] == \
            [v for _, vs in kp._sigma_inf_many(matrix, zs, weights) for v in vs]

    def test_block_values_on_a_fixed_weighted_map(self):
        image = (4, 11, 1, 4, 8, 5, 5, 7, 2, 6, 2)
        weights = tuple(Fraction(k % 8 + 1, k % 3 + 1) for k in range(len(image)))
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        zs = literal_points(boundary_grid(0.5))[::7]
        for index in reference_components(image):
            values = [float(v) for _, vs in kp._sigma_inf_many(matrix, zs, weights, index) for v in vs]
            assert values == [reference_block_sigma_inf(matrix, z, weights, index) for z in zs]

    @settings(max_examples=25, deadline=None)
    @given(multi_component_cases(), st.sampled_from([1.0, 0.75]), st.floats(0, 0.5), st.floats(0, 0.5),
           st.integers(0, 2**16), st.booleans())
    def test_kept_set_equals_per_point_reference_at_the_boundary(
        self, case, eps0, stretch_re, stretch_im, pick, ulp_below
    ):
        # eps is the full-matrix value of one grid point, or one ulp below it,
        # where the block minimum and the full-matrix SVD may round apart
        matrix, weights = case
        grid = boundary_grid(eps0, stretch_re, stretch_im)
        values = [reference_sigma_inf(matrix, z, weights) for z in literal_points(grid)]
        inner = [v for v in values if eps0 < v <= 1.25 * eps0]
        eps = inner[pick % len(inner)] if inner else eps0
        if ulp_below and inner:
            eps = math.nextafter(eps, 0)
        assert kp.sigma_ap_eps(matrix, eps, grid, weights).points == \
            reference_ap_eps(matrix, eps, grid, weights, values)

    @pytest.mark.parametrize("image", [(2, 1, 4, 5, 3), (2, 1, 3, 5, 6, 4), (2, 3, 1, 5, 4, 7, 6, 8)])
    def test_sigma_inf_equals_eps_at_a_grid_point(self, image):
        # an unweighted permutation is unitary: sigma_inf(0) = 1, and z = 0 is a grid point
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = boundary_grid(1.0)
        assert 0j in literal_points(grid)
        assert reference_sigma_inf(matrix, 0j) == pytest.approx(1.0, abs=1e-15)
        approx = kp.sigma_ap_eps(matrix, 1.0, grid)
        assert approx.points == reference_ap_eps(matrix, 1.0, grid, None)
        assert (0j in approx.points) == (reference_sigma_inf(matrix, 0j) <= 1.0)

    def test_points_where_blocks_and_full_matrix_round_apart(self):
        # eps = min(block minimum, full value) at a point where the two differ:
        # without the full-matrix fallback the split decides that point wrongly
        image = (4, 11, 1, 4, 8, 5, 5, 7, 2, 6, 2)  # components of 6, 3 and 2 points
        weights = tuple(Fraction(k % 8 + 1, k % 3 + 1) for k in range(len(image)))
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = boundary_grid(0.5)
        split = []
        for z in literal_points(grid):
            full, block = reference_sigma_inf(matrix, z, weights), reference_block_minimum(matrix, z, weights)
            if 0.5 < min(full, block) <= 0.625 and full != block:
                split.append(min(full, block))
        assert len(split) >= 10
        for eps in split[::len(split) // 5]:
            assert kp.sigma_ap_eps(matrix, eps, grid, weights).points == reference_ap_eps(matrix, eps, grid, weights)

    def test_matrix_and_weights_are_formed_once_per_call(self, monkeypatch):
        # three components, so both passes make one stacked SVD per block, plus full-matrix fallbacks
        image = (4, 11, 1, 4, 8, 5, 5, 7, 2, 6, 2)
        weights = tuple(Fraction(k % 8 + 1, k % 3 + 1) for k in range(len(image)))
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = boundary_grid(0.5)
        expected = reference_ap_eps(matrix, 0.55, grid, weights)
        formed = []
        as_array, root_weights = kp.KoopmanMatrix.as_array, kp._root_weights
        monkeypatch.setattr(kp.KoopmanMatrix, "as_array", lambda self: formed.append("M") or as_array(self))
        monkeypatch.setattr(kp, "_root_weights", lambda w: formed.append("D") or root_weights(w))
        assert kp.sigma_ap_eps(matrix, 0.55, grid, weights).points == expected
        assert formed == ["M", "D"]

    def test_second_pass_points_within_2delta_of_eps_get_the_full_svd(self, monkeypatch):
        # eps sits 1.5*delta above the block minimum of a point: the block value
        # alone cannot decide it, so the full N x N SVD must
        image = union_of_cycles_with_tails([(3, 2), (4, 1), (2, 2)], range(16), (
            7, 2, 12, 1, 9, 4, 13, 6, 11, 3, 14, 5, 8, 10))
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        assert len(reference_components(image)) == 3
        grid = boundary_grid(0.5)
        z, value = next((z, v) for z in literal_points(grid)
                        if 0.55 < (v := reference_block_minimum(matrix, z, None)) < 0.6)
        eps = value + 1.5 * kp._svd_error_bound(matrix, None, math.hypot(grid.re_hi, grid.im_hi))
        expected = reference_ap_eps(matrix, eps, grid, None)
        stacks = record_svd_stacks(monkeypatch)
        assert kp.sigma_ap_eps(matrix, eps, grid).points == expected
        assert z in full_matrix_points(stacks, matrix)
        assert len(full_matrix_points(stacks, matrix)) <= 4

    def test_split_cuts_svd_work_and_full_svds_run_only_at_fallback_points(self, monkeypatch):
        # seeded N = 32 map of three components; SVD work counted as the sum of m^3
        rng = random.Random(32)
        parts = [(5, 9), (3, 8), (2, 5)]
        image = union_of_cycles_with_tails(parts, [rng.randrange(64) for _ in range(22)],
                                           rng.sample(range(1, 33), 32))
        matrix = kp.koopman_matrix(kp.uniform_space(32), kp.MapTable(image))
        assert sorted(map(len, reference_components(image))) == [7, 11, 14]
        eps = 0.5
        grid = boundary_grid(eps)
        expected = reference_ap_eps(matrix, eps, grid, None)
        stacks = record_svd_stacks(monkeypatch)
        assert kp.sigma_ap_eps(matrix, eps, grid).points == expected
        monkeypatch.undo()
        points = sum(len(s) for s in stacks if s.shape[-1] == 14)  # every point SVD'd once per block
        work = sum(len(s) * s.shape[-1] ** 3 for s in stacks)
        assert 0 < points <= len(literal_points(grid)) // 2
        assert work <= points * 32**3 / 2
        slack = 2 * kp._svd_error_bound(matrix, None, math.hypot(grid.re_hi, grid.im_hi))
        for z in full_matrix_points(stacks, matrix):
            assert abs(reference_block_minimum(matrix, z, None) - eps) <= slack


class TestFinitePoints:
    BAD = [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0), complex(-math.inf, 1),
           complex(0, -math.inf), math.nan, math.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_compact_set_refuses_a_non_finite_point(self, bad):
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            kp.CompactSetApprox((0j, bad))

    @pytest.mark.parametrize("bad", BAD)
    def test_raw_point_tuples_refuse_a_non_finite_point(self, bad):
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            kp.hausdorff((0j,), (bad,))
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            kp.hausdorff((bad, 1j), kp.CompactSetApprox((0j,)))

    def test_the_same_nan_object_is_not_at_distance_zero(self):
        nan = complex(math.nan, 0)
        with pytest.raises(ValueError):
            kp.hausdorff((nan,), (nan,))


class TestEqualSetShortCircuit:
    def test_equal_tuples_skip_the_pairwise_pass(self, monkeypatch):
        approx = kp.sigma_ap_eps(kp.koopman_matrix(kp.uniform_space(3), kp.MapTable((2, 3, 1))),
                                 0.25, kp.GridSpec(-1.4, 1.4, -1.4, 1.4, 0.0625))
        copy = kp.CompactSetApprox(tuple(complex(z.real, z.imag) for z in approx.points))
        assert reference_hausdorff(approx, copy) == 0.0

        def no_pass(*args):
            raise AssertionError("pairwise pass ran")

        monkeypatch.setattr(np, "hypot", no_pass)
        assert kp.hausdorff(approx, copy) == 0.0
        assert kp.hausdorff(approx.points, list(copy.points)) == 0.0
        with pytest.raises(AssertionError, match="pairwise pass ran"):
            kp.hausdorff(approx, kp.CompactSetApprox(approx.points[1:]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=30))
    def test_equal_sets_match_the_double_loop(self, xs):
        a = kp.CompactSetApprox(tuple(xs))
        b = kp.CompactSetApprox(tuple(complex(-0.0 if z.real == 0 else z.real, z.imag) for z in xs))
        assert kp.hausdorff(a, b) == reference_hausdorff(a, b) == 0.0


class TestMatrixBuild:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)))
    def test_entries_and_array_match_the_comprehension(self, image):
        n = len(image)
        matrix = kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(tuple(image)))
        entries = tuple(tuple(1 if j == image[i - 1] else 0 for j in range(1, n + 1)) for i in range(1, n + 1))
        assert matrix.entries == entries
        assert all(type(v) is int for row in matrix.entries for v in row)
        assert matrix.image() == tuple(image)
        array, reference = matrix.as_array(), np.array(entries, dtype=complex)
        assert array.dtype == reference.dtype and array.tobytes() == reference.tobytes()

    # a row of K_F selects column F(i): a value outside 1..N selects none, and a
    # table whose size is not the space's gives rows and columns of different counts
    @pytest.mark.parametrize("n,image,message", [
        (2, (0, 2), r"map values must lie in 1\.\.2"),
        (2, (-1, 2), r"map values must lie in 1\.\.2"),
        (2, (3, 1), r"map values must lie in 1\.\.2"),
        (3, (1, 4, 3), r"map values must lie in 1\.\.3"),
        (2, (1, 2, 3, 4), "map table size differs from space size"),
        (3, (1,), "map table size differs from space size"),
        (2, (1, 2, 1), "map table size differs from space size"),
    ], ids=["zero", "negative", "past-n", "past-n-of-3", "longer-table", "shorter-table", "one-row-too-many"])
    def test_rows_that_select_no_single_column_are_refused(self, n, image, message):
        with pytest.raises(ValueError, match=message):
            kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(image))


class TestWeightRange:
    @pytest.mark.parametrize("weights,message", [
        ((Fraction(1, 10**400), Fraction(1)), "weight 1 of 2 is out of double range: its double is 0.0"),
        ((Fraction(1), Fraction(10**400)), "weight 2 of 2 is out of double range: its double is inf"),
        ((Fraction(1, 10**200), Fraction(10**200)), "weights 2 and 1 put the weighted matrix out of double range"),
    ])
    def test_refused_before_any_svd(self, weights, message, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("SVD work started")

        monkeypatch.setattr(np.linalg, "svd", no_work)
        matrix = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((2, 1)))
        with pytest.raises(WeightOutOfRange, match=re.escape(message)):
            kp.sigma_ap_eps(matrix, 0.5, kp.GridSpec(-1.5, 1.5, -1.5, 1.5, 0.1), weights)
        if "matrix" not in message:
            with pytest.raises(WeightOutOfRange, match=re.escape(message)):
                kp.sigma_inf(matrix, 0j, weights)


def closed_form_value(z, m):
    """min_k |z - w_k| over the m-th roots of unity, as Python computes it."""
    return min(abs(z - w) for w in kp._roots_of_unity([m]))


@st.composite
def normal_block_cases(draw):
    # pure cycles with one weight each (normal blocks), fixed points with any
    # weight, and parts with tails weighted at random
    cycles = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    tails = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2))
    parts = [(m, 0) for m in cycles] + tails
    n = sum(cycle + tail for cycle, tail in parts)
    tail_targets = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
    relabel = draw(st.permutations(range(1, n + 1)))
    image = union_of_cycles_with_tails(parts, tail_targets, relabel)
    weighted = draw(st.booleans())
    fraction = st.fractions(min_value=Fraction(1, 8), max_value=8)
    weights = []
    for m, tail in parts:
        weights += [draw(fraction)] * m if tail == 0 else draw(st.lists(fraction, min_size=m + tail,
                                                                         max_size=m + tail))
    relabelled = [None] * n
    for i, w in enumerate(weights):
        relabelled[relabel[i] - 1] = w
    matrix = kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(image))
    return matrix, tuple(relabelled) if weighted else None


class TestNormalBlocks:
    @settings(max_examples=25, deadline=None)
    @given(normal_block_cases(), st.sampled_from([1.0, 0.75]), st.integers(0, 2**16),
           st.sampled_from(["reference", "closed form"]), st.booleans())
    def test_kept_set_equals_per_point_reference_at_the_boundary(self, case, eps0, pick, source, ulp_below):
        # eps is the reference value or the closed-form value of one grid point
        # (the distance to the roots of the longest normal cycle), or one ulp below
        matrix, weights = case
        grid = boundary_grid(eps0)
        points = literal_points(grid)
        values = [reference_sigma_inf(matrix, z, weights) for z in points]
        if source == "closed form":
            m = max(kp._cycle_lengths(matrix.image())[0])
            candidates = [closed_form_value(z, m) for z in points]
        else:
            candidates = values
        inner = [v for v in candidates if eps0 < v <= 1.25 * eps0]
        eps = inner[pick % len(inner)] if inner else eps0
        if ulp_below and inner:
            eps = math.nextafter(eps, 0)
        assert kp.sigma_ap_eps(matrix, eps, grid, weights).points == \
            reference_ap_eps(matrix, eps, grid, weights, values)

    @pytest.mark.parametrize("image,weights", [
        ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),  # fixed points, each with its own weight
        ((2, 3, 4, 5, 6, 7, 1), None),  # one uniform 7-cycle
        ((2, 3, 1, 5, 4, 6), (Fraction(2, 3),) * 3 + (Fraction(5), Fraction(5), Fraction(1, 7))),
        ((2, 3, 1, 4, 4, 5, 6), (3, 3, 3, 1, 2, Fraction(1, 2), 8)),  # equal-weight 3-cycle, weighted tail
        ((2, 3, 1, 5, 4), (1, 2, 3, 4, 4)),  # unequal weights: the 3-cycle is not normal, the 2-cycle is
    ])
    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_kept_set_equals_per_point_reference(self, image, weights, eps):
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        weights = None if weights is None else tuple(Fraction(w) for w in weights)
        grid = boundary_grid(eps)
        assert kp.sigma_ap_eps(matrix, eps, grid, weights).points == reference_ap_eps(matrix, eps, grid, weights)

    @pytest.mark.parametrize("ulp_below", [False, True])
    def test_one_cycle_with_eps_at_a_closed_form_value(self, ulp_below):
        # a uniform 5-cycle is one normal block; eps is its closed-form value at
        # a non-anchor grid point, where the full-matrix fallback must decide
        image = (2, 3, 4, 5, 1)
        matrix = kp.koopman_matrix(kp.uniform_space(5), kp.MapTable(image))
        grid = boundary_grid(0.5)
        n_re, n_im = grid._steps()
        k, z = next((k, z) for k, z in enumerate(literal_points(grid))
                    if 0.55 < closed_form_value(z, 5) < 0.6
                    and not (is_anchor(k // (n_im + 1), n_re + 1) and is_anchor(k % (n_im + 1), n_im + 1)))
        eps = closed_form_value(z, 5)
        if ulp_below:
            eps = math.nextafter(eps, 0)
        expected = reference_ap_eps(matrix, eps, grid, None)
        assert kp.sigma_ap_eps(matrix, eps, grid).points == expected

    @pytest.mark.parametrize("image,eps", [((2, 1, 4, 5, 3), 1.0), ((2, 3, 4, 5, 6, 7, 8, 1), 0.5)])
    def test_normal_blocks_take_no_svd_but_full_matrix_fallbacks(self, image, eps, monkeypatch):
        # an unweighted permutation is all normal blocks: every SVD is an N x N
        # fallback at a point whose closed-form value lies within 2*delta of eps
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = boundary_grid(eps)
        expected = reference_ap_eps(matrix, eps, grid, None)
        stacks = record_svd_stacks(monkeypatch)
        assert kp.sigma_ap_eps(matrix, eps, grid).points == expected
        monkeypatch.undo()
        assert all(stack.shape[-1] == len(image) for stack in stacks)
        slack = 2 * kp._svd_error_bound(matrix, None, math.hypot(grid.re_hi, grid.im_hi))
        roots = kp.sigma_ap(matrix).points
        fallbacks = full_matrix_points(stacks, matrix)
        assert len(fallbacks) == sum(len(stack) for stack in stacks)
        for z in fallbacks:
            assert abs(min(abs(z - w) for w in roots) - eps) <= slack
        if eps == 1.0:
            assert 0j in fallbacks  # sigma_inf(0) = 1 = eps for a permutation

    def test_mixed_map_svds_only_the_blocks_with_tails(self, monkeypatch):
        # a uniform 3-cycle and a fixed point (normal), and a 2-cycle with two tail nodes
        image = union_of_cycles_with_tails([(3, 0), (1, 0), (2, 2)], [0, 1], (5, 1, 7, 3, 2, 8, 4, 6))
        matrix = kp.koopman_matrix(kp.uniform_space(8), kp.MapTable(image))
        grid = boundary_grid(0.5)
        expected = reference_ap_eps(matrix, 0.5, grid, None)
        stacks = record_svd_stacks(monkeypatch)
        assert kp.sigma_ap_eps(matrix, 0.5, grid).points == expected
        assert {stack.shape[-1] for stack in stacks} <= {4, 8}
        assert 0 < sum(len(s) for s in stacks if s.shape[-1] == 4) < len(literal_points(grid)) // 2

    @settings(max_examples=40, deadline=None)
    @given(koopman_cases(), st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
    def test_spectrum_rule_keeps_no_point_above_eps(self, case, z):
        # the least eps at which the rule keeps z bounds z's reference value
        matrix, weights = case
        delta = kp._svd_error_bound(matrix, weights, max(abs(z), 1.0))
        distance = kp._distance_to([z], kp.sigma_ap(matrix).points)[0]
        eps = distance * kp._DISTANCE_PAD + 2 * delta
        assert reference_sigma_inf(matrix, z, weights) <= eps


class TestWeightLength:
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_refused_before_any_svd(self, count, monkeypatch):
        # numpy would broadcast a single weight, or fail on a short or long vector
        def no_work(*args, **kwargs):
            raise AssertionError("SVD work started")

        monkeypatch.setattr(np.linalg, "svd", no_work)
        matrix = kp.koopman_matrix(kp.uniform_space(3), kp.MapTable((2, 3, 1)))
        weights = (Fraction(1),) * count
        message = f"{count} weights given for a Koopman matrix on 3 points"
        with pytest.raises(ValueError, match=re.escape(message)):
            kp.sigma_inf(matrix, 0.5, weights)
        with pytest.raises(ValueError, match=re.escape(message)):
            kp.sigma_ap_eps(matrix, 0.5, kp.GridSpec(-1.625, 1.625, -1.625, 1.625, 0.125), weights)


@st.composite
def tailed_cases(draw):
    """Maps of one to three components, the first with at least one tail node, weighted or not."""
    parts = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1, max_size=3))
    parts[0] = (parts[0][0], max(1, parts[0][1]))
    n = sum(cycle + tail for cycle, tail in parts)
    tail_targets = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
    relabel = draw(st.permutations(range(1, n + 1)))
    image = union_of_cycles_with_tails(parts, tail_targets, relabel)
    weights = draw(st.none() | st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=8), min_size=n, max_size=n
    ).map(tuple))
    return kp.koopman_matrix(kp.uniform_space(n), kp.MapTable(image)), weights


def stacked_reference(matrix, grid, weights):
    """Full-matrix values at the literal grid points; the stacked kernel equals
    the per-point SVD bit for bit (see TestStackedSigmaInf)."""
    return [float(v) for _, vs in kp._sigma_inf_many(matrix, literal_points(grid), weights) for v in vs]


#: (eps0, grid): every grid is valid for eps in [eps0, 1.25*eps0]
MIRROR_GRIDS = {
    "bench eps 1": (1.0, (-2.25, 2.25, -2.25, 2.25, 0.25)),
    "bench eps 0.5": (0.5, (-1.625, 1.625, -1.625, 1.625, 0.125)),
    "bench eps 0.25": (0.25, (-1.3125, 1.3125, -1.3125, 1.3125, 0.0625)),
    "shifted up": (1.0, (-2.25, 2.5, -2.25, 3.0, 0.25)),
    "shifted down": (1.0, (-2.5, 2.25, -3.0, 2.25, 0.25)),
    "no exact mirror": (1.0, (-2.25, 2.25, -2.3, 2.25, 0.25)),
    "CLI default": (0.4, (-1.5, 1.5, -1.5, 1.5, 0.02)),
}

MIRROR_MAPS = {
    # two components, both with tails, random rational weights
    "tails, weighted": ((4, 11, 1, 4, 8, 5, 5, 7, 2, 6, 2),
                        tuple(Fraction(k % 8 + 1, k % 3 + 1) for k in range(11))),
    # three components, each a cycle with tails
    "multi-component": (union_of_cycles_with_tails([(3, 2), (4, 1), (2, 2)], range(16), (
        7, 2, 12, 1, 9, 4, 13, 6, 11, 3, 14, 5, 8, 10)), None),
    # an equal-weight 3-cycle and a 2-cycle (normal blocks) and a fixed point
    "normal blocks": ((2, 3, 1, 5, 4, 6), (Fraction(2, 3),) * 3 + (Fraction(5), Fraction(5), Fraction(1, 7))),
    # one component with tails, so every SVD is of the whole matrix
    "one component": ((2, 3, 1, 1, 4, 5, 4), None),
}


class TestMirroredColumns:
    @pytest.mark.parametrize("grid,mirrored", [
        ((-2.25, 2.25, -2.25, 2.25, 0.25), 9),
        ((-2.25, 2.5, -2.25, 3.0, 0.25), 9),
        ((-2.5, 2.25, -3.0, 2.25, 0.25), 9),
        ((-2.25, 2.25, -2.3, 2.25, 0.25), 0),
        ((-1.5, 1.5, -1.5, 1.5, 0.02), 39),  # of 75 negative columns
        ((-2.0, 2.0, 0.0, 0.0, 0.25), 0),  # one row, on the real axis
        ((-2.0, 2.0, -0.5, -0.25, 0.25), 0),  # every column negative
    ])
    def test_partners_are_the_exact_negations(self, grid, mirrored):
        im = kp.GridSpec(*grid)._axes()[1]
        columns, partner = kp._mirror_columns(im)
        values = im.tolist()
        assert columns.tolist() == [j for j, v in enumerate(values) if v < 0 and -v in values]
        assert len(columns) == mirrored
        assert partner.tolist() == [values.index(-values[j]) for j in columns.tolist()]

    def test_a_one_row_grid_is_refused_before_any_svd(self, monkeypatch):
        # no grid of one row covers a spectrum with an eps margin
        def no_work(*args, **kwargs):
            raise AssertionError("SVD work started")

        monkeypatch.setattr(np.linalg, "svd", no_work)
        matrix = kp.koopman_matrix(kp.uniform_space(2), kp.MapTable((2, 1)))
        with pytest.raises(GridTooCoarse):
            kp.sigma_ap_eps(matrix, 1.0, kp.GridSpec(-2.25, 2.25, 0.0, 0.0, 0.25))

    @settings(max_examples=50, deadline=None)
    @given(tailed_cases(), st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
    def test_conjugate_point_takes_the_conjugate_input(self, case, z):
        # B~ is real, so the SVD input at conj(z) is the entrywise conjugate of
        # the input at z, and the two computed values lie within 2*delta
        matrix, weights = case
        with pytest.MonkeyPatch.context() as patch:
            stacks = record_svd_stacks(patch)
            values = [v for _, vs in kp._sigma_inf_many(matrix, [z, z.conjugate()], weights) for v in vs]
        [stack] = stacks
        assert np.array_equal(stack[1], np.conj(stack[0]))
        delta = kp._svd_error_bound(matrix, weights, abs(z))
        assert abs(values[1] - values[0]) <= 2 * delta
        assert kp.sigma_inf(matrix, z.conjugate(), weights) == values[1]

    @pytest.mark.parametrize("map_name,grid_name,eps_at", [
        *itertools.product(MIRROR_MAPS, [g for g in MIRROR_GRIDS if g != "CLI default"],
                           ["eps0", "lower-half value"]),
        # the 22801-point grid only where eps is tight, and without the largest map
        *((m, "CLI default", "lower-half value") for m in MIRROR_MAPS if m != "multi-component"),
    ])
    def test_kept_set_equals_per_point_reference(self, map_name, grid_name, eps_at):
        # at a lower-half point's own value, eps sits within 2*delta of its partner's
        image, weights = MIRROR_MAPS[map_name]
        eps0, grid = MIRROR_GRIDS[grid_name]
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = kp.GridSpec(*grid)
        values = stacked_reference(matrix, grid, weights)
        eps = eps0
        if eps_at != "eps0":
            lower = [v for z, v in zip(literal_points(grid), values) if z.imag < 0 and eps0 < v <= 1.25 * eps0]
            eps = lower[len(lower) // 2]
        assert kp.sigma_ap_eps(matrix, eps, grid, weights).points == \
            reference_ap_eps(matrix, eps, grid, weights, values)

    def test_a_tight_partner_leaves_its_mirror_to_its_own_svd(self, monkeypatch):
        # the value at conj(z0) is raised 1.5*delta above eps = the value at z0:
        # taking z0's decision would keep conj(z0), its own SVD drops it
        image, _ = MIRROR_MAPS["one component"]
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = boundary_grid(0.5)
        points = literal_points(grid)
        values = stacked_reference(matrix, grid, None)
        z0, eps = next((z, v) for z, v in zip(points, values) if z.imag > 0 and 0.55 < v < 0.6)
        mirror = z0.conjugate()
        raise_by = 1.5 * kp._svd_error_bound(matrix, None, math.hypot(grid.re_hi, grid.im_hi))
        values[points.index(mirror)] += raise_by
        assert values[points.index(mirror)] > eps
        svd, raised = np.linalg.svd, []

        def patched(stack, *args, **kwargs):
            out = svd(stack, *args, **kwargs)
            for k, a in enumerate(stack):
                if -a[0, 0] == mirror:  # node 1 is not fixed, so its diagonal entry is 0 - z
                    out[k, -1] += raise_by
                    raised.append(k)
            return out

        monkeypatch.setattr(np.linalg, "svd", patched)
        approx = kp.sigma_ap_eps(matrix, eps, grid)
        monkeypatch.undo()
        assert raised
        assert z0 in approx.points and mirror not in approx.points
        assert approx.points == reference_ap_eps(matrix, eps, grid, None, values)

    def test_lower_half_points_are_svd_d_only_for_tight_partners(self, monkeypatch):
        # one component, so every SVD is of the whole matrix and reads z off its diagonal;
        # eps is an upper-half value, so at least one partner is tight
        image, _ = MIRROR_MAPS["one component"]
        matrix = kp.koopman_matrix(kp.uniform_space(len(image)), kp.MapTable(image))
        grid = boundary_grid(0.5)
        points = literal_points(grid)
        values = stacked_reference(matrix, grid, None)
        eps = next(v for z, v in zip(points, values) if z.imag > 0 and 0.55 < v < 0.6)
        stacks = record_svd_stacks(monkeypatch)
        assert kp.sigma_ap_eps(matrix, eps, grid).points == reference_ap_eps(matrix, eps, grid, None, values)
        monkeypatch.undo()
        slack = 2 * kp._svd_error_bound(matrix, None, math.hypot(grid.re_hi, grid.im_hi))
        value = dict(zip(points, values))
        svd_points = full_matrix_points(stacks, matrix)
        lower = [z for z in svd_points if z.imag < 0]
        assert lower
        for z in lower:
            assert z.conjugate() in svd_points
            assert abs(value[z.conjugate()] - eps) <= slack
        assert len(lower) <= len(svd_points) // 10
