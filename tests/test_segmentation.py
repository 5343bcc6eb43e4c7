import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from segalign import cli, segmentation
from segalign.motion import LatentSequence
from segalign.segmentation import (
    CostMatrix,
    PrimitiveLibrary,
    SegmentBoundaries,
    boundaries_from_json,
    boundaries_to_json,
    brute_force_objective,
    brute_force_segment,
    build_primitive_library,
    cluster_dp_corpus,
    cluster_dp_segment,
    cut_errors,
    extract_windows,
    gaussian_kernel_matrix,
    kernel_cost_table,
    kernel_cpd_corpus,
    kernel_cpd_segment,
    kernel_span_cost,
    library_from_json,
    library_to_json,
    seg_error_corpus,
    segment_cost_matrix_dp,
    uniform_segment,
)
from segalign.rvq import kmeans, sqdist


def reference_gaussian_kernel_matrix(x, bandwidth="median"):
    """The np.median form that the selection median replaces, over the
    squared distances of the sweep's blocks mirrored to a full matrix;
    test-only reference for gaussian_kernel_matrix."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    sq = np.zeros((n, n))
    for s0, s1 in segmentation._start_blocks(n):
        sq[s0:s1, s0:] = segmentation._distance_rows(x[None], (x * x).sum(axis=1)[None], s0, s1)[0]
    sq = np.triu(sq) + np.triu(sq, k=1).T
    if bandwidth == "median":
        sigma = 1.0
        if n >= 2:
            sigma = float(np.median(np.sqrt(sq[np.triu_indices(n, k=1)]))) or 1.0
    else:
        sigma = float(bandwidth)
    return np.exp(-sq / (2.0 * sigma * sigma))


def reference_dp(C, n, num_segments):
    """Triple-loop DP with a strict-< scan over ends; test-only reference for
    the blocked sweep, as brute_force_* is for small instances."""
    A = num_segments
    best = [[np.inf] * (n + 1) for _ in range(A + 1)]
    choice = [[-1] * (n + 1) for _ in range(A + 1)]
    for s in range(n):
        best[1][s] = C[s, n]
    for a in range(2, A + 1):
        for s in range(n - a + 1):
            acc = np.inf
            pick = -1
            for e in range(s + 1, n - a + 2):
                c = C[s, e] + best[a - 1][e]
                if c < acc:
                    acc = c
                    pick = e
            best[a][s] = acc
            choice[a][s] = pick
    cuts = []
    s = 0
    for a in range(A, 1, -1):
        s = choice[a][s]
        cuts.append(s)
    return cuts, float(best[A][0])


def sweep_table(x, bandwidth="median"):
    """The (B, n+1, n+1) table of the costs kernel CPD's sweep forms for the
    (B, n, d) stack x, +inf where e <= s."""
    B, n = x.shape[:2]
    C = np.full((B, n + 1, n + 1), np.inf)
    for s0, s1, rows in segmentation._cost_blocks(x, bandwidth):
        C[:, s0:s1, s0 + 1 :] = rows
    return C


def window_costs(x, lib):
    """(nw, Kp) window-to-primitive costs of one sequence: one sqdist of its
    windows, the product _window_costs takes per sequence."""
    return sqdist(extract_windows(x, lib.window_size, lib.stride), lib.centers)


def reference_kernel_cost_table(K):
    """Per-start-row loop from the last row up, keeping the half block sums
    V(s+1, .) of the row below; test-only reference for kernel_cost_table,
    which runs the same steps on a block of rows at a time, each with one
    cumsum along the rows and one down them."""
    n = K.shape[0]
    trace = np.concatenate([[0.0], np.cumsum(np.diag(K))])
    V = np.zeros(n + 1)   # V[e] = V(s+1, e), half the sum of K over [s+1, e)^2
    C = np.full((n + 1, n + 1), np.inf)
    for s in range(n - 1, -1, -1):
        R = np.cumsum(np.concatenate([[K[s, s] * 0.5], K[s, s + 1 :]]))   # R[e - s - 1] = R(s, e)
        V[s + 1 :] += R
        half_lengths = np.arange(1.0, n - s + 1.0) * 0.5
        C[s, s + 1 :] = np.maximum((trace[s + 1 :] - trace[s]) - V[s + 1 :] / half_lengths, 0.0)
    return C


def reference_run_cost_tables(costs):
    """C[s, e]: the cost of windows [s, e) under their cheapest primitive,
    +inf where e <= s.  The span table the clustering DP does without; with
    reference_dp, the table DP that segment_cost_matrix_dp replaces."""
    nw = costs.shape[0]
    prefix = np.vstack([np.zeros(costs.shape[1]), np.cumsum(costs, axis=0)])
    C = np.full((nw + 1, nw + 1), np.inf)
    for s in range(nw):
        C[s, s + 1 :] = (prefix[s + 1 :] - prefix[s]).min(axis=1)
    return C


# 1 gives single-row blocks of start rows; 97 gives blocks of a few rows,
# and three blocks at n = 16; None keeps the default
BLOCK_SIZES = [1, 97, None]


DEFAULT_START_BLOCK = segmentation._START_BLOCK


@pytest.fixture(params=BLOCK_SIZES, ids=lambda b: f"block={b}")
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(segmentation, "_START_BLOCK", request.param)
    return segmentation._START_BLOCK


def random_kernel(rng, n, kind):
    """Symmetric K: Gaussian kernels of real or binary points, integer
    matrices with zeros and ties, or all-equal rows."""
    if kind == 0:
        return gaussian_kernel_matrix(rng.normal(size=(n, 3)))
    if kind == 1:
        return gaussian_kernel_matrix(rng.integers(0, 2, size=(n, 2)).astype(np.float64))
    if kind == 2:
        a = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        return a + a.T
    return np.full((n, n), float(rng.integers(0, 3)))


def random_run_costs(rng, n, kind):
    kp = int(rng.integers(1, 71))
    if kind == 0:
        return rng.uniform(0.0, 5.0, size=(n, kp))
    if kind == 1:
        return rng.integers(0, 3, size=(n, kp)).astype(np.float64)
    return np.tile(rng.integers(0, 3, size=kp).astype(np.float64), (n, 1))


def table_size(rng, trial):
    # n = 1 first; every 25th size spans several default blocks
    if trial == 0:
        return 1
    if trial % 25 == 0:
        return int(rng.integers(95, 260))
    return int(rng.integers(1, 41))


class TestSegmentBoundaries:
    def test_cuts_and_from_cuts(self):
        b = SegmentBoundaries(spans=((0, 3), (3, 7), (7, 10)))
        assert b.cuts == (3, 7)
        assert SegmentBoundaries.from_cuts(10, [3, 7]) == b

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            SegmentBoundaries(spans=((0, 3), (4, 7)))

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            SegmentBoundaries(spans=((0, 3), (3, 3)))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            SegmentBoundaries(spans=((1, 3),))

    def test_json_round_trip(self):
        b = SegmentBoundaries.from_cuts(8, [2, 5])
        assert boundaries_from_json(boundaries_to_json(b)) == b


class TestUniform:
    def test_even_division(self):
        assert uniform_segment(12, 3).spans == ((0, 4), (4, 8), (8, 12))

    def test_remainder_goes_first(self):
        assert uniform_segment(10, 3).spans == ((0, 4), (4, 7), (7, 10))

    def test_one_token_each(self):
        assert uniform_segment(3, 3).spans == ((0, 1), (1, 2), (2, 3))

    def test_too_many_segments(self):
        with pytest.raises(ValueError):
            uniform_segment(2, 3)


class TestKernelCpd:
    def test_cost_table_matches_direct_cost(self):
        rng = np.random.default_rng(0)
        K = gaussian_kernel_matrix(rng.normal(size=(9, 2)))
        C = kernel_cost_table(K)
        for s in range(9):
            for e in range(s + 1, 10):
                assert abs(C[s, e] - kernel_span_cost(K, s, e)) < 1e-12

    def test_cost_table_matches_reference_loop(self, block):
        rng = np.random.default_rng(21)
        for trial in range(1000):
            K = random_kernel(rng, table_size(rng, trial), trial % 4)
            assert kernel_cost_table(K).tobytes() == reference_kernel_cost_table(K).tobytes(), trial

    def test_cost_table_reads_only_the_upper_triangle(self, block):
        """The instances of the reference-loop test: K is left as it was,
        and NaN below its diagonal changes no cost."""
        rng = np.random.default_rng(21)
        for trial in range(1000):
            K = random_kernel(rng, table_size(rng, trial), trial % 4)
            K_before = K.copy()
            want = kernel_cost_table(K)
            assert K.tobytes() == K_before.tobytes(), trial
            K[np.tri(K.shape[0], k=-1, dtype=bool)] = np.nan
            assert kernel_cost_table(K).tobytes() == want.tobytes(), trial

    def test_sweep_costs_are_the_cost_table(self, block):
        """The costs kernel CPD's sweep forms from x, block by block, are
        kernel_cost_table of gaussian_kernel_matrix(x) bit for bit."""
        rng = np.random.default_rng(22)
        for trial in range(300):
            n, d = table_size(rng, trial), int(rng.integers(1, 5))
            x = rng.integers(0, 3, size=(n, d)).astype(np.float64) if trial % 2 else rng.normal(size=(n, d))
            bandwidth = "median" if trial % 3 else 0.7
            want = kernel_cost_table(gaussian_kernel_matrix(x, bandwidth))
            assert sweep_table(x[None], bandwidth)[0].tobytes() == want.tobytes(), trial

    @pytest.mark.parametrize("n", [448, 450])
    @pytest.mark.parametrize("bandwidth", ["median", 0.7])
    def test_sweep_costs_are_the_cost_table_at_the_benchmark_size(self, n, bandwidth):
        """n = 450 is the long corpus's record; 448 has an even count of
        pairs, so the median takes two middles.  Both span several blocks."""
        x = np.random.default_rng(n).normal(size=(n, 16))
        assert len(list(segmentation._start_blocks(n))) > 2
        want = kernel_cost_table(gaussian_kernel_matrix(x, bandwidth))
        assert sweep_table(x[None], bandwidth)[0].tobytes() == want.tobytes()

    def test_cost_table_error_bound_at_n_1024(self):
        n = 1024
        rng = np.random.default_rng(8)
        K = gaussian_kernel_matrix(rng.normal(size=(n, 16)))
        C = kernel_cost_table(K)
        assert C[np.triu_indices(n + 1, k=1)].min() >= 0.0
        spans = [sorted(rng.choice(n + 1, size=2, replace=False)) for _ in range(200)]
        spans += [(s, s + length) for s in range(0, n - 3, 37) for length in (1, 2, 3)]
        err = max(abs(C[s, e] - kernel_span_cost(K, int(s), int(e))) for s, e in spans)
        assert err <= 16 * np.finfo(np.float64).eps * n

    @pytest.mark.parametrize("shape", [(4,), (4, 5), (2, 4, 4)])
    def test_cost_table_of_other_than_one_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected one (n, n) kernel matrix, got shape {shape}")):
            kernel_cost_table(np.ones(shape))

    def test_single_point_span_costs_zero(self):
        K = gaussian_kernel_matrix(np.random.default_rng(1).normal(size=(5, 3)))
        for i in range(5):
            assert abs(kernel_span_cost(K, i, i + 1)) < 1e-12

    def test_clean_two_regime_boundary(self):
        x = LatentSequence(vectors=np.array([[0.0]] * 5 + [[10.0]] * 5))
        b = kernel_cpd_segment(x, 2)
        assert b.cuts == (5,)

    def test_single_segment(self):
        x = LatentSequence(vectors=np.random.default_rng(0).normal(size=(6, 2)))
        assert kernel_cpd_segment(x, 1).spans == ((0, 6),)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(4, 11))
            a = int(rng.integers(2, min(4, n) + 1))
            x = LatentSequence(vectors=rng.normal(size=(n, 2)))
            K = gaussian_kernel_matrix(x.vectors)
            assert kernel_cpd_segment(x, a) == brute_force_segment(K, a)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, -np.inf, 0.0, -1.0, "nan", "-inf"])
    @pytest.mark.parametrize("segments", [1, 2])
    def test_bad_bandwidth_rejected(self, bandwidth, segments):
        """Before any kernel is built, so also for a single segment."""
        x = LatentSequence(vectors=np.random.default_rng(0).normal(size=(6, 2)))
        message = f"bandwidth must be 'median' or a finite positive number, got {bandwidth!r}"
        with pytest.raises(ValueError) as exc:
            kernel_cpd_segment(x, segments, bandwidth=bandwidth)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            gaussian_kernel_matrix(x.vectors, bandwidth)
        assert str(exc.value) == message

    @pytest.mark.parametrize("bandwidth", [1e-200, "1e-170"])
    @pytest.mark.parametrize("segments", [1, 2])
    def test_underflowing_bandwidth_rejected(self, bandwidth, segments):
        x = LatentSequence(vectors=np.random.default_rng(0).normal(size=(6, 2)))
        message = f"bandwidth {bandwidth!r} is too small: 2 * bandwidth^2 underflows to 0"
        with pytest.raises(ValueError) as exc:
            kernel_cpd_segment(x, segments, bandwidth=bandwidth)
        assert str(exc.value) == message

    def test_tiny_bandwidth_gives_the_identity_kernel(self):
        """2 sigma^2 is subnormal: each off-diagonal quotient overflows to
        -inf, whose exp is the exact kernel value 0, with no warning."""
        x = LatentSequence(vectors=np.random.default_rng(4).normal(size=(9, 2)))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            K = gaussian_kernel_matrix(x.vectors, 1e-160)
            np.testing.assert_array_equal(K, np.eye(9))
            for a in (2, 3, 4):
                assert kernel_cpd_segment(x, a, bandwidth=1e-160) == brute_force_segment(K, a)

    def test_identical_points_bandwidth_fallback(self):
        x = LatentSequence(vectors=np.zeros((6, 2)))
        b = kernel_cpd_segment(x, 2)
        assert b.num_segments == 2

    def test_too_many_segments(self):
        x = LatentSequence(vectors=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            kernel_cpd_segment(x, 4)


class TestGaussianKernelMatrix:
    @staticmethod
    def instance(rng, t):
        # n = 2, 3, 4 give m = 1, 3, 6 pairs: the odd and even medians
        n = (2, 3, 4)[t % 3] if t % 2 else int(rng.integers(1, 30))
        d = int(rng.integers(1, 4))
        kind = t % 5
        if kind == 0:
            return rng.integers(-2, 3, size=(n, d)).astype(np.float64)   # tie-heavy
        if kind == 1:
            return np.round(rng.normal(size=(n, d)), 1)
        if kind == 2:
            return np.repeat(rng.normal(size=(1, d)), n, axis=0)         # sigma = 1
        return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)

    def test_selection_median_matches_np_median_bit_for_bit(self, block):
        rng = np.random.default_rng(31)
        for t in range(1500):
            x = self.instance(rng, t)
            bandwidth = "median" if t % 7 else float(rng.uniform(0.1, 3.0))
            got = gaussian_kernel_matrix(x, bandwidth)
            want = reference_gaussian_kernel_matrix(x, bandwidth)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # n = 448 gives 100,128 pairs: an even count, near the long corpus's n = 450
        for x in (rng.normal(size=(448, 8)), rng.integers(-2, 3, size=(448, 3)).astype(np.float64)):
            got = gaussian_kernel_matrix(x)
            want = reference_gaussian_kernel_matrix(x)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_missed_brackets_are_widened(self, block, monkeypatch):
        """With no spread, the pivots bracket the middle ranks only by luck:
        each side that misses widens and the blocks are counted again, and
        sigma keeps np.median's bits, ties and odd and even counts included."""
        monkeypatch.setattr(segmentation, "_MEDIAN_SPREAD", 0.0)
        upper_rows = segmentation._upper_rows
        calls = []
        monkeypatch.setattr(segmentation, "_upper_rows", lambda *a: calls.append(a[2]) or upper_rows(*a))
        rng = np.random.default_rng(33)
        recounted, parities = 0, set()
        for t in range(150 if block != DEFAULT_START_BLOCK else 30):
            # the default block holds n <= 181 whole; past it the bracket is used
            n = int(rng.integers(2, 40)) if block != DEFAULT_START_BLOCK else int(rng.integers(182, 240))
            d = int(rng.integers(1, 4))
            kind = t % 3
            if kind == 0:
                x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)   # tie-heavy
            elif kind == 1:
                x = np.round(rng.normal(size=(n, d)), 1)
            else:
                x = rng.normal(size=(n, d))
            calls.clear()
            got = gaussian_kernel_matrix(x)
            want = reference_gaussian_kernel_matrix(x)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            blocks = list(segmentation._start_blocks(n))
            if len(blocks) > 1:
                recounted += calls.count(blocks[0][0]) > 1
                parities.add(n * (n - 1) // 2 % 2)
        assert recounted > 10 and parities == {0, 1}, (recounted, parities)

    def test_overflowing_distances_give_a_nan_median_as_np_median_does(self, monkeypatch):
        """Distances of finite points that overflow to NaN are never
        counted, so no bracket holds the middle ranks: once the side that
        misses is unbounded the selection stops, and sigma is NaN, as
        np.median is."""
        monkeypatch.setattr(segmentation, "_START_BLOCK", 97)
        x = np.abs(np.random.default_rng(34).normal(size=(30, 2))) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = segmentation._median_distance(x[None], (x * x).sum(-1)[None], list(segmentation._start_blocks(30)))
            want = np.median(np.sqrt(sqdist(x, x)[np.triu_indices(30, k=1)]))
        assert np.isnan(want) and np.isnan(sigma).all()

    @pytest.mark.parametrize("bandwidth", ["median", 0.7])
    def test_kernel_is_symmetric_and_gaussian_in_sqdist(self, bandwidth, block):
        """Mirrored from the rows above the diagonal, with a unit diagonal;
        off it, the Gaussian of the distances sqdist takes over the whole
        sequence at once, to the last few bits."""
        rng = np.random.default_rng(32)
        for t in range(200):
            x = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 5))))
            n = x.shape[0]
            K = gaussian_kernel_matrix(x, bandwidth)
            np.testing.assert_array_equal(K, K.T)
            np.testing.assert_array_equal(np.diag(K), np.ones(n))
            sq = sqdist(x, x)
            sigma = np.median(np.sqrt(sq[np.triu_indices(n, k=1)])) if bandwidth == "median" and n > 1 else 0.7
            want = np.exp(-sq / (2.0 * sigma * sigma))
            np.testing.assert_allclose(K[~np.eye(n, dtype=bool)], want[~np.eye(n, dtype=bool)], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bandwidth", ["median", 0.7])
    def test_non_finite_input_rejected(self, bad, bandwidth):
        x = np.arange(8.0).reshape(4, 2)
        x[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gaussian_kernel_matrix(x, bandwidth)

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 2)])
    def test_input_other_than_one_sequence_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected one (n, d) sequence, got shape {shape}")):
            gaussian_kernel_matrix(np.ones(shape))


def test_segmenters_do_not_import_numpy_ma():
    # np.median imports numpy.ma on its first call, about 20 ms
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = ("import sys, numpy as np\n"
             "from segalign.motion import LatentSequence\n"
             "from segalign.rvq import kmeans\n"
             "from segalign.segmentation import kernel_cpd_segment\n"
             "x = np.random.default_rng(0).normal(size=(20, 3))\n"
             "kernel_cpd_segment(LatentSequence(vectors=x), 3)\n"
             "kmeans(x, 4, seed=0)\n"
             "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestClusterDp:
    def test_zero_cost_run_structure(self):
        # windows 0-2 fit primitive 0 perfectly, windows 3-5 primitive 1
        costs = np.array([[0.0, 9.0]] * 3 + [[9.0, 0.0]] * 3)
        cuts, assigns, obj = segment_cost_matrix_dp(CostMatrix(costs=costs), 2)
        assert cuts == [3]
        assert assigns == [0, 1]
        assert obj == 0.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(4, 11))
            a = int(rng.integers(2, min(4, n) + 1))
            cost = CostMatrix(costs=rng.uniform(size=(n, int(rng.integers(2, 5)))))
            cuts, _, obj = segment_cost_matrix_dp(cost, a)
            assert SegmentBoundaries.from_cuts(n, cuts) == brute_force_segment(cost, a)
            assert obj == brute_force_objective(cost, a)

    @pytest.mark.parametrize("kind", ["integer", "zero", "one-primitive"])
    def test_matches_oracle_on_ties(self, kind, monkeypatch):
        """Costs in {0, 1, 2}, all zero, or one primitive, so many partitions
        share the optimum: every run count from 1 to nw, nw <= 11."""
        monkeypatch.setattr(segmentation, "BRUTE_FORCE_MAX_A", 11)
        rng = np.random.default_rng(("integer", "zero", "one-primitive").index(kind) + 40)
        for trial in range(25):
            nw = 11 if trial == 0 else int(rng.integers(1, 10))
            kp = 1 if kind == "one-primitive" else int(rng.integers(1, 5))
            costs = np.zeros((nw, kp)) if kind == "zero" else rng.integers(0, 3, size=(nw, kp)).astype(np.float64)
            cost = CostMatrix(costs=costs)
            for a in range(1, nw + 1):
                cuts, _, obj = segment_cost_matrix_dp(cost, a)
                assert SegmentBoundaries.from_cuts(nw, cuts) == brute_force_segment(cost, a), (trial, a)
                assert obj == brute_force_objective(cost, a), (trial, a)

    def test_adjacent_runs_sharing_a_primitive_end_lowest(self):
        # windows 0-3 fit primitive 0 and 4-5 primitive 1; a third run must
        # split the first block, and every split costs 0: the lowest end wins
        costs = np.array([[0.0, 9.0]] * 4 + [[9.0, 0.0]] * 2)
        cost = CostMatrix(costs=costs)
        assert segment_cost_matrix_dp(cost, 3) == ([1, 4], [0, 0, 1], 0.0)
        assert brute_force_segment(cost, 3).cuts == (1, 4)

    def test_matches_table_dp_on_integer_costs(self):
        """Beyond the oracle's sizes: small integer sums are exact in either
        association, so the DP over the (nw+1)^2 table of cheapest-primitive
        run costs gives the same cuts and objective."""
        rng = np.random.default_rng(14)
        for trial in range(200):
            nw = table_size(rng, trial)
            costs = random_run_costs(rng, nw, 1 + trial % 2)
            a = int(rng.integers(1, min(7, nw) + 1))
            cuts, assigns, obj = segment_cost_matrix_dp(CostMatrix(costs=costs), a)
            assert (cuts, obj) == reference_dp(reference_run_cost_tables(costs), nw, a), trial
            edges = [0, *cuts, nw]
            sums = [costs[s:e].sum(axis=0) for s, e in zip(edges[:-1], edges[1:])]
            assert assigns == [int(run.argmin()) for run in sums]

    def test_overflowing_total_is_refused(self):
        cost = CostMatrix(costs=np.full((6, 2), 1e308))
        for solve in (segment_cost_matrix_dp, brute_force_segment):
            with pytest.raises(ValueError, match="total cost is beyond the float64 limit of 1.79769e"):
                solve(cost, 3)

    def test_library_fit_and_segment(self):
        rng = np.random.default_rng(6)
        corpus = []
        for _ in range(20):
            x = np.vstack([
                rng.normal(0.0, 0.1, size=(6, 2)),
                rng.normal(5.0, 0.1, size=(6, 2)),
            ])
            corpus.append(LatentSequence(vectors=x))
        lib = build_primitive_library(corpus, window_size=1, stride=1,
                                      num_primitives=4, seed=0, iters=10)
        b = cluster_dp_segment(corpus[0], lib, 2)
        assert b.cuts == (6,)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_window_cut_maps_to_the_window_centre(self, stride):
        """Ten tokens of 0 then ten of 10, against one centre per regime:
        the first window of the second run is the first whose centre token
        is a 10 (its majority, with width 5), so its cut c maps to
        c * stride + (5 - 1) // 2, the true cut 10, not c * stride = 8."""
        x = LatentSequence(vectors=np.repeat([[0.0], [10.0]], 10, axis=0))
        lib = PrimitiveLibrary(centers=np.array([[0.0] * 5, [10.0] * 5]), window_size=5, stride=stride)
        assert brute_force_segment(CostMatrix(costs=window_costs(x.vectors, lib)), 2).cuts == (8 // stride,)
        assert cluster_dp_segment(x, lib, 2).cuts == (10,)

    def test_sequence_shorter_than_window(self):
        lib = PrimitiveLibrary(centers=np.zeros((2, 8)), window_size=4, stride=1)
        x = LatentSequence(vectors=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="3 tokens .* window size 4"):
            extract_windows(x.vectors, 4, 1)
        with pytest.raises(ValueError, match="3 tokens .* window size 4"):
            cluster_dp_segment(x, lib, 1)

    def test_library_json_round_trip(self):
        lib = PrimitiveLibrary(centers=np.array([[1.0, 2.0], [0.1, -3e-300]]), window_size=2, stride=1)
        obj = library_to_json(lib)
        assert obj["centers"][1] == np.array([0.1, -3e-300], "<f8").tobytes().hex()
        back = library_from_json(json.loads(json.dumps(obj)))
        assert back.centers.tobytes() == lib.centers.tobytes()
        assert (back.window_size, back.stride) == (2, 1)


def random_points(rng, n, ties):
    """Gaussian points, or binary ones whose kernels tie often."""
    return rng.integers(0, 2, size=(n, 2)).astype(np.float64) if ties else rng.normal(size=(n, 3))


class TestSweepDp:
    def test_matches_reference_loop(self, block):
        rng = np.random.default_rng(12)
        for trial in range(300):
            # every 30th size spans several default blocks
            n = int(rng.integers(95, 130) if trial % 30 == 0 else rng.integers(2, 65))
            a = int(rng.integers(2, min(7, n) + 1))
            x = random_points(rng, n, ties=trial % 3 == 0)
            bandwidth = "median" if trial % 2 else 0.7
            cuts, obj = segmentation._cpd_sweep(x[None], a, bandwidth)
            ref_cuts, ref_obj = reference_dp(kernel_cost_table(gaussian_kernel_matrix(x, bandwidth)), n, a)
            assert cuts == [ref_cuts], trial
            assert same_bits(obj, [ref_obj]), trial

    def test_edge_segment_counts(self, block):
        rng = np.random.default_rng(13)
        for n in (2, 3, 7, 12):
            for ties in (False, True):
                x = random_points(rng, n, ties)
                C = kernel_cost_table(gaussian_kernel_matrix(x))
                for a in (1, 2, n):
                    cuts, obj = segmentation._cpd_sweep(x[None], a, "median")
                    assert (cuts[0], obj[0]) == reference_dp(C, n, a)
                assert segmentation._cpd_sweep(x[None], n, "median")[0] == [list(range(1, n))]

    @pytest.mark.parametrize("bandwidth", ["median", 0.7])
    def test_cli_latents_get_the_oracle_costs(self, tmp_path, bandwidth):
        """The latents ``segment`` reads are float32; the sweep over several
        blocks of a 450-token record still forms the oracle's costs bit for
        bit, since it computes in float64 as gaussian_kernel_matrix does."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 1, "dim": 16, "segments_min": 5, "segments_max": 5,
                                    "tokens_per_segment_min": 90, "tokens_per_segment_max": 90}))
        assert cli.main(["synth", "--spec", str(spec), "--seed", "7", "--out", str(tmp_path / "data"),
                         "--quiet"]) == 0
        (x,) = cli._load_corpus(str(tmp_path / "data"))[1].values()
        assert x.vectors.dtype == np.float32 and x.length == 450
        assert len(list(segmentation._start_blocks(450))) > 2
        want = kernel_cost_table(gaussian_kernel_matrix(x.vectors, bandwidth))
        assert np.array_equal(sweep_table(x.vectors[None], bandwidth)[0], want)

    def test_single_token_single_segment(self):
        x = LatentSequence(vectors=np.array([[0.5, -1.0]]))
        assert kernel_cpd_segment(x, 1).spans == ((0, 1),)
        lib = PrimitiveLibrary(centers=np.array([[1.0, 1.0], [0.5, -1.0]]), window_size=1, stride=1)
        assert cluster_dp_segment(x, lib, 1).spans == ((0, 1),)
        assert segment_cost_matrix_dp(CostMatrix(costs=window_costs(x.vectors, lib)), 1) == ([], [1], 0.0)


class TestStartBlocks:
    def test_blocks_cover_the_rows_from_the_last_up_within_the_budget(self, block):
        for n in (1, 2, 7, 16, 30, 450, 1000):
            edges = list(segmentation._start_blocks(n))
            assert edges[0][1] == n and edges[-1][0] == 0
            assert all(s0 == t1 for (s0, _), (_, t1) in zip(edges, edges[1:]))
            for s0, s1 in edges:
                assert s1 - s0 == 1 or (s1 - s0) * (n - s0) <= block, (n, s0, s1)
                # as many rows as fit: one more would not
                assert s0 == 0 or (s1 - s0 + 1) * (n - s0 + 1) > block, (n, s0, s1)


def same_bits(got, want):
    """Equal floats, down to the sign of a zero."""
    return np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


def stack_inputs(rng, trial, n, size, d=2):
    """``size`` sequences of n tokens: Gaussian, or tie-heavy integers."""
    if trial % 2:
        return rng.integers(0, 3, size=(size, n, d)).astype(np.float64)
    return rng.normal(size=(size, n, d))


class TestStacks:
    """A stack of equal-length sequences gives each member the bits it gets
    alone, under every block size; members of up to 16 tokens also match
    the oracle."""

    def test_kernels_and_cost_tables(self, block):
        """Each member's sweep costs are its costs alone, and the oracle's
        table of its kernel."""
        rng = np.random.default_rng(51)
        for trial in range(120):
            n, size = int(rng.integers(1, 30)), int(rng.integers(2, 6))
            x = stack_inputs(rng, trial, n, size)
            bandwidth = "median" if trial % 3 else 0.7
            for v, got in zip(x, sweep_table(x, bandwidth)):
                assert got.tobytes() == sweep_table(v[None], bandwidth)[0].tobytes(), trial
                assert got.tobytes() == kernel_cost_table(gaussian_kernel_matrix(v, bandwidth)).tobytes(), trial

    def test_sweep_dp(self, block):
        rng = np.random.default_rng(52)
        for trial in range(120):
            n, size = int(rng.integers(2, 40)), int(rng.integers(2, 6))
            a = int(rng.integers(1, min(6, n) + 1))
            x = stack_inputs(rng, trial, n, size)
            cuts, obj = segmentation._cpd_sweep(x, a, "median")
            alone = [segmentation._cpd_sweep(v[None], a, "median") for v in x]
            assert cuts == [c[0] for c, _ in alone], trial
            assert same_bits(obj, [o[0] for _, o in alone]), trial

    def test_cluster_dp(self):
        rng = np.random.default_rng(53)
        for trial in range(200):
            nw, size, kp = int(rng.integers(1, 40)), int(rng.integers(2, 6)), int(rng.integers(1, 9))
            a = int(rng.integers(1, min(6, nw) + 1))
            if trial % 2:
                costs = rng.integers(0, 3, size=(size, nw, kp)).astype(np.float64)
            else:
                costs = rng.uniform(0.0, 5.0, size=(size, nw, kp))
            cuts, assigns, obj = segmentation._cluster_dp(costs, a)
            alone = [segment_cost_matrix_dp(CostMatrix(costs=c), a) for c in costs]
            assert (cuts, assigns) == ([c for c, _, _ in alone], [p for _, p, _ in alone]), trial
            assert same_bits(obj, [o for _, _, o in alone]), trial

    def test_kernel_cpd_members_match_alone_and_the_oracle(self, block):
        rng = np.random.default_rng(54)
        for trial in range(40):
            n, size = int(rng.integers(4, 17)), int(rng.integers(2, 20))
            a = int(rng.integers(2, min(4, n) + 1))
            x = stack_inputs(rng, trial, n, size)
            xs = [LatentSequence(vectors=v) for v in x]
            got = kernel_cpd_corpus(xs, [a] * size)
            assert got == [kernel_cpd_segment(v, a) for v in xs], trial
            _, obj = segmentation._cpd_sweep(x, a, "median")
            for b, k in enumerate(map(gaussian_kernel_matrix, x)):
                assert got[b] == brute_force_segment(k, a), (trial, b)
                assert same_bits(obj[b], brute_force_objective(k, a)), (trial, b)

    def test_cluster_members_match_alone_and_the_oracle(self):
        rng = np.random.default_rng(55)
        for trial in range(40):
            window, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            n, size = int(rng.integers(window + 3, 17)), int(rng.integers(2, 30))
            x = stack_inputs(rng, trial, n, size)
            lib = PrimitiveLibrary(centers=stack_inputs(rng, trial, int(rng.integers(1, 6)), 1, 2 * window)[0],
                                   window_size=window, stride=stride)
            xs = [LatentSequence(vectors=v) for v in x]
            nw = (n - window) // stride + 1
            a = int(rng.integers(1, min(4, nw) + 1))
            got = cluster_dp_corpus(xs, lib, [a] * size)
            assert got == [cluster_dp_segment(v, lib, a) for v in xs], trial
            stacked = np.stack([window_costs(v, lib) for v in x])
            assert segmentation._window_costs(x, lib).tobytes() == stacked.tobytes(), trial
            cuts, _, obj = segmentation._cluster_dp(stacked, a)
            for b, v in enumerate(x):
                cost = CostMatrix(costs=window_costs(v, lib))
                assert SegmentBoundaries.from_cuts(nw, cuts[b]) == brute_force_segment(cost, a), (trial, b)
                assert same_bits(obj[b], brute_force_objective(cost, a)), (trial, b)

    def test_window_costs_are_one_product_per_sequence(self):
        """A product over a whole stack's windows rounds differently from
        the per-sequence products at many shapes, the benchmark's among them."""
        rng = np.random.default_rng(57)
        shapes = [(11, 24, 16, 4, 32)] + [(int(rng.integers(2, 14)), int(rng.integers(5, 40)),
                                            int(rng.integers(1, 17)), int(rng.integers(1, 5)),
                                            int(rng.integers(1, 40))) for _ in range(40)]
        for size, n, d, window, kp in shapes:
            x = rng.normal(size=(size, n, d))
            lib = PrimitiveLibrary(centers=rng.normal(size=(kp, window * d)), window_size=window, stride=1)
            alone = np.stack([window_costs(v, lib) for v in x])
            assert segmentation._window_costs(x, lib).tobytes() == alone.tobytes(), (size, n, d, window, kp)

    def test_cost_matrix_holds_one_sequence(self):
        """The oracle reads a CostMatrix as one (nw, Kp) matrix, so a stack
        is refused rather than misread; the stacked DP refuses a non-finite
        cost as CostMatrix does."""
        with pytest.raises(ValueError, match="cost matrix must be 2-D"):
            CostMatrix(costs=np.zeros((3, 6, 2)))
        xs = [LatentSequence(vectors=np.zeros((6, 2))) for _ in range(3)]
        lib = PrimitiveLibrary(centers=np.full((2, 2), 1e200), window_size=1, stride=1)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^non-finite cost entry$"):
            cluster_dp_corpus(xs, lib, [2] * 3)


def right_fold(C, boundaries):
    """The spans' costs in C added from the last span to the first, as the
    DP and the oracle add them."""
    acc = -0.0
    for s, e in reversed(boundaries.spans):
        acc = C[s, e] + acc
    return acc


class TestBlockEdges:
    """Blocks of start rows small enough that n <= 16 spans two or more
    (one block under the default): the sweep, alone and in stacks, still
    gives the oracle's cuts, and its objective is the oracle's and the right
    fold of its spans over kernel_cost_table, bit for bit."""

    @pytest.mark.parametrize("ties", [False, True], ids=["gaussian", "integer"])
    def test_oracle_across_start_blocks(self, block, ties):
        rng = np.random.default_rng(58 + ties)
        for trial in range(60):
            n, size = int(rng.integers(10, 17)), int(rng.integers(1, 6))
            a = int(rng.integers(2, 5))
            blocks = list(segmentation._start_blocks(n))
            assert len(blocks) >= 2 or block == DEFAULT_START_BLOCK, (n, blocks)
            if ties:
                x = rng.integers(-1, 2, size=(size, n, 2)).astype(np.float64)
            else:
                x = rng.normal(size=(size, n, 2))
            xs = [LatentSequence(vectors=v) for v in x]
            got = kernel_cpd_corpus(xs, [a] * size)
            _, obj = segmentation._cpd_sweep(x, a, "median")
            for b, v in enumerate(x):
                K = gaussian_kernel_matrix(v)
                assert got[b] == kernel_cpd_segment(xs[b], a) == brute_force_segment(K, a), (trial, b)
                assert same_bits(obj[b], brute_force_objective(K, a)), (trial, b)
                assert same_bits(obj[b], right_fold(kernel_cost_table(K), got[b])), (trial, b)


def ragged_corpus(rng, per_group=30, d=2):
    """Records of 16 and 24 tokens in 2 and 3 segments: the four (n, A)
    groups interleave in record order, ``per_group`` records each."""
    xs, counts = [], []
    for i in range(4 * per_group):
        xs.append(LatentSequence(vectors=rng.normal(size=((16, 24)[i % 2], d))))
        counts.append((2, 3)[i // 2 % 2])
    return xs, counts


def spy_stacks(monkeypatch, xs):
    """Record each stack handed to a per-stack solver as (the indices in
    ``xs`` of its members, in stack order, its segment count)."""
    index = {x.vectors.tobytes(): i for i, x in enumerate(xs)}
    stacks = []
    for name in ("_kernel_cpd_stack", "_cluster_dp_stack"):
        real = getattr(segmentation, name)

        def spy(x, *args, _real=real):
            a = inspect.signature(_real).bind(x, *args).arguments["num_segments"]
            stacks.append(([index[v.tobytes()] for v in x], a))
            return _real(x, *args)

        monkeypatch.setattr(segmentation, name, spy)
    return stacks


class TestCorpus:
    """A corpus of any lengths and segment counts: records of one (n, A)
    are segmented in stacks within the block, and every record gets, in
    input order, the cuts it gets alone."""

    @staticmethod
    def check_stacks(stacks, xs, counts, cells):
        assert sorted(i for ids, _ in stacks for i in ids) == list(range(len(xs)))
        groups = {}
        for ids, a in stacks:
            n = xs[ids[0]].length
            assert all((xs[i].length, counts[i]) == (n, a) for i in ids), ids
            assert ids == sorted(ids)
            assert len(ids) <= max(1, segmentation._BLOCK // cells(n)), (n, a, len(ids))
            groups.setdefault((n, a), []).append(len(ids))
        for sizes in groups.values():   # every stack but a group's last is full
            assert len(sizes) > 1 and len(set(sizes[:-1])) == 1 and sizes[-1] <= sizes[0]

    @pytest.mark.parametrize("block", [None, 2000], ids=lambda b: f"block={b}")
    def test_kernel_cpd(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(segmentation, "_BLOCK", block)
        xs, counts = ragged_corpus(np.random.default_rng(61))
        stacks = spy_stacks(monkeypatch, xs)
        got = kernel_cpd_corpus(xs, counts)
        self.check_stacks(stacks, xs, counts, lambda n: (n + 1) ** 2)
        assert kernel_cpd_corpus(xs[::-1], counts[::-1]) == got[::-1]
        for i, (x, a) in enumerate(zip(xs, counts)):
            assert got[i] == kernel_cpd_segment(x, a), i
            if x.length <= 16:
                assert got[i] == brute_force_segment(gaussian_kernel_matrix(x.vectors), a), i

    @pytest.mark.parametrize("block", [None, 2000], ids=lambda b: f"block={b}")
    def test_cluster(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(segmentation, "_BLOCK", block)
        rng = np.random.default_rng(62)
        xs, counts = ragged_corpus(rng)
        lib = PrimitiveLibrary(centers=rng.normal(size=(32, 8)), window_size=4, stride=1)
        stacks = spy_stacks(monkeypatch, xs)
        got = cluster_dp_corpus(xs, lib, counts)
        self.check_stacks(stacks, xs, counts, lambda n: 32 * (n - 4 + 2))
        assert cluster_dp_corpus(xs[::-1], lib, counts[::-1]) == got[::-1]
        for i, (x, a) in enumerate(zip(xs, counts)):
            assert got[i] == cluster_dp_segment(x, lib, a), i
            if x.length <= 16:   # 13 windows, stride 1: token cut = window cut + (4 - 1) // 2
                want = brute_force_segment(CostMatrix(costs=window_costs(x.vectors, lib)), a).cuts
                assert got[i].cuts == tuple(c + 1 for c in want)

    @staticmethod
    def segmenters():
        lib = PrimitiveLibrary(centers=np.random.default_rng(63).normal(size=(5, 4)), window_size=2, stride=1)
        return {"cpd": (kernel_cpd_corpus, kernel_cpd_segment),
                "cluster": (lambda xs, counts: cluster_dp_corpus(xs, lib, counts),
                            lambda x, a: cluster_dp_segment(x, lib, a))}

    @pytest.mark.parametrize("method", ["cpd", "cluster"])
    def test_one_segment_and_one_token_per_segment(self, method):
        """Counts of 1 and of every token (or window) mixed into a corpus of
        three lengths: each record still gets its cuts alone."""
        corpus, alone = self.segmenters()[method]
        rng = np.random.default_rng(64)
        lengths = (5, 7, 5, 9, 7, 5, 9, 9)
        xs = [LatentSequence(vectors=rng.normal(size=(n, 2))) for n in lengths]
        units = [n if method == "cpd" else n - 1 for n in lengths]   # tokens, or windows of 2
        counts = [1, units[1], 1, 3, 1, units[5], units[6], 1]
        assert corpus(xs, counts) == [alone(x, a) for x, a in zip(xs, counts)]

    @pytest.mark.parametrize("method", ["cpd", "cluster"])
    def test_refused_later_group_raises_its_own_error(self, method):
        """The first groups segment, then a record that cannot form its
        segments is refused with the error it gets alone."""
        corpus, alone = self.segmenters()[method]
        rng = np.random.default_rng(65)
        xs = [LatentSequence(vectors=rng.normal(size=(n, 2))) for n in (8, 8, 4, 8)]
        counts = [2, 2, 5, 3]
        with pytest.raises(ValueError) as exc:
            alone(xs[2], 5)
        with pytest.raises(ValueError, match=f"^{exc.value}$"):
            corpus(xs, counts)

    def test_one_count_per_sequence(self):
        xs = [LatentSequence(vectors=np.zeros((6, 2)))] * 3
        for corpus, _ in self.segmenters().values():
            with pytest.raises(ValueError):
                corpus(xs, [2, 2])

    @pytest.mark.parametrize("records,segments,tokens,primitives,cpd,cluster", [
        (60, 3, 8, 32, 13, 11),   # the corpus-short benchmark: n = 24, Kp = 32
        (4, 5, 90, 16, 1, 1),     # the corpus-long benchmark: n = 450, Kp = 16
    ], ids=["corpus-short", "corpus-long"])
    def test_benchmark_corpora_keep_their_stacks(self, tmp_path, monkeypatch, records, segments, tokens,
                                                 primitives, cpd, cluster):
        """``segment`` hands the solvers runs of max(1, _BLOCK // cells)
        consecutive records: 8192 // 25^2 = 13 and 8192 // (32 * 22) = 11 at
        24 tokens, one record at 450."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": records, "dim": 16, "segments_min": segments,
                                    "segments_max": segments, "tokens_per_segment_min": tokens,
                                    "tokens_per_segment_max": tokens}))
        data = tmp_path / "data"
        assert cli.main(["synth", "--spec", str(spec), "--seed", "7", "--out", str(data), "--quiet"]) == 0
        recs, latents = cli._load_corpus(str(data))
        stacks = spy_stacks(monkeypatch, [latents[r.id] for r in recs])
        for method, size in (("cpd", cpd), ("cluster", cluster)):
            stacks.clear()
            assert cli.main(["segment", "--data", str(data), "--method", method, "--fit-library",
                             "--library", str(tmp_path / "library.json"), "--primitives", str(primitives),
                             "--seed", "7", "--out", str(tmp_path / method), "--quiet"]) == 0
            want = [list(range(i, min(i + size, records))) for i in range(0, records, size)]
            assert stacks == [(ids, segments) for ids in want], method


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates beyond what is live before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    def test_segment_cost_matrix_dp_needs_no_span_table(self):
        """The prefix and one (Kp, nw) buffer, 4.9 MiB at nw = 5,000, plus the
        A best-cost rows and one boolean (Kp, nw) mask: under 8 MiB, where
        an (nw+1)^2 table alone was 200 MB."""
        nw, kp = 5000, 64
        cost = CostMatrix(costs=np.random.default_rng(25).uniform(size=(nw, kp)))
        assert traced_peak(segment_cost_matrix_dp, cost, 5) < 8 << 20

    @pytest.mark.parametrize("method", ["cpd", "cluster"])
    def test_stacks_stay_within_the_block(self, method):
        """60 sequences of 24 tokens in stacks of at most _BLOCK table
        elements: two tables and a few temporaries of one block each, under
        eight blocks, where one stack of all 60 needs over 1 MB."""
        rng = np.random.default_rng(27)
        xs = [LatentSequence(vectors=v) for v in rng.normal(size=(60, 24, 16))]
        if method == "cpd":
            peak = traced_peak(kernel_cpd_corpus, xs, [3] * 60)
        else:
            lib = PrimitiveLibrary(centers=rng.normal(size=(32, 64)), window_size=4, stride=1)
            peak = traced_peak(cluster_dp_corpus, xs, lib, [3] * 60)
        assert peak < 8 * segmentation._BLOCK * 8

    def test_kernel_cpd_segment_with_a_fixed_bandwidth_needs_no_table(self):
        """A few blocks of start rows and the O(n * A) best costs and picks:
        under 8 MiB at n = 5,000, where two n^2 tables once took 400 MB."""
        n = 5000
        x = LatentSequence(vectors=np.random.default_rng(26).normal(size=(n, 8)))
        assert traced_peak(kernel_cpd_segment, x, 5, 0.7) < 8 << 20

    def test_kernel_cpd_segment_with_the_median_needs_no_table(self):
        """The same blocks, the pair sample and the distances kept between
        the pivots: under 16 MiB at n = 5,000, where the table of the
        n (n-1) / 2 distances alone was 100 MB."""
        n = 5000
        x = LatentSequence(vectors=np.random.default_rng(26).normal(size=(n, 8)))
        assert traced_peak(kernel_cpd_segment, x, 5) < 16 << 20

    def test_build_primitive_library_copies_the_windows_once(self):
        """One float64 window matrix beside what k-means itself needs, where
        each sequence's windows were copied twice, and the library's bits
        are those of k-means over the stacked windows."""
        rng = np.random.default_rng(28)
        xs = [LatentSequence(vectors=v) for v in rng.normal(size=(4, 450, 16)).astype(np.float32)]
        windows = np.vstack([extract_windows(x.vectors, 4, 1) for x in xs])
        kmeans_peak = traced_peak(kmeans, windows, 16, 7)
        assert traced_peak(build_primitive_library, xs, 4, 1, 16, 7) < kmeans_peak + windows.nbytes * 3 // 2
        lib = build_primitive_library(xs, 4, 1, 16, 7)
        assert lib.centers.tobytes() == kmeans(windows, 16, seed=7)[0].tobytes()


class TestBruteForceGuards:
    def test_instance_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_segment(CostMatrix(costs=np.zeros((20, 2))), 2)

    def test_segment_count_cap(self):
        with pytest.raises(ValueError):
            brute_force_segment(CostMatrix(costs=np.zeros((10, 2))), 5)


class TestSegError:
    def test_exact_match_zero(self):
        b = SegmentBoundaries.from_cuts(10, [4])
        assert seg_error_corpus([(b, b)]) == (0.0, 0.0)

    def test_mean_and_population_std(self):
        pred = SegmentBoundaries.from_cuts(12, [3, 9])
        truth = SegmentBoundaries.from_cuts(12, [4, 6])
        mean, std = seg_error_corpus([(pred, truth)])
        assert mean == 2.0   # errors 1 and 3
        assert std == 1.0

    def test_single_segment_convention(self):
        b = SegmentBoundaries(spans=((0, 5),))
        assert seg_error_corpus([(b, b)]) == (0.0, 0.0)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="segment count mismatch: 2 vs 3"):
            seg_error_corpus([(
                SegmentBoundaries.from_cuts(10, [5]),
                SegmentBoundaries.from_cuts(10, [3, 7]),
            )])

    def test_corpus_pooling(self):
        p1 = (SegmentBoundaries.from_cuts(10, [4]), SegmentBoundaries.from_cuts(10, [5]))
        p2 = (SegmentBoundaries.from_cuts(10, [7]), SegmentBoundaries.from_cuts(10, [4]))
        mean, std = seg_error_corpus([p1, p2])
        assert mean == 2.0   # pooled errors 1 and 3
        assert std == 1.0
        assert cut_errors(*p2) == [3]
