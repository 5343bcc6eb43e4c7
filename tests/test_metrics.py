import math
import warnings

import numpy as np
import pytest

from segalign import metrics as mx
from segalign.alignment import AggregatorParams, cosine_matrix, cosine_sim, embed_spans
from segalign.rvq import sqdist


class TestGrounding:
    def test_finds_matching_window(self):
        # identity-ish aggregator: locate the window whose tokens point the
        # same way as the query
        params = AggregatorParams(
            w1=np.vstack([np.eye(4), -np.eye(4)]),
            b1=np.zeros(8),
            w2=np.hstack([np.tile(np.eye(2), (1, 2)), -np.tile(np.eye(2), (1, 2))]),
            b2=np.zeros(2),
        )
        tokens = np.vstack([np.tile([1.0, 0.0], (5, 1)), np.tile([0.0, 1.0], (5, 1))])
        (best,), (sims,) = mx.motion_grounding(np.array([[0.0, 1.0]]), tokens, params, window_size=3)
        assert len(sims) == 8
        assert best >= 5

    def test_window_count(self):
        params = AggregatorParams.init(3, 4, seed=0)
        tokens = np.random.default_rng(0).normal(size=(49, 3))
        _, sims = mx.motion_grounding(np.zeros((1, 4)), tokens, params, window_size=5)
        assert sims.shape == (1, 45)

    def test_too_short_motion(self):
        params = AggregatorParams.init(2, 3, seed=0)
        with pytest.raises(ValueError):
            mx.motion_grounding(np.zeros((1, 3)), np.zeros((3, 2)), params, window_size=5)

    @pytest.mark.parametrize("seed", range(6))
    def test_each_row_is_its_own_cosine_row_bit_for_bit(self, seed):
        """Every text row against windows built one by one: the same bits as
        a one-row cosine_matrix, so embedding the windows once changes no
        output of ``segalign ground``."""
        rng = np.random.default_rng(seed)
        d_token, d_embed = int(rng.integers(2, 9)), int(rng.integers(2, 17))
        n, window, stride = int(rng.integers(6, 60)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        params = AggregatorParams.init(d_token, d_embed, seed=seed)
        tokens = rng.normal(size=(n, d_token))
        text = rng.normal(size=(int(rng.integers(1, 5)), d_embed))
        starts, sims = mx.motion_grounding(text, tokens, params, window_size=window, stride=stride)
        windows = embed_spans([tokens[s:s + window] for s in range(0, n - window + 1, stride)], params)
        assert sims.shape == (len(text), len(windows))
        for j, t in enumerate(text):
            want = cosine_matrix(t[None], windows)[0]
            np.testing.assert_array_equal(sims[j], want)
            assert starts[j] == int(np.argmax(want)) * stride

    def test_ties_take_the_lowest_start(self):
        params = AggregatorParams.init(2, 3, seed=0)
        starts, sims = mx.motion_grounding(np.ones((2, 3)), np.ones((9, 2)), params, window_size=3, stride=2)
        assert np.all(sims == sims[0, 0])
        assert starts.tolist() == [0, 0]

    @pytest.mark.parametrize("window,stride", [(0, 1), (3, 0), (-1, -1)])
    def test_window_and_stride_at_least_one(self, window, stride):
        params = AggregatorParams.init(2, 3, seed=0)
        with pytest.raises(ValueError, match="window_size and stride must be >= 1"):
            mx.motion_grounding(np.ones((1, 3)), np.ones((9, 2)), params, window_size=window, stride=stride)

    def test_m2t_retrieve_picks_nearest(self):
        cands = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert mx.m2t_retrieve(np.array([0.1, 0.9]), cands) == 1


class TestIsc:
    def test_perfect_pairs(self):
        pairs = [(np.array([1.0, 0.0]), np.array([2.0, 0.0]))] * 3
        assert mx.isc_score(pairs) == pytest.approx(1.0)

    def test_mixed(self):
        pairs = [
            (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([1.0, 0.0]), np.array([-1.0, 0.0])),
        ]
        assert mx.isc_score(pairs) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mx.isc_score([])

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_per_pair_cosine_mean(self, seed):
        """Bit for bit, with rows on both sides below the norm floor."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 600)), int(rng.integers(1, 65))
        T = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        M = T + rng.normal(size=(n, d))
        T[::7] *= 1e-16
        M[3::11] = 0.0
        want = float(np.mean([cosine_sim(t, m) for t, m in zip(T, M)]))
        assert mx.isc_score(zip(T, M)) == want

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mx.isc_score([(np.ones(3), np.ones(2))])

    def test_cv_population_std(self):
        assert mx.isc_cv([0.4, 0.6]) == pytest.approx(0.1 / 0.5)

    def test_cv_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            mx.isc_cv([0.5, -0.5])


class TestRPrecision:
    def test_identical_features_perfect(self):
        X = np.random.default_rng(0).normal(size=(64, 4))
        assert mx.r_precision(X, X.copy(), topk=1) == 1.0

    def test_drop_last_partial_pool(self):
        X = np.random.default_rng(1).normal(size=(70, 4))
        # only the first 64 samples (two pools of 32) are evaluated
        assert mx.r_precision(X, X.copy(), topk=1) == 1.0

    def test_small_input_single_pool_with_warning(self):
        X = np.random.default_rng(2).normal(size=(10, 3))
        with pytest.warns(RuntimeWarning):
            acc = mx.r_precision(X, X.copy(), topk=1)
        assert acc == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        T = rng.normal(size=(128, 5))
        M = T + rng.normal(0.0, 1.5, size=T.shape)
        accs = [mx.r_precision(T, M, topk=k) for k in (1, 2, 3)]
        assert accs[0] <= accs[1] <= accs[2]

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            mx.r_precision(np.zeros((4, 2)), np.zeros((5, 2)))

    # fewer samples than one pool, exactly one, and several with a partial last pool
    @pytest.mark.parametrize("n", [4, 17, 31, 32, 33, 63, 64, 70, 97, 119])
    def test_matches_the_per_row_loop(self, n):
        rng = np.random.default_rng(n)
        d, topk = (int(v) for v in rng.integers((1, 1), (6, 4)))
        pool = mx.POOL_SIZE
        T = rng.normal(size=(n, d))
        M = T + rng.normal(0.0, 1.0, size=T.shape)
        M[::5] = T[::5]                      # exact hits among noisy ones
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = mx.r_precision(T, M, topk=topk)
        pools = [np.arange(n)] if n < pool else [np.arange(i, i + pool) for i in range(0, n - pool + 1, pool)]
        hits = total = 0
        for p in pools:
            ranks = np.argsort(sqdist(T[p], M[p]), axis=1, kind="stable")
            for row in range(len(p)):
                hits += row in ranks[row, :topk]
                total += 1
        assert got == hits / total


class TestMmDistDiversity:
    def test_mm_dist_zero_on_identical(self):
        X = np.ones((5, 3))
        assert mx.mm_dist(X, X.copy()) == 0.0

    def test_mm_dist_hand_value(self):
        T = np.array([[0.0, 0.0], [1.0, 1.0]])
        M = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert mx.mm_dist(T, M) == pytest.approx(2.5)

    def test_diversity_two_points(self):
        M = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert mx.diversity(M, seed=0) == pytest.approx(5.0)

    def test_diversity_seeded(self):
        M = np.random.default_rng(0).normal(size=(50, 3))
        assert mx.diversity(M, seed=4) == mx.diversity(M, seed=4)

    @pytest.mark.parametrize("n,d,scale", [(2, 1, 1.0), (7, 3, 1e-3), (50, 16, 1.0), (33, 65, 1e3)])
    def test_diversity_equals_the_per_pair_loop(self, n, d, scale):
        """The stacked product gives the mean of the per-pair norms, summed
        in draw order, bit for bit."""
        M = np.random.default_rng(n * d).normal(size=(n, d)) * scale
        for seed in (0, 7, 11):
            rng, total = np.random.default_rng(seed), 0.0
            for _ in range(mx.DIVERSITY_PAIRS):
                i, j = rng.choice(n, size=2, replace=False)
                total += float(np.linalg.norm(M[i] - M[j]))
            assert mx.diversity(M, seed=seed) == total / mx.DIVERSITY_PAIRS

    def test_diversity_needs_two(self):
        with pytest.raises(ValueError):
            mx.diversity(np.zeros((1, 2)))


class TestFid:
    def test_identical_sets_near_zero(self):
        X = np.random.default_rng(0).normal(size=(100, 3))
        assert mx.fid(X, X.copy()) < 1e-6

    def test_mean_shift_closed_form(self):
        eye = np.eye(2)
        assert mx.fid_from_stats([0, 0], eye, [3, 4], eye) == pytest.approx(25.0)

    def test_variance_closed_form(self):
        assert mx.fid_from_stats([0.0], [[1.0]], [0.0], [[4.0]]) == pytest.approx(1.0)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError):
            mx.fid_from_stats([0, 0], -np.eye(2), [0, 0], np.eye(2))

    def test_non_finite_features_rejected(self):
        X = np.zeros((10, 2))
        Y = X.copy()
        Y[0, 0] = np.nan
        with pytest.raises(ValueError):
            mx.fid(X, Y)

    @pytest.mark.parametrize("rows_a,rows_b", [(1, 5), (5, 1), (0, 5), (1, 1)])
    def test_fewer_than_two_rows_rejected_without_warning(self, recwarn, rows_a, rows_b):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="at least 2 rows"):
            mx.fid(rng.normal(size=(rows_a, 3)), rng.normal(size=(rows_b, 3)))
        assert len(recwarn) == 0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(60, 4))
        B = rng.normal(1.0, 2.0, size=(80, 4))
        assert mx.fid(A, B) == pytest.approx(mx.fid(B, A), rel=1e-9)


class TestEvalReport:
    def test_non_finite_rejected(self):
        r = mx.EvalReport()
        with pytest.raises(ValueError):
            r.add("bad", math.inf)
