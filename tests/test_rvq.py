import json
import tracemalloc

import numpy as np
import pytest

from segalign import rvq
from segalign.motion import LatentSequence, SyntheticSpec, project_latent, synth_motion
from segalign.rvq import (
    Codebook,
    CodebookStack,
    TokenSequence,
    _nearest,
    dequantize,
    kmeans,
    quantize,
    reconstruction_error,
    sqdist,
    stack_from_json,
    stack_to_json,
    train_and_tokenize,
    train_codebooks,
    truncate_stack,
)
from segalign.segmentation import extract_windows

EPS = np.finfo(np.float64).eps


def difference_sqdist(a, b):
    """The (n, k, d) broadcast form that sqdist replaces; test-only reference."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def reference_kmeans(data, k, seed, iters=25):
    """Per-cluster-loop k-means with difference-form distances; test-only
    reference for the loop-free implementation, as brute_force_* is for the DP."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = data[rng.integers(n)]
        else:
            centers[j] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    for _ in range(iters):
        dist = difference_sqdist(data, centers)
        assign = np.argmin(dist, axis=1)
        for j in range(k):
            members = data[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                farthest = np.argmax(dist[np.arange(n), assign])
                centers[j] = data[farthest]
    return centers


def reference_kmeans_norms_per_iteration(data, k, seed, iters=25):
    """k-means as it was before the squared row norms of ``data`` were
    hoisted out of the loop: ``sqdist(data, centers)`` every iteration.
    Test-only reference for the bits of :func:`kmeans`."""
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    rng = np.random.default_rng(seed)
    centers = np.empty((k, d))
    centers[0] = data[rng.integers(n)]
    diff = np.empty_like(data)
    d2 = np.square(np.subtract(data, centers[0], out=diff), out=diff).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = data[rng.integers(n)]
        else:
            centers[j] = data[rng.choice(n, p=d2 / total)]
        np.square(np.subtract(data, centers[j], out=diff), out=diff)
        np.minimum(d2, diff.sum(axis=1), out=d2)
    bins = np.arange(d)
    prev = None
    for _ in range(iters):
        dist = sqdist(data, centers)
        assign = np.argmin(dist, axis=1)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        if filled.all() and prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        sums = np.bincount(
            (assign[:, None] * d + bins).ravel(), weights=data.ravel(), minlength=k * d
        ).reshape(k, d)
        centers[filled] = sums[filled] / counts[filled, None]
        if not filled.all():
            centers[~filled] = data[np.argmax(dist.min(axis=1))]
    return centers


def norm_form_sqdist(a, b, a_sq=None):
    """:func:`sqdist` as it was before it wrote its product in place: the
    norms summed into the result at once, then one (n, k) product
    subtracted.  Test-only reference for the bits of :func:`sqdist`."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a_sq is None:
        a_sq = (a * a).sum(axis=1)
    d2 = np.add(a_sq[:, None], (b * b).sum(axis=1)[None, :])
    ab = a @ b.T
    ab *= 2.0
    d2 -= ab
    return np.maximum(d2, 0.0, out=d2)


def bincount_kmeans(data, k, seed, iters=25, reseeds=None):
    """:func:`kmeans` as it was before it went by row blocks: the norms and
    each draw's seeding distances of all rows at once, and Lloyd's sums by
    one bincount over an (n*d) bin index.  Returns (centers, assignment);
    appends each reseed's cluster count to ``reseeds``.  Test-only
    reference for the bits of :func:`kmeans`."""
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    rng = np.random.default_rng(seed)
    data_sq = (data * data).sum(axis=1)
    prune = data_sq.max() <= np.finfo(np.float64).max / 8
    centers = np.empty((k, d))
    c = centers[0] = data[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        near = np.flatnonzero(~(rvq._seed_lower_bound(data, data_sq, c) >= d2)) if prune else np.arange(n)
        d2[near] = np.minimum(d2[near], np.square(data[near] - c).sum(axis=1))
        total = d2.sum()
        c = centers[j] = data[rng.integers(n) if total <= 0 else rvq._seed_draw(rng, d2 / total)]
    bins = np.arange(d)
    prev = None
    for _ in range(iters):
        dist = norm_form_sqdist(data, centers, a_sq=data_sq)
        assign = np.argmin(dist, axis=1)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        if filled.all() and prev is not None and np.array_equal(assign, prev):
            return centers, assign
        prev = assign
        sums = np.bincount(
            (assign[:, None] * d + bins).ravel(), weights=data.ravel(), minlength=k * d
        ).reshape(k, d)
        centers[filled] = sums[filled] / counts[filled, None]
        if not filled.all():
            centers[~filled] = data[np.argmax(dist.min(axis=1))]
            if reseeds is not None:
                reseeds.append(int((~filled).sum()))
    return centers, np.argmin(norm_form_sqdist(data, centers, a_sq=data_sq), axis=1)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def two_layer_stack():
    base = Codebook(entries=np.array([[0.0], [1.0]]))
    resid = Codebook(entries=np.array([[-0.25], [0.25]]))
    return CodebookStack(books=(base, resid))


class TestQuantize:
    def test_base_plus_residual(self):
        stack = two_layer_stack()
        tokens, q = quantize(LatentSequence(vectors=np.array([[0.8]])), stack)
        np.testing.assert_array_equal(tokens.layers, [[1], [0]])
        np.testing.assert_allclose(q.vectors, [[0.75]])

    def test_exact_codeword_zero_residual_picks_first(self):
        base = Codebook(entries=np.array([[0.0], [2.0]]))
        resid = Codebook(entries=np.array([[0.0], [1.0]]))
        stack = CodebookStack(books=(base, resid))
        tokens, q = quantize(LatentSequence(vectors=np.array([[2.0]])), stack)
        np.testing.assert_array_equal(tokens.layers, [[1], [0]])
        np.testing.assert_allclose(q.vectors, [[2.0]])

    def test_tie_breaks_to_lowest_index(self):
        base = Codebook(entries=np.array([[0.0], [1.0]]))
        stack = CodebookStack(books=(base,))
        tokens, _ = quantize(LatentSequence(vectors=np.array([[0.5]])), stack)
        assert tokens.layers[0, 0] == 0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            quantize(LatentSequence(vectors=np.zeros((2, 3))), two_layer_stack())

    def test_dequantize_inverts_token_selection(self):
        stack = two_layer_stack()
        rng = np.random.default_rng(0)
        v = LatentSequence(vectors=rng.normal(size=(10, 1)))
        tokens, q = quantize(v, stack)
        np.testing.assert_array_equal(dequantize(tokens, stack).vectors, q.vectors)

    def test_dequantize_out_of_range_token(self):
        stack = two_layer_stack()
        bad = TokenSequence(layers=np.array([[5], [0]]))
        with pytest.raises(ValueError):
            dequantize(bad, stack)

    def test_dequantize_layer_count_mismatch(self):
        stack = two_layer_stack()
        with pytest.raises(ValueError):
            dequantize(TokenSequence(layers=np.zeros((1, 3), dtype=int)), stack)


class TestSqdist:
    def test_error_bounded_on_random_data(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, k, d = (int(v) for v in rng.integers(1, 40, size=3))
            scale = 10.0 ** rng.uniform(-3, 3)
            a = rng.normal(0.0, scale, size=(n, d)) + rng.normal(0.0, scale, size=d)
            b = rng.normal(0.0, scale, size=(k, d))
            exact = difference_sqdist(a.astype(np.longdouble), b.astype(np.longdouble))
            norms = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
            err = np.abs(sqdist(a, b) - exact).astype(np.float64)
            assert np.all(err <= 8 * EPS * norms)

    def test_never_negative(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(200, 7)) * 1e3
        # near-duplicates of a's rows, where cancellation is worst
        b = a[:50] + rng.normal(0.0, 1e-9, size=(50, 7))
        d2 = sqdist(a, np.vstack([b, a[:50]]))
        assert d2.min() >= 0.0

    def test_integer_data_with_duplicates_is_exact(self):
        rng = np.random.default_rng(2)
        a = rng.integers(-50, 51, size=(60, 5)).astype(np.float64)
        b = np.vstack([a[:10], a[:10], rng.integers(-50, 51, size=(8, 5))])
        np.testing.assert_array_equal(sqdist(a, b), difference_sqdist(a, b))

    def test_nearest_sends_exact_ties_to_lowest_index(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(-3, 4, size=(6, 2)).astype(np.float64)
        codes = np.vstack([codes, codes[::-1]])     # every code appears twice
        vectors = rng.integers(-4, 5, size=(300, 2)).astype(np.float64)
        d2 = difference_sqdist(vectors, codes)
        expected = np.array([np.flatnonzero(row == row.min())[0] for row in d2])
        np.testing.assert_array_equal(_nearest(codes, vectors), expected)

    def test_out_buffer_returned_with_same_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, k, d = (int(v) for v in rng.integers(1, 30, size=3))
            a = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.normal(size=(k, d))
            buf = np.frombuffer(rng.bytes(8 * n * k), dtype=np.float64).reshape(n, k).copy()
            assert sqdist(a, b, out=buf) is buf
            np.testing.assert_array_equal(buf.view(np.uint64), sqdist(a, b).view(np.uint64))

    def test_self_distances_are_symmetric_and_match_the_scaled_product(self):
        """sqdist(x, x) takes a @ a.T as one symmetric product: the table is
        exactly symmetric, with the bits of ``2.0 * (a @ a.T)`` subtracted."""
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.normal(size=(int(rng.integers(1, 120)), int(rng.integers(1, 9))))
            sq = (x * x).sum(axis=1)
            want = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
            got = sqdist(x, x)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(got, got.T)

    def test_precomputed_norms_give_same_bits(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, k, d = (int(v) for v in rng.integers(1, 30, size=3))
            a = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.normal(size=(k, d))
            got = sqdist(a, b, a_sq=(a * a).sum(axis=1))
            np.testing.assert_array_equal(got.view(np.uint64), sqdist(a, b).view(np.uint64))

    def test_shapes(self):
        rng = np.random.default_rng(4)
        assert sqdist(rng.normal(size=(1, 3)), rng.normal(size=(5, 3))).shape == (1, 5)
        assert sqdist(rng.normal(size=(5, 3)), rng.normal(size=(1, 3))).shape == (5, 1)
        assert sqdist(rng.normal(size=(1, 3)), rng.normal(size=(1, 3))).shape == (1, 1)


class TestKmeans:
    def test_separated_clusters_found(self):
        rng = np.random.default_rng(0)
        data = np.vstack([
            rng.normal(0.0, 0.05, size=(30, 2)),
            rng.normal(10.0, 0.05, size=(30, 2)),
        ])
        centers, _ = kmeans(data, 2, seed=1)
        centers = centers[np.argsort(centers[:, 0])]
        np.testing.assert_allclose(centers[0], [0.0, 0.0], atol=0.1)
        np.testing.assert_allclose(centers[1], [10.0, 10.0], atol=0.1)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(kmeans(data, 4, seed=9)[0], kmeans(data, 4, seed=9)[0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3, seed=0)

    def test_matches_reference_on_integer_data(self):
        rng = np.random.default_rng(6)
        for seed in range(40):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(1, min(n, 8) + 1))
            data = rng.integers(-4, 5, size=(n, int(rng.integers(1, 5)))).astype(np.float64)
            np.testing.assert_array_equal(
                kmeans(data, k, seed=seed, iters=10)[0],
                reference_kmeans(data, k, seed=seed, iters=10),
            )

    def test_same_bits_as_norms_per_iteration(self):
        rng = np.random.default_rng(12)
        for seed in range(300):
            n = int(rng.integers(2, 120))
            k = int(rng.integers(1, min(n, 20) + 1))
            d = int(rng.integers(1, 9))
            data = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2)
            if seed % 5 == 0:
                data[: n // 2] = data[0]     # duplicate points: reseeds and early ties
            iters = int(rng.choice([1, 3, 25]))
            got, _ = kmeans(data, k, seed=seed, iters=iters)
            want = reference_kmeans_norms_per_iteration(data, k, seed=seed, iters=iters)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_empty_cluster_reseed_matches_reference(self):
        # k-means++ must place a duplicate center here; the duplicate with the
        # higher index wins no points and takes the reseed branch.
        data = np.array([[0.0, 0.0]] * 4 + [[5.0, 5.0]])
        for seed in range(5):
            np.testing.assert_array_equal(
                kmeans(data, 3, seed=seed)[0], reference_kmeans(data, 3, seed=seed)
            )

    def test_reseed_takes_farthest_point_under_pre_update_distances(self):
        # With this seed, k-means++ picks (7,8), (8,4), (8,5).  After the first
        # update the centers are (4,7), (6,11/3), (8,5); in the second
        # assignment center 1 wins no point ((7,8) ties between centers 0 and
        # 2 and goes to 0), so it is reseeded to (1,3), the point farthest
        # (squared distance 25) from its center (4,7).
        data = np.array([[8, 4], [8, 5], [1, 3], [7, 8], [1, 6], [9, 4]], dtype=np.float64)
        centers, _ = kmeans(data, 3, seed=178)
        np.testing.assert_array_equal(centers, reference_kmeans(data, 3, seed=178))
        np.testing.assert_array_equal(centers, [[1.0, 6.0], [1.0, 3.0], [8.0, 5.25]])


def clustered_integer_data(rng, k, per_cluster, d):
    """Integer points in k well-separated blobs, so k-means settles early and
    every distance and mean is exact enough for reference_kmeans to agree."""
    centers = rng.integers(-3, 4, size=(k, d)) * 40
    offsets = rng.integers(-2, 3, size=(k * per_cluster, d))
    return (np.repeat(centers, per_cluster, axis=0) + offsets).astype(np.float64)


@pytest.fixture
def sqdist_calls(monkeypatch):
    calls = []
    real = rvq.sqdist

    def counting(a, b, **kwargs):
        calls.append(a.shape[0])
        return real(a, b, **kwargs)

    monkeypatch.setattr(rvq, "sqdist", counting)
    return calls


class TestKmeansFixedPoint:
    def test_early_exit_matches_reference(self, sqdist_calls):
        rng = np.random.default_rng(21)
        exited = 0
        for seed in range(20):
            k = int(rng.integers(2, 9))
            data = clustered_integer_data(rng, k, int(rng.integers(3, 12)), int(rng.integers(1, 4)))
            for iters in (1, 2, 25):
                sqdist_calls.clear()
                np.testing.assert_array_equal(
                    kmeans(data, k, seed=seed, iters=iters)[0],
                    reference_kmeans(data, k, seed=seed, iters=iters),
                )
                # an exit at the fixed point makes at most ``iters`` passes;
                # a run that reaches ``iters`` makes one more, to assign
                assert len(sqdist_calls) <= iters + 1
            exited += len(sqdist_calls) < 25
        assert exited == 20

    def test_repeated_assignment_with_reseed_does_not_exit(self, sqdist_calls):
        # k-means++ places a duplicate center; it wins no points, so every
        # assignment repeats the previous one and every update reseeds.
        data = np.array([[0.0, 0.0]] * 4 + [[5.0, 5.0]])
        for seed in range(5):
            for iters in (1, 2, 25):
                sqdist_calls.clear()
                np.testing.assert_array_equal(
                    kmeans(data, 3, seed=seed, iters=iters)[0],
                    reference_kmeans(data, 3, seed=seed, iters=iters),
                )
                # every iteration, then the assignment to the final centers
                assert len(sqdist_calls) == iters + 1

    def test_assignment_is_the_nearest_center(self, sqdist_calls):
        """kmeans hands back the bits of ``_nearest`` over the centers it
        returns: at a fixed point its last assignment, else that of one more
        pass.  Runs of 0 and 1 iterations never reach a fixed point."""
        rng = np.random.default_rng(22)
        fixed = 0
        for seed in range(30):
            k = int(rng.integers(2, 9))
            data = clustered_integer_data(rng, k, int(rng.integers(3, 12)), int(rng.integers(1, 4)))
            data += rng.normal(0.0, 0.3, size=data.shape)
            for iters in (0, 1, 2, 25):
                sqdist_calls.clear()
                centers, assign = kmeans(data, k, seed=seed, iters=iters)
                fixed += len(sqdist_calls) <= iters
                np.testing.assert_array_equal(assign, _nearest(centers, data))
        assert 30 <= fixed < 60

    def test_fixed_point_saves_distance_calls(self, sqdist_calls):
        rng = np.random.default_rng(8)
        blobs = rng.normal(0.0, 20.0, size=(16, 4))
        data = np.repeat(blobs, 30, axis=0) + rng.normal(0.0, 0.1, size=(480, 4))
        centers, _ = kmeans(data, 16, seed=2, iters=25)
        assert len(sqdist_calls) < 25
        # the fixed point is a true one: one more update changes nothing
        assign = np.argmin(sqdist(data, centers), axis=1)
        means = np.stack([data[assign == j].mean(axis=0) for j in range(16)])
        np.testing.assert_allclose(means, centers, rtol=0, atol=1e-12)


def synth_latents(seed, samples=60, segments=3, tokens=8, dim=16):
    """Per-sample latents shaped as ``synth`` makes them by default: regimes
    with N(0, 3^2) means, each held for ``tokens`` latents of 4 frames with
    N(0, 0.3^2) frame noise, block-averaged by ``project_latent``."""
    rng = np.random.default_rng(seed)
    return [
        project_latent(synth_motion(SyntheticSpec(
            frames_per_regime=[4 * tokens] * segments,
            regime_means=[rng.normal(0.0, 3.0, size=dim) for _ in range(segments)],
            noise_std=0.3,
            seed=1000 * seed + i,
        ))[0]).vectors
        for i in range(samples)
    ]


def lattice_with_duplicates():
    rows = np.random.default_rng(4).integers(-2, 3, size=(40, 3)).astype(np.float64)
    return np.vstack([rows, rows[:25]])


# (data, k) where skipping rows by the seeding bound could go wrong
PRUNE_CASES = {
    "quantize-shape": (lambda: np.vstack(synth_latents(7)), 64),
    "library-shape": (lambda: np.vstack([extract_windows(s, 4, 1) for s in synth_latents(7)]), 32),
    "near-1e150": (lambda: np.random.default_rng(1).normal(size=(300, 8)) * 1e150, 24),
    "near-1e-160": (lambda: np.random.default_rng(2).normal(size=(300, 8)) * 1e-160, 24),
    "offset-dominated": (lambda: 1e8 + np.random.default_rng(3).normal(0.0, 1e-3, size=(300, 8)), 24),
    "lattice-duplicates": (lattice_with_duplicates, 20),
    "all-equal": (lambda: np.full((30, 4), 2.5), 6),
    "d-1": (lambda: np.random.default_rng(5).normal(size=(400, 1)), 32),
    "k-equals-n": (lambda: np.random.default_rng(6).normal(size=(40, 5)), 40),
}


class TestKmeansSeedingPrune:
    @pytest.mark.parametrize("case", PRUNE_CASES)
    def test_same_bits_as_measuring_every_row(self, case):
        make, k = PRUNE_CASES[case]
        data = make()
        for seed in range(2):
            got, _ = kmeans(data, k, seed=seed)
            want = reference_kmeans_norms_per_iteration(data, k, seed=seed)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_first_layer_residual_same_bits(self):
        data = np.vstack(synth_latents(3))
        centers, _ = kmeans(data, 64, seed=0)
        residual = data - centers[_nearest(centers, data)]
        got, _ = kmeans(residual, 64, seed=1)
        want = reference_kmeans_norms_per_iteration(residual, 64, seed=1)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rows_whose_squared_norm_overflows_turn_pruning_off(self):
        # the first row's squared norm overflows, so the bound's terms can:
        # for the second row as center the first row's bound reads inf, while
        # its difference form (1.04e308) is finite and may be below its d2
        data = np.array([[1e154, 1e154], [0.8e154, 0.0], [0.1e154, -0.2e154], [0.5e154, 0.3e154]])
        for seed in range(20):
            for k in (3, 4):
                outcomes = []
                for fit in (lambda *a, **kw: kmeans(*a, **kw)[0], reference_kmeans_norms_per_iteration):
                    with np.errstate(over="ignore", invalid="ignore"):
                        try:
                            outcomes.append(fit(data, k, seed=seed).tobytes())
                        except ValueError:
                            outcomes.append("refused")
                assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("d", [1, 2, 16, 64, 256])
    def test_lower_bound_never_exceeds_difference_form(self, d):
        rng = np.random.default_rng(d)
        for _ in range(200):   # 200 centers x 100 rows per d
            scale = 10.0 ** rng.uniform(-160, 150)
            c = rng.normal(size=d) * scale
            # rows at every distance from c, down to c itself, where the norm
            # form cancels; a few at other scales and one at -c
            x = c + rng.normal(size=(100, d)) * scale * 10.0 ** rng.uniform(-17, 1, size=(100, 1))
            x[:10] = rng.normal(size=(10, d)) * 10.0 ** rng.uniform(-160, 150, size=(10, 1))
            x[10], x[11] = c, -c
            x_sq = (x * x).sum(axis=1)
            bound = rvq._seed_lower_bound(x, x_sq, c)
            exact = np.square(x - c).sum(axis=1)
            assert np.all(bound <= exact)
            # and the bound is tight: it falls short by about its margin
            slack = 2 * (d + 2) * 1e-12 * (x_sq + c @ c) + (d + 3) * 2.0**-1021
            assert np.all(bound >= exact - slack)

    def test_draw_equals_choice(self):
        rng = np.random.default_rng(11)
        for s in range(1000):
            n = int(rng.integers(1, 200))
            w = rng.random(n) * 10.0 ** rng.uniform(-300, 300)
            if s % 3 == 0:
                w[rng.random(n) < 0.6] = 0.0
            if s % 100 == 1 or not w.any():
                w[:] = 0.0
                w[rng.integers(n)] = 1.0
            p = w / w.sum()
            mine, theirs = np.random.default_rng(s), np.random.default_rng(s)
            assert rvq._seed_draw(mine, p) == theirs.choice(n, p=p)
            assert mine.random() == theirs.random()   # the same state afterwards

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 4])
    def test_non_finite_input_is_refused(self, value, k):
        data = np.random.default_rng(0).normal(size=(20, 3))
        data[7, 1] = value
        with pytest.raises(ValueError, match="^k-means input contains non-finite values$"):
            kmeans(data, k, seed=0)

    @pytest.mark.parametrize("data", [
        np.repeat([[0.0], [1e154]], 10, axis=0),   # each distance finite, their sum not
        np.repeat([[-4e153], [4e153]], 5, axis=0),   # the same with every |x|^2 low enough to prune
        np.random.default_rng(9).normal(size=(20, 2)) * 1e154,
    ], ids=["sum-overflows", "sum-overflows-pruned", "distances-overflow"])
    def test_overflowing_total_is_refused(self, data):
        for seed in range(4):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="^k-means\\+\\+ distance total is not finite$"):
                    kmeans(data, 3, seed=seed)


class TestRowBlocks:
    """sqdist and kmeans go by blocks of rvq._BLOCK elements; every bit is
    that of the whole-array forms they replaced."""

    def test_sqdist_equals_the_norm_form(self):
        rng = np.random.default_rng(31)
        blocks = 0
        for t in range(150):
            n, k, d = int(rng.integers(1, 900)), int(rng.integers(1, 200)), int(rng.integers(1, 40))
            a = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=d)
            b = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3)
            if t % 5 == 0:
                a, b = np.asfortranarray(a), np.asfortranarray(b)   # norms at once, not by blocks
            want = norm_form_sqdist(a, b)
            assert_same_bits(sqdist(a, b), want)
            buf = np.full((n, k), np.nan)
            assert sqdist(a, b, out=buf, a_sq=(a * a).sum(axis=1)) is buf
            assert_same_bits(buf, want)
            blocks += n * max(k, d) > rvq._BLOCK
        assert blocks > 100

    @pytest.mark.parametrize("n, k, d", [(3, rvq._BLOCK + 5, 2), (rvq._BLOCK + 3, 1, 1), (7, 2, rvq._BLOCK + 1)])
    def test_sqdist_rows_wider_than_a_block(self, n, k, d):
        rng = np.random.default_rng(n + k + d)
        a, b = rng.normal(size=(n, d)), rng.normal(size=(k, d))
        assert_same_bits(sqdist(a, b), norm_form_sqdist(a, b))

    def test_sqdist_sums_a_non_contiguous_a_at_once(self):
        """A one-row block of a Fortran-ordered ``a`` would sum its row
        pairwise, not in order as the whole array does."""
        rng = np.random.default_rng(37)
        a = np.asfortranarray(rng.normal(size=(rvq._BLOCK // 64 + 1, 64)))
        b = rng.normal(size=(5, 64))
        assert_same_bits(sqdist(a, b), norm_form_sqdist(a, b))

    def test_self_distances_equal_the_norm_form_and_stay_symmetric(self):
        """sqdist(x, x) still takes a @ a.T as one symmetric product."""
        rng = np.random.default_rng(32)
        for _ in range(30):
            x = rng.normal(size=(int(rng.integers(1, 400)), int(rng.integers(1, 17))))
            got = sqdist(x, x)
            assert_same_bits(got, norm_form_sqdist(x, x))
            np.testing.assert_array_equal(got, got.T)

    def test_integer_ties_stay_exact_across_blocks(self):
        rng = np.random.default_rng(33)
        a = rng.integers(-6, 7, size=(2000, 3)).astype(np.float64)
        codes = np.vstack([a[:40], a[:40]])   # every code twice: exact ties
        d2 = sqdist(a, codes)
        np.testing.assert_array_equal(d2, difference_sqdist(a, codes))
        assert (np.argmin(d2, axis=1) < 40).all()

    def test_kmeans_equals_the_bincount_form(self):
        rng = np.random.default_rng(34)
        reseeds, blocks = [], 0
        for seed in range(60):
            n, d = int(rng.integers(2, 3000)), int(rng.integers(1, 40))
            k = int(rng.integers(1, min(n, 48) + 1))
            data = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2)
            if seed % 3 == 0:
                data[: n // 2] = data[0]   # duplicate points: empty clusters and reseeds
            if seed % 4 == 0:
                data = np.round(data)
            iters = int(rng.choice([1, 3, 25]))
            got_c, got_a = kmeans(data, k, seed=seed, iters=iters)
            want_c, want_a = bincount_kmeans(data, k, seed=seed, iters=iters, reseeds=reseeds)
            assert_same_bits(got_c, want_c)
            assert_same_bits(got_a, want_a)
            blocks += n * d > rvq._BLOCK
        assert reseeds and blocks > 20

    def test_kmeans_reseed_equals_the_bincount_form(self):
        data = np.array([[0.0, 0.0]] * 4 + [[5.0, 5.0]])
        for seed in range(5):
            reseeds = []
            want_c, want_a = bincount_kmeans(data, 3, seed=seed, reseeds=reseeds)
            got_c, got_a = kmeans(data, 3, seed=seed)
            assert reseeds
            assert_same_bits(got_c, want_c)
            assert_same_bits(got_a, want_a)


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates beyond what is live before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    def test_sqdist_into_a_buffer_needs_one_block(self):
        """Beyond ``out``: b's norms, one block of norms for a block of rows,
        and numpy's buffer for the broadcast add into it, at most as large,
        where the (n, k) product alone was 2 MB."""
        n, k, d = 4000, 64, 16
        rng = np.random.default_rng(35)
        a, b = rng.normal(size=(n, d)), rng.normal(size=(k, d))
        a_sq, out = (a * a).sum(axis=1), np.empty((n, k))
        block = rvq._BLOCK * 8
        assert traced_peak(sqdist, a, b, out, a_sq) <= 2 * block + 8 * k + 4096
        # without a_sq, a's norms (n values) are summed a block of rows at a time
        assert traced_peak(sqdist, a, b, out) <= 2 * block + 8 * (n + k) + 4096

    def test_kmeans_needs_its_distance_buffer_and_a_few_vectors(self):
        """The (n, k) distance buffer, a few n-vectors (norms, seeding
        distances, assignments) and a few blocks: 6.0 MB at n = 20,000,
        d = 64, k = 32, where the (n*d) bin index alone was 10 MB."""
        n, d, k = 20000, 64, 32
        data = np.random.default_rng(36).normal(size=(n, d))
        assert traced_peak(kmeans, data, k, 0, 3) <= n * k * 8 + 8 * n * 8 + 4 * rvq._BLOCK * 8


class TestTrainCodebooks:
    def test_deeper_stack_never_hurts(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(200, 4))
        stack = train_codebooks(data, layers=3, codes_per_layer=8, seed=0, iters=10)
        errs = [reconstruction_error(data, truncate_stack(stack, j)) for j in (1, 2, 3)]
        assert errs[2] <= errs[1] <= errs[0]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(100, 2))
        s1 = train_codebooks(data, layers=2, codes_per_layer=4, seed=7, iters=5)
        s2 = train_codebooks(data, layers=2, codes_per_layer=4, seed=7, iters=5)
        for b1, b2 in zip(s1.books, s2.books):
            np.testing.assert_array_equal(b1.entries, b2.entries)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            train_codebooks(np.zeros((3, 2)), layers=1, codes_per_layer=8)

    @pytest.mark.parametrize("iters", [1, 3, 25])
    def test_tokens_are_those_quantize_gives(self, iters):
        """Layers that reach a fixed point hand over their k-means
        assignment, the others take one nearest-code pass: either way the
        tokens, and their summed codes, are quantize's bits."""
        data = np.vstack(synth_latents(9, samples=20))
        stack, tokens = train_and_tokenize(data, layers=4, codes_per_layer=16, seed=3, iters=iters)
        for got, want in zip(stack.books, train_codebooks(data, layers=4, codes_per_layer=16, seed=3,
                                                          iters=iters).books):
            assert got.entries.tobytes() == want.entries.tobytes()
        want, quantized = quantize(LatentSequence(vectors=data), stack)
        np.testing.assert_array_equal(tokens.layers, want.layers)
        assert dequantize(tokens, stack).vectors.tobytes() == quantized.vectors.tobytes()


class TestSerialization:
    def test_round_trip(self):
        stack = two_layer_stack()
        back = stack_from_json(json.loads(json.dumps(stack_to_json(stack))))
        assert back.num_layers == 2
        for b1, b2 in zip(stack.books, back.books):
            np.testing.assert_array_equal(b1.entries, b2.entries)

    def test_books_are_float64_hex_rows(self):
        obj = stack_to_json(two_layer_stack())
        assert obj["books"][1] == [np.float64(v).tobytes().hex() for v in (-0.25, 0.25)]

    # the valid object is two books of width 1, each row the hex of one
    # float64; each edit breaks one thing
    BAD_ROW = "books[1]: each row must be a string of 16 hex digits"
    MALFORMED = {
        "not-an-object": (lambda obj: [1], "expected a JSON object, got list"),
        "no-books": (lambda obj: {"dim": 1}, "missing field 'books'"),
        "books-empty": (lambda obj: {**obj, "books": []}, "field 'books' must be a non-empty list of codebooks"),
        "books-object": (lambda obj: {**obj, "books": {"0": obj["books"][0]}}, "field 'books' must be a non-empty"),
        # the first book's rows set the width, and every other book is held to it
        "first-book-wide": (lambda obj: {**obj, "books": [["".join(obj["books"][0])], obj["books"][1]]},
                            "books[1]: each row must be a string of 32 hex digits"),
        "first-book-short-row": (lambda obj: {**obj, "books": [[obj["books"][0][0][:-2]], obj["books"][1]]},
                                 "books[0]: each row must be a string of 16 hex digits per value"),
        "book-empty": (lambda obj: {**obj, "books": [obj["books"][0], []]},
                       "books[1]: expected a non-empty list of rows"),
        "book-empty-row": (lambda obj: {**obj, "books": [obj["books"][0], [""]]}, BAD_ROW),
        "book-flat": (lambda obj: {**obj, "books": [obj["books"][0], obj["books"][1][0]]},
                      "books[1]: expected a non-empty list of rows"),
        "book-wide": (lambda obj: {**obj, "books": [obj["books"][0], ["".join(obj["books"][1])]]}, BAD_ROW),
        "book-ragged": (lambda obj: {**obj, "books": [obj["books"][0], [obj["books"][1][0], "".join(obj["books"][1])]]},
                        BAD_ROW),
        "book-string": (lambda obj: {**obj, "books": [obj["books"][0], ["zz" * 8]]}, "books[1]: rows are not hex"),
        "book-bool": (lambda obj: {**obj, "books": [obj["books"][0], [True]]}, BAD_ROW),
        "book-nan": (lambda obj: {**obj, "books": [obj["books"][0], [np.float64("nan").tobytes().hex()]]},
                     "books[1]: non-finite value"),
        "book-huge-int": (lambda obj: {**obj, "books": [obj["books"][0], [[10 ** 400]]]}, BAD_ROW),
        "book-float-list": (lambda obj: {**obj, "books": [obj["books"][0], [[-0.25], [0.25]]]},
                            BAD_ROW + ", the little-endian float64 bytes of its values "
                            "(a file of float lists is older: rerun quantize)"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_stack_names_the_field(self, case):
        edit, message = self.MALFORMED[case]
        obj = edit(stack_to_json(two_layer_stack()))
        with pytest.raises(ValueError) as info:
            stack_from_json(obj)
        assert str(info.value).startswith(message)

    def test_older_dim_key_is_ignored(self):
        """A file that still carries the ``dim`` it once stored reads as the
        same stack."""
        obj = stack_to_json(two_layer_stack())
        assert "dim" not in obj
        back = stack_from_json({**obj, "dim": 1})
        for b1, b2 in zip(two_layer_stack().books, back.books, strict=True):
            assert b1.entries.tobytes() == b2.entries.tobytes()

    def test_truncate_bounds(self):
        with pytest.raises(ValueError):
            truncate_stack(two_layer_stack(), 3)
