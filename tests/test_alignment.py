import math
import warnings

import numpy as np
import pytest

from segalign import alignment as al


CFG = al.AlignmentConfig(temperature=0.1)


class TestCosine:
    def test_parallel(self):
        assert al.cosine_sim([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert al.cosine_sim([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0)

    def test_underflow_norm_gives_zero(self):
        assert al.cosine_sim([1e-20, 0.0], [1.0, 0.0]) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            al.cosine_sim([1.0], [1.0, 2.0])

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        T = rng.normal(size=(3, 4))
        M = rng.normal(size=(2, 4))
        S = al.cosine_matrix(T, M)
        for i in range(3):
            for j in range(2):
                assert S[i, j] == pytest.approx(al.cosine_sim(T[i], M[j]))


class TestAggregation:
    def test_mean_max_identity_network(self):
        # w1 = [I; -I] stacked to pass concat(mean,max) through ReLU twice,
        # w2 recombines: output equals mean + max exactly for this setup
        d = 2
        params = al.AggregatorParams(
            w1=np.vstack([np.eye(2 * d), -np.eye(2 * d)]),
            b1=np.zeros(4 * d),
            w2=np.hstack([np.tile(np.eye(d), (1, 2)), -np.tile(np.eye(d), (1, 2))]),
            b2=np.zeros(d),
        )
        span = np.array([[1.0, -2.0], [3.0, 4.0]])
        expected = span.mean(axis=0) + span.max(axis=0)
        np.testing.assert_allclose(al.aggregate_mean_max(span, params), expected)

    def test_embed_spans_matches_per_span_reference(self):
        rng = np.random.default_rng(11)
        params = al.AggregatorParams.init(5, 6, seed=2)
        for _ in range(10):
            spans = [-rng.uniform(0.1, 3.0, size=(int(m), 5)) for m in rng.integers(1, 8, size=9)]
            out = al.embed_spans(spans, params)
            assert out.shape == (9, 6)
            for span, row in zip(spans, out):
                feat = np.concatenate([span.mean(axis=0), span.max(axis=0)])
                ref = params.w2 @ np.maximum(params.w1 @ feat + params.b1, 0.0) + params.b2
                np.testing.assert_allclose(row, ref, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(al.aggregate_mean_max(span, params), ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_empty_span_in_batch_rejected(self, position):
        rng = np.random.default_rng(12)
        params = al.AggregatorParams.init(3, 4, seed=0)
        spans = [rng.normal(size=(2, 3)) for _ in range(3)]
        spans[position] = np.zeros((0, 3))
        text = rng.normal(size=(3, 4))
        with pytest.raises(ValueError, match="empty"):
            al.embed_spans(spans, params)
        other = [rng.normal(size=(2, 4)), text]
        with pytest.raises(ValueError, match="empty"):
            al.grad_alignment(other, [[rng.normal(size=(3, 3))] * 2, spans], params, CFG)

    def test_init_deterministic_and_bounded(self):
        p1 = al.AggregatorParams.init(4, 6, seed=3)
        p2 = al.AggregatorParams.init(4, 6, seed=3)
        np.testing.assert_array_equal(p1.w1, p2.w1)
        assert p1.w1.shape == (8, 8)
        assert np.abs(p1.w1).max() <= 1.0 / math.sqrt(8)

    def test_params_json_round_trip(self):
        p = al.AggregatorParams.init(3, 5, seed=1)
        back = al.params_from_json(al.params_to_json(p))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(back, name), getattr(p, name))

    def test_older_seed_key_is_ignored(self):
        """A model.json that still carries the ``seed`` it once stored reads
        as the same weights."""
        obj = al.params_to_json(al.AggregatorParams.init(3, 5, seed=1))
        assert "seed" not in obj
        got, ref = al.params_from_json({**obj, "seed": 1}), al.params_from_json(obj)
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()

    @pytest.mark.parametrize("edit,message", [
        (lambda obj: [1, 2], "expected a JSON object, got list"),
        (lambda obj: {k: v for k, v in obj.items() if k != "b2"}, "missing field 'b2'"),
        (lambda obj: {**obj, "w1": "weights"}, "weight 'w1': expected a non-empty list of rows"),
        (lambda obj: {**obj, "w1": obj["b1"]}, "weight 'w1': expected a non-empty list of rows"),
        (lambda obj: {**obj, "b1": None}, "weight 'b1': each row must be a string of 96 hex digits"),
        (lambda obj: {**obj, "b1": obj["b1"][16:]}, "weight 'b1': each row must be a string of 96 hex digits"),
        (lambda obj: {**obj, "w2": [row[16:] for row in obj["w2"]]},
         "weight 'w2': each row must be a string of 96 hex digits"),
        (lambda obj: {**obj, "w2": [True] * 5}, "weight 'w2': each row must be a string of 96 hex digits"),
        (lambda obj: {**obj, "b2": obj["b1"]}, "weight 'b2': each row must be a string of 80 hex digits"),
        (lambda obj: {**obj, "w1": ["zz" * 48] + obj["w1"][1:]}, "weight 'w1': rows are not hex"),
        (lambda obj: {**obj, "b2": obj["b2"][:-16] + np.array([np.inf], "<f8").tobytes().hex()},
         "weight 'b2': non-finite value"),
        # decimal float lists are the older encoding of the weights
        (lambda obj: {**obj, "w1": [np.frombuffer(bytes.fromhex(row), "<f8").tolist() for row in obj["w1"]]},
         "(a file of float lists is older: rerun train-align)"),
    ])
    def test_params_from_json_names_the_bad_weight(self, edit, message):
        obj = al.params_to_json(al.AggregatorParams.init(3, 5, seed=1))
        with pytest.raises(ValueError) as exc:
            al.params_from_json(edit(obj))
        assert message in str(exc.value)

    def test_short_hex_row_is_not_called_older(self):
        """Only a row of decimal floats is the older encoding; a hex row one
        value short is told its width, not to rerun train-align."""
        obj = al.params_to_json(al.AggregatorParams.init(3, 5, seed=1))
        with pytest.raises(ValueError) as exc:
            al.params_from_json({**obj, "b2": obj["b2"][:-16]})
        assert str(exc.value) == ("weight 'b2': each row must be a string of 80 hex digits, "
                                  "the little-endian float64 bytes of its values")


class TestLosses:
    def test_per_sample_bounds(self):
        rng = np.random.default_rng(1)
        e = al.SegmentEmbeddings(
            text=[rng.normal(size=(3, 4))], motion=[rng.normal(size=(3, 4))]
        )
        loss = al.loss_per_sample(e, CFG)
        assert 0.0 < loss

    def test_global_equals_batch_with_single_segments(self):
        rng = np.random.default_rng(3)
        T = rng.normal(size=(5, 4))
        M = rng.normal(size=(5, 4))
        e = al.SegmentEmbeddings(text=[T[i:i+1] for i in range(5)],
                                 motion=[M[i:i+1] for i in range(5)])
        assert al.loss_batch(e, CFG) == pytest.approx(al.loss_global(T, M, CFG), abs=1e-15)

    def test_batch_has_at_least_per_sample_negatives(self):
        # aligned pairs, random distractors: more negatives cannot reduce loss
        rng = np.random.default_rng(4)
        text = [rng.normal(size=(2, 4)) for _ in range(3)]
        motion = [t + rng.normal(0.0, 0.1, size=t.shape) for t in text]
        e = al.SegmentEmbeddings(text=text, motion=motion)
        assert al.loss_batch(e, CFG) >= al.loss_per_sample(e, CFG) - 1e-9

    def test_temperature_sharpens(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=(3, 4))
        e = al.SegmentEmbeddings(text=[t], motion=[t + rng.normal(0.0, 0.05, size=t.shape)])
        sharp = al.loss_per_sample(e, al.AlignmentConfig(temperature=0.05))
        soft = al.loss_per_sample(e, al.AlignmentConfig(temperature=1.0))
        assert sharp < soft


def reference_block(T, M, tau, denom):
    """Symmetric InfoNCE and its motion-row gradient with a per-row loop."""
    Ut = T / np.linalg.norm(T, axis=1, keepdims=True)
    norms = np.linalg.norm(M, axis=1)
    Um = np.array([m / n if n >= al.NORM_FLOOR else 0.0 * m for m, n in zip(M, norms)])
    S = Ut @ Um.T / tau
    p_row = np.exp(S) / np.exp(S).sum(axis=1, keepdims=True)
    p_col = np.exp(S) / np.exp(S).sum(axis=0, keepdims=True)
    loss = -(np.log(np.diag(p_row)).sum() + np.log(np.diag(p_col)).sum()) / denom
    g_um = ((p_row - np.eye(len(T))) + (p_col - np.eye(len(T)))).T @ Ut / (denom * tau)
    g_m = np.zeros_like(M)
    for k, (u, n) in enumerate(zip(Um, norms)):
        if n >= al.NORM_FLOOR:
            g_m[k] = (g_um[k] - (u @ g_um[k]) * u) / n
    return loss, g_m


def stacked_info_nce(text, motion, variant):
    """(loss, per-sample motion gradients) of one kernel call on the stacked
    rows, with the negatives of ``variant``."""
    sizes = list(map(len, text))
    loss, g = al._info_nce(np.vstack(text), np.vstack(motion), CFG.temperature, 2 * sum(sizes),
                           al._groups(variant, sizes))
    return loss, np.split(g, np.cumsum(sizes)[:-1])


LOSSES = {"sample": al.loss_per_sample, "batch": al.loss_batch}


class TestGradients:
    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            text = [rng.normal(size=(int(a), 4)) for a in rng.integers(1, 5, size=3)]
            motion = [rng.normal(size=t.shape) for t in text]
            motion[trial % 3][0] = 0.0
            loss, grads = stacked_info_nce(text, motion, "sample")
            pairs = sum(map(len, text))
            parts = [reference_block(t, m, CFG.temperature, 2 * pairs) for t, m in zip(text, motion)]
            assert loss == pytest.approx(sum(l for l, _ in parts), rel=1e-12)
            for g, (_, ref) in zip(grads, parts):
                np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-15)
            loss, grads = stacked_info_nce(text, motion, "batch")
            ref_loss, ref = reference_block(np.vstack(text), np.vstack(motion), CFG.temperature, 2 * pairs)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            np.testing.assert_allclose(np.vstack(grads), ref, rtol=1e-12, atol=1e-15)

    def test_motion_grad_orthogonal_to_embedding(self):
        # cosine depends only on direction, so gradients live in the tangent space
        rng = np.random.default_rng(6)
        text = [rng.normal(size=(3, 4))]
        spans = [[rng.normal(size=(4, 3)) for _ in range(3)]]
        params = al.AggregatorParams.init(3, 4, seed=0)
        _, _, motion_grads = al.grad_alignment(text, spans, params, CFG)
        motion = np.stack([al.aggregate_mean_max(sp, params) for sp in spans[0]])
        for k in range(3):
            assert abs(motion[k] @ motion_grads[0][k]) < 1e-9

    def test_sample_and_batch_agree_for_one_sample(self):
        rng = np.random.default_rng(7)
        text = [rng.normal(size=(3, 4))]
        spans = [[rng.normal(size=(4, 3)) for _ in range(3)]]
        params = al.AggregatorParams.init(3, 4, seed=0)
        l1, g1, _ = al.grad_alignment(text, spans, params, CFG, variant="sample")
        l2, g2, _ = al.grad_alignment(text, spans, params, CFG, variant="batch")
        assert l1 == pytest.approx(l2, abs=1e-12)
        np.testing.assert_allclose(g1.w1, g2.w1, atol=1e-12)

    @pytest.mark.parametrize("variant", LOSSES)
    def test_zero_motion_row_gets_zero_gradient(self, variant):
        rng = np.random.default_rng(8)
        motion = [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))]
        motion[0][1] = 0.0
        text = [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss, grads = stacked_info_nce(text, motion, variant)
        assert np.isfinite(loss)
        np.testing.assert_array_equal(grads[0][1], np.zeros(4))
        assert np.all(np.isfinite(grads[0])) and np.any(grads[0][0] != 0.0)

    @pytest.mark.parametrize("variant", LOSSES)
    def test_motion_gradient_matches_finite_differences(self, variant):
        """The kernel's gradient against central differences of the public loss."""
        rng = np.random.default_rng(9)
        shapes = [(3, 5), (1, 5), (2, 5)]
        text = [rng.normal(size=s) for s in shapes]
        motion = [rng.normal(size=s) for s in shapes]
        _, grads = stacked_info_nce(text, motion, variant)
        loss = LOSSES[variant]
        h = 1e-6
        for i, m in enumerate(motion):
            for idx in np.ndindex(m.shape):
                orig = m[idx]
                m[idx] = orig + h
                up = loss(al.SegmentEmbeddings(text=text, motion=motion), CFG)
                m[idx] = orig - h
                dn = loss(al.SegmentEmbeddings(text=text, motion=motion), CFG)
                m[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(grads[i][idx] - fd) / max(abs(fd), 1e-3) < 1e-6

    @pytest.mark.parametrize("variant", ["bogus", "global"])
    def test_unknown_variant(self, variant):
        # global is a variant of toy_train's data, not of the gradient
        with pytest.raises(ValueError, match=f"unknown loss variant '{variant}'"):
            al.grad_alignment([np.zeros((1, 2))], [[np.zeros((1, 2))]],
                              al.AggregatorParams.init(2, 2), CFG, variant=variant)


class TestToyTraining:
    def test_loss_decreases(self):
        data = al.make_separable_dataset(40, seed=0, map_seed=0)
        cfg = al.AlignmentConfig(batch_size=8)
        _, curve = al.toy_train(data, cfg, steps=100, lr=0.5, seed=0)
        assert np.mean(curve[-10:]) < np.mean(curve[:10])

    def test_training_is_deterministic(self):
        data = al.make_separable_dataset(20, seed=1, map_seed=1)
        cfg = al.AlignmentConfig(batch_size=4)
        p1, c1 = al.toy_train(data, cfg, steps=30, lr=0.3, seed=5)
        p2, c2 = al.toy_train(data, cfg, steps=30, lr=0.3, seed=5)
        assert c1 == c2
        np.testing.assert_array_equal(p1.w1, p2.w1)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_raises(self):
        data = al.make_separable_dataset(16, seed=2, map_seed=2)
        data[0].spans[0][:] = np.inf   # poisoned batch drives the loss to NaN
        cfg = al.AlignmentConfig(batch_size=16)
        with pytest.raises(al.DivergenceError):
            al.toy_train(data, cfg, steps=5, lr=0.5, seed=0)

    def test_shared_map_makes_holdout_transfer(self):
        cfg = al.AlignmentConfig(batch_size=8)
        train = al.make_separable_dataset(100, seed=10, map_seed=99)
        hold = al.make_separable_dataset(30, seed=11, map_seed=99)
        params, _ = al.toy_train(train, cfg, steps=200, lr=0.5, seed=0)
        assert al.retrieval_top1(hold, params) >= 0.9

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            al.toy_train([], al.AlignmentConfig())

    @pytest.mark.parametrize("seg_choices", [(2, 3), (1, 2, 3), (4,)])
    def test_separable_dataset_draws_as_rng_choice_did(self, seg_choices):
        """Each segment count is one ``integers`` draw, the draw
        ``Generator.choice`` makes: the datasets of the ``choice`` form."""
        for seed in range(6):
            got = al.make_separable_dataset(25, d_token=3, d_embed=4, seg_choices=seg_choices, seed=seed, map_seed=9)
            rng = np.random.default_rng(seed)
            w_true = np.random.default_rng(9).normal(size=(3, 4)) / np.sqrt(4)
            for sample in got:
                text = rng.normal(size=(int(rng.choice(seg_choices)), 4))
                text /= np.linalg.norm(text, axis=1, keepdims=True)
                spans = [w_true @ t + rng.normal(0.0, 0.05, size=(4, 3)) for t in text]
                np.testing.assert_array_equal(sample.text, text)
                for span, want in zip(sample.spans, spans, strict=True):
                    np.testing.assert_array_equal(span, want)


def reference_toy_train(dataset, cfg, steps, lr, seed, params, variant):
    """toy_train as a per-step grad_alignment loop, which pools each batch's
    spans again on every step."""
    params = params.copy()
    rng = np.random.default_rng(seed)
    curve = []
    order = np.arange(len(dataset))
    pos = len(dataset)
    for _ in range(steps):
        if pos + cfg.batch_size > len(order):
            rng.shuffle(order)
            pos = 0
        batch = [dataset[i] for i in order[pos : pos + cfg.batch_size]]
        pos += cfg.batch_size
        loss, pgrads, _ = al.grad_alignment(
            [s.text for s in batch], [s.spans for s in batch], params, cfg, variant=variant
        )
        for name in ("w1", "b1", "w2", "b2"):
            setattr(params, name, getattr(params, name) - lr * getattr(pgrads, name))
        curve.append(loss)
    return params, curve


def _global_data(data):
    """One whole-sequence pair per sample: its mean text row against its
    spans concatenated, as toy_train(variant="global") trains on."""
    return [al.ToySample(text=s.text.mean(axis=0, keepdims=True), spans=[np.vstack(s.spans)]) for s in data]


class TestPooledTraining:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("variant", ["sample", "batch", "global"])
    def test_matches_per_step_reference_bit_for_bit(self, seed, variant):
        rng = np.random.default_rng(seed)
        data = al.make_separable_dataset(
            int(rng.integers(7, 20)), d_token=5, d_embed=6, seg_choices=(1, 2, 3),
            tokens_per_segment=int(rng.integers(1, 5)), seed=seed, map_seed=seed,
        )
        # a zero step on every third seed; batch sizes 3..6 rarely divide the dataset
        lr = (0.0, 0.4, 0.28)[seed % 3]
        cfg = al.AlignmentConfig(batch_size=int(rng.integers(3, 7)))
        init = al.AggregatorParams.init(5, 6, seed=seed)
        params, curve = al.toy_train(data, cfg, steps=17, lr=lr, seed=seed, params=init, variant=variant)
        if variant == "global":  # the reference trains the reduced data as batch
            data, variant = _global_data(data), "batch"
        ref_params, ref_curve = reference_toy_train(data, cfg, 17, lr, seed, init, variant)
        assert curve == ref_curve
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(params, name), getattr(ref_params, name))

    def _count_steps(self, monkeypatch):
        calls = []
        step = al._pooled_step
        monkeypatch.setattr(al, "_pooled_step", lambda *a: calls.append(1) or step(*a))
        return calls

    def test_empty_span_raises_before_any_step(self, monkeypatch):
        data = al.make_separable_dataset(9, d_token=4, d_embed=5, seed=1, map_seed=1)
        data[-1].spans[0] = np.zeros((0, 4))
        calls = self._count_steps(monkeypatch)
        with pytest.raises(ValueError, match="empty"):
            al.toy_train(data, al.AlignmentConfig(batch_size=2), steps=3, seed=0)
        assert calls == []

    def test_unknown_variant_raises_before_any_step(self, monkeypatch):
        data = al.make_separable_dataset(9, d_token=4, d_embed=5, seed=1, map_seed=1)
        calls = self._count_steps(monkeypatch)
        with pytest.raises(ValueError, match="unknown loss variant 'token'"):
            al.toy_train(data, al.AlignmentConfig(batch_size=2), steps=3, seed=0, variant="token")
        assert calls == []

    def test_params_of_another_embedding_size_raise_before_any_step(self, monkeypatch):
        data = al.make_separable_dataset(9, d_token=4, d_embed=5, seed=1, map_seed=1)
        calls = self._count_steps(monkeypatch)
        with pytest.raises(ValueError, match="text shape"):
            al.toy_train(data, al.AlignmentConfig(batch_size=2), steps=3, seed=0,
                         params=al.AggregatorParams.init(4, 7, seed=0))
        assert calls == []


def reference_retrieval_top1(samples, params):
    """retrieval_top1 as a per-sample loop: the split embedded in one call,
    then each sample's rows normalized and scored on their own."""
    M = al.embed_spans([span for s in samples for span in s.spans], params)
    hits = total = 0
    for sample, Mi in zip(samples, np.split(M, np.cumsum([len(s.spans) for s in samples])[:-1])):
        S = al.cosine_matrix(sample.text, Mi)
        hits += int((np.argmax(S, axis=1) == np.arange(S.shape[0])).sum())
        total += S.shape[0]
    return hits / total


class TestSplitRetrieval:
    @staticmethod
    def _split(rng, trials, max_dim):
        for trial in range(trials):
            d_token, d_embed = (int(v) for v in rng.integers(2, max_dim, size=2))
            params = al.AggregatorParams.init(d_token, d_embed, seed=trial)
            samples = [
                al.ToySample(
                    text=rng.normal(size=(a, d_embed)),
                    spans=[rng.normal(size=(int(rng.integers(1, 7)), d_token)) for _ in range(a)],
                )
                for a in rng.integers(1, 5, size=int(rng.integers(1, 12)))
            ]
            yield params, samples

    def test_one_embedding_pass_equals_per_sample_loop(self):
        """unit_blocks and retrieval_top1 embed the split in one call; each
        block and the top-1 score must equal embedding the samples one at a
        time.

        A one-segment sample embedded alone is a one-row product, which
        numpy hands to a matrix-vector routine that may round the last bit
        differently, so the rows are compared to a few ulp; its 1x1
        retrieval is a hit either way."""
        for params, samples in self._split(np.random.default_rng(8), 25, 10):
            hits = total = 0
            blocks = al.unit_blocks(samples, params)
            assert len(blocks) == len(samples)
            for sample, (Ut, Um) in zip(samples, blocks):
                expected = al.embed_spans(sample.spans, params)
                np.testing.assert_array_equal(Ut, al._unit_rows(sample.text))
                np.testing.assert_allclose(Um, al._unit_rows(expected), rtol=1e-13, atol=1e-15)
                S = al.cosine_matrix(sample.text, expected)
                hits += int((np.argmax(S, axis=1) == np.arange(S.shape[0])).sum())
                total += S.shape[0]
            assert al.retrieval_top1(samples, params) == hits / total

    def test_blocks_normalize_the_one_pass_rows_bit_for_bit(self):
        """Every block must equal normalizing that sample's rows of the
        one-call embedding alone, bit for bit, and retrieval_top1 must equal
        scoring those rows sample by sample."""
        for params, samples in self._split(np.random.default_rng(9), 40, 34):
            M = al.embed_spans([span for s in samples for span in s.spans], params)
            Ms = np.split(M, np.cumsum([len(s.spans) for s in samples])[:-1])
            blocks = al.unit_blocks(samples, params)
            assert len(blocks) == len(samples)
            for sample, Mi, (Ut, Um) in zip(samples, Ms, blocks):
                np.testing.assert_array_equal(Ut, al._unit_rows(sample.text))
                np.testing.assert_array_equal(Um, al._unit_rows(Mi))
            assert al.retrieval_top1(samples, params) == reference_retrieval_top1(samples, params)


def _unit_rows_reference(X):
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return np.where(norms < al.NORM_FLOOR, 0.0, X / np.maximum(norms, al.NORM_FLOOR))


def _softmax_reference(z, axis):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def reference_info_nce(T, M, tau, denom, groups=None):
    """_info_nce as it was with the group mask written into S as -inf, an
    identity matrix in the gradient and the motion norms taken twice."""
    Ut = _unit_rows_reference(T)
    Um = _unit_rows_reference(M)
    S = (Ut @ Um.T) / tau
    if groups is not None:
        S[groups[:, None] != groups[None, :]] = -np.inf
    p_row = _softmax_reference(S, axis=1)
    p_col = _softmax_reference(S, axis=0)
    diag = np.arange(T.shape[0])
    loss = (-np.log(p_row[diag, diag]).sum() - np.log(p_col[diag, diag]).sum()) / denom
    eye = np.eye(T.shape[0])
    G = ((p_row - eye) + (p_col - eye)) / (denom * tau)
    g_um = G.T @ Ut
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    radial = np.sum(Um * g_um, axis=1, keepdims=True)
    g_m = np.where(norms < al.NORM_FLOOR, 0.0, (g_um - radial * Um) / np.maximum(norms, al.NORM_FLOOR))
    return float(loss), g_m


class TestInfoNceKernel:
    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("grouped", [False, True])
    def test_matches_the_masked_logit_form_bit_for_bit(self, seed, grouped):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 30)))
        n, d = int(sizes.sum()), int(rng.integers(2, 40))
        T = rng.normal(size=(n, d))
        M = rng.normal(size=(n, d))
        if seed % 3 == 0:
            M[int(rng.integers(n))] = 0.0     # a floored row: zero gradient
        groups = np.repeat(np.arange(len(sizes)), sizes) if grouped else None
        tau = float(rng.uniform(0.05, 1.0))
        loss, g = al._info_nce(T, M, tau, 2 * n, groups)
        ref_loss, ref_g = reference_info_nce(T, M, tau, 2 * n, groups)
        assert loss == ref_loss
        np.testing.assert_array_equal(g, ref_g)
