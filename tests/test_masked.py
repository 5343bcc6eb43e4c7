import math
import warnings

import numpy as np
import pytest

from segalign.masked import (
    MASK,
    OraclePredictor,
    PredictorContractError,
    Schedule,
    SoftmaxRegressionPredictor,
    iterative_decode,
    mask_count_schedule,
    mask_loss,
    mask_random,
    residual_decode,
    _check_rows,
)


class TestMaskRandom:
    def test_count_is_ceiling(self):
        masked = mask_random(np.arange(10), 0.45, seed=0)
        assert np.count_nonzero(masked == MASK) == 5

    def test_full_mask(self):
        masked = mask_random(np.arange(4), 1.0, seed=0)
        assert masked.dtype == np.int64
        assert np.all(masked == MASK)

    def test_seeded_determinism(self):
        s1 = mask_random(np.arange(20), 0.5, seed=7)
        s2 = mask_random(np.arange(20), 0.5, seed=7)
        np.testing.assert_array_equal(s1, s2)

    def test_input_untouched_and_kept_where_unmasked(self):
        tokens = np.arange(20)
        masked = mask_random(tokens, 0.5, seed=3)
        np.testing.assert_array_equal(tokens, np.arange(20))
        keep = masked != MASK
        np.testing.assert_array_equal(masked[keep], tokens[keep])

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            mask_random(np.arange(5), 0.0, seed=0)


class TestMaskLoss:
    def test_perfect_prediction_zero(self):
        truth = np.array([1, 0, 2])
        masked = mask_random(truth, 1.0, seed=0)
        pred = np.zeros((3, 3))
        pred[np.arange(3), truth] = 1.0
        assert mask_loss(pred, truth, masked) == 0.0

    def test_uniform_prediction(self):
        truth = np.array([0, 1])
        masked = mask_random(truth, 1.0, seed=0)
        pred = np.full((2, 2), 0.5)
        assert mask_loss(pred, truth, masked) == pytest.approx(2 * np.log(2))

    def test_zero_probability_floored_with_warning(self):
        truth = np.array([0])
        masked = mask_random(truth, 1.0, seed=0)
        pred = np.array([[0.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            loss = mask_loss(pred, truth, masked)
        assert loss == pytest.approx(-np.log(1e-12))

    def test_unmasked_positions_ignored(self):
        truth = np.array([0, 1, 0])
        tokens = truth.copy()
        tokens[1] = MASK
        pred = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])  # wrong everywhere
        with pytest.warns(RuntimeWarning):
            loss = mask_loss(pred, truth, tokens)
        assert loss == pytest.approx(-np.log(1e-12))  # only position 1 counted

    @pytest.mark.parametrize("seed", range(4))
    def test_sums_the_masked_positions_in_ascending_order(self, seed):
        rng = np.random.default_rng(seed)
        length, codes = int(rng.integers(1, 40)), int(rng.integers(2, 9))
        pred = rng.dirichlet(np.ones(codes), size=length)
        truth = rng.integers(0, codes, size=length)
        masked = mask_random(truth, float(rng.uniform(0.1, 1.0)), seed=seed)
        total = 0.0
        for i in sorted(np.flatnonzero(masked == MASK).tolist()):
            total += -math.log(float(pred[i, truth[i]]))
        assert mask_loss(pred, truth, masked) == total

    def test_nothing_masked_is_zero(self):
        assert mask_loss(np.full((2, 2), 0.5), np.array([0, 1]), np.array([0, 1])) == 0.0


class TestSchedule:
    def test_reference_sequence(self):
        assert mask_count_schedule(5, 10) == [10, 9, 8, 5, 3, 0]

    def test_long_schedule_needs_no_recursion(self):
        count = mask_count_schedule(2000, 4096)[1500]
        assert count == math.floor(4096 * math.cos(math.pi * 1500 / 4000))

    def test_endpoints_and_monotonic(self):
        for total in range(1, 11):
            for length in (1, 2, 17, 64):
                seq = mask_count_schedule(total, length)
                assert seq[0] == length and seq[-1] == 0
                for a, b in zip(seq, seq[1:]):
                    assert b < a or (a == 0 and b == 0)

    def test_single_iteration(self):
        assert mask_count_schedule(1, 9) == [9, 0]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            Schedule(total_iters=0)


class TestIterativeDecode:
    def test_oracle_exact(self):
        target = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        out = iterative_decode(None, 8, OraclePredictor(target, 10), Schedule(4))
        np.testing.assert_array_equal(out, target)

    def test_trace_counts_follow_schedule(self):
        target = np.arange(10) % 4
        trace = []
        iterative_decode(None, 10, OraclePredictor(target, 4), Schedule(5), trace=trace)
        counts = mask_count_schedule(5, 10)
        assert [e["masked_count"] for e in trace] == counts[1:]
        assert [len(e["fixed_indices"]) for e in trace] == [
            a - b for a, b in zip(counts, counts[1:])
        ]

    def test_trace_jsonl_stable(self):
        target = np.arange(6)
        t1, t2 = [], []
        iterative_decode(None, 6, OraclePredictor(target, 6), Schedule(3), trace=t1)
        iterative_decode(None, 6, OraclePredictor(target, 6), Schedule(3), trace=t2)
        assert t1 == t2

    def test_invalid_probability_rows_rejected(self):
        class Broken:
            def predict(self, cond, tokens):
                return np.full((len(tokens), 3), 0.5)  # rows sum to 1.5

        with pytest.raises(PredictorContractError):
            iterative_decode(None, 4, Broken(), Schedule(2))

    def test_first_bad_masked_row_is_named(self):
        class TwoBad:
            def predict(self, cond, tokens):
                p = np.full((len(tokens), 2), 0.5)
                p[1] = [1.5, -0.5]      # second masked position: negative entry
                p[3] = [0.5, 0.6]       # fourth masked position: sums to 1.1
                return p

        with pytest.raises(PredictorContractError, match=r"^position 1: probabilities must be "
                                                         r"nonnegative and sum to 1$"):
            iterative_decode(None, 6, TwoBad(), Schedule(2))

    def test_bad_rows_reported_in_positions_order(self):
        p = np.full((5, 2), 0.5)
        p[1, 0] = 0.7
        p[3, 1] = -0.1

        def check(positions):
            positions = np.array(positions, dtype=np.intp)
            _check_rows(p[positions], positions)

        with pytest.raises(PredictorContractError, match="^position 3:"):
            check([4, 3, 0, 1])
        check([0, 2, 4])
        check([])

    def test_confidence_tie_prefers_lowest_index(self):
        class TwoPeaks:
            # equal confidence everywhere; commits must take lowest indices first
            def predict(self, cond, tokens):
                p = np.zeros((len(tokens), 2))
                p[:, 1] = 1.0
                return p

        trace = []
        iterative_decode(None, 6, TwoPeaks(), Schedule(3), trace=trace)
        assert trace[0]["fixed_indices"] == list(range(len(trace[0]["fixed_indices"])))


def reference_iterative_decode(cond, length, predictor, schedule):
    """iterative_decode as a per-position loop that gathers the masked rows
    for each use; returns (tokens, trace)."""
    counts = mask_count_schedule(schedule.total_iters, length)
    tokens = np.full(length, MASK, dtype=np.int64)
    trace = []
    for t in range(1, schedule.total_iters + 1):
        masked = np.flatnonzero(tokens == MASK)
        if masked.size == 0:
            trace.append({"iteration": t, "masked_count": 0, "fixed_indices": []})
            continue
        probs = np.asarray(predictor.predict(cond, tokens.copy()), dtype=np.float64)
        chosen = np.argmax(probs[masked], axis=1)
        conf = probs[masked, chosen]
        order = np.lexsort((masked, -conf))
        fixed = []
        for k in order[: masked.size - counts[t]]:
            tokens[int(masked[k])] = int(chosen[k])
            fixed.append(int(masked[k]))
        trace.append({"iteration": t, "masked_count": int(counts[t]), "fixed_indices": sorted(fixed)})
    return tokens, trace


class RandomRows:
    """Random probability rows with deliberate confidence ties, fresh per call."""

    def __init__(self, num_codes, seed):
        self.num_codes = num_codes
        self.rng = np.random.default_rng(seed)

    def predict(self, cond, tokens):
        p = self.rng.integers(1, 4, size=(len(tokens), self.num_codes)).astype(np.float64)
        return p / p.sum(axis=1, keepdims=True)


class TestDecodeMatchesReferenceLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_tokens_and_trace(self, seed):
        rng = np.random.default_rng(seed)
        length, codes = int(rng.integers(1, 60)), int(rng.integers(2, 40))
        schedule = Schedule(int(rng.integers(1, 12)))
        trace = []
        got = iterative_decode(None, length, RandomRows(codes, seed), schedule, trace=trace)
        want, want_trace = reference_iterative_decode(None, length, RandomRows(codes, seed), schedule)
        np.testing.assert_array_equal(got, want)
        assert trace == want_trace

    @pytest.mark.parametrize("seed", range(4))
    def test_predictor_sees_the_reference_tokens(self, seed):
        class Recording(RandomRows):
            """Keeps the array it is given and a copy; a scribbler then
            overwrites the array."""

            def __init__(self, num_codes, seed, scribble=False):
                super().__init__(num_codes, seed)
                self.scribble = scribble
                self.seen = []

            def predict(self, cond, tokens):
                self.seen.append((tokens, tokens.copy()))
                probs = super().predict(cond, tokens)
                if self.scribble:
                    tokens[:] = 0
                return probs

        length, codes, schedule = 30 + seed, 7, Schedule(6)
        want = Recording(codes, seed)
        ref_tokens, _ = reference_iterative_decode(None, length, want, schedule)
        for scribble in (False, True):
            got = Recording(codes, seed, scribble)
            tokens = iterative_decode(None, length, got, schedule)
            np.testing.assert_array_equal(tokens, ref_tokens)
            assert len(got.seen) == len(want.seen)
            kept = [given for given, _ in got.seen]
            assert not any(np.shares_memory(a, b) for i, a in enumerate(kept) for b in kept[i + 1:])
            for (given, at_call), (_, ref_at_call) in zip(got.seen, want.seen):
                assert given.dtype == np.int64
                np.testing.assert_array_equal(at_call, ref_at_call)
                if not scribble:
                    np.testing.assert_array_equal(given, ref_at_call)

    @pytest.mark.parametrize("length,iters", [(1, 1), (1, 5), (2, 1), (5, 5), (7, 3), (8, 12),
                                              (10, 4), (16, 2), (23, 6), (31, 8), (40, 11), (64, 10)])
    def test_oracle_trace_depends_only_on_length_and_iters(self, length, iters):
        """Every oracle confidence is 1, so each iteration commits the lowest
        masked positions, whatever the target: the trace is the reference
        loop's for any target, and the decode returns the target."""
        trace = None
        for seed in range(3):
            target = np.random.default_rng(seed).integers(0, 9, size=length)
            got = []
            tokens = iterative_decode(None, length, OraclePredictor(target, 9), Schedule(iters), trace=got)
            np.testing.assert_array_equal(tokens, target)
            _, want = reference_iterative_decode(None, length, OraclePredictor(target, 9), Schedule(iters))
            assert got == want
            assert trace is None or got == trace
            trace = got
        committed = [i for entry in trace for i in entry["fixed_indices"]]
        assert committed == list(range(length))

    def test_oracle_rows_are_built_once_and_read_only(self):
        pred = OraclePredictor(np.array([2, 0, 1]), num_codes=3)
        masked = mask_random(np.zeros(3, dtype=int), 1.0, seed=0)
        rows = pred.predict(None, masked)
        assert rows is pred.predict(None, masked)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.5


def _one_bad_row(bad):
    """A predictor of 6x4 uniform rows with row 2 replaced by ``bad``."""
    def predict(cond, tokens):
        p = np.full((6, 4), 0.25)
        p[2] = bad
        return p
    return predict


NON_FINITE_ROWS = [np.nan, np.inf, -np.inf, [np.inf, -np.inf, 0.5, 0.5], [np.nan, 1.0, 0.0, 0.0]]


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", NON_FINITE_ROWS)
    def test_iterative_decode_rejects_the_row(self, bad):
        class Predictor:
            predict = staticmethod(_one_bad_row(bad))

        with pytest.raises(PredictorContractError, match="^position 2:"):
            iterative_decode(None, 6, Predictor(), Schedule(3))

    @pytest.mark.parametrize("bad", NON_FINITE_ROWS)
    def test_residual_decode_rejects_the_row(self, bad):
        with pytest.raises(PredictorContractError, match="^position 2:"):
            residual_decode(None, np.zeros(6, dtype=int), [_one_bad_row(bad)], 1)

    @pytest.mark.parametrize("bad", NON_FINITE_ROWS)
    def test_rejected_without_a_warning(self, bad):
        """A row of +inf and -inf sums to NaN; with warnings as errors the
        caller still gets the contract error, not a RuntimeWarning."""
        rows = np.full((6, 4), 0.25)
        rows[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictorContractError, match="^position 2:"):
                _check_rows(rows, np.arange(6))


class TestResidualDecode:
    def test_layers_stack_in_order(self):
        base = np.array([0, 1, 2])
        seen = []

        def layer(i):
            def fn(cond, so_far):
                seen.append(so_far.shape[0])
                probs = np.zeros((3, 4))
                probs[:, i] = 1.0
                return probs
            return fn

        out = residual_decode(None, base, [layer(1), layer(2)], 2)
        assert out.num_layers == 3
        np.testing.assert_array_equal(out.layers[1], [1, 1, 1])
        np.testing.assert_array_equal(out.layers[2], [2, 2, 2])
        assert seen == [1, 2]  # layer i sees exactly the preceding i layers

    def test_each_layer_is_queried_once_and_extra_predictors_never(self):
        calls = []

        def layer(i):
            def fn(cond, so_far):
                calls.append(i)
                return np.eye(2)[so_far[-1]]
            return fn

        out = residual_decode(None, np.array([0, 1]), [layer(i) for i in range(1, 5)], 2)
        assert calls == [1, 2]
        assert out.num_layers == 3

    def test_negative_layer_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            residual_decode(None, np.array([0]), [], -1)

    def test_zero_layers_passthrough(self):
        base = np.array([5, 6])
        out = residual_decode(None, base, [], 0)
        np.testing.assert_array_equal(out.layers, [base])

    def test_insufficient_predictors(self):
        with pytest.raises(ValueError):
            residual_decode(None, np.array([0]), [], 1)


def reference_fit(pred, conds, token_seqs, steps, lr):
    """SoftmaxRegressionPredictor.fit as a loop over every token."""
    curve = []
    for _ in range(steps):
        gw = np.zeros_like(pred.w)
        gb = np.zeros_like(pred.b)
        loss = 0.0
        count = 0
        for cond, seq in zip(conds, token_seqs):
            cond = np.asarray(cond, dtype=np.float64)
            logits = pred.w @ cond + pred.b
            dist = np.exp(logits - logits.max())
            dist /= dist.sum()
            for tok in np.asarray(seq, dtype=np.int64):
                loss += -math.log(max(dist[tok], 1e-12))
                g = dist.copy()
                g[tok] -= 1.0
                gw += np.outer(g, cond)
                gb += g
                count += 1
        pred.w -= lr * gw / count
        pred.b -= lr * gb / count
        curve.append(loss / count)
    return curve


class TestSoftmaxRegressionPredictor:
    def test_fit_reduces_loss(self):
        rng = np.random.default_rng(0)
        conds = [rng.normal(size=4) for _ in range(8)]
        seqs = [np.full(6, i % 3) for i in range(8)]
        pred = SoftmaxRegressionPredictor(feat_dim=4, num_codes=3, seed=0)
        curve = pred.fit(conds, seqs, steps=50, lr=0.5)
        assert curve[-1] < curve[0]

    def test_predict_rows_are_distributions(self):
        pred = SoftmaxRegressionPredictor(feat_dim=3, num_codes=5, seed=1)
        probs = pred.predict(np.ones(3), mask_random(np.zeros(7, dtype=int), 1.0, seed=0))
        assert probs.shape == (7, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_fit_matches_the_per_token_loop(self, seed):
        """The count-matrix products sum in another order than the loop, so
        the two agree to 1e-12 relative, not bit for bit."""
        rng = np.random.default_rng(seed)
        feat, codes = int(rng.integers(1, 6)), int(rng.integers(2, 9))
        conds = [rng.normal(size=feat) for _ in range(int(rng.integers(1, 10)))]
        seqs = [rng.integers(0, codes, size=int(rng.integers(0, 12))) for _ in conds]
        seqs[0] = np.append(seqs[0], 0)
        got, want = (SoftmaxRegressionPredictor(feat, codes, seed=seed) for _ in range(2))
        curve = got.fit(conds, seqs, steps=60, lr=0.7)
        ref_curve = reference_fit(want, conds, seqs, steps=60, lr=0.7)
        np.testing.assert_allclose(curve, ref_curve, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.w, want.w, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.b, want.b, rtol=1e-12, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        pred = SoftmaxRegressionPredictor(feat_dim=3, num_codes=4, seed=2)
        pred.w = rng.normal(size=pred.w.shape)
        pred.b = rng.normal(size=pred.b.shape)
        X = rng.normal(size=(5, 3))
        N = rng.integers(0, 4, size=(5, 4)).astype(np.float64)
        _, gw, gb = pred._loss_and_grads(X, N)
        h = 1e-6
        for param, grad in ((pred.w, gw), (pred.b, gb)):
            for idx in np.ndindex(param.shape):
                keep = param[idx]
                param[idx] = keep + h
                up = pred._loss_and_grads(X, N)[0]
                param[idx] = keep - h
                down = pred._loss_and_grads(X, N)[0]
                param[idx] = keep
                assert (up - down) / (2 * h) == pytest.approx(grad[idx], rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("conds,seqs,message", [
        ([np.ones(3)], [np.array([0]), np.array([1])], "need one condition of 3 features"),
        ([np.ones(2)], [np.array([0])], "need one condition of 3 features"),
        ([np.ones(3)], [np.array([5])], "token outside"),
        ([np.ones(3)], [np.array([-1])], "token outside"),
        ([np.ones(3)], [np.array([], dtype=int)], "no tokens"),
    ])
    def test_bad_fit_input(self, conds, seqs, message):
        with pytest.raises(ValueError, match=message):
            SoftmaxRegressionPredictor(feat_dim=3, num_codes=5).fit(conds, seqs, steps=1)
