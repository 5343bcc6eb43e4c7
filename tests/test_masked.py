import math

import numpy as np
import pytest

from segalign.masked import (
    MASK,
    MaskState,
    OraclePredictor,
    OrderedLayerPredictors,
    PredictorContractError,
    ProtocolError,
    Schedule,
    SoftmaxRegressionPredictor,
    cosine_mask_count,
    iterative_decode,
    mask_count_schedule,
    mask_loss,
    mask_random,
    residual_decode,
    _check_rows,
    trace_to_jsonl,
)


class TestMaskRandom:
    def test_count_is_ceiling(self):
        state = mask_random(np.arange(10), 0.45, seed=0)
        assert len(state.masked_set) == 5

    def test_full_mask(self):
        state = mask_random(np.arange(4), 1.0, seed=0)
        assert state.masked_set == frozenset(range(4))
        assert np.all(state.tokens == MASK)

    def test_seeded_determinism(self):
        s1 = mask_random(np.arange(20), 0.5, seed=7)
        s2 = mask_random(np.arange(20), 0.5, seed=7)
        assert s1.masked_set == s2.masked_set

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            mask_random(np.arange(5), 0.0, seed=0)

    def test_state_consistency_enforced(self):
        with pytest.raises(ValueError):
            MaskState(tokens=np.array([0, MASK, 2]), masked_set=frozenset({0}))


class TestMaskLoss:
    def test_perfect_prediction_zero(self):
        truth = np.array([1, 0, 2])
        state = mask_random(truth, 1.0, seed=0)
        pred = np.zeros((3, 3))
        pred[np.arange(3), truth] = 1.0
        assert mask_loss(pred, truth, state) == 0.0

    def test_uniform_prediction(self):
        truth = np.array([0, 1])
        state = mask_random(truth, 1.0, seed=0)
        pred = np.full((2, 2), 0.5)
        assert mask_loss(pred, truth, state) == pytest.approx(2 * np.log(2))

    def test_zero_probability_floored_with_warning(self):
        truth = np.array([0])
        state = mask_random(truth, 1.0, seed=0)
        pred = np.array([[0.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            loss = mask_loss(pred, truth, state)
        assert loss == pytest.approx(-np.log(1e-12))

    def test_unmasked_positions_ignored(self):
        truth = np.array([0, 1, 0])
        tokens = truth.copy()
        tokens[1] = MASK
        state = MaskState(tokens=tokens, masked_set=frozenset({1}))
        pred = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])  # wrong everywhere
        with pytest.warns(RuntimeWarning):
            loss = mask_loss(pred, truth, state)
        assert loss == pytest.approx(-np.log(1e-12))  # only position 1 counted


class TestSchedule:
    def test_reference_sequence(self):
        assert mask_count_schedule(5, 10) == [10, 9, 8, 5, 3, 0]

    def test_recursive_matches_iterative(self):
        for total in (1, 3, 7):
            for length in (1, 5, 33):
                seq = mask_count_schedule(total, length)
                assert seq == [cosine_mask_count(t, total, length) for t in range(total + 1)]

    def test_long_schedule_needs_no_recursion(self):
        count = cosine_mask_count(1500, 2000, 4096)
        assert count == mask_count_schedule(2000, 4096)[1500]
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
            cosine_mask_count(0, 0, 5)
        with pytest.raises(ValueError):
            cosine_mask_count(6, 5, 5)
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
        assert trace_to_jsonl(t1) == trace_to_jsonl(t2)

    def test_sample_mode_seeded(self):
        class Uniform:
            def predict(self, cond, state):
                return np.full((state.length, 4), 0.25)

        a = iterative_decode(None, 12, Uniform(), Schedule(3), seed=5, mode="sample")
        b = iterative_decode(None, 12, Uniform(), Schedule(3), seed=5, mode="sample")
        np.testing.assert_array_equal(a, b)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            iterative_decode(None, 4, OraclePredictor(np.zeros(4, dtype=int), 2),
                             Schedule(2), mode="greedy")

    def test_invalid_probability_rows_rejected(self):
        class Broken:
            def predict(self, cond, state):
                return np.full((state.length, 3), 0.5)  # rows sum to 1.5

        with pytest.raises(PredictorContractError):
            iterative_decode(None, 4, Broken(), Schedule(2))

    def test_first_bad_masked_row_is_named(self):
        class TwoBad:
            def predict(self, cond, state):
                p = np.full((state.length, 2), 0.5)
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
        with pytest.raises(PredictorContractError, match="^position 3:"):
            _check_rows(p, [4, 3, 0, 1])
        _check_rows(p, [0, 2, 4])
        _check_rows(p, [])

    def test_confidence_tie_prefers_lowest_index(self):
        class TwoPeaks:
            # equal confidence everywhere; commits must take lowest indices first
            def predict(self, cond, state):
                p = np.zeros((state.length, 2))
                p[:, 1] = 1.0
                return p

        trace = []
        iterative_decode(None, 6, TwoPeaks(), Schedule(3), trace=trace)
        assert trace[0]["fixed_indices"] == list(range(len(trace[0]["fixed_indices"])))


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

        out = residual_decode(None, base, OrderedLayerPredictors([layer(1), layer(2)]), 2)
        assert out.num_layers == 3
        np.testing.assert_array_equal(out.layers[1], [1, 1, 1])
        np.testing.assert_array_equal(out.layers[2], [2, 2, 2])
        assert seen == [1, 2]  # layer i sees exactly the preceding i layers

    def test_out_of_order_query_raises(self):
        preds = OrderedLayerPredictors([lambda c, s: None, lambda c, s: None])
        with pytest.raises(ProtocolError):
            preds[1]  # layer 2 before layer 1

    def test_zero_layers_passthrough(self):
        base = np.array([5, 6])
        out = residual_decode(None, base, [], 0)
        np.testing.assert_array_equal(out.layers, [base])

    def test_insufficient_predictors(self):
        with pytest.raises(ValueError):
            residual_decode(None, np.array([0]), [], 1)


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
        state = mask_random(np.zeros(7, dtype=int), 1.0, seed=0)
        probs = pred.predict(np.ones(3), state)
        assert probs.shape == (7, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
