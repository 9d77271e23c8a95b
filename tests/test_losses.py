"""Value and gradient semantics of the five losses against loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradcheck import check_gradients
from auroracast.autodiff import Tape, Tensor
from auroracast.config import parse_values
from auroracast.errors import ConfigError
from auroracast.losses import (
    DEFAULT_TAIL_TERMS,
    DistWeights,
    LossSpec,
    TailTerm,
    dist_loss,
    dist_loss_op,
    fit_dist_weights,
    mse,
    mse_op,
    multitask_loss,
    multitask_loss_op,
    sparse_masked_loss,
    sparse_masked_loss_op,
    tail_factors,
    tail_loss,
    tail_loss_op,
)


def _loop_mse(t, p):
    return sum((a - b) ** 2 for a, b in zip(t, p)) / len(t)


def _loop_tail(t, p, terms):
    total = 0.0
    for a, b in zip(t, p):
        factor = 1.0
        for term in terms:
            if a > term.y_r and b < term.y_r:
                factor += term.a
        total += (a - b) ** 2 * factor
    return total / len(t)


def _loop_dist(t, p, w):
    total = 0.0
    for a, b in zip(t, p):
        idx = int(np.floor((a - w.edges[0]) / (w.edges[-1] - w.edges[0]) * w.n_bins))
        idx = min(max(idx, 0), w.n_bins - 1)
        total += w.weights[idx] * (a - b) ** 2
    return total / len(t)


def _loop_multitask(t, flux, onehot, probs, lam):
    total_mse = 0.0
    total_cce = 0.0
    for i in range(len(t)):
        sel = int(np.argmax(probs[i]))
        total_mse += (t[i] - flux[i][sel]) ** 2
        total_cce += -sum(onehot[i][k] * math.log(probs[i][k]) for k in range(3))
    n = len(t)
    return total_mse / n + lam * total_cce / n


def _loop_sparse(pred, values, mask, normalize=True):
    total = 0.0
    count = 0
    flat_p, flat_v, flat_m = pred.ravel(), values.ravel(), mask.ravel()
    for i in range(flat_p.size):
        if flat_m[i]:
            total += (flat_p[i] - flat_v[i]) ** 2
            count += 1
    return total / count if normalize else total


class TestMse:
    def test_zero_when_equal(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y, y) == 0.0

    def test_hand_value(self):
        assert mse([0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_loop_oracle(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(37)
        p = rng.standard_normal(37)
        assert mse(t, p) == pytest.approx(_loop_mse(t, p), rel=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], [])


class TestTailLoss:
    def test_worked_value(self):
        # all five default terms are active: se = 2.6^2 = 6.76,
        # multiplier = 1 + 37.5, loss = 6.76 * 38.5 = 260.26
        v = tail_loss(np.array([13.6]), np.array([11.0]), DEFAULT_TAIL_TERMS)
        assert v == pytest.approx(260.26, abs=1e-9)

    def test_below_all_thresholds_is_plain_se(self):
        t = np.array([10.0, 10.0])
        p = np.array([7.0, 11.0])
        assert tail_loss(t, p) == mse(t, p)

    def test_high_predictions_disable_terms(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(8, 16, 30)
        p = np.full(30, 13.5) + rng.uniform(0, 2, 30)
        assert tail_loss(t, p) == mse(t, p)

    def test_loop_oracle(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(8, 15, 64)
        p = rng.uniform(8, 15, 64)
        assert tail_loss(t, p) == pytest.approx(_loop_tail(t, p, DEFAULT_TAIL_TERMS), rel=1e-13)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_below_mse(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(6, 16, 25)
        p = rng.uniform(6, 16, 25)
        per_sample_tail = (t - p) ** 2 * tail_factors(t, p, DEFAULT_TAIL_TERMS)
        per_sample_se = (t - p) ** 2
        assert np.all(per_sample_tail >= per_sample_se)

    def test_gradient_is_scaled_mse_gradient(self):
        t = np.array([13.6, 10.0, 12.7])
        p0 = np.array([11.0, 9.5, 12.9])
        factors = tail_factors(t, p0, DEFAULT_TAIL_TERMS)

        pred = Tensor(p0.copy(), requires_grad=True)
        tape = Tape()
        loss = tail_loss_op(tape, pred, t)
        tape.backward(loss)
        g_tail = pred.grad.copy()

        pred2 = Tensor(p0.copy(), requires_grad=True)
        tape2 = Tape()
        tape2.backward(mse_op(tape2, pred2, t))
        g_mse = pred2.grad
        assert np.allclose(g_tail, g_mse * factors, atol=1e-14)

    def test_gradcheck_away_from_thresholds(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(8, 15, 12)
        p0 = rng.uniform(8, 15, 12)
        # keep every sample several eps away from any threshold
        for term in DEFAULT_TAIL_TERMS:
            p0[np.abs(p0 - term.y_r) < 0.05] += 0.1
        pred = Tensor(p0, requires_grad=True)

        def build():
            tape = Tape()
            return tape, tail_loss_op(tape, pred, t)

        check_gradients(build, [pred])

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            tail_loss(np.ones(3), np.ones(3), ())

    def test_term_validation(self):
        with pytest.raises(ValueError):
            TailTerm(a=0.0, y_r=12.0)


class TestDistWeights:
    def test_formula_direct(self):
        # counts [3, 1, 0] with m = 4: weights 1/16, 1/8, 1/4
        counts = np.array([3, 1, 0])
        w = 1.0 / ((counts + 1) * 4)
        assert np.allclose(w, [1 / 16, 1 / 8, 1 / 4])
        dw = DistWeights(edges=np.array([0.0, 1, 2, 3]), weights=w, n_bins=3, n_total=4)
        assert dw.weight_of(np.array([0.5]))[0] == 1 / 16
        assert dw.weight_of(np.array([2.5]))[0] == 1 / 4

    def test_fit_with_empty_interior_bin(self):
        y = np.array([0.0, 0.1, 0.2, 2.9, 3.0])
        dw = fit_dist_weights(y, n_bins=3)
        assert np.array_equal(
            dw.weights, 1.0 / ((np.array([3, 0, 2]) + 1) * 5)
        )

    def test_equal_counts_equal_weights(self):
        y = np.concatenate([np.full(4, 0.5), np.full(4, 1.5), np.full(4, 2.5), [0.0, 3.0]])
        # arrange exactly equal counts by construction over [0, 3]
        dw = fit_dist_weights(np.concatenate([np.linspace(0, 3, 12)]), n_bins=4)
        assert len(set(np.round(dw.weights, 15))) == 1

    def test_empty_to_fullest_ratio(self):
        y = np.array([0.0, 0.1, 0.15, 0.2, 3.0])
        dw = fit_dist_weights(y, n_bins=3)
        counts = np.array([4, 0, 1])
        assert dw.weights.max() / dw.weights.min() == pytest.approx(
            (counts.max() + 1) / (counts[1] + 1), rel=1e-12
        )

    def test_top_edge_in_last_bin(self):
        y = np.linspace(5.0, 9.0, 21)
        dw = fit_dist_weights(y, n_bins=4)
        assert dw.bin_index(np.array([9.0]))[0] == 3

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            fit_dist_weights(np.full(5, 2.0))

    def test_sum_of_sample_weights_in_unit_interval(self):
        rng = np.random.default_rng(4)
        y = rng.normal(10, 1.5, 500)
        dw = fit_dist_weights(y, n_bins=50)
        total = dw.weight_of(y).sum()
        loop = sum(dw.weights[int(dw.bin_index(np.array([v]))[0])] for v in y)
        assert total == pytest.approx(loop, rel=1e-12)
        assert 0.0 < total <= 1.0


class TestDistLoss:
    def test_unit_weights_equal_mse(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0, 3, 40)
        p = rng.uniform(0, 3, 40)
        dw = DistWeights(edges=np.array([0.0, 1.5, 3.0]), weights=np.ones(2), n_bins=2, n_total=40)
        assert dist_loss(t, p, dw) == pytest.approx(mse(t, p), rel=1e-13)

    def test_zero_when_equal(self):
        y = np.linspace(8, 12, 20)
        dw = fit_dist_weights(y)
        assert dist_loss(y, y, dw) == 0.0

    def test_loop_oracle(self):
        rng = np.random.default_rng(6)
        y_fit = rng.normal(10, 1, 300)
        dw = fit_dist_weights(y_fit, n_bins=17)
        t = rng.normal(10, 1.5, 50)  # some out of fitted range -> clamped
        p = rng.normal(10, 1.5, 50)
        assert dist_loss(t, p, dw) == pytest.approx(_loop_dist(t, p, dw), rel=1e-13)

    def test_weight_scaling_preserves_gradient_direction(self):
        rng = np.random.default_rng(7)
        y_fit = rng.normal(10, 1, 200)
        dw = fit_dist_weights(y_fit, n_bins=10)
        scaled = DistWeights(dw.edges, dw.weights * 3.7, dw.n_bins, dw.n_total)
        t = rng.normal(10, 1, 30)
        p0 = rng.normal(10, 1, 30)

        def grad_with(weights):
            pred = Tensor(p0.copy(), requires_grad=True)
            tape = Tape()
            tape.backward(dist_loss_op(tape, pred, t, weights))
            return pred.grad

        g1 = grad_with(dw)
        g2 = grad_with(scaled)
        assert np.allclose(g2, 3.7 * g1, rtol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        y_fit = rng.normal(10, 1, 100)
        dw = fit_dist_weights(y_fit, n_bins=8)
        t = rng.normal(10, 1, 15)
        pred = Tensor(rng.normal(10, 1, 15), requires_grad=True)

        def build():
            tape = Tape()
            return tape, dist_loss_op(tape, pred, t, dw)

        check_gradients(build, [pred])


class TestMultitask:
    def test_perfect_prediction_zero_loss(self):
        t = np.array([9.0, 11.0])
        onehot = np.array([[1.0, 0, 0], [0, 0, 1.0]])
        probs = np.array([[1.0, 0, 0], [0, 0, 1.0]])
        # clamp away exact zeros for the log
        probs = np.clip(probs, 1e-12, 1.0)
        probs /= probs.sum(axis=1, keepdims=True)
        flux = np.array([[9.0, 0, 0], [0, 0, 11.0]])
        v = multitask_loss(t, flux, onehot, probs)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_uniform_probs_cce_is_ln3(self):
        t = np.array([9.0])
        onehot = np.array([[0.0, 1.0, 0.0]])
        probs = np.full((1, 3), 1.0 / 3.0)
        flux = np.array([[0.0, 9.0, 0.0]])
        # argmax ties break to class 0, whose flux is 0 -> mse = 81
        v = multitask_loss(t, flux, onehot, probs)
        assert v == pytest.approx(81.0 + math.log(3.0), rel=1e-12)

    def test_loop_oracle(self):
        rng = np.random.default_rng(9)
        n = 40
        t = rng.normal(10, 1, n)
        flux = rng.normal(10, 1, (n, 3))
        logits = rng.standard_normal((n, 3)) * 2
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        onehot = np.eye(3)[rng.integers(0, 3, n)]
        lam = 0.7
        v = multitask_loss(t, flux, onehot, probs, lam)
        assert v == pytest.approx(_loop_multitask(t, flux, onehot, probs, lam), rel=1e-12)

    def test_confident_classifier_reduces_to_true_head_mse(self):
        rng = np.random.default_rng(10)
        n = 25
        t = rng.normal(10, 1, n)
        flux = rng.normal(10, 1, (n, 3))
        classes = rng.integers(0, 3, n)
        onehot = np.eye(3)[classes]
        probs = np.clip(onehot, 1e-15, 1.0)
        probs /= probs.sum(axis=1, keepdims=True)
        v = multitask_loss(t, flux, onehot, probs)
        expect = np.mean((t - flux[np.arange(n), classes]) ** 2)
        assert v == pytest.approx(expect, abs=1e-9)

    def test_invalid_probability_rows(self):
        with pytest.raises(ValueError):
            multitask_loss(
                np.array([1.0]),
                np.ones((1, 3)),
                np.array([[1.0, 0, 0]]),
                np.array([[0.9, 0.9, 0.9]]),
            )

    def test_gradient_flow(self):
        rng = np.random.default_rng(11)
        n = 10
        t = rng.normal(10, 1, n)
        flux = Tensor(rng.normal(10, 1, (n, 3)), requires_grad=True)
        # logits -> softmax handled upstream; check the fused op's grads with FD
        probs0 = np.full((n, 3), 1.0 / 3.0) + rng.uniform(-0.05, 0.05, (n, 3))
        probs0 /= probs0.sum(axis=1, keepdims=True)
        probs = Tensor(probs0, requires_grad=True)
        onehot = np.eye(3)[rng.integers(0, 3, n)]
        tape = Tape()
        loss = multitask_loss_op(tape, flux, probs, t, onehot, 1.0)
        tape.backward(loss)
        sel = np.argmax(probs0, axis=1)
        # flux gradient: only selected entries, 2*(pred-true)/n
        expect = np.zeros((n, 3))
        expect[np.arange(n), sel] = 2.0 * (flux.data[np.arange(n), sel] - t) / n
        assert np.allclose(flux.grad, expect, atol=1e-14)
        # probs gradient: -onehot/probs / n
        assert np.allclose(probs.grad, -onehot / probs0 / n, atol=1e-12)


class TestSparseMasked:
    def test_two_cells(self):
        pred = np.zeros((2, 2))
        target = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = np.array([[True, False], [False, True]])
        assert sparse_masked_loss(pred, target, mask) == pytest.approx(2.5)

    def test_mask_locality(self):
        rng = np.random.default_rng(12)
        pred = rng.standard_normal((4, 5))
        target = pred.copy()
        target[~(mask := rng.random((4, 5)) < 0.4)] = 999.0
        assert sparse_masked_loss(pred, target, mask) == 0.0

    def test_empty_sample_excluded_from_batch_mean(self):
        pred = np.zeros((2, 2, 2))
        values = np.ones((2, 2, 2))
        masks = np.zeros((2, 2, 2), dtype=bool)
        masks[0, 0, 0] = True
        # sample 1 contributes nothing; denominator is 1 cell
        assert sparse_masked_loss(pred, values, masks) == 1.0

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="empty mask"):
            sparse_masked_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_raw_sum_mode(self):
        pred = np.zeros((2, 2))
        target = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = np.array([[True, False], [False, True]])
        assert sparse_masked_loss(pred, target, mask, normalize=False) == pytest.approx(5.0)

    def test_loop_oracle(self):
        rng = np.random.default_rng(13)
        pred = rng.standard_normal((3, 6, 6))
        values = rng.standard_normal((3, 6, 6))
        mask = rng.random((3, 6, 6)) < 0.3
        assert sparse_masked_loss(pred, values, mask) == pytest.approx(
            _loop_sparse(pred, values, mask), rel=1e-13
        )

    def test_gradient_bitwise_zero_off_mask(self):
        rng = np.random.default_rng(14)
        pred = Tensor(rng.standard_normal((2, 5, 5)), requires_grad=True)
        values = rng.standard_normal((2, 5, 5))
        mask = rng.random((2, 5, 5)) < 0.2
        mask[0, 0, 0] = True
        tape = Tape()
        loss = sparse_masked_loss_op(tape, pred, values, mask)
        tape.backward(loss)
        assert np.all(pred.grad[~mask] == 0.0)

    def test_nan_poisoned_unobserved_cells_ignored(self):
        rng = np.random.default_rng(15)
        pred = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
        values = rng.standard_normal((2, 4, 4))
        mask = rng.random((2, 4, 4)) < 0.3
        mask[1, 1, 1] = True
        poisoned = values.copy()
        poisoned[~mask] = np.nan
        tape = Tape()
        loss = sparse_masked_loss_op(tape, pred, poisoned, mask)
        tape.backward(loss)
        assert math.isfinite(float(loss.data))
        assert np.all(np.isfinite(pred.grad))
        assert float(loss.data) == sparse_masked_loss(pred.data, values, mask)

    def test_gradcheck(self):
        rng = np.random.default_rng(16)
        values = rng.standard_normal((2, 4, 4))
        mask = rng.random((2, 4, 4)) < 0.4
        mask[0, 2, 2] = True
        pred = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)

        def build():
            tape = Tape()
            return tape, sparse_masked_loss_op(tape, pred, values, mask)

        check_gradients(build, [pred])


class TestLossSpec:
    def test_roundtrip_tail(self):
        spec = LossSpec(variant="tail")
        cfg = spec.to_config()
        assert cfg["tail.terms"] == "2.5:12,5:12.5,10:13,10:13.25,10:13.5"
        back = LossSpec.from_config(parse_values(cfg))
        assert back == spec

    def test_roundtrip_others(self):
        for spec in (
            LossSpec("mse"),
            LossSpec("dist", dist_bins=40),
            LossSpec("multitask", lambda_cce=0.5),
            LossSpec("sparse_masked", masked_normalize=False),
        ):
            assert LossSpec.from_config(parse_values(spec.to_config())) == spec

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            LossSpec("huber")

    def test_bad_term_string(self):
        with pytest.raises(ConfigError):
            LossSpec.from_config(parse_values({"loss": "tail", "tail.terms": "abc"}))

    def test_to_config_keeps_every_digit(self):
        """A value that ``:g`` would round is written in full, so the text
        parses back to the same spec; the default texts, which existing
        checkpoints store, are unchanged."""
        tail = LossSpec(
            "tail", tail_terms=(TailTerm(2.123456789, 12.0), TailTerm(5.0, 1234567.5), TailTerm(1e-20, 13.0))
        )
        multitask = LossSpec("multitask", lambda_cce=0.123456789)
        assert tail.to_config()["tail.terms"] == "2.123456789:12,5:1234567.5,1e-20:13"
        assert multitask.to_config()["multitask.lambda_cce"] == "0.123456789"
        for spec in (tail, multitask):
            assert LossSpec.from_config(parse_values(spec.to_config())) == spec
        assert LossSpec("tail").to_config()["tail.terms"] == "2.5:12,5:12.5,10:13,10:13.25,10:13.5"
        assert LossSpec("multitask").to_config()["multitask.lambda_cce"] == "1"
