"""Value and gradient semantics of the five losses against loop oracles."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradcheck import check_gradients
from _reference import dist_weights_fit_then_bin
from auroracast.autodiff import Tape, Tensor, softmax
from auroracast.config import parse_values
from auroracast.errors import ConfigError
from auroracast.losses import (
    DEFAULT_TAIL_TERMS,
    LOSS_VARIANTS,
    LossSpec,
    TailTerm,
    dist_loss_op,
    dist_weights,
    mse,
    mse_op,
    multitask_loss_op,
    sparse_masked_loss_op,
    tail_factors,
    tail_loss_op,
)


def _value(op, pred, *args):
    """Value of loss ``op`` run without a tape on a float64 prediction."""
    return float(op(None, Tensor(np.asarray(pred, dtype=np.float64)), *args).data)


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


def _loop_dist(t, p, y_fit, n_bins):
    """Dist loss of targets ``t`` drawn from the fitted targets ``y_fit``:
    each target's bin counted among ``y_fit`` one value at a time."""
    lo, hi = min(y_fit), max(y_fit)

    def bin_of(v):
        return min(int(math.floor((v - lo) / (hi - lo) * n_bins)), n_bins - 1)

    counts = collections.Counter(bin_of(v) for v in y_fit)
    total = 0.0
    for a, b in zip(t, p):
        total += (a - b) ** 2 / ((counts[bin_of(a)] + 1) * len(y_fit))
    return total / len(t)


def _loop_multitask(t, flux, region, probs, lam):
    total_mse = 0.0
    total_cce = 0.0
    for i in range(len(t)):
        sel = int(np.argmax(probs[i]))
        total_mse += (t[i] - flux[i][sel]) ** 2
        total_cce += -math.log(probs[i][region[i]])
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
        v = _value(tail_loss_op, np.array([11.0]), np.array([13.6]), DEFAULT_TAIL_TERMS)
        assert v == pytest.approx(260.26, abs=1e-9)

    def test_below_all_thresholds_is_plain_se(self):
        t = np.array([10.0, 10.0])
        p = np.array([7.0, 11.0])
        assert _value(tail_loss_op, p, t) == mse(t, p)

    def test_high_predictions_disable_terms(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(8, 16, 30)
        p = np.full(30, 13.5) + rng.uniform(0, 2, 30)
        assert _value(tail_loss_op, p, t) == mse(t, p)

    def test_loop_oracle(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(8, 15, 64)
        p = rng.uniform(8, 15, 64)
        assert _value(tail_loss_op, p, t) == pytest.approx(_loop_tail(t, p, DEFAULT_TAIL_TERMS), rel=1e-13)

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

        pred = Tensor(p0.copy())
        tape = Tape()
        loss = tail_loss_op(tape, pred, t)
        tape.backward(loss)
        g_tail = pred.grad.copy()

        pred2 = Tensor(p0.copy())
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
        pred = Tensor(p0)

        def build():
            tape = Tape()
            return tape, tail_loss_op(tape, pred, t)

        check_gradients(build, [pred])

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            _value(tail_loss_op, np.ones(3), np.ones(3), ())

    def test_term_validation(self):
        with pytest.raises(ValueError):
            TailTerm(a=0.0, y_r=12.0)


class TestDistWeights:
    def test_formula_direct(self):
        # counts [3, 1, 0] with m = 4: weights 1/16, 1/8, 1/4
        counts = np.array([3, 1, 0])
        w = 1.0 / ((counts + 1) * 4)
        assert np.allclose(w, [1 / 16, 1 / 8, 1 / 4])
        # over [0, 3] in 3 bins, these rows count [3, 0, 1]
        assert dist_weights(np.array([0.0, 0.5, 0.9, 3.0]), n_bins=3).tolist() == [1 / 16] * 3 + [1 / 8]

    def test_fit_with_empty_interior_bin(self):
        y = np.array([0.0, 0.1, 0.2, 2.9, 3.0])
        w = dist_weights(y, n_bins=3)
        assert np.array_equal(w, 1.0 / ((np.array([3, 3, 3, 2, 2]) + 1) * 5))

    def test_equal_counts_equal_weights(self):
        # exactly equal counts by construction over [0, 3]
        w = dist_weights(np.linspace(0, 3, 12), n_bins=4)
        assert len(set(np.round(w, 15))) == 1

    def test_empty_to_fullest_ratio(self):
        # the empty middle bin weighs no row: the rows' weights span the
        # fullest bin (4 rows) and the last one (1 row)
        y = np.array([0.0, 0.1, 0.15, 0.2, 3.0])
        w = dist_weights(y, n_bins=3)
        counts = np.array([4, 0, 1])
        assert w.max() / w.min() == pytest.approx((counts.max() + 1) / (counts[2] + 1), rel=1e-12)

    def test_top_edge_in_last_bin(self):
        # bins of [5, 9] hold 5, 5, 5 and 6 rows: 9.0 shares the last bin
        y = np.linspace(5.0, 9.0, 21)
        w = dist_weights(y, n_bins=4)
        assert w[-1] == w[-2] == 1 / (7 * 21)
        assert w[0] == 1 / (6 * 21)

    def test_degenerate_range(self):
        with pytest.raises(ValueError, match="degenerate"):
            dist_weights(np.full(5, 2.0))
        with pytest.raises(ValueError, match="two training targets"):
            dist_weights(np.array([2.0]))

    def test_sum_of_sample_weights_in_unit_interval(self):
        rng = np.random.default_rng(4)
        y = rng.normal(10, 1.5, 500)
        total = dist_weights(y, n_bins=50).sum()
        lo, hi = y.min(), y.max()
        bins = [min(int(math.floor((v - lo) / (hi - lo) * 50)), 49) for v in y]
        counts = collections.Counter(bins)
        loop = sum(1.0 / ((counts[b] + 1) * y.size) for b in bins)
        assert total == pytest.approx(loop, rel=1e-12)
        assert 0.0 < total <= 1.0

    @pytest.mark.parametrize("n_bins", [2, 17, 50])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_fit_then_bin(self, seed, n_bins):
        """Each row's weight is its bin's weight, as a fitted per-bin table
        that bins the targets again through its edges gives it."""
        rng = np.random.default_rng(seed)
        y = np.round(rng.normal(10, 1.5, 4000), 2)  # ties, and rows at both ends
        w = dist_weights(y, n_bins)
        ref = dist_weights_fit_then_bin(y, n_bins)
        assert w.dtype == ref.dtype == np.float64 and w.tobytes() == ref.tobytes()


class TestDistLoss:
    def test_unit_weights_equal_mse(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0, 3, 40)
        p = rng.uniform(0, 3, 40)
        assert _value(dist_loss_op, p, t, np.ones(40)) == pytest.approx(mse(t, p), rel=1e-13)

    def test_zero_when_equal(self):
        y = np.linspace(8, 12, 20)
        assert _value(dist_loss_op, y, y, dist_weights(y)) == 0.0

    def test_loop_oracle(self):
        rng = np.random.default_rng(6)
        y_fit = rng.normal(10, 1, 300)
        w = dist_weights(y_fit, n_bins=17)
        rows = rng.choice(300, 50, replace=False)
        t, p = y_fit[rows], rng.normal(10, 1.5, 50)
        assert _value(dist_loss_op, p, t, w[rows]) == pytest.approx(_loop_dist(t, p, y_fit, 17), rel=1e-13)

    def test_weight_scaling_preserves_gradient_direction(self):
        rng = np.random.default_rng(7)
        y_fit = rng.normal(10, 1, 200)
        w = dist_weights(y_fit, n_bins=10)[:30]
        t = y_fit[:30]
        p0 = rng.normal(10, 1, 30)

        def grad_with(weights):
            pred = Tensor(p0.copy())
            tape = Tape()
            tape.backward(dist_loss_op(tape, pred, t, weights))
            return pred.grad

        g1 = grad_with(w)
        g2 = grad_with(w * 3.7)
        assert np.allclose(g2, 3.7 * g1, rtol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        y_fit = rng.normal(10, 1, 100)
        w = dist_weights(y_fit, n_bins=8)[:15]
        t = y_fit[:15]
        pred = Tensor(rng.normal(10, 1, 15))

        def build():
            tape = Tape()
            return tape, dist_loss_op(tape, pred, t, w)

        check_gradients(build, [pred])

    def test_weights_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="bad lengths"):
            _value(dist_loss_op, np.ones(4), np.ones(4), np.ones(3))


def _softmax64(logits):
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestMultitask:
    def test_perfect_prediction_zero_loss(self):
        t = np.array([9.0, 11.0])
        region = np.array([0, 2])
        probs = np.array([[1.0, 0, 0], [0, 0, 1.0]])
        # clamp away exact zeros for the log
        probs = np.clip(probs, 1e-12, 1.0)
        probs /= probs.sum(axis=1, keepdims=True)
        flux = np.array([[9.0, 0, 0], [0, 0, 11.0]])
        v = float(multitask_loss_op(None, Tensor(flux), Tensor(np.log(probs)), t, region).data)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_uniform_probs_cce_is_ln3(self):
        t = np.array([9.0])
        region = np.array([1])
        probs = np.full((1, 3), 1.0 / 3.0)
        flux = np.array([[0.0, 9.0, 0.0]])
        # argmax ties break to class 0, whose flux is 0 -> mse = 81
        v = float(multitask_loss_op(None, Tensor(flux), Tensor(np.log(probs)), t, region).data)
        assert v == pytest.approx(81.0 + math.log(3.0), rel=1e-12)

    def test_loop_oracle(self):
        rng = np.random.default_rng(9)
        n = 40
        t = rng.normal(10, 1, n)
        flux = rng.normal(10, 1, (n, 3))
        logits = rng.standard_normal((n, 3)) * 2
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        region = rng.integers(0, 3, n)
        lam = 0.7
        v = float(multitask_loss_op(None, Tensor(flux), Tensor(logits), t, region, lam).data)
        assert v == pytest.approx(_loop_multitask(t, flux, region, probs, lam), rel=1e-12)

    def test_confident_classifier_reduces_to_true_head_mse(self):
        rng = np.random.default_rng(10)
        n = 25
        t = rng.normal(10, 1, n)
        flux = rng.normal(10, 1, (n, 3))
        classes = rng.integers(0, 3, n)
        probs = np.clip(np.eye(3)[classes], 1e-15, 1.0)
        probs /= probs.sum(axis=1, keepdims=True)
        v = float(multitask_loss_op(None, Tensor(flux), Tensor(np.log(probs)), t, classes).data)
        expect = np.mean((t - flux[np.arange(n), classes]) ** 2)
        assert v == pytest.approx(expect, abs=1e-9)

    def test_gradient_flow(self):
        rng = np.random.default_rng(11)
        n = 10
        t = rng.normal(10, 1, n)
        flux = Tensor(rng.normal(10, 1, (n, 3)))
        logits0 = rng.normal(0, 0.2, (n, 3))
        logits = Tensor(logits0.copy())
        region = rng.integers(0, 3, n)
        tape = Tape()
        loss = multitask_loss_op(tape, flux, logits, t, region, 1.0)
        tape.backward(loss)
        sel = np.argmax(logits0, axis=1)
        # flux gradient: only selected entries, 2*(pred-true)/n
        expect = np.zeros((n, 3))
        expect[np.arange(n), sel] = 2.0 * (flux.data[np.arange(n), sel] - t) / n
        assert np.allclose(flux.grad, expect, atol=1e-14)
        # logits gradient: (softmax - onehot) / n
        onehot = np.eye(3)[region]
        assert np.allclose(logits.grad, (_softmax64(logits0) - onehot) / n, atol=1e-14)

    def test_region_indices_must_be_one_per_row(self):
        logits = Tensor(np.zeros((2, 3)))
        for region in (np.array([0]), np.array([[1.0, 0, 0], [0, 1.0, 0]])):
            with pytest.raises(ValueError, match="shape mismatch"):
                multitask_loss_op(None, Tensor(np.ones((2, 3))), logits, np.ones(2), region)

    def test_zero_non_target_probability_is_finite(self):
        """A float32 probability that is exactly 0 in a class that is not
        the row's true one leaves the loss at its direct formula and the
        gradient finite, with 0 in that cell."""
        logits0 = np.array([[math.log(0.7), math.log(0.3), -200.0], [math.log(0.2), math.log(0.8), -200.0]], dtype=np.float32)
        flux0 = np.array([[9.0, 1.0, 2.0], [3.0, 11.0, 4.0]], dtype=np.float32)
        t, region, lam = np.array([9.5, 10.0]), np.array([0, 1]), 0.7
        flux, logits = Tensor(flux0), Tensor(logits0)
        tape = Tape()
        loss = multitask_loss_op(tape, flux, logits, t, region, lam)
        tape.backward(loss)
        p_true = _softmax64(logits0)[[0, 1], region]
        direct = np.mean((flux0[[0, 1], [0, 1]] - t) ** 2) + lam * np.mean(-np.log(p_true))
        assert math.isfinite(float(loss.data)) and float(loss.data) == pytest.approx(direct, rel=1e-6)
        assert np.all(np.isfinite(logits.grad)) and np.all(np.isfinite(flux.grad))
        assert np.all(logits.grad[:, 2] == 0.0)
        assert logits.grad[[0, 1], region] == pytest.approx(lam * (p_true - 1.0) / 2, rel=1e-6)

    def test_softmax_underflow_trains_finite(self):
        """Logits [0, -50, -120] give the true region 2 a float32
        probability of exactly 0; the loss is still its cross-entropy, 120,
        with no warning, and the logits' gradient is ``(softmax - onehot) / n``,
        [1, 1.9e-22, -1]."""
        logits0 = np.array([[0.0, -50.0, -120.0]], dtype=np.float32)
        assert softmax(Tensor(logits0)).data[0, 2] == 0.0
        logits = Tensor(logits0.copy())
        tape = Tape()
        loss = multitask_loss_op(tape, Tensor(np.zeros((1, 3), np.float32)), logits, np.zeros(1), np.array([2]))
        tape.backward(loss)
        assert float(loss.data) == 120.0
        assert logits.grad.dtype == np.float32
        expect = _softmax64(logits0) - np.eye(3)[[2]]
        assert np.allclose(logits.grad, expect, rtol=0, atol=np.finfo(np.float32).eps)
        assert logits.grad[0, 1] == pytest.approx(math.exp(-50.0), rel=1e-6)

    @pytest.mark.parametrize("region", [0, 1, 2])
    def test_gradcheck_at_a_wide_logit_spread(self, region):
        """float64 gradcheck where one class's float64 probability is below
        1e-12 (logits about 35 apart), for every choice of true class."""
        rng = np.random.default_rng(12)
        n = 6
        logits0 = np.tile([0.0, -35.0, 4.0], (n, 1)) + rng.uniform(-0.5, 0.5, (n, 3))
        assert _softmax64(logits0)[:, 1].max() < 1e-12
        flux = Tensor(rng.normal(10, 1, (n, 3)))
        logits = Tensor(logits0)
        t = rng.normal(10, 1, n)
        regions = np.full(n, region)

        def build():
            tape = Tape()
            return tape, multitask_loss_op(tape, flux, logits, t, regions, 0.7)

        check_gradients(build, [flux, logits])


def _observed(values, mask):
    """(positions, values) of the cells under ``mask``, in C order."""
    return np.flatnonzero(mask), np.asarray(values)[mask]


class TestSparseMasked:
    def test_two_cells(self):
        pred = np.zeros((2, 2))
        target = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = np.array([[True, False], [False, True]])
        assert _value(sparse_masked_loss_op, pred, *_observed(target, mask)) == pytest.approx(2.5)

    def test_mask_locality(self):
        rng = np.random.default_rng(12)
        pred = rng.standard_normal((4, 5))
        target = pred.copy()
        target[~(mask := rng.random((4, 5)) < 0.4)] = 999.0
        assert _value(sparse_masked_loss_op, pred, *_observed(target, mask)) == 0.0

    def test_empty_sample_excluded_from_batch_mean(self):
        pred = np.zeros((2, 2, 2))
        values = np.ones((2, 2, 2))
        masks = np.zeros((2, 2, 2), dtype=bool)
        masks[0, 0, 0] = True
        # sample 1 contributes nothing; denominator is 1 cell
        assert _value(sparse_masked_loss_op, pred, *_observed(values, masks)) == 1.0

    def test_all_empty_rejected(self):
        empty = _observed(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="no observed cells"):
            _value(sparse_masked_loss_op, np.zeros((2, 2)), *empty)

    def test_raw_sum_mode(self):
        pred = np.zeros((2, 2))
        target = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = np.array([[True, False], [False, True]])
        assert _value(sparse_masked_loss_op, pred, *_observed(target, mask), False) == pytest.approx(5.0)

    def test_loop_oracle(self):
        rng = np.random.default_rng(13)
        pred = rng.standard_normal((3, 6, 6))
        values = rng.standard_normal((3, 6, 6))
        mask = rng.random((3, 6, 6)) < 0.3
        assert _value(sparse_masked_loss_op, pred, *_observed(values, mask)) == pytest.approx(
            _loop_sparse(pred, values, mask), rel=1e-13
        )

    def test_gradient_bitwise_zero_off_mask(self):
        rng = np.random.default_rng(14)
        pred = Tensor(rng.standard_normal((2, 5, 5)))
        values = rng.standard_normal((2, 5, 5))
        mask = rng.random((2, 5, 5)) < 0.2
        mask[0, 0, 0] = True
        tape = Tape()
        loss = sparse_masked_loss_op(tape, pred, *_observed(values, mask))
        tape.backward(loss)
        assert np.all(pred.grad[~mask] == 0.0)

    def test_nan_poisoned_unobserved_cells_ignored(self):
        rng = np.random.default_rng(15)
        clean = rng.standard_normal((2, 4, 4))
        values = rng.standard_normal((2, 4, 4))
        mask = rng.random((2, 4, 4)) < 0.3
        mask[1, 1, 1] = True
        poisoned = clean.copy()
        poisoned[~mask] = np.nan
        grads = []
        for data in (clean, poisoned):
            pred = Tensor(data)
            tape = Tape()
            loss = sparse_masked_loss_op(tape, pred, *_observed(values, mask))
            tape.backward(loss)
            grads.append((float(loss.data), pred.grad))
        (clean_loss, clean_grad), (loss, grad) = grads
        assert math.isfinite(loss) and loss == clean_loss
        assert np.array_equal(grad, clean_grad)
        assert np.all(grad[~mask] == 0.0) and not np.signbit(grad[~mask]).any()

    def test_gradient_bits_of_a_first_and_a_second_gradient(self):
        """A first gradient is zeros with the cells' terms in place, -0
        kept; a second is added to the gradient already there."""
        data = np.array([[-0.0, 1.5], [2.0, -0.0]], dtype=np.float32)
        positions, values = np.array([0, 1, 3]), np.array([0.0, 1.0, 0.0])
        dp = np.zeros(4, dtype=np.float32)
        dp[positions] = np.float32(1.0) * 2.0 * (data.reshape(-1)[positions] - values.astype(np.float32)) / 3
        for first in (None, np.full((2, 2), 0.25, dtype=np.float32)):
            pred = Tensor(data.copy())
            tape = Tape()
            loss = sparse_masked_loss_op(tape, pred, positions, values)
            pred.grad = None if first is None else first.copy()
            tape.backward(loss)
            expected = dp.reshape(2, 2) if first is None else first + dp.reshape(2, 2)
            assert pred.grad.dtype == np.float32 and pred.grad.tobytes() == expected.tobytes()
        assert np.signbit(dp).any()

    def test_gradcheck(self):
        rng = np.random.default_rng(16)
        values = rng.standard_normal((2, 4, 4))
        mask = rng.random((2, 4, 4)) < 0.4
        mask[0, 2, 2] = True
        pred = Tensor(rng.standard_normal((2, 4, 4)))

        def build():
            tape = Tape()
            return tape, sparse_masked_loss_op(tape, pred, *_observed(values, mask))

        check_gradients(build, [pred])


def _loss_cases():
    """Per loss variant: (input arrays, call) where ``call(tape, *tensors)``
    runs the loss op on tensors made from the arrays."""
    rng = np.random.default_rng(20)
    t = rng.uniform(8, 15, 12)
    p = rng.uniform(8, 15, 12)
    w = dist_weights(rng.normal(10, 1, 100), n_bins=8)[:12]
    logits = rng.uniform(-2.0, 2.0, (12, 3))
    region = rng.integers(0, 3, 12)
    values = rng.standard_normal((2, 4, 4))
    mask = rng.random((2, 4, 4)) < 0.4
    mask[0, 0, 0] = True
    return {
        "mse": ([p], lambda tape, y: mse_op(tape, y, t)),
        "tail": ([p], lambda tape, y: tail_loss_op(tape, y, t)),
        "dist": ([p], lambda tape, y: dist_loss_op(tape, y, t, w)),
        "multitask": (
            [rng.normal(10, 1, (12, 3)), logits],
            lambda tape, flux, lg: multitask_loss_op(tape, flux, lg, t, region, 0.7),
        ),
        "sparse_masked": (
            [rng.standard_normal((2, 4, 4))],
            lambda tape, y: sparse_masked_loss_op(tape, y, *_observed(values, mask)),
        ),
    }


@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_op_without_tape_is_inference(variant, monkeypatch):
    """With ``tape=None`` a loss op returns the value it returns on a tape,
    records nothing and leaves every gradient unset."""
    arrays, call = _loss_cases()[variant]

    def run(tape):
        tensors = [Tensor(a.copy()) for a in arrays]
        return tensors, call(tape, *tensors)

    _, taped = run(Tape())
    recorded = []
    monkeypatch.setattr(Tape, "record", lambda self, out, fn: recorded.append(out))
    tensors, value = run(None)
    assert value.data == taped.data and value.data.dtype == taped.data.dtype
    assert recorded == []
    assert all(t.grad is None for t in [*tensors, value])


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
