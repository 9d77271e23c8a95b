"""Forward semantics and finite-difference gradient checks for every op."""

import weakref

import numpy as np
import pytest

from _gradcheck import check_gradients
from _memory import peak_bytes
from _reference import (
    accumulate_zero_filled,
    add,
    backward_keeping_records,
    conv2d_backward_dense,
    scale,
    sum_all,
)
from auroracast import autodiff as ad
from auroracast import losses as L
from auroracast import models as M
from auroracast.autodiff import Tape, Tensor
from auroracast.losses import sparse_masked_loss_op

# Values where IEEE edge cases live: signed zeros, infinities, NaN, and
# float32 (1e-40) and float64 (1e-310) subnormals.
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 1e-310, 1.5, -2.5]


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape))


class TestDense:
    def test_identity_weights(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        y = ad.dense(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.array_equal(y.data, x.data)

    def test_zero_input_gives_bias(self):
        b = Tensor(np.array([1.0, -2.0]))
        y = ad.dense(Tensor(np.zeros((5, 3))), Tensor(np.zeros((3, 2))), b)
        assert np.array_equal(y.data, np.tile(b.data, (5, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        x, w, b = _t(rng, 3, 4), _t(rng, 4, 2), _t(rng, 2)

        def build():
            tape = Tape()
            y = ad.dense(x, w, b, tape)
            return tape, sum_all(ad.relu(y, tape), tape)

        check_gradients(build, [x, w, b])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_is_bitwise_x_at_w_plus_b(self, dtype):
        rng = np.random.default_rng(42)
        x, w = _t(rng, 33, 7), _t(rng, 7, 5)
        b = Tensor(np.array([0.0, -0.0, 1e-40, -3.0, 1e30]))
        x, w, b = (Tensor(t.data.astype(dtype)) for t in (x, w, b))
        assert ad.dense(x, w, b).data.tobytes() == (x.data @ w.data + b.data).tobytes()


class TestRelu:
    def test_nonnegative_identity(self):
        x = Tensor(np.abs(np.random.default_rng(1).standard_normal((4, 4))))
        assert np.array_equal(ad.relu(x).data, x.data)

    def test_nonpositive_zero_grad(self):
        x = Tensor(-np.abs(np.random.default_rng(2).standard_normal(6)))
        tape = Tape()
        y = sum_all(ad.relu(x, tape), tape)
        tape.backward(y)
        assert np.array_equal(y.data, 0.0)
        assert np.array_equal(x.grad, np.zeros(6))

    def test_gradcheck_away_from_kinks(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 3)) + np.sign(rng.standard_normal((5, 3))) * 0.1)

        def build():
            tape = Tape()
            return tape, sum_all(ad.relu(x, tape), tape)

        check_gradients(build, [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_is_bitwise_g_times_x_positive(self, dtype):
        """The backward gates on the output, ``out > 0``; that is ``x > 0``
        for every input, NaN, signed zeros and infinities included."""
        x = Tensor(np.array(EDGES * len(EDGES), dtype=dtype).reshape(len(EDGES), -1))
        g = x.data.T.copy()  # every input meets every upstream edge value
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
            tape = Tape()
            tape.backward(_weighted_sum(tape, ad.relu(x, tape), g))
            expect = g * (x.data > 0)
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == expect.tobytes()


class TestAccumulate:
    """A first gradient into a tensor becomes its .grad as it is, or cast to
    the tensor's dtype where it has another; a second adds into it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values(self, dtype):
        g = np.array(EDGES, dtype=dtype)
        t = Tensor(np.ones(g.size, dtype=dtype))
        ad._accumulate(t, g)
        assert t.grad is g and np.signbit(g[1]) and np.isnan(g[4])  # -0 stays -0
        assert t.grad.tobytes() == np.array(EDGES, dtype=dtype).tobytes()

    def test_float64_gradient_into_float32_tensor(self):
        g = np.array(EDGES + [1 + 2.0**-30, 3.4e39], dtype=np.float64)  # rounds, overflows
        t = Tensor(np.ones(g.size, dtype=np.float32))
        with np.errstate(over="ignore"):
            ad._accumulate(t, g)
            expect = g.astype(np.float32)
        assert t.grad.dtype == np.float32 and t.grad.tobytes() == expect.tobytes()

    def test_first_gradient_is_adopted_and_a_second_adds_into_it(self):
        first, second = np.arange(4.0), np.array([0.5, -1.0, 2.0, -0.0])
        t = Tensor(np.zeros(4))
        ad._accumulate(t, first)
        ad._accumulate(t, second)
        assert t.grad is first and t.grad.tobytes() == (np.arange(4.0) + second).tobytes()
        assert second.tobytes() == np.array([0.5, -1.0, 2.0, -0.0]).tobytes()


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, training=True, rng=0) is x
        assert ad.dropout(x, 0.5, training=False) is x

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=0)

    def test_survivor_fraction(self):
        x = Tensor(np.ones((200, 200)))
        y = ad.dropout(x, 0.5, training=True, rng=42)
        frac = (y.data != 0).mean()
        sigma = np.sqrt(0.25 / x.data.size)
        assert abs(frac - 0.5) < 3 * sigma

    def test_survivors_scaled(self):
        x = Tensor(np.full((50, 50), 2.0))
        y = ad.dropout(x, 0.25, training=True, rng=7)
        alive = y.data[y.data != 0]
        assert np.allclose(alive, 2.0 / 0.75)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        x = _t(rng, 4, 5)

        def build():
            tape = Tape()
            y = ad.dropout(x, 0.4, training=True, rng=11, tape=tape)
            return tape, sum_all(y, tape)

        check_gradients(build, [x])

    @pytest.mark.parametrize("rate", [0.5, 0.25])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_mask_is_bitwise_keep_times_scale(self, rate, dtype):
        """Forward and backward multiply by one mask, keep * scale; keep is 0
        or 1, so every value, signed zeros and inf * 0 included, is the bits
        of multiplying by keep and then by scale."""
        rng = np.random.default_rng(30)
        data = rng.standard_normal((8, 16))
        data[0, :8] = [0.0, -0.0, np.inf, -np.inf, 0.0, -0.0, np.inf, -np.inf]
        x = Tensor(data.astype(dtype))
        upstream = rng.standard_normal(x.shape).astype(dtype)
        upstream[1, :8] = [0.0, -0.0, np.inf, -np.inf, 0.0, -0.0, np.inf, -np.inf]
        keep = (np.random.default_rng(5).random(x.shape) >= rate).astype(dtype)
        scale = 1.0 / (1.0 - rate)
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
            tape = Tape()
            y = ad.dropout(x, rate, training=True, rng=5, tape=tape)
            tape.backward(_weighted_sum(tape, y, upstream))
            expect_y = x.data * keep * scale
            expect_grad = upstream * keep * scale
        assert 0 < keep.sum() < keep.size and np.isnan(expect_y).any()
        assert y.data.dtype == x.grad.dtype == dtype
        assert y.data.tobytes() == expect_y.tobytes()
        assert x.grad.tobytes() == expect_grad.tobytes()


class TestSoftmax:
    def test_uniform_logits(self):
        x = Tensor(np.zeros((4, 3)))
        assert np.allclose(ad.softmax(x).data, 1.0 / 3.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 4))
        a = ad.softmax(Tensor(x)).data
        b = ad.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        p = ad.softmax(Tensor(rng.standard_normal((8, 5)) * 3)).data
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        x = _t(rng, 4, 3)
        w = rng.standard_normal((4, 3))

        def build():
            tape = Tape()
            p = ad.softmax(x, tape)
            # weighted sum so the loss is sensitive to every probability
            return tape, _weighted_sum(tape, p, w)

        check_gradients(build, [x])


def _weighted_sum(tape, t, weights):
    out = Tensor(np.array((t.data * weights).sum()))

    def backward():
        if out.grad is None:
            return
        ad._accumulate(t, out.grad * weights)

    tape.record(out, backward)
    return out


class TestConv2d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 1, 5, 6)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        y = ad.conv2d(x, Tensor(k))
        assert np.allclose(y.data, x.data[:, :, 1:-1, 1:-1])

    def test_ones_kernel_on_constant(self):
        x = Tensor(np.full((1, 1, 5, 5), 2.0))
        y = ad.conv2d(x, Tensor(np.ones((1, 1, 3, 3))))
        assert np.allclose(y.data, 18.0)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_gradcheck(self):
        """A 3x3 output, and the training shape's single output per
        window (oh = ow = 1). The cases run in one body so the test keeps
        its id."""
        rng = np.random.default_rng(9)
        for x_shape, k_shape in [((2, 2, 5, 5), (3, 2, 3, 3)), ((3, 2, 3, 3), (1, 2, 3, 3))]:
            x = _t(rng, *x_shape)
            k = _t(rng, *k_shape)

            def build():
                tape = Tape()
                return tape, sum_all(ad.relu(ad.conv2d(x, k, tape), tape), tape)

            check_gradients(build, [x, k])

    def test_gradcheck_non_square_kernel(self):
        rng = np.random.default_rng(20)
        x = _t(rng, 2, 2, 5, 6)
        k = _t(rng, 3, 2, 2, 4)

        def build():
            tape = Tape()
            return tape, sum_all(ad.relu(ad.conv2d(x, k, tape), tape), tape)

        check_gradients(build, [x, k])

    def test_window_stack_bits(self):
        """float32 at the training shape, 160 [4, 7, 7] windows to one
        output each. The forward is the per-tap channel einsum summed in tap
        order, and each dk tap is the C-contiguous [rows, c_out] gradient,
        transposed, times the C-contiguous [rows, c_in] tap slice: the
        layout the conv chain's bits depend on. An einsum dk rounds
        differently."""
        rng = np.random.default_rng(30)
        x = rng.standard_normal((160, 4, 7, 7)).astype(np.float32)
        k = rng.standard_normal((1, 4, 7, 7)).astype(np.float32)
        dy = rng.standard_normal((160, 1, 1, 1)).astype(np.float32)
        xt, kt = Tensor(x), Tensor(k)
        tape = Tape()
        y = ad.conv2d(xt, kt, tape)
        tape.backward(_weighted_sum(tape, y, dy))
        ref = np.zeros((160, 1), dtype=np.float32)
        for p, q in np.ndindex(7, 7):
            ref += np.einsum("oc,mc->mo", k[:, :, p, q], x[:, :, p, q])
        assert y.data.tobytes() == ref.reshape(160, 1, 1, 1).tobytes()
        g = np.ascontiguousarray(dy[:, :, 0, 0]).T
        for p, q in np.ndindex(7, 7):
            assert kt.grad[:, :, p, q].tobytes() == (g @ np.ascontiguousarray(x[:, :, p, q])).tobytes()


class TestConvTranspose:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        y = ad.conv2d_transpose(x, Tensor(k), 1)
        assert np.allclose(y.data, x.data)

    def test_impulse_stamps_kernel(self):
        # single unit impulse, stride 2: output is the kernel stamped at the
        # strided position, shifted by the 'same' crop offset
        kh = kw = 5
        s = 2
        x = np.zeros((1, 1, 4, 4))
        i0, j0 = 2, 1
        x[0, 0, i0, j0] = 1.0
        rng = np.random.default_rng(11)
        k = rng.standard_normal((1, 1, kh, kw))
        y = ad.conv2d_transpose(Tensor(x), Tensor(k), s).data[0, 0]
        top = (kh - s) // 2
        expect = np.zeros((4 * s + kh - s, 4 * s + kw - s))
        expect[i0 * s : i0 * s + kh, j0 * s : j0 * s + kw] += k[0, 0]
        expect = expect[top : top + 8, top : top + 8]
        assert np.allclose(y, expect)

    def test_output_shape(self):
        x = Tensor(np.zeros((1, 1, 16, 16)))
        k = Tensor(np.zeros((1, 4, 9, 9)))
        assert ad.conv2d_transpose(x, k, 2).shape == (1, 4, 32, 32)
        k2 = Tensor(np.zeros((4, 4, 5, 5)))
        y = ad.conv2d_transpose(ad.conv2d_transpose(x, k, 2), k2, 4)
        assert y.shape == (1, 4, 128, 128)

    def test_kernel_smaller_than_stride(self):
        with pytest.raises(ValueError):
            ad.conv2d_transpose(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))), 3)

    def test_gradcheck(self):
        rng = np.random.default_rng(12)
        x = _t(rng, 2, 2, 3, 3)
        k = _t(rng, 2, 3, 4, 4)

        def build():
            tape = Tape()
            return tape, sum_all(ad.relu(ad.conv2d_transpose(x, k, 2, tape), tape), tape)

        check_gradients(build, [x, k])

    def test_gradcheck_non_square_kernel_tuple_stride(self):
        rng = np.random.default_rng(21)
        x = _t(rng, 2, 2, 3, 2)
        k = _t(rng, 2, 3, 3, 4)

        def build():
            tape = Tape()
            y = ad.conv2d_transpose(x, k, (2, 3), tape)
            return tape, sum_all(ad.relu(y, tape), tape)

        check_gradients(build, [x, k])


def _naive_conv2d(x, k, dy):
    """Valid cross-correlation and its gradients, one output pixel at a time."""
    n, _, h, w = x.shape
    co, _, kh, kw = k.shape
    y = np.zeros((n, co, h - kh + 1, w - kw + 1))
    dx = np.zeros_like(x)
    dk = np.zeros_like(k)
    for b, o, i, j in np.ndindex(*y.shape):
        window = x[b, :, i : i + kh, j : j + kw]
        y[b, o, i, j] = np.sum(window * k[o])
        dx[b, :, i : i + kh, j : j + kw] += dy[b, o, i, j] * k[o]
        dk[o] += dy[b, o, i, j] * window
    return y, dx, dk


def _naive_conv2d_transpose(x, k, stride, dy):
    """Transposed convolution and its gradients, one input pixel at a time:
    each pixel stamps its channel mix of the kernel at stride offsets."""
    sh, sw = stride
    n, ci, h, w = x.shape
    _, co, kh, kw = k.shape
    full = np.zeros((n, co, (h - 1) * sh + kh, (w - 1) * sw + kw))
    top, left = (kh - sh) // 2, (kw - sw) // 2
    dfull = np.zeros_like(full)
    dfull[:, :, top : top + h * sh, left : left + w * sw] = dy
    dx = np.zeros_like(x)
    dk = np.zeros_like(k)
    for b, c, i, j in np.ndindex(n, ci, h, w):
        rows, cols = slice(i * sh, i * sh + kh), slice(j * sw, j * sw + kw)
        full[b, :, rows, cols] += x[b, c, i, j] * k[c]
        dx[b, c, i, j] = np.sum(dfull[b, :, rows, cols] * k[c])
        dk[c] += x[b, c, i, j] * dfull[b, :, rows, cols]
    return full[:, :, top : top + h * sh, left : left + w * sw], dx, dk


class TestConvOracle:
    """Forward values and both gradients against direct loops, float64, at
    the conv decoder's shapes."""

    @staticmethod
    def _run(op, x_shape, k_shape, seed):
        rng = np.random.default_rng(seed)
        x = _t(rng, *x_shape)
        k = _t(rng, *k_shape)
        tape = Tape()
        y = op(x, k, tape)
        dy = rng.standard_normal(y.shape)
        tape.backward(_weighted_sum(tape, y, dy))
        return x, k, y, dy

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride",
        [((2, 1, 16, 16), (1, 4, 9, 9), 2), ((2, 4, 32, 32), (4, 4, 5, 5), 4)],
    )
    def test_conv2d_transpose(self, x_shape, k_shape, stride):
        x, k, y, dy = self._run(lambda x, k, tape: ad.conv2d_transpose(x, k, stride, tape), x_shape, k_shape, 22)
        ref_y, ref_dx, ref_dk = _naive_conv2d_transpose(x.data, k.data, (stride, stride), dy)
        np.testing.assert_allclose(y.data, ref_y, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(x.grad, ref_dx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(k.grad, ref_dk, rtol=1e-10, atol=1e-10)

    def test_conv2d_final_layer(self):
        """The padded grid of the dense forward, and the [cells, 4, 7, 7]
        window stack that training convolves. The cases run in one body so
        the test keeps its id."""
        for x_shape in [(2, 4, 134, 134), (2, 4, 7, 7)]:
            x, k, y, dy = self._run(ad.conv2d, x_shape, (1, 4, 7, 7), 23)
            ref_y, ref_dx, ref_dk = _naive_conv2d(x.data, k.data, dy)
            np.testing.assert_allclose(y.data, ref_y, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(x.grad, ref_dx, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(k.grad, ref_dk, rtol=1e-10, atol=1e-10)


class TestConv2dSparseGradient:
    """An output gradient that is zero at most cells, as the masked loss
    gives: the backward scatters every cell, zero or not, and matches the
    naive loops and the per-sample dense scatter."""

    def test_sparse_output_gradient_against_naive_loops(self):
        rng = np.random.default_rng(25)
        x = _t(rng, 3, 3, 9, 11)
        k = _t(rng, 2, 3, 3, 4)
        tape = Tape()
        y = ad.conv2d(x, k, tape)
        oh, ow = y.shape[2:]
        dy = np.zeros(y.shape)
        corners = [(0, 0), (0, ow - 1), (oh - 1, 0), (oh - 1, ow - 1)]
        edges = [(0, 3), (oh - 1, 2), (4, 0), (2, ow - 1)]
        for i, j in corners + edges:
            dy[0, :, i, j] = rng.standard_normal(2)
        dy[1, 1, 3, 4] = rng.standard_normal()  # one channel only
        dy[1, 0, oh - 1, ow - 1] = rng.standard_normal()
        # sample 2 has no nonzero cell
        tape.backward(_weighted_sum(tape, y, dy))
        _, ref_dx, ref_dk = _naive_conv2d(x.data, k.data, dy)
        np.testing.assert_allclose(x.grad, ref_dx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(k.grad, ref_dk, rtol=1e-10, atol=1e-10)
        assert not x.grad[2].any()

    @pytest.mark.parametrize(
        "x_shape, k_shape, cells",
        [((16, 4, 134, 134), (1, 4, 7, 7), 15), ((3, 3, 20, 23), (2, 3, 5, 4), 60)],
    )
    def test_bitwise_equal_to_dense_scatter(self, x_shape, k_shape, cells):
        """float32, at the final layer's training shape with about 15
        observed cells per sample, and with two output channels: dx has the
        same bits as scattering every cell. dk sums its products in another
        order, so each element is within 8 float32 eps of the dense sum,
        scaled by the sum of the absolute products, sum |dy| * |x|."""
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal(x_shape).astype(np.float32))
        k = Tensor(rng.standard_normal(k_shape).astype(np.float32))
        n, co = x_shape[0], k_shape[0]
        oh, ow = x_shape[2] - k_shape[2] + 1, x_shape[3] - k_shape[3] + 1
        dy = np.zeros((n, co, oh, ow), dtype=np.float32)
        for i in range(n):
            at = rng.choice(co * oh * ow, size=cells, replace=False)
            dy[i].flat[at] = rng.standard_normal(cells).astype(np.float32)
        tape = Tape()
        y = ad.conv2d(x, k, tape)
        tape.backward(_weighted_sum(tape, y, dy))
        ref_dx, ref_dk = conv2d_backward_dense(x.data, k.data, dy)
        assert x.grad.dtype == k.grad.dtype == np.float32
        assert x.grad.tobytes() == ref_dx.tobytes()
        _, scale = conv2d_backward_dense(*(np.abs(a.astype(np.float64)) for a in (x.data, k.data, dy)))
        assert np.all(np.abs(k.grad - ref_dk) <= 8 * np.finfo(np.float32).eps * scale)

    def test_gradcheck_sparse_masked_loss(self):
        rng = np.random.default_rng(27)
        x = _t(rng, 2, 2, 6, 7)
        k = _t(rng, 1, 2, 3, 3)
        mask = np.zeros((2, 1, 4, 5), dtype=bool)
        mask[0, 0, [0, 3, 2], [0, 4, 1]] = True
        mask[1, 0, 1, 3] = True
        target = rng.standard_normal(mask.shape)

        def build():
            tape = Tape()
            pred = ad.conv2d(x, k, tape)
            return tape, sparse_masked_loss_op(tape, pred, np.flatnonzero(mask), target[mask])

        check_gradients(build, [x, k])


def _sites(rng, n, h, w, per_sample):
    """Ascending flat sites in [n, h, w]: per sample, random ones plus the
    four corners and the middle of each edge."""
    edges = [0, w - 1, (h - 1) * w, h * w - 1, w // 2, (h // 2) * w, (h // 2) * w + w - 1, (h - 1) * w + w // 2]
    return np.concatenate(
        [i * h * w + np.union1d(rng.choice(h * w, per_sample, replace=False), edges) for i in range(n)]
    )


class TestConvTransposeSites:
    """conv2d_transpose(sites=...) computes the listed output sites only."""

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride, per_sample",
        [((16, 4, 32, 32), (4, 4, 5, 5), 4, 400), ((3, 2, 5, 7), (2, 3, 4, 5), (2, 3), 30)],
    )
    def test_bitwise_equal_to_dense_at_the_sites(self, x_shape, k_shape, stride, per_sample):
        """float32, at deconv2's training shape and at a non-square stride
        with c_in != c_out: the dense forward's bits at every site and
        channel, as a compact [sites, c_out] array."""
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal(x_shape).astype(np.float32))
        k = Tensor(rng.standard_normal(k_shape).astype(np.float32))
        dense = ad.conv2d_transpose(x, k, stride).data
        n, co, oh, ow = dense.shape
        sites = _sites(rng, n, oh, ow, per_sample)
        y = ad.conv2d_transpose(x, k, stride, sites=sites).data
        sample, row, col = np.unravel_index(sites, (n, oh, ow))
        assert y.shape == (sites.size, co) and y.dtype == np.float32
        assert y.tobytes() == np.ascontiguousarray(dense[sample, :, row, col]).tobytes()

    @pytest.mark.parametrize("stride", [2, (2, 3)])
    def test_gradcheck(self, stride):
        rng = np.random.default_rng(32)
        x = _t(rng, 2, 2, 3, 4)
        k = _t(rng, 2, 3, 3, 4)
        oh, ow = 3 * (2 if stride == 2 else stride[0]), 4 * (2 if stride == 2 else stride[1])
        sites = _sites(rng, 2, oh, ow, 5)
        weights = rng.standard_normal((sites.size, 3))

        def build():
            tape = Tape()
            y = ad.conv2d_transpose(x, k, stride, tape, sites)
            return tape, _weighted_sum(tape, y, weights)

        check_gradients(build, [x, k])

    def test_float64_gradients_equal_the_dense_path(self):
        """dy nonzero at the sites only: dx and dk match the dense backward
        within 1e-12 of their largest value (the sums run in another order)."""
        rng = np.random.default_rng(33)
        x, k = _t(rng, 4, 3, 8, 8), _t(rng, 3, 2, 5, 5)
        sites = _sites(rng, 4, 32, 32, 60)
        dy = rng.standard_normal((sites.size, 2))
        sample, row, col = np.unravel_index(sites, (4, 32, 32))
        dense_dy = np.zeros((4, 2, 32, 32))
        dense_dy[sample, :, row, col] = dy
        tape = Tape()
        tape.backward(_weighted_sum(tape, ad.conv2d_transpose(x, k, 4, tape, sites), dy))
        sparse_dx, sparse_dk = x.grad, k.grad
        x.grad = k.grad = None
        tape = Tape()
        tape.backward(_weighted_sum(tape, ad.conv2d_transpose(x, k, 4, tape), dense_dy))
        for got, ref in ((sparse_dx, x.grad), (sparse_dk, k.grad)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "sites",
        [
            np.array([[0, 1]]),
            np.array([0.0, 1.0]),
            np.array([True, False]),
            np.array([-1, 3]),
            np.array([0, 2 * 4 * 6]),
            np.array([3, 3]),
            np.array([5, 4]),
        ],
        ids=["2-D", "float", "bool", "negative", "past-the-end", "repeated", "descending"],
    )
    def test_bad_sites(self, sites):
        x = Tensor(np.zeros((2, 1, 2, 3)))
        k = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="sites"):
            ad.conv2d_transpose(x, k, 2, sites=sites)


class TestSiteOps:
    """The ops between conv2d_transpose(sites=...) and the final conv2d on
    the cells' windows."""

    def test_dropout_at_sites_is_the_dense_mask_at_the_sites(self):
        """The dense grid's mask at each site, the same bits, and the
        generator left where the dense draw leaves it."""
        rng = np.random.default_rng(34)
        grid = np.float32(rng.standard_normal((5, 3, 9, 8)))
        sites = _sites(rng, 5, 9, 8, 20)
        sample, row, col = np.unravel_index(sites, (5, 9, 8))
        dense_rng, site_rng = np.random.default_rng(9), np.random.default_rng(9)
        dense = ad.dropout(Tensor(grid), 0.5, True, dense_rng).data
        at = Tensor(np.ascontiguousarray(grid[sample, :, row, col]))
        y = ad.dropout(at, 0.5, True, site_rng, sites=sites, grid=(5, 9, 8)).data
        assert y.tobytes() == np.ascontiguousarray(dense[sample, :, row, col]).tobytes()
        assert site_rng.random() == dense_rng.random()

    def test_dropout_at_sites_gradcheck(self):
        rng = np.random.default_rng(35)
        sites = _sites(rng, 2, 4, 5, 6)
        x = _t(rng, sites.size, 3)

        def build():
            tape = Tape()
            y = ad.dropout(x, 0.4, True, 11, tape, sites=sites, grid=(2, 4, 5))
            return tape, sum_all(y, tape)

        check_gradients(build, [x])

    def test_dropout_at_sites_checks_its_input(self):
        x = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError, match="sites"):
            ad.dropout(x, 0.5, True, 0, sites=np.array([2, 1, 0]), grid=(1, 2, 2))
        with pytest.raises(ValueError, match="expects x"):
            ad.dropout(x, 0.5, True, 0, sites=np.array([0, 1]), grid=(1, 2, 2))

    def test_channel_bias_on_sites_gradcheck(self):
        rng = np.random.default_rng(36)
        x, b = _t(rng, 7, 3), _t(rng, 3)
        y = ad.add_channel_bias(x, b)
        assert np.array_equal(y.data, x.data + b.data)

        def build():
            tape = Tape()
            return tape, _weighted_sum(tape, ad.add_channel_bias(x, b, tape), np.arange(21.0).reshape(7, 3))

        check_gradients(build, [x, b])

    def test_window_sites_reads_the_sites_or_zero(self):
        rng = np.random.default_rng(37)
        x = _t(rng, 4, 2)
        windows = np.array([[[0, 1], [-1, 3]], [[3, 3], [2, -1]]])
        y = ad.window_sites(x, windows).data
        assert y.shape == (2, 2, 2, 2)
        for i, p, q in np.ndindex(2, 2, 2):
            s = windows[i, p, q]
            assert np.array_equal(y[i, :, p, q], x.data[s] if s >= 0 else np.zeros(2))

    def test_window_sites_gradcheck(self):
        """A site read by several window taps sums their gradients."""
        rng = np.random.default_rng(38)
        x = _t(rng, 5, 3)
        windows = rng.integers(-1, 5, (4, 3, 3))
        weights = rng.standard_normal((4, 3, 3, 3))

        def build():
            tape = Tape()
            return tape, _weighted_sum(tape, ad.window_sites(x, windows, tape), weights)

        check_gradients(build, [x])

    @pytest.mark.parametrize("windows", [np.array([[[0, 5]]]), np.array([[[-2, 0]]]), np.array([0, 1])])
    def test_window_sites_checks_its_windows(self, windows):
        with pytest.raises(ValueError, match="window"):
            ad.window_sites(Tensor(np.zeros((5, 2))), windows)

    def test_place_cells(self):
        rng = np.random.default_rng(39)
        x = _t(rng, 3, 1, 1, 1)
        cells = np.array([1, 4, 11])
        y = ad.place_cells(x, cells, (2, 2, 3)).data
        assert y.shape == (2, 2, 3)
        assert np.array_equal(y.reshape(-1)[cells], x.data.reshape(-1))
        assert np.isnan(np.delete(y.reshape(-1), cells)).all()

        def build():
            tape = Tape()
            y = ad.place_cells(x, cells, (2, 2, 3), tape)
            return tape, sparse_masked_loss_op(tape, y, cells, np.array([0.5, -1.0, 2.0]))

        check_gradients(build, [x])

    @pytest.mark.parametrize(
        "cells, values",
        [(np.array([1, 1]), 2), (np.array([0, 12]), 2), (np.array([0, 1]), 3)],
        ids=["repeated", "past-the-end", "count"],
    )
    def test_place_cells_checks_its_cells(self, cells, values):
        with pytest.raises(ValueError, match="cells"):
            ad.place_cells(Tensor(np.zeros((values, 1, 1, 1))), cells, (2, 2, 3))


def test_conv2d_memory_stays_near_input_size():
    """One conv2d forward plus backward at the decoder's final-layer training
    shape allocates a few input-sized arrays, not a kernel-area-sized window
    copy (a 7x7 im2col needs about 49x the input)."""
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((16, 4, 134, 134)).astype(np.float32))
    k = Tensor(rng.standard_normal((1, 4, 7, 7)).astype(np.float32))

    def forward_backward():
        tape = Tape()
        tape.backward(sum_all(ad.conv2d(x, k, tape), tape))

    peak, _ = peak_bytes(forward_backward)
    assert x.grad.shape == x.shape and k.grad.shape == k.shape
    assert peak < 8 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"


class TestPadding:
    def test_periodic_zero_overlap_identity(self):
        x = Tensor(np.ones((1, 1, 2, 4)))
        assert ad.pad_periodic_mlt(x, 0) is x

    def test_periodic_by_definition(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        y = ad.pad_periodic_mlt(x, 1)
        assert np.array_equal(y.data, [[4.0, 1.0, 2.0, 3.0, 4.0, 1.0]])

    def test_periodic_overlap_too_big(self):
        with pytest.raises(ValueError):
            ad.pad_periodic_mlt(Tensor(np.ones((1, 4))), 4)

    def test_periodic_gradcheck_wrapped_accumulation(self):
        rng = np.random.default_rng(13)
        x = _t(rng, 1, 2, 3, 5)
        w = np.cos(np.arange(2 * 3 * 11).reshape(1, 2, 3, 11) * 0.7)

        def build():
            tape = Tape()
            y = ad.pad_periodic_mlt(x, 3, tape)
            return tape, _weighted_sum(tape, y, w)

        check_gradients(build, [x])

    def test_zero_pad_lat(self):
        x = Tensor(np.ones((1, 1, 2, 3)))
        y = ad.pad_zero_lat(x, 2)
        assert y.shape == (1, 1, 6, 3)
        assert np.all(y.data[:, :, :2, :] == 0)
        assert np.all(y.data[:, :, -2:, :] == 0)

    def test_zero_pad_gradcheck(self):
        rng = np.random.default_rng(14)
        x = _t(rng, 1, 1, 3, 4)

        def build():
            tape = Tape()
            y = ad.pad_zero_lat(x, 1, tape)
            return tape, sum_all(ad.relu(y, tape), tape)

        check_gradients(build, [x])

    def test_pad_plus_conv_circular_shift_equivariance(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 2, 6, 8))
        k = Tensor(rng.standard_normal((1, 2, 3, 3)))

        def run(arr):
            padded = ad.pad_periodic_mlt(Tensor(arr), 1)
            return ad.conv2d(padded, k).data

        base = run(x)
        for shift in (1, 3, 5):
            rolled = run(np.roll(x, shift, axis=-1))
            assert np.array_equal(rolled, np.roll(base, shift, axis=-1))


class TestTapeSemantics:
    def test_sum_of_weights_gives_ones(self):
        w = Tensor(np.random.default_rng(16).standard_normal((3, 4)))
        tape = Tape()
        loss = sum_all(w, tape)
        tape.backward(loss)
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_unused_parameter_gets_no_grad(self):
        rng = np.random.default_rng(17)
        w = _t(rng, 3, 3)
        u = _t(rng, 3, 3)
        tape = Tape()
        loss = sum_all(w, tape)
        tape.backward(loss)
        assert u.grad is None

    def test_closure_of_unreached_output_never_runs(self):
        """A recorded branch the loss does not use gets no gradient, and
        backward skips its closure instead of calling it."""

        class CountingTape(Tape):
            def __init__(self):
                super().__init__()
                self.ran = []

            def record(self, out, backward_fn):
                super().record(out, lambda: (self.ran.append(out), backward_fn()))

        rng = np.random.default_rng(20)
        x = _t(rng, 4, 3)
        tape = CountingTape()
        unused = ad.relu(x, tape)
        used = scale(x, 3.0, tape)
        loss = sum_all(used, tape)
        tape.backward(loss)
        assert tape.ran == [loss, used]
        assert unused.grad is None
        assert np.array_equal(x.grad, np.full((4, 3), 3.0))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)))
        tape = Tape()
        y = ad.relu(w, tape)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_detached_loss_rejected(self):
        tape = Tape()
        sum_all(Tensor(np.ones(3)), tape)
        stranger = Tensor(np.array(1.0))
        with pytest.raises(ValueError, match="detached"):
            tape.backward(stranger)

    def test_double_backward_rejected(self):
        w = Tensor(np.ones(3))
        tape = Tape()
        loss = sum_all(w, tape)
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            tape.backward(loss)

    def test_gradient_accumulation_is_linear(self):
        rng = np.random.default_rng(18)
        data = rng.standard_normal((4, 3))
        alpha, beta = 0.7, -1.3

        def grads_of(fn):
            w = Tensor(data.copy())
            tape = Tape()
            loss = fn(tape, w)
            tape.backward(loss)
            return w.grad

        g1 = grads_of(lambda tape, w: sum_all(ad.relu(w, tape), tape))
        g2 = grads_of(lambda tape, w: scale(sum_all(w, tape), 2.0, tape))
        combined = grads_of(
            lambda tape, w: add(
                scale(sum_all(ad.relu(w, tape), tape), alpha, tape),
                scale(scale(sum_all(w, tape), 2.0, tape), beta, tape),
                tape,
            )
        )
        assert np.allclose(combined, alpha * g1 + beta * g2, atol=1e-14)

    def test_reuse_accumulates_once_per_use(self):
        w = Tensor(np.arange(3.0))
        tape = Tape()
        y = ad.relu(w, tape)
        loss = add(sum_all(y, tape), sum_all(y, tape), tape)
        tape.backward(loss)
        assert np.array_equal(w.grad, 2.0 * (w.data > 0))

    def test_forward_determinism(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((4, 6)))
        w = Tensor(rng.standard_normal((6, 5)))
        b = Tensor(rng.standard_normal(5))
        a = ad.dense(x, w, b).data
        for _ in range(3):
            assert np.array_equal(ad.dense(x, w, b).data, a)

    def test_mixed_dtypes_rejected(self):
        x = Tensor(np.zeros((2, 2), dtype=np.float32))
        w = Tensor(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(ValueError, match="dtype"):
            ad.dense(x, w, Tensor(np.zeros(2, dtype=np.float64)))


_DROPOUT_SITES = _sites(np.random.default_rng(49), 2, 4, 5, 6)
_DECONV_SITES = _sites(np.random.default_rng(50), 2, 8, 8, 10)

# Every op that records on a tape: its inputs' shapes, and the op on
# float32 inputs of those shapes.
_OPS = {
    "dense": ([(5, 4), (4, 3), (3,)], lambda tape, x, w, b: ad.dense(x, w, b, tape)),
    "relu": ([(4, 5)], lambda tape, x: ad.relu(x, tape)),
    "dropout": ([(6, 5)], lambda tape, x: ad.dropout(x, 0.5, True, 1, tape)),
    "dropout_sites": (
        [(_DROPOUT_SITES.size, 3)],
        lambda tape, x: ad.dropout(x, 0.5, True, 1, tape, _DROPOUT_SITES, (2, 4, 5)),
    ),
    "softmax": ([(4, 3)], lambda tape, x: ad.softmax(x, tape)),
    "reshape": ([(3, 4)], lambda tape, x: ad.reshape(x, (2, 6), tape)),
    "add_channel_bias_2d": ([(7, 3), (3,)], lambda tape, x, b: ad.add_channel_bias(x, b, tape)),
    "add_channel_bias_4d": ([(2, 3, 4, 5), (3,)], lambda tape, x, b: ad.add_channel_bias(x, b, tape)),
    "pad_periodic_mlt": ([(2, 3, 4, 5)], lambda tape, x: ad.pad_periodic_mlt(x, 2, tape)),
    "pad_zero_lat": ([(2, 3, 4, 5)], lambda tape, x: ad.pad_zero_lat(x, 1, tape)),
    "conv2d": ([(2, 3, 6, 6), (2, 3, 3, 3)], lambda tape, x, k: ad.conv2d(x, k, tape)),
    "conv2d_transpose": ([(2, 3, 4, 4), (3, 2, 4, 4)], lambda tape, x, k: ad.conv2d_transpose(x, k, 2, tape)),
    "conv2d_transpose_sites": (
        [(2, 3, 4, 4), (3, 2, 4, 4)],
        lambda tape, x, k: ad.conv2d_transpose(x, k, 2, tape, _DECONV_SITES),
    ),
    "window_sites": (
        [(4, 2)],
        lambda tape, x: ad.window_sites(x, np.array([[[0, 1], [-1, 3]], [[3, 3], [2, -1]]]), tape),
    ),
    "place_cells": ([(5,)], lambda tape, x: ad.place_cells(x, np.array([0, 3, 7, 12, 23]), (2, 3, 4), tape)),
    "mse_loss": ([(6, 1)], lambda tape, p: L.mse_op(tape, p, np.linspace(-1, 1, 6))),
    "tail_loss": ([(6, 1)], lambda tape, p: L.tail_loss_op(tape, p, np.linspace(11.5, 13.5, 6))),
    "dist_loss": ([(6, 1)], lambda tape, p: L.dist_loss_op(tape, p, np.linspace(-1, 1, 6), np.linspace(0.5, 2, 6))),
    "multitask_loss": (
        [(5, 3), (5, 3)],
        lambda tape, flux, logits: L.multitask_loss_op(tape, flux, logits, np.zeros(5), np.array([0, 1, 2, 1, 0])),
    ),
    "sparse_masked_loss": (
        [(2, 3, 4)],
        lambda tape, p: sparse_masked_loss_op(tape, p, np.array([1, 4, 9]), np.array([0.5, -1.0, 2.0])),
    ),
}


class TestGradientOwnership:
    """Every backward closure hands _accumulate an array it made itself, so
    after backward no two tensors share a gradient buffer."""

    @pytest.mark.parametrize("op", sorted(_OPS))
    def test_no_two_tensors_share_a_gradient(self, op):
        shapes, fn = _OPS[op]
        rng = np.random.default_rng(51)
        inputs = [Tensor(rng.standard_normal(shape).astype(np.float32)) for shape in shapes]
        tape = Tape()
        out = fn(tape, *inputs)
        loss = out if out.data.size == 1 else _weighted_sum(tape, out, rng.standard_normal(out.shape))
        tape.backward(loss)
        grads = [t.grad for t in (out, *inputs)]
        assert all(g is not None for g in grads)
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1 :])


class TestTapeRelease:
    """Backward pops each record as it replays it: an output only the tape
    referenced, its gradient and its closure's captures are freed as soon as
    the walk has passed them, and the gradients are the same bits."""

    def test_intermediates_only_the_tape_held_are_freed(self):
        rng = np.random.default_rng(43)
        x, w, b = _t(rng, 8, 5), _t(rng, 5, 5), _t(rng, 5)
        tape = Tape()
        y = ad.dense(x, w, b, tape)
        h = ad.relu(y, tape)
        loss = sum_all(scale(h, 2.0, tape), tape)
        freed = [weakref.ref(y.data), weakref.ref(h.data)]
        del y, h
        tape.backward(loss)
        assert all(ref() is None for ref in freed)
        assert loss.grad == 1.0
        assert all(t.grad is not None and t.grad.shape == t.shape for t in (x, w, b))

    @staticmethod
    def _conv_graph(tape):
        arch = M.ConvDecoderArch(input_width=6, trunk=(8,), n_lat=16, n_mlt=16)
        params = M.build_model(arch, seed=1).params
        rng = np.random.default_rng(44)
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        pred = M.forward_convdecoder(arch, params, x, tape, True, np.random.default_rng(45))
        mask = rng.random(pred.shape) < 0.05
        target = rng.standard_normal(pred.shape)
        loss = sparse_masked_loss_op(tape, pred, np.flatnonzero(mask), target[mask])
        return loss, [x, *params.values()]

    @staticmethod
    def _multitask_graph(tape):
        arch = M.MultiTaskArch(input_width=6, trunk=(16, 8))
        params = M.build_model(arch, seed=2).params
        rng = np.random.default_rng(46)
        x = Tensor(rng.standard_normal((40, 6)).astype(np.float32))
        logits, flux, _ = M.forward_multitask(arch, params, x, tape, True, np.random.default_rng(47))
        region = rng.integers(0, 3, 40)
        return L.multitask_loss_op(tape, flux, logits, rng.standard_normal(40), region), [x, *params.values()]

    @staticmethod
    def _reuse_graph(tape):
        x = Tensor(np.array([[0.0, -0.0, 1e-40, -1e-40], [1.5, -2.5, 3.0, 0.25]], dtype=np.float32))
        w = Tensor(np.linspace(-1, 1, 16, dtype=np.float32).reshape(4, 4))
        b = Tensor(np.array([0.0, -0.0, 0.5, -0.5], dtype=np.float32))
        h = ad.relu(ad.dense(x, w, b, tape), tape)
        twice = add(scale(h, 3.0, tape), ad.relu(x, tape), tape)
        return add(sum_all(twice, tape), sum_all(h, tape), tape), [x, w, b]

    @pytest.mark.parametrize("graph", ["_conv_graph", "_multitask_graph", "_reuse_graph"])
    def test_gradients_bitwise_equal_to_a_replay_that_keeps_records(self, graph, monkeypatch):
        build = getattr(self, graph)
        tape = Tape()
        loss, leaves = build(tape)
        tape.backward(loss)
        monkeypatch.setattr(ad, "_accumulate", accumulate_zero_filled)
        monkeypatch.setattr(L, "_accumulate", accumulate_zero_filled)
        kept = Tape()
        kept_loss, kept_leaves = build(kept)
        backward_keeping_records(kept, kept_loss)
        assert loss.data.tobytes() == kept_loss.data.tobytes()
        for leaf, ref in zip(leaves, kept_leaves):
            assert leaf.grad.dtype == ref.grad.dtype == np.float32
            assert leaf.grad.tobytes() == ref.grad.tobytes()
        left, kept_left = len(tape._records), len(kept._records)
        assert left == 0 and kept_left > 0

    def test_dense_relu_chain_peaks_at_activations_plus_a_few_arrays(self):
        """Six dense+ReLU layers hold twelve [n, d] activations when backward
        starts. From there each record's output and gradient go as the walk
        passes them, so the peak stays within four more [n, d] arrays: at
        most three are in flight (the output's gradient, the product and the
        input's new gradient). Keeping the records kept all twelve
        activation gradients on top."""
        rng = np.random.default_rng(48)
        n, d, depth = 4096, 64, 6
        x = Tensor(rng.standard_normal((n, d)).astype(np.float32))
        layers = [
            (Tensor(rng.standard_normal((d, d)).astype(np.float32) / 8), Tensor(np.zeros(d, np.float32)))
            for _ in range(depth)
        ]

        def forward(tape):
            h = x
            for w, b in layers:
                h = ad.relu(ad.dense(h, w, b, tape), tape)
            return sum_all(h, tape)

        def forward_backward():
            tape = Tape()
            tape.backward(forward(tape))

        peak, _ = peak_bytes(forward_backward)
        widest = x.data.nbytes
        assert x.grad.shape == x.shape
        assert peak < (2 * depth + 4) * widest, f"peak {peak / widest:.2f} [n, d] arrays"
