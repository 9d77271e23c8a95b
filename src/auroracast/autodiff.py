"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray; each operation computes its forward value and,
when given a Tape, appends a backward closure for its output. Tape.backward
replays the closures in exact reverse execution order, accumulating
gradients into every tensor on the path from parameters to the loss, and
skips the closure of an output no gradient reached (its .grad is None).
The operation set is deliberately small: exactly what the bundled
architectures need.

Training runs in float32; tests build float64 graphs so central finite
differences resolve gradients to ~1e-10. Inputs to an op must share one
float dtype; outputs keep it. Calling an op without a tape is inference:
same forward value, nothing recorded.

The convolutions (conv2d, conv2d_transpose) loop over kernel taps: each
tap contracts the channels of one shifted or strided slice with that
tap's [c_out, c_in] matrix and accumulates into the output, forward and
backward. Memory stays at a few output-sized arrays, with no im2col
window copy that grows with the kernel area.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Tensor:
    """An ndarray with an optional gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        if arr.ndim > 4:
            raise ValueError(f"tensors are at most 4-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Tape:
    """Ordered record of executed operations for one forward pass.

    A tape is single-use: backward() consumes it. Independent tapes may
    run concurrently; a tape itself is single-threaded.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[], None]]] = []
        self._spent = False

    def record(self, out: Tensor, backward_fn: Callable[[], None]):
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor):
        """Populate .grad on every tensor the scalar loss depends on."""
        if self._spent:
            raise RuntimeError("tape already consumed; re-run the forward pass")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if not any(out is loss for out, _ in reversed(self._records)):
            raise ValueError("loss is not an output of this tape (detached graph)")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._records):
            if out.grad is not None:
                fn()


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _check_dtypes(*tensors: Tensor):
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ValueError(f"mixed tensor dtypes: {sorted(map(str, dtypes))}")


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ── Dense / elementwise ───────────────────────────────────────────────

def dense(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """y = x @ w + b for x [n, d_in], w [d_in, d_out], b [d_out]."""
    _check_dtypes(x, w, b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError("dense expects x [n,di], w [di,do], b [do]")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"dense shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    out = Tensor(x.data @ w.data + b.data)

    if tape is not None:
        def backward():
            dy = out.grad
            _accumulate(w, x.data.T @ dy)
            _accumulate(b, dy.sum(axis=0))
            _accumulate(x, dy @ w.data.T)

        tape.record(out, backward)
    return out


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """max(0, x); subgradient at 0 is 0."""
    out = Tensor(np.maximum(x.data, 0))

    if tape is not None:
        gate = x.data > 0

        def backward():
            _accumulate(x, out.grad * gate)

        tape.record(out, backward)
    return out


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: np.random.Generator | int | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode requires an rng or seed")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    scale = 1.0 / (1.0 - rate)
    out = Tensor(x.data * keep * scale)

    if tape is not None:
        def backward():
            _accumulate(x, out.grad * keep * scale)

        tape.record(out, backward)
    return out


def softmax(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Row softmax of logits [n, k], max-subtracted for stability."""
    if x.data.ndim != 2 or x.shape[1] < 2:
        raise ValueError("softmax expects [n, k] with k >= 2")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    if tape is not None:
        def backward():
            dy = out.grad
            inner = (dy * p).sum(axis=1, keepdims=True)
            _accumulate(x, p * (dy - inner))

        tape.record(out, backward)
    return out


def reshape(x: Tensor, shape, tape: Tape | None = None) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    if tape is not None:
        def backward():
            _accumulate(x, out.grad.reshape(x.shape))

        tape.record(out, backward)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    if tape is not None:
        def backward():
            _accumulate(a, out.grad)
            _accumulate(b, out.grad)

        tape.record(out, backward)
    return out


def scale(x: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    out = Tensor(x.data * c)

    if tape is not None:
        def backward():
            _accumulate(x, out.grad * c)

        tape.record(out, backward)
    return out


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.array(x.data.sum(), dtype=x.data.dtype))

    if tape is not None:
        def backward():
            _accumulate(x, np.broadcast_to(out.grad, x.shape).astype(x.data.dtype))

        tape.record(out, backward)
    return out


def add_channel_bias(x: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """x [n, c, h, w] plus a per-channel bias b [c]."""
    _check_dtypes(x, b)
    if x.data.ndim != 4 or b.data.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ValueError("add_channel_bias expects x [n,c,h,w], b [c]")
    out = Tensor(x.data + b.data[None, :, None, None])

    if tape is not None:
        def backward():
            _accumulate(b, out.grad.sum(axis=(0, 2, 3)))
            _accumulate(x, out.grad)

        tape.record(out, backward)
    return out


# ── Padding ───────────────────────────────────────────────────────────

def pad_periodic_mlt(x: Tensor, overlap: int, tape: Tape | None = None) -> Tensor:
    """Wrap the width (MLT) axis only: copy the last columns to the left
    edge and the first columns to the right edge."""
    w = x.shape[-1]
    if overlap >= w:
        raise ValueError(f"overlap {overlap} must be smaller than width {w}")
    if overlap < 0:
        raise ValueError("overlap must be non-negative")
    if overlap == 0:
        return x
    out = Tensor(np.concatenate([x.data[..., -overlap:], x.data, x.data[..., :overlap]], axis=-1))

    if tape is not None:
        def backward():
            dy = out.grad
            dx = dy[..., overlap : overlap + w].copy()
            dx[..., :overlap] += dy[..., w + overlap :]
            dx[..., -overlap:] += dy[..., :overlap]
            _accumulate(x, dx)

        tape.record(out, backward)
    return out


def pad_zero_lat(x: Tensor, pad: int, tape: Tape | None = None) -> Tensor:
    """Zero-pad the height (latitude) axis of x [n, c, h, w] on both sides."""
    if pad < 0:
        raise ValueError("pad must be non-negative")
    if pad == 0:
        return x
    if x.data.ndim != 4:
        raise ValueError("pad_zero_lat expects a 4-D tensor")
    out = Tensor(np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (0, 0))))

    if tape is not None:
        def backward():
            _accumulate(x, out.grad[:, :, pad:-pad, :])

        tape.record(out, backward)
    return out


# ── Convolutions ──────────────────────────────────────────────────────

def _row_taps(w: int, kh: int, kw: int, span: int):
    """(p, q, run) per kernel tap: the slice of a row-major flattened
    [.., h*w] input that tap (p, q) reads for a valid correlation."""
    return [(p, q, slice(p * w + q, p * w + q + span)) for p in range(kh) for q in range(kw)]


def _corr2d(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of a [n, c_in, h, w] with k [c_out, c_in, kh, kw].

    The spatial axes are flattened row-major, so tap (p, q) reads the
    contiguous run of `span` elements starting at p*w + q (`_row_taps`) and
    contracts its channels with k[:, :, p, q]. Each output row is
    computed at the full input width w; the last kw-1 columns of a row mix in
    the start of the next input row and are cropped at the end. Samples run
    one at a time, so a sample's rows and its output stay in cache across
    all the taps. The contraction is an einsum rather than a BLAS product:
    it sums every output element in the same order wherever the element
    lies, so the correlation commutes exactly with circular shifts of a
    periodically padded input.
    """
    n, ci, h, w = a.shape
    co, _, kh, kw = k.shape
    oh, ow = h - kh + 1, w - kw + 1
    span = (oh - 1) * w + ow
    flat = a.reshape(n, ci, h * w)
    taps = _row_taps(w, kh, kw, span)
    y = np.zeros((n, co, oh * w), dtype=a.dtype)
    tap = np.empty((co, span), dtype=a.dtype)
    for i in range(n):
        for p, q, run in taps:
            np.einsum("oc,cl->ol", k[:, :, p, q], flat[i, :, run], out=tap)
            y[i, :, :span] += tap
    return np.ascontiguousarray(y.reshape(n, co, oh, w)[:, :, :, :ow])


def conv2d(x: Tensor, k: Tensor, tape: Tape | None = None) -> Tensor:
    """Valid cross-correlation; x [n, c_in, h, w], k [c_out, c_in, kh, kw].

    Forward is `_corr2d`. Backward runs the adjoint of the same per-sample
    tap loop: dy is laid out on the forward's full-width flattened rows
    (zero in the cropped columns), and per tap it is contracted with that
    tap's slice of x to give dk[:, :, p, q] and scatter-added through
    k[:, :, p, q] into the same slice of dx.
    """
    _check_dtypes(x, k)
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    n, ci, h, w = x.shape
    co, ci2, kh, kw = k.shape
    if ci != ci2:
        raise ValueError(f"conv2d channel mismatch: {ci} vs {ci2}")
    if kh > h or kw > w:
        raise ValueError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    out = Tensor(_corr2d(x.data, k.data))

    if tape is not None:
        def backward():
            oh, ow = out.shape[2:]
            span = (oh - 1) * w + ow
            dy_rows = np.zeros((n, co, oh, w), dtype=x.data.dtype)
            dy_rows[:, :, :, :ow] = out.grad
            dy = dy_rows.reshape(n, co, oh * w)[:, :, :span]
            x_flat = x.data.reshape(n, ci, h * w)
            taps = _row_taps(w, kh, kw, span)
            dx = np.zeros_like(x_flat)
            dk = np.zeros_like(k.data)
            tap = np.empty((ci, span), dtype=x.data.dtype)
            for i in range(n):
                for p, q, run in taps:
                    dk[:, :, p, q] += dy[i] @ x_flat[i, :, run].T
                    np.einsum("oc,ol->cl", k.data[:, :, p, q], dy[i], out=tap)
                    dx[i, :, run] += tap
            _accumulate(k, dk)
            _accumulate(x, dx.reshape(x.shape))

        tape.record(out, backward)
    return out


def conv2d_transpose(x: Tensor, k: Tensor, stride, tape: Tape | None = None) -> Tensor:
    """Fractionally-strided convolution with exact stride-multiple output.

    x [n, c_in, h, w], k [c_in, c_out, kh, kw], output [n, c_out, h*s, w*s].
    Requires kernel >= stride per axis; the full scatter output is cropped
    by (k - s) // 2 leading rows/columns, matching the usual 'same' sizing.

    Tap (a, b) of the kernel lands on the strided slice of the full output
    that starts at (a, b) with step (sh, sw). Forward scatter-adds x,
    contracted with that tap's channel matrix, into the slice; backward
    gathers the same slice of the padded output gradient.
    """
    _check_dtypes(x, k)
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ValueError("conv2d_transpose expects 4-D input and kernel")
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    if sh < 1 or sw < 1:
        raise ValueError("stride must be >= 1")
    n, ci, h, w = x.shape
    ci2, co, kh, kw = k.shape
    if ci != ci2:
        raise ValueError(f"conv2d_transpose channel mismatch: {ci} vs {ci2}")
    if kh < sh or kw < sw:
        raise ValueError("kernel must be at least as large as stride")
    full_h = (h - 1) * sh + kh
    full_w = (w - 1) * sw + kw
    out_h, out_w = h * sh, w * sw
    top = (kh - sh) // 2
    left = (kw - sw) // 2
    taps = [
        (a, b, (..., slice(a, a + (h - 1) * sh + 1, sh), slice(b, b + (w - 1) * sw + 1, sw)))
        for a in range(kh)
        for b in range(kw)
    ]

    x_flat = x.data.reshape(n, ci, h * w)

    full = np.zeros((n, co, full_h, full_w), dtype=x.data.dtype)
    for a, b, region in taps:
        full[region] += np.matmul(k.data[:, :, a, b].T, x_flat).reshape(n, co, h, w)
    out = Tensor(full[:, :, top : top + out_h, left : left + out_w])

    if tape is not None:
        def backward():
            dfull = np.zeros((n, co, full_h, full_w), dtype=x.data.dtype)
            dfull[:, :, top : top + out_h, left : left + out_w] = out.grad
            dx = np.zeros_like(x_flat)
            dk = np.empty_like(k.data)
            for a, b, region in taps:
                g = dfull[region].reshape(n, co, h * w)
                dx += np.matmul(k.data[:, :, a, b], g)
                dk[:, :, a, b] = np.matmul(x_flat, g.transpose(0, 2, 1)).sum(axis=0)
            _accumulate(x, dx.reshape(x.shape))
            _accumulate(k, dk)

        tape.record(out, backward)
    return out
