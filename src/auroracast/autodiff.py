"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray; each operation computes its forward value and,
when given a Tape, appends a backward closure for its output. Tape.backward
replays the closures in exact reverse execution order, accumulating
gradients into every tensor on the path from parameters to the loss, and
skips the closure of an output no gradient reached (its .grad is None).
It consumes the tape record by record: once a record is replayed, the
tape drops it, so an output that only the tape referenced, its gradient
and the arrays its closure captured are freed there and then. A training
step therefore holds each activation and gradient only while a later
closure still reads it, and nothing of the step outlives its backward
except what the caller holds (parameters, the loss). The operation set is
deliberately small: exactly what the bundled architectures need.

Training runs in float32; tests build float64 graphs so central finite
differences resolve gradients to ~1e-10. Inputs to an op must share one
float dtype; outputs keep it. Calling an op without a tape is inference:
same forward value, nothing recorded.

The convolutions (conv2d, conv2d_transpose) loop over kernel taps: each
tap contracts the channels of one shifted or strided slice with that
tap's [c_out, c_in] matrix and accumulates into the output, forward and
backward. Memory stays at a few output-sized arrays, with no im2col
window copy that grows with the kernel area. conv2d's backward gathers
both dk and dx from the output cells whose gradient is nonzero only, and
its forward can be asked for a list of output cells only, so under a
sparse target a training step's final conv costs the observed cells
times the kernel area, not the grid times the kernel area.
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

    A tape is single-use: backward() consumes it, popping each record as it
    replays it, and leaves the tape empty. Independent tapes may run
    concurrently; a tape itself is single-threaded.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[], None]]] = []
        self._spent = False

    def record(self, out: Tensor, backward_fn: Callable[[], None]):
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor):
        """Populate .grad on every tensor the scalar loss depends on.

        Records are popped last first. A popped record's closure and its
        captured arrays are freed after it runs, and so is its output, with
        its .grad, unless the caller still holds it: every tensor the
        caller keeps (parameters, leaves, the loss) keeps its .grad.
        """
        if self._spent:
            raise RuntimeError("tape already consumed; re-run the forward pass")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if not any(out is loss for out, _ in reversed(self._records)):
            raise ValueError("loss is not an output of this tape (detached graph)")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        while self._records:
            out, fn = self._records.pop()
            if out.grad is not None:
                fn()


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        # g + 0 is 0 + g bit for bit (-0 becomes +0), cast into t's dtype
        t.grad = np.add(g, 0, out=np.empty_like(t.data))
    else:
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
    """y = x @ w + b for x [n, d_in], w [d_in, d_out], b [d_out]; b is
    added in place, the same add without an [n, d_out] temporary."""
    _check_dtypes(x, w, b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError("dense expects x [n,di], w [di,do], b [do]")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"dense shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)

    if tape is not None:
        def backward():
            dy = out.grad
            _accumulate(w, x.data.T @ dy)
            _accumulate(b, dy.sum(axis=0))
            _accumulate(x, dy @ w.data.T)

        tape.record(out, backward)
    return out


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """max(0, x); subgradient at 0 is 0.

    The backward gates on the output, out > 0, which equals x > 0 for every
    input, NaN included, so no separate boolean gate stays on the tape.
    """
    out = Tensor(np.maximum(x.data, 0))

    if tape is not None:
        def backward():
            _accumulate(x, out.grad * (out.data > 0))

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
    # keep is 0 or 1, so x * mask is bitwise x * keep * (1 / (1 - rate))
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) * (1.0 / (1.0 - rate))
    out = Tensor(x.data * mask)

    if tape is not None:
        def backward():
            _accumulate(x, out.grad * mask)

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


def conv2d(x: Tensor, k: Tensor, tape: Tape | None = None, cells=None) -> Tensor:
    """Valid cross-correlation; x [n, c_in, h, w], k [c_out, c_in, kh, kw].

    Without ``cells`` the forward is `_corr2d`. ``cells`` lists flat output
    positions in [n, oh, ow] (a 1-D integer array, each in [0, n*oh*ow));
    the forward then evaluates only those cells, for every output channel,
    and fills every other output cell with NaN, so nothing can mistake it
    for a prediction. Each listed cell sums the same einsum products in
    the same tap order as `_corr2d`, so its value is bit-equal to the dense
    forward's.

    Backward runs the adjoint of the same tap loop at the (sample, cell)
    positions where some channel of dy is nonzero, whether or not
    ``cells`` was given. Per tap in tap order, it gathers that tap's
    slice of x at those cells:
    - dk[:, :, p, q] is g.T @ x gathered, g being dy at the cells.
    - dx: g is scattered through k[:, :, p, q] into dx at the cell +
      the tap's offset. Within one tap those targets are distinct, so a
      buffered += is exact, and each dx element sums the same einsum
      products in the same order as a scatter over every cell; the
      skipped terms are zeros, which never change a sum.
    The cost is the nonzero cells times the kernel area: under
    `sparse_masked_loss_op` that is the observed cells only.
    One edge differs from a dense backward: a zero dy cell no longer
    spreads 0 * inf = NaN from a non-finite kernel into dx, or from a
    non-finite input into dk. Training stops on a non-finite loss before
    any backward runs, so no CLI path reaches it.
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
    oh, ow = h - kh + 1, w - kw + 1
    x_flat = x.data.reshape(n, ci, h * w)
    taps = _row_taps(w, kh, kw, (oh - 1) * w + ow)
    if cells is None:
        out = Tensor(_corr2d(x.data, k.data))
    else:
        cells = np.asarray(cells)
        if cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer):
            raise ValueError("conv2d cells must be a 1-D integer array")
        if cells.size and (cells.min() < 0 or cells.max() >= n * oh * ow):
            raise ValueError(f"conv2d cells must lie in [0, {n * oh * ow})")
        sample, row, col = np.unravel_index(cells, (n, oh, ow))
        position = row * w + col
        y = np.zeros((cells.size, co), dtype=x.data.dtype)
        for p, q, run in taps:
            y += np.einsum("oc,mc->mo", k.data[:, :, p, q], x_flat[sample, :, position + run.start])
        grid = np.full((n, co, oh, ow), np.nan, dtype=x.data.dtype)
        grid[sample, :, row, col] = y
        out = Tensor(grid)

    if tape is not None:
        def backward():
            sample, row, col = np.nonzero(np.any(out.grad != 0, axis=1))
            g = out.grad[sample, :, row, col]
            position = row * w + col
            dk = np.empty_like(k.data)
            dx = np.zeros_like(x_flat)
            for p, q, run in taps:
                at = position + run.start
                dk[:, :, p, q] = g.T @ x_flat[sample, :, at]
                dx[sample, :, at] += np.einsum("mo,oc->mc", g, k.data[:, :, p, q])
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
