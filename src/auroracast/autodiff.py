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

A backward closure hands _accumulate only arrays it made itself, never a
view (reshape, add_channel_bias and pad_zero_lat copy theirs): a first
gradient becomes the tensor's .grad as it is, so no two share a buffer.

Training runs in float32; tests build float64 graphs so central finite
differences resolve gradients to ~1e-10. Inputs to an op must share one
float dtype; outputs keep it. Calling an op without a tape is inference:
same forward value, nothing recorded.

The convolutions (conv2d, conv2d_transpose) loop over kernel taps: each
tap contracts the channels of one shifted or strided slice with that
tap's [c_out, c_in] matrix and accumulates into the output, forward and
backward. Memory stays at a few output-sized arrays, with no im2col
window copy that grows with the kernel area.

A layer under the final conv can run at a list of sites, the outputs
that some cells' windows read. Sites and cells are strictly ascending
flat positions (unravel_cells), so an unsorted or repeated list is a
ValueError. conv2d_transpose(..., sites) returns them as a compact
[sites, c] array, add_channel_bias, relu and dropout (with ``sites``)
act on it, window_sites lays each cell's window out from it (the pads
are window taps that wrap or read zero), conv2d correlates the
[cells, c, kh, kw] windows to one output each, and place_cells puts
those values into NaN grids where a loss reads grids. Each value at a
site sums the same products in the same order as the dense op, so it
is the same bits. Without sites every op runs on whole grids.
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
        caller keeps (parameters, leaves, the loss) keeps its own .grad.
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
    """t.grad += g, where a first g becomes t.grad itself, cast only if its dtype differs."""
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
        t.grad += g


def _check_dtypes(*tensors: Tensor):
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ValueError(f"mixed tensor dtypes: {sorted(map(str, dtypes))}")


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def unravel_cells(cells, shape, what: str):
    """(sample, row, col) of flat positions ``cells`` in a stacked
    [n, h, w] ``shape``: a 1-D integer array, each in [0, n*h*w), strictly
    ascending. A ValueError names ``what`` otherwise."""
    cells = np.asarray(cells)
    if cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer):
        raise ValueError(f"{what} must be a 1-D integer array")
    size = int(np.prod(shape))
    if cells.size and (cells.min() < 0 or cells.max() >= size):
        raise ValueError(f"{what} must lie in [0, {size})")
    if np.any(np.diff(cells) <= 0):
        raise ValueError(f"{what} must ascend")
    return np.unravel_index(cells, shape)


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
    sites=None,
    grid=None,
) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate).

    With ``sites``, x [len(sites), c] holds the values of an [n, c, h, w]
    grid at ascending flat positions ``sites`` in ``grid`` = (n, h, w), as
    ``conv2d_transpose(..., sites)`` returns them. The mask is drawn over
    the whole [n, c, h, w] grid, one sample at a time, so the generator
    advances as for the dense grid and each site keeps the draw the dense
    grid gives it; only the sites are multiplied.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode requires an rng or seed")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    if sites is None:
        draw = rng.random(x.shape)
    else:
        n, h, w = grid
        sample, row, col = unravel_cells(sites, grid, "dropout sites")
        if x.data.ndim != 2 or x.shape[0] != sample.size:
            raise ValueError(f"dropout at {sample.size} sites expects x [{sample.size}, c], got {x.shape}")
        draw = np.empty(x.shape)
        one = np.empty((x.shape[1], h, w))
        bounds = np.searchsorted(sample, np.arange(n + 1))
        for i in range(n):
            rng.random(out=one)
            at = slice(bounds[i], bounds[i + 1])
            draw[at] = one[:, row[at], col[at]].T
    # keep is 0 or 1, so x * mask is bitwise x * keep * (1 / (1 - rate))
    mask = (draw >= rate).astype(x.data.dtype) * (1.0 / (1.0 - rate))
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
            _accumulate(x, out.grad.reshape(x.shape).copy())

        tape.record(out, backward)
    return out


def add_channel_bias(x: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """x [n, c, h, w], or the [sites, c] values of such grids, plus a
    per-channel bias b [c]."""
    _check_dtypes(x, b)
    if x.data.ndim not in (2, 4) or b.data.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ValueError("add_channel_bias expects x [n,c,h,w] or [sites,c], b [c]")
    other_axes = (0, *range(2, x.data.ndim))
    out = Tensor(x.data + np.expand_dims(b.data, other_axes))

    if tape is not None:
        def backward():
            _accumulate(b, out.grad.sum(axis=other_axes))
            _accumulate(x, out.grad.copy())

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
            _accumulate(x, out.grad[:, :, pad:-pad, :].copy())

        tape.record(out, backward)
    return out


# ── Convolutions ──────────────────────────────────────────────────────

def conv2d(x: Tensor, k: Tensor, tape: Tape | None = None) -> Tensor:
    """Valid cross-correlation; x [n, c_in, h, w], k [c_out, c_in, kh, kw].

    The spatial axes are flattened row-major, so tap (p, q) reads the
    contiguous run of `span` elements starting at p*w + q and contracts its
    channels with k[:, :, p, q], for every sample at once. Each output row
    is computed at the full input width w; the last kw-1 columns of a row
    mix in the start of the next input row and are cropped at the end. The
    contraction is an einsum rather than a BLAS product: it sums every
    output element in the same order wherever the element lies, so the
    correlation commutes exactly with circular shifts of a periodically
    padded input.

    Backward is the adjoint of the same tap loop, on dy padded to full row
    width. Per tap, dk[:, :, p, q] is G @ X, with G the transposed
    [rows, c_out] gradient and X the tap's [rows, c_in] slice, both
    C-contiguous, rows running over sample x output position; dx adds the
    einsum of dy with k[:, :, p, q] at the tap's run.
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
    span = (oh - 1) * w + ow
    x_flat = x.data.reshape(n, ci, h * w)
    taps = [(p, q, slice(p * w + q, p * w + q + span)) for p in range(kh) for q in range(kw)]
    y = np.zeros((n, co, oh * w), dtype=x.data.dtype)
    tap = np.empty((n, co, span), dtype=x.data.dtype)
    for p, q, run in taps:
        np.einsum("oc,ncl->nol", k.data[:, :, p, q], x_flat[:, :, run], out=tap)
        y[:, :, :span] += tap
    out = Tensor(np.ascontiguousarray(y.reshape(n, co, oh, w)[:, :, :, :ow]))

    if tape is not None:
        def backward():
            dy = np.zeros((n, co, oh, w), dtype=x.data.dtype)
            dy[:, :, :, :ow] = out.grad
            dy = dy.reshape(n, co, oh * w)[:, :, :span]
            g = np.ascontiguousarray(dy.transpose(0, 2, 1)).reshape(-1, co).T
            dk = np.empty_like(k.data)
            dx = np.zeros_like(x_flat)
            for p, q, run in taps:
                rows = np.ascontiguousarray(x_flat[:, :, run].transpose(0, 2, 1)).reshape(-1, ci)
                dk[:, :, p, q] = g @ rows
                dx[:, :, run] += np.einsum("oc,nol->ncl", k.data[:, :, p, q], dy)
            _accumulate(k, dk)
            _accumulate(x, dx.reshape(x.shape))

        tape.record(out, backward)
    return out


def conv2d_transpose(x: Tensor, k: Tensor, stride, tape: Tape | None = None, sites=None) -> Tensor:
    """Fractionally-strided convolution with exact stride-multiple output.

    x [n, c_in, h, w], k [c_in, c_out, kh, kw], output [n, c_out, h*s, w*s].
    Requires kernel >= stride per axis; the full scatter output is cropped
    by (k - s) // 2 leading rows/columns, matching the usual 'same' sizing.

    Tap (a, b) of the kernel lands on the strided slice of the full output
    that starts at (a, b) with step (sh, sw). Forward scatter-adds x,
    contracted with that tap's channel matrix, into the slice; backward
    gathers the same slice of the padded output gradient.

    ``sites`` lists strictly ascending flat output positions in
    [n, h*s, w*s] (``unravel_cells``). The output is then only those
    sites' values, compact as [len(sites), c_out]: per tap, in tap order,
    the sites that tap lands on gather the input cell it reads, and add
    that tap's channel matrix times it, in the dense forward's matmul
    orientation. The taps are planned per axis: one bool mask per kernel
    row and one per kernel column, each as long as the site list. A tap's
    sites are its row mask's sites that its column mask keeps, and its
    input cells are computed there only, so no [taps, sites] table is
    built: an inference call at deconv2's shape allocates about 105 bytes
    per site. Each site sums the same products in the same order as the
    dense forward, and its values are the same bits. Backward runs the
    same taps' adjoint at the sites only; within one tap the input cells
    are distinct, so its buffered scatter into dx is exact.
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
    if sites is not None:
        return _conv2d_transpose_sites(x, k, (sh, sw), tape, sites, top, left)
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


def _conv2d_transpose_sites(x: Tensor, k: Tensor, stride, tape, sites, top, left) -> Tensor:
    """conv2d_transpose at ``sites`` only; see there."""
    (sh, sw), (n, ci, h, w), (_, co, kh, kw) = stride, x.shape, k.shape
    sample, row, col = unravel_cells(sites, (n, h * sh, w * sw), "conv2d_transpose sites")
    x_flat = x.data.reshape(n, ci, h * w)
    # tap a lands where d, the full-output row less a, is a multiple of the
    # stride inside the input, and reads input row d // stride; likewise b
    on_rows = [(d % sh == 0) & (d >= 0) & (d < h * sh) for d in (row + top - a for a in range(kh))]
    on_cols = [(d % sw == 0) & (d >= 0) & (d < w * sw) for d in (col + left - b for b in range(kw))]
    taps = []
    for a in range(kh):
        rows_a = np.flatnonzero(on_rows[a])
        for b in range(kw):
            at = rows_a[on_cols[b][rows_a]]
            cell = (row[at] + top - a) // sh * w + (col[at] + left - b) // sw
            taps.append((a, b, at, sample[at], cell))
    y = np.zeros((co, sample.size), dtype=x.data.dtype)
    for a, b, at, src, cell in taps:
        # [c_out, c_in] @ [c_in, sites]: the dense forward's orientation
        y[:, at] += np.matmul(k.data[:, :, a, b].T, x_flat[src, :, cell].T)
    out = Tensor(np.ascontiguousarray(y.T))

    if tape is not None:
        def backward():
            g = out.grad
            dx = np.zeros_like(x_flat)
            dk = np.empty_like(k.data)
            for a, b, at, src, cell in taps:
                dk[:, :, a, b] = np.matmul(x_flat[src, :, cell].T, g[at])
                dx[src, :, cell] += np.matmul(g[at], k.data[:, :, a, b].T)
            _accumulate(x, dx.reshape(x.shape))
            _accumulate(k, dk)

        tape.record(out, backward)
    return out


def window_sites(x: Tensor, windows: np.ndarray, tape: Tape | None = None) -> Tensor:
    """The padded windows that a valid correlation reads at some cells,
    built from a grid's values at sites.

    x [n_sites, c] holds the values (``conv2d_transpose(..., sites)``);
    ``windows`` [m, kh, kw] holds, for each tap of each of m windows, the
    site it reads, or -1 where it reads the pad's zero. A periodic pad is
    a window tap that names a site across the seam. Returns
    [m, c, kh, kw] with out[i, :, p, q] = x[windows[i, p, q]], or 0.
    Backward adds every window tap's gradient into the site it read, in
    float64 (``np.bincount``), then rounds once into x's dtype.
    """
    if x.data.ndim != 2 or windows.ndim != 3:
        raise ValueError("window_sites expects x [sites, c] and windows [m, kh, kw]")
    if windows.size and (windows.min() < -1 or windows.max() >= x.shape[0]):
        raise ValueError(f"window sites must lie in [-1, {x.shape[0]})")
    s, c = x.shape
    # the appended row is the pad's zero, which index -1 reads
    padded = np.concatenate([x.data, np.zeros((1, c), dtype=x.data.dtype)])
    out = Tensor(np.ascontiguousarray(padded[windows].transpose(0, 3, 1, 2)))

    if tape is not None:
        def backward():
            # bin s, past the sites, collects the pad's gradient
            index = windows.reshape(-1) % (s + 1)
            g = out.grad.transpose(1, 0, 2, 3).reshape(c, -1)
            _accumulate(x, np.stack([np.bincount(index, g[ch], s + 1)[:s] for ch in range(c)], axis=1))

        tape.record(out, backward)
    return out


def place_cells(x: Tensor, cells, shape, tape: Tape | None = None) -> Tensor:
    """Grids of ``shape`` that hold x's values, one per cell in C order, at
    the strictly ascending flat positions ``cells``, and NaN at every other
    cell, so nothing can mistake it for a prediction. Backward reads the
    gradient at the cells."""
    unravel_cells(cells, shape, "place_cells cells")
    if x.data.size != len(cells):
        raise ValueError(f"place_cells of {len(cells)} cells got {x.data.size} values")
    y = np.full(shape, np.nan, dtype=x.data.dtype)
    y.reshape(-1)[cells] = x.data.reshape(-1)
    out = Tensor(y)

    if tape is not None:
        def backward():
            _accumulate(x, out.grad.reshape(-1)[cells].reshape(x.shape))

        tape.record(out, backward)
    return out
