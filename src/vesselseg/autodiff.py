"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward()
walks the graph in reverse topological order and accumulates vector-
Jacobian products into .grad. The op set is exactly what the network
needs: add and mul with broadcasting, a full sum, matmul, convolution,
max pooling, train-mode batch norm and layer norm (one normalization
core, _normalize, serves both), the usual activations, nearest-neighbor
upsampling, the sub-pixel phase interleave, slicing along one axis,
shape moves, and the training loss: binary cross-entropy plus soft
Jaccard as one op on the head's logits (bcej_from_logits) with a
closed-form vjp.

Backward consumes the graph: each non-leaf node drops its vjps and its
.grad as soon as its vjps have run, so the memory behind it is freed
during the walk, and only leaves keep .grad. Each activation sits on the
tape once. The convolution and normalization vjps keep only their
inputs' data, which the input tensors hold anyway, and per-channel or
per-row state; they rebuild the phase buffer, the tap weights and the
normalized input at backward time. Relu keeps a bool mask and max
pooling one byte per output, both only when their input is on a grad
path. Vjps read parameter data at backward time.

Convolution uses cross-correlation semantics (no kernel flip) and builds
no im2col matrix: it sums one GEMM per kernel tap (one GEMM over all taps
when the input has fewer than 64 channels) over shifted slices of a
phase-split padded copy of the input. Max pooling reads the same phase
split, one np.maximum per window position. All ops preserve the input
dtype, so the same graph runs in float32 for training and float64 for
finite-difference verification.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf, expit

from .errors import ShapeMismatch

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """An ndarray plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_inputs")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        # list of (parent Tensor, vjp callable) pairs
        self._inputs: list = []

    # -- basic protocol -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- graph ----------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None):
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        Backward consumes the graph. Nodes run in reverse topological order,
        and once a non-leaf node's vjps have run it drops its _inputs and its
        .grad, so the vjp closures and activations behind it are freed during
        the walk. Only leaves keep .grad; a second call on the consumed graph
        reaches no leaf. Vjps read parameter data at backward time, so a
        parameter must not change between forward and backward.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._inputs:
                if id(parent) not in seen:
                    stack.append((parent, False))

        while order:
            node = order.pop()
            if not node._inputs:
                continue  # a leaf keeps its .grad
            if node.grad is not None:
                for parent, vjp in node._inputs:
                    g = vjp(node.grad)
                    if parent.grad is None:
                        parent.grad = g
                    else:
                        parent.grad = parent.grad + g
            node._inputs = []
            node.grad = None

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _on_tape(x: Tensor) -> bool:
    """Whether an op on x records a vjp: grad is enabled and x is on a grad path."""
    return _grad_enabled and (x.requires_grad or bool(x._inputs))


def _make(data, inputs) -> Tensor:
    """Build an op result, attaching vjps only when a grad path exists."""
    out = Tensor(data)
    live = [(p, fn) for p, fn in inputs if _on_tape(p)]
    if live:
        out._inputs = live
        out.requires_grad = True
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------

# Python scalars stay raw so numpy's weak promotion keeps the array dtype
# (wrapping them in 0-d float64 arrays would upcast float32 graphs).


def add(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        return _make(a.data + b, [(a, lambda g: _unbroadcast(g, a.data.shape))])
    if isinstance(a, (int, float)):
        return add(b, a)
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data + b.data,
        [
            (a, lambda g: _unbroadcast(g, a.data.shape)),
            (b, lambda g: _unbroadcast(g, b.data.shape)),
        ],
    )


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        return _make(a.data * b, [(a, lambda g: g * b)])
    if isinstance(a, (int, float)):
        return mul(b, a)
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data * b.data,
        [
            (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
        ],
    )


# -- reductions and shape moves ------------------------------------------


def tsum(x) -> Tensor:
    x = as_tensor(x)
    return _make(
        np.asarray(x.data.sum(), dtype=x.data.dtype),
        [(x, lambda g: np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False))],
    )


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    return _make(x.data.reshape(shape), [(x, lambda g: g.reshape(x.data.shape))])


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    inv = np.argsort(axes)
    return _make(x.data.transpose(axes), [(x, lambda g: g.transpose(inv))])


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    """x[start:stop] along one axis, as a view; the gradient is zero outside it."""
    x = as_tensor(x)
    shape = x.data.shape
    index = (slice(None),) * axis + (slice(start, stop),)

    def vjp(g):
        gx = np.zeros(shape, g.dtype)
        gx[index] = g
        return gx

    return _make(x.data[index], [(x, vjp)])


# -- matmul and linear -----------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp_a(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)

    def vjp_b(g):
        return _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)

    return _make(np.matmul(a.data, b.data), [(a, vjp_a), (b, vjp_b)])


def linear(x, weight, bias=None) -> Tensor:
    """y = x @ weight.T + bias with weight stored (out_features, in_features)."""
    weight = as_tensor(weight)
    y = matmul(x, transpose(weight, (1, 0)))
    if bias is not None:
        y = add(y, bias)
    return y


# -- activations -----------------------------------------------------------


def relu(x) -> Tensor:
    """max(x, 0); the bool mask backward reads is built only when x is on a grad path."""
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0)
    if not _on_tape(x):
        return Tensor(out_data)
    mask = x.data > 0
    return _make(out_data, [(x, lambda g: g * mask)])


def sigmoid(x) -> Tensor:
    """Logistic function, clamped into the open interval representable in
    the working dtype so saturated logits never round to exactly 0 or 1."""
    x = as_tensor(x)
    d = x.data
    e = np.exp(-np.abs(d))
    out_data = np.where(d >= 0, 1.0, e) / (1.0 + e)
    info = np.finfo(d.dtype)
    out_data = np.clip(out_data, info.tiny, 1.0 - info.epsneg).astype(d.dtype, copy=False)
    return _make(out_data, [(x, lambda g: g * out_data * (1.0 - out_data))])


def gelu(x) -> Tensor:
    """Exact Gaussian-error-linear unit: 0.5 x (1 + erf(x / sqrt(2))).

    The constants are Python floats, so a float32 input is computed in float32.
    """
    x = as_tensor(x)
    d = x.data
    cdf = 0.5 * (1.0 + erf(d / math.sqrt(2.0)))

    def vjp(g):
        pdf = np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
        return g * (cdf + d * pdf)

    return _make(d * cdf, [(x, vjp)])


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return out_data * (g - (g * out_data).sum(axis=-1, keepdims=True))

    return _make(out_data, [(x, vjp)])


# -- normalization ----------------------------------------------------------

NORM_EPS = 1e-5  # added to the variance by batch norm and layer norm
BN_MOMENTUM = 0.9  # the fraction of a batch-norm running statistic each train step keeps


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple, affine_shape: tuple):
    """(x - mean) / sqrt(var + NORM_EPS) * gamma + beta, the one normalization op.

    The mean and biased variance are taken over axes; gamma and beta are
    reshaped to affine_shape. Returns the output Tensor and the statistics
    (dims kept). The output is one buffer, normalized in place; the vjps
    recompute the normalized input, so only the input data and the
    per-feature or per-row state stay on the tape.
    """
    d = x.data
    mean = d.mean(axis=axes, keepdims=True)
    var = d.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    n = math.prod(d.shape[a] for a in axes)
    # gamma and beta broadcast across these (a size-1 feature axis too; affine() reshapes it back)
    spread = tuple(i for i, s in enumerate(affine_shape) if s == 1)

    def xhat():
        xh = d - mean
        xh *= inv
        return xh

    out_data = xhat()
    out_data *= gamma.data.reshape(affine_shape)
    out_data += beta.data.reshape(affine_shape)

    def vjp_x(g):
        gxhat = g * gamma.data.reshape(affine_shape)
        xh = xhat()
        s1 = gxhat.sum(axis=axes, keepdims=True)
        s2 = (gxhat * xh).sum(axis=axes, keepdims=True)
        return (inv / n) * (n * gxhat - s1 - xh * s2)

    def affine(g):
        return g.sum(axis=spread).reshape(gamma.data.shape)

    out = _make(out_data, [(x, vjp_x), (gamma, lambda g: affine(g * xhat())), (beta, affine)])
    return out, mean, var


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Train-mode batch norm over an NCHW map.

    Normalizes each channel with its biased batch statistics and updates
    the running arrays in place (kept fraction = BN_MOMENTUM). Eval mode has
    no op of its own: the model folds the running statistics into the
    convolution before the norm.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data
    if d.ndim != 4 or gamma.data.shape != (d.shape[1],) or beta.data.shape != (d.shape[1],):
        raise ShapeMismatch(
            f"batch_norm expects NCHW with per-channel affine, got {d.shape}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    out, mean, var = _normalize(x, gamma, beta, (0, 2, 3), (1, d.shape[1], 1, 1))
    for running, batch in ((running_mean, mean), (running_var, var)):
        running *= BN_MOMENTUM
        running += (1.0 - BN_MOMENTUM) * batch.reshape(running.shape)
    return out


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize each vector along the last axis to zero mean, unit variance."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data
    if gamma.data.shape != (d.shape[-1],) or beta.data.shape != (d.shape[-1],):
        raise ShapeMismatch(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature dim {d.shape[-1]}"
        )
    return _normalize(x, gamma, beta, (d.ndim - 1,), (1,) * (d.ndim - 1) + (d.shape[-1],))[0]


# -- convolution, pooling, upsampling --------------------------------------


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _phase_split(d: np.ndarray, kh: int, kw: int, stride: int, padding: int, spare: int, fill, dtype):
    """Pad an NCHW map and split it into the stride phases a kh x kw window reads.

    Phase (a, b) = phases[k] holds padded pixel (a + stride*r, b + stride*c)
    at flat index r * pw + c of X[:, k], stored per (image, channel) and
    followed by `spare` elements; everything outside the input reads `fill`.
    spans[k] is the first grid row and column inside the input, and the
    input row and column they hold.
    """
    n, c, h, w = d.shape
    s, p = stride, padding
    ph, pw = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    phases = sorted({(i % s, j % s) for i in range(kh) for j in range(kw)})
    shape = (n, len(phases), c, ph * pw + spare)
    X = np.full(shape, fill, dtype) if fill else np.zeros(shape, dtype)
    spans = []
    for k, (a, b) in enumerate(phases):
        y0, x0 = -((a - p) // s), -((b - p) // s)
        r0, c0 = a + s * y0 - p, b + s * x0 - p
        src = d[:, :, r0::s, c0::s]
        _grid(X[:, k], ph, pw)[:, :, y0 : y0 + src.shape[2], x0 : x0 + src.shape[3]] = src
        spans.append((y0, x0, r0, c0))
    return X, (ph, pw), phases, spans


def _phase_merge(gX: np.ndarray, grid: tuple, spans: list, shape: tuple, stride: int) -> np.ndarray:
    """Gather a gradient shaped like _phase_split's X back onto the NCHW input."""
    gx = np.zeros(shape, gX.dtype)
    for k, (y0, x0, r0, c0) in enumerate(spans):
        dst = gx[:, :, r0::stride, c0::stride]
        dst[...] = _grid(gX[:, k], *grid)[:, :, y0 : y0 + dst.shape[2], x0 : x0 + dst.shape[3]]
    return gx


def _grid(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A (..., rows, cols) view of the first rows * cols elements of flat.

    Splitting the unit-stride last axis never copies, so writes reach flat.
    """
    return flat[..., : rows * cols].reshape(flat.shape[:-1] + (rows, cols))


def _tap_groups(c_in: int, kh: int, kw: int) -> list[list[tuple[int, int]]]:
    """Split the row-major kernel taps into the groups that share one GEMM.

    A group of g taps is one GEMM with K = c_in * g. With c_in >= 64 every
    tap is its own GEMM on a view of the phase buffer, with no copy.
    Narrower inputs stack all taps into one GEMM, because a GEMM with a
    small K runs far below peak: on a 2-core Xeon, the 3-channel 7x7 stem
    at 512 x 512, batch 4, ran its forward 1.5x slower as two GEMMs of
    K = 66 and 81 than as one of K = 147. The stacked copy lives only for
    the duration of the forward or weight-gradient call.
    """
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    return [[t] for t in taps] if c_in >= 64 else [taps]


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate an NCHW map with (out_c, in_c, kh, kw) filters.

    No im2col matrix is built. The input is padded once into stride x stride
    phases (_phase_split), each stored flat per (image, channel) with a row
    pitch of pw and (kw - 1) // stride spare elements at the end. Kernel tap
    (i, j) then reads one contiguous slice of one phase, and the output is
    the sum over taps of W[:, :, i, j] @ phase[..., off : off + oh * pw],
    whose pw - ow wrap-around columns per row are dropped at the end. Taps
    are grouped into GEMMs as _tap_groups describes. The vjps keep only the
    input data and the weight parameter. The input gradient rebuilds each
    W_g from the weight and accumulates W_g^T @ g into a buffer shaped like
    the phases; the weight gradient re-splits the input and computes
    g @ slice^T, with g zero in the wrap-around columns.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    d, w = x.data, weight.data
    if d.ndim != 4 or w.ndim != 4 or d.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"conv2d got input {d.shape}, weight {w.shape}")
    n, c_in, h, wid = d.shape
    c_out, _, kh, kw = w.shape
    s = stride
    oh = _conv_out_size(h, kh, s, padding)
    ow = _conv_out_size(wid, kw, s, padding)
    if oh < 1 or ow < 1:
        raise ShapeMismatch(f"conv2d output would be empty for input {d.shape}, kernel {kh}")
    dtype = np.result_type(d.dtype, w.dtype)
    spare = (kw - 1) // s

    X, grid, phases, spans = _phase_split(d, kh, kw, s, padding, spare, 0, dtype)
    pw = grid[1]
    L = oh * pw
    groups = _tap_groups(c_in, kh, kw)

    def offsets(taps):  # per tap, the phase index and flat offset it reads
        return [(phases.index((i % s, j % s)), (i // s) * pw + j // s) for i, j in taps]

    def stacked(X, taps):  # the slices of X the taps read, stacked along K
        views = [X[:, k, :, off : off + L] for k, off in offsets(taps)]
        return views[0] if len(views) == 1 else np.concatenate(views, axis=1)

    def tap_weights():  # per group, W_g as one contiguous (c_out, K) matrix
        wt = weight.data.transpose(2, 3, 0, 1).astype(dtype, copy=False)
        for taps in groups:
            yield np.concatenate([wt[i, j] for i, j in taps], axis=1)

    pairs = zip(groups, tap_weights())
    taps, wg = next(pairs)
    acc = np.matmul(wg, stacked(X, taps))
    prod = None  # one product buffer, reused by every later group
    for taps, wg in pairs:
        prod = np.matmul(wg, stacked(X, taps), out=prod)
        acc += prod
    del X
    out_data = acc.reshape(n, c_out, oh, pw)[:, :, :, :ow]
    if bias is not None:
        bias = as_tensor(bias)
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)
    else:
        out_data = np.ascontiguousarray(out_data)

    def padded(g):
        gp = np.zeros((n, c_out, oh, pw), dtype)
        gp[:, :, :, :ow] = g
        return gp.reshape(n, c_out, L)

    def vjp_x(g):
        gp = padded(g)
        gX = np.zeros((n, len(phases), c_in, grid[0] * pw + spare), dtype)
        gv = None  # every group has the same K, so one product buffer serves all
        for taps, wg in zip(groups, tap_weights()):
            gv = np.matmul(wg.T, gp, out=gv)
            for t, (k, off) in enumerate(offsets(taps)):
                gX[:, k, :, off : off + L] += gv[:, t * c_in : (t + 1) * c_in]
        return _phase_merge(gX, grid, spans, d.shape, s)

    def vjp_w(g):
        gp = padded(g)
        X = _phase_split(d, kh, kw, s, padding, spare, 0, dtype)[0]
        gw = np.empty(weight.data.shape, weight.data.dtype)
        for taps in groups:
            gwg = np.matmul(gp, stacked(X, taps).transpose(0, 2, 1)).sum(axis=0)
            for t, (i, j) in enumerate(taps):
                gw[:, :, i, j] = gwg[:, t * c_in : (t + 1) * c_in]
        return gw

    inputs = [(x, vjp_x), (weight, vjp_w)]
    if bias is not None:
        inputs.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _make(out_data, inputs)


def max_pool2d(x, kernel: int = 3, stride: int = 2, padding: int = 1) -> Tensor:
    """Max over kernel windows; padding uses -inf so it never wins.

    The -inf-padded input is split into stride phases (_phase_split), so
    every window position is a unit-stride view, and forward is one
    np.maximum per window position. When x is on a grad path, forward also
    records which window position first holds the max, in row-major order
    (one byte per output), and backward scatters each output's gradient
    there with np.add.at; no phase buffer stays on the tape.
    """
    x = as_tensor(x)
    d = x.data
    if d.ndim != 4:
        raise ShapeMismatch(f"max_pool2d expects NCHW, got {d.shape}")
    n, c, h, w = d.shape
    if h + 2 * padding < kernel or w + 2 * padding < kernel:
        raise ShapeMismatch(f"pool window {kernel} exceeds padded input {d.shape}")
    s = stride
    oh = _conv_out_size(h, kernel, s, padding)
    ow = _conv_out_size(w, kernel, s, padding)
    taps = [(i, j) for i in range(kernel) for j in range(kernel)]

    X, grid, phases, _ = _phase_split(d, kernel, kernel, s, padding, 0, -np.inf, d.dtype)

    def tap(i, j):
        k = phases.index((i % s, j % s))
        return _grid(X[:, k], *grid)[:, :, i // s : i // s + oh, j // s : j // s + ow]

    out_data = tap(0, 0).copy()
    on_tape = _on_tape(x)
    first = np.zeros(out_data.shape, np.min_scalar_type(len(taps) - 1)) if on_tape else None
    for t, (i, j) in enumerate(taps[1:], 1):
        if on_tape:  # move the argmax only on a strictly larger value, so ties keep the first
            first ^= (first ^ t) * (tap(i, j) > out_data)
        np.maximum(out_data, tap(i, j), out=out_data)
    del X

    def vjp(g):
        # Output (oy, ox) adds its gradient at padded pixel (s*oy + i, s*ox + j),
        # (i, j) its recorded tap. Scattered in reverse output order, each pixel
        # sums its gradients in row-major tap order.
        hp, wp = h + 2 * padding, w + 2 * padding
        dest = np.arange(n * c).reshape(n, c, 1, 1) * (hp * wp) + s * wp * np.arange(oh).reshape(oh, 1)
        dest = dest + s * np.arange(ow) + np.array([i * wp + j for i, j in taps])[first]
        gp = np.zeros(n * c * hp * wp, g.dtype)
        np.add.at(gp, dest.ravel()[::-1], g.ravel()[::-1])
        return gp.reshape(n, c, hp, wp)[:, :, padding : padding + h, padding : padding + w]

    return _make(out_data, [(x, vjp)])


def upsample_nearest2x(x) -> Tensor:
    """Duplicate every pixel into a 2 x 2 block."""
    x = as_tensor(x)
    d = x.data
    if d.ndim != 4:
        raise ShapeMismatch(f"upsample expects NCHW, got {d.shape}")
    out_data = d.repeat(2, axis=2).repeat(2, axis=3)

    def vjp(g):
        n, c, h2, w2 = g.shape
        return g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))

    return _make(out_data, [(x, vjp)])


def interleave_phases(z) -> Tensor:
    """Interleave four phase maps into one map of twice the size (sub-pixel shuffle).

    z is (n, 4c, h + 1, w + 1). Phase (a, b) is channels (2a + b) * c up to
    the next c, and its window [a : a + h, b : b + w] fills
    out[:, :, 2r + a, 2s + b]; the row and column outside each window are
    dropped. The vjp gathers the output gradient back into those windows.
    """
    z = as_tensor(z)
    shape = z.data.shape
    if z.data.ndim != 4 or shape[1] % 4:
        raise ShapeMismatch(f"interleave_phases expects (n, 4c, h + 1, w + 1), got {shape}")
    n, c, h, w = shape[0], shape[1] // 4, shape[2] - 1, shape[3] - 1
    phases = [(a, b) for a in (0, 1) for b in (0, 1)]

    def window(arr, k, a, b):
        return arr[:, k * c : (k + 1) * c, a : a + h, b : b + w]

    out = np.empty((n, c, h, 2, w, 2), z.data.dtype)
    for k, (a, b) in enumerate(phases):
        out[:, :, :, a, :, b] = window(z.data, k, a, b)

    def vjp(g):
        g = g.reshape(n, c, h, 2, w, 2)
        gz = np.zeros(shape, g.dtype)
        for k, (a, b) in enumerate(phases):
            window(gz, k, a, b)[...] = g[:, :, :, a, :, b]
        return gz

    return _make(out.reshape(n, c, 2 * h, 2 * w), [(z, vjp)])


# -- the training loss -------------------------------------------------------


def bcej_from_logits(z, k) -> Tensor:
    """Mean binary cross-entropy plus soft Jaccard (smoothing 1) of
    sigmoid(z) upsampled 2x by nearest neighbour, computed on the logits z.

    k counts the mask's positives in the 2 x 2 block each logit covers
    (0..4). The block's four pixels share p = sigmoid(z), so over the M
    logits the full-resolution BCE mean is the mean of softplus(z) - (k/4) z,
    the full-resolution sums of p y and p are sum(p k) and 4 sum(p), and no
    p is clamped. The vjp is (p - k/4) / M plus the Jaccard term's
    derivative in p times p (1 - p).
    """
    z = as_tensor(z)
    d = z.data
    k = np.asarray(k, dtype=d.dtype)
    if k.shape != d.shape:
        raise ShapeMismatch(f"logits {d.shape} and block counts {k.shape} differ")
    m = d.size
    p = expit(d)
    q = k * 0.25
    bce = (np.logaddexp(0.0, d) - q * d).mean()
    pk = (p * k).sum()
    inter = pk + 1.0
    union = 4.0 * p.sum() + k.sum() - pk + 1.0

    def vjp(g):
        djac = (inter * (4.0 - k) - union * k) / (union * union)
        return g * ((p - q) / m + djac * p * (1.0 - p))

    return _make(np.asarray(bce + 1.0 - inter / union, dtype=d.dtype), [(z, vjp)])
