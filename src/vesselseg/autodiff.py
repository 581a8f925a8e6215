"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward()
walks the graph in reverse topological order and accumulates vector-
Jacobian products into .grad. The op set is exactly what the network
needs: elementwise arithmetic, matmul, convolution, max pooling,
batch/layer norm, the usual activations, nearest-neighbor upsampling,
concat and shape moves.

Convolution uses cross-correlation semantics (no kernel flip) and builds
no im2col matrix: it sums one GEMM per kernel tap (one GEMM over all taps
when the input has fewer than 64 channels) over shifted slices of a
phase-split padded copy of the input, and its vjps keep only that copy.
Max pooling reads the same phase split, one np.maximum per window
position. All ops
preserve the input dtype, so the same graph runs in float32 for training
and float64 for finite-difference verification.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf

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

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- graph ----------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None):
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad."""
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

        for node in reversed(order):
            if node.grad is None:
                continue
            for parent, vjp in node._inputs:
                g = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return add(self, -other)
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if len(axes) > 1 else axes[0])


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, inputs) -> Tensor:
    """Build an op result, attaching vjps only when a grad path exists."""
    out = Tensor(data)
    if _grad_enabled:
        live = [(p, fn) for p, fn in inputs if p.requires_grad or p._inputs]
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


def div(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        return mul(a, 1.0 / b)
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data / b.data,
        [
            (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
            (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)),
        ],
    )


def exp(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)
    return _make(out_data, [(x, lambda g: g * out_data)])


def log(x) -> Tensor:
    x = as_tensor(x)
    return _make(np.log(x.data), [(x, lambda g: g / x.data)])


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is zero where the clamp binds."""
    x = as_tensor(x)
    mask = (x.data >= lo) & (x.data <= hi)
    return _make(np.clip(x.data, lo, hi), [(x, lambda g: g * mask)])


# -- reductions and shape moves ------------------------------------------


def tsum(x) -> Tensor:
    x = as_tensor(x)
    return _make(
        np.asarray(x.data.sum(), dtype=x.data.dtype),
        [(x, lambda g: np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False))],
    )


def tmean(x) -> Tensor:
    x = as_tensor(x)
    n = x.data.size
    return _make(
        np.asarray(x.data.mean(), dtype=x.data.dtype),
        [(x, lambda g: np.broadcast_to(g / n, x.data.shape).astype(x.data.dtype, copy=False))],
    )


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    return _make(x.data.reshape(shape), [(x, lambda g: g.reshape(x.data.shape))])


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    inv = np.argsort(axes)
    return _make(x.data.transpose(axes), [(x, lambda g: g.transpose(inv))])


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp_for(i):
        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(index)]

        return vjp

    return _make(
        np.concatenate([t.data for t in tensors], axis=axis),
        [(t, vjp_for(i)) for i, t in enumerate(tensors)],
    )


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
    x = as_tensor(x)
    mask = x.data > 0
    return _make(np.maximum(x.data, 0), [(x, lambda g: g * mask)])


def sigmoid(x) -> Tensor:
    """Logistic function, clamped into the open interval representable in
    the working dtype so saturated logits never round to exactly 0 or 1."""
    x = as_tensor(x)
    d = x.data
    out_data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    info = np.finfo(d.dtype)
    out_data = np.clip(out_data, info.tiny, 1.0 - info.epsneg).astype(d.dtype, copy=False)
    return _make(out_data, [(x, lambda g: g * out_data * (1.0 - out_data))])


def gelu(x) -> Tensor:
    """Exact Gaussian-error-linear unit: 0.5 x (1 + erf(x / sqrt(2)))."""
    x = as_tensor(x)
    d = x.data
    cdf = 0.5 * (1.0 + erf(d / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * d * d) / np.sqrt(2.0 * np.pi)
    out_data = (d * cdf).astype(d.dtype, copy=False)
    return _make(out_data, [(x, lambda g: g * (cdf + d * pdf).astype(d.dtype, copy=False))])


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


def batch_norm(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch norm over an NCHW map.

    Training mode normalizes with biased batch statistics and updates the
    running arrays in place (kept fraction = momentum); eval mode uses the
    running statistics as fixed constants.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data
    if d.ndim != 4 or gamma.data.shape != (d.shape[1],) or beta.data.shape != (d.shape[1],):
        raise ShapeMismatch(
            f"batch_norm expects NCHW with per-channel affine, got {d.shape}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    axes = (0, 2, 3)
    shape = (1, d.shape[1], 1, 1)
    if training:
        mean = d.mean(axis=axes)
        var = d.var(axis=axes)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mean = running_mean.astype(d.dtype, copy=False)
        var = running_var.astype(d.dtype, copy=False)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (d - mean.reshape(shape)) * inv.reshape(shape)
    out_data = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

    def vjp_x(g):
        gxhat = g * gamma.data.reshape(shape)
        if not training:
            return gxhat * inv.reshape(shape)
        n = d.shape[0] * d.shape[2] * d.shape[3]
        s1 = gxhat.sum(axis=axes).reshape(shape)
        s2 = (gxhat * xhat).sum(axis=axes).reshape(shape)
        return (inv.reshape(shape) / n) * (n * gxhat - s1 - xhat * s2)

    return _make(
        out_data.astype(d.dtype, copy=False),
        [
            (x, vjp_x),
            (gamma, lambda g: (g * xhat).sum(axis=axes)),
            (beta, lambda g: g.sum(axis=axes)),
        ],
    )


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize each vector along the last axis to zero mean, unit variance."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data
    if gamma.data.shape != (d.shape[-1],) or beta.data.shape != (d.shape[-1],):
        raise ShapeMismatch(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature dim {d.shape[-1]}"
        )
    mean = d.mean(axis=-1, keepdims=True)
    var = d.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (d - mean) * inv
    out_data = gamma.data * xhat + beta.data

    lead = tuple(range(d.ndim - 1))

    def vjp_x(g):
        n = d.shape[-1]
        gxhat = g * gamma.data
        s1 = gxhat.sum(axis=-1, keepdims=True)
        s2 = (gxhat * xhat).sum(axis=-1, keepdims=True)
        return (inv / n) * (n * gxhat - s1 - xhat * s2)

    return _make(
        out_data.astype(d.dtype, copy=False),
        [
            (x, vjp_x),
            (gamma, lambda g: (g * xhat).sum(axis=lead)),
            (beta, lambda g: g.sum(axis=lead)),
        ],
    )


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
    are grouped into GEMMs as _tap_groups describes. Backward recomputes the
    same slices from the retained phase buffer: the input gradient
    accumulates W_g^T @ g into a buffer shaped like the phases, and the
    weight gradient is g @ slice^T, with g zero in the wrap-around columns.
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
    in_shape, w_shape, w_dtype = d.shape, w.shape, w.dtype  # the vjps hold X, not d

    X, grid, phases, spans = _phase_split(d, kh, kw, s, padding, (kw - 1) // s, 0, dtype)
    pw = grid[1]
    L = oh * pw
    groups = []  # (per tap: phase index and flat offset, W_g as (c_out, K), taps)
    wt = w.transpose(2, 3, 0, 1).astype(dtype, copy=False)
    for taps in _tap_groups(c_in, kh, kw):
        slices = [(phases.index((i % s, j % s)), (i // s) * pw + j // s) for i, j in taps]
        groups.append((slices, np.concatenate([wt[i, j] for i, j in taps], axis=1), taps))

    def stacked(slices):
        views = [X[:, k, :, off : off + L] for k, off in slices]
        return views[0] if len(views) == 1 else np.concatenate(views, axis=1)

    acc = np.matmul(groups[0][1], stacked(groups[0][0]))
    for slices, wg, _ in groups[1:]:
        acc += np.matmul(wg, stacked(slices))
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
        gX = np.zeros_like(X)
        for slices, wg, _ in groups:
            gv = np.matmul(wg.T, gp)
            for t, (k, off) in enumerate(slices):
                gX[:, k, :, off : off + L] += gv[:, t * c_in : (t + 1) * c_in]
        return _phase_merge(gX, grid, spans, in_shape, s)

    def vjp_w(g):
        gp = padded(g)
        gw = np.empty(w_shape, w_dtype)
        for slices, _, taps in groups:
            gwg = np.matmul(gp, stacked(slices).transpose(0, 2, 1)).sum(axis=0)
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
    np.maximum per window position. Backward routes each output's gradient
    to the first window position, in row-major order, that holds the max.
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

    def split():
        return _phase_split(d, kernel, kernel, s, padding, 0, -np.inf, d.dtype)

    X, grid, phases, spans = split()

    def tap(A, i, j):
        k = phases.index((i % s, j % s))
        return _grid(A[:, k], *grid)[:, :, i // s : i // s + oh, j // s : j // s + ow]

    out_data = tap(X, 0, 0).copy()
    for i, j in taps[1:]:
        np.maximum(out_data, tap(X, i, j), out=out_data)
    del X

    def vjp(g):
        X = split()[0]
        gX = np.zeros(X.shape, g.dtype)
        unclaimed = np.ones(out_data.shape, dtype=bool)
        hit = np.empty(out_data.shape, dtype=bool)
        routed = np.empty(out_data.shape, dtype=g.dtype)
        for i, j in taps:
            np.equal(tap(X, i, j), out_data, out=hit)
            hit &= unclaimed
            unclaimed ^= hit
            np.multiply(g, hit, out=routed)  # a non-finite g spreads over its window
            window = tap(gX, i, j)
            window += routed
        return _phase_merge(gX, grid, spans, d.shape, s)

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
