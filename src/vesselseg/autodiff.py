"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward()
walks the graph in reverse topological order and accumulates vector-
Jacobian products into .grad. The op set is exactly what a training
step and the gradient check differentiate through: add and mul with
broadcasting, matmul, convolution, max pooling, train-mode batch norm
and layer norm (one normalization core, _normalize, serves both), relu,
gelu and softmax, the sub-pixel phase interleave, slicing along one
axis, shape moves, and the training loss: binary cross-entropy plus
soft Jaccard as one op on the head's logits (bcej_from_logits) with a
closed-form vjp. A full sum (tsum) closes hand-built graphs. The eval
probabilities never enter a graph: model.model_forward computes them in
plain numpy from the logits.

Feature maps are channels-last (NHWC): a map is (n, h, w, c), so every
pixel is one contiguous row of channels and a block of pixels is one
contiguous (pixels, c) matrix.

Every matrix product runs through _gemm, one scipy BLAS gemm call that
can accumulate into its output (beta = 1). numpy and scipy each bundle
their own OpenBLAS with its own spinning thread pool, so the module
makes no numpy matmul at all: switching pools costs more than the
product.

The graph keeps parent nodes, not parent data. Each Tensor owns a _Node
that holds its .grad, its edges ((parent node, vjp) pairs) and only a
weak reference back to the tensor, so an intermediate result that no vjp
reads (a batch-norm output in front of a relu, a residual sum, a
pre-bias projection) is freed as soon as the model code drops it. What a
vjp reads it captures itself; add and the shape moves capture shapes
only. The convolution and normalization vjps keep only their inputs'
data and per-channel or per-row state; they rebuild the phase buffer,
the tap weights and the normalized input at backward time. Relu keeps a
bool mask and max pooling one byte per output, both only when their
input is on a grad path. Vjps read parameter data at backward time.

Backward consumes the graph: each non-leaf node drops its vjps and its
.grad as soon as its vjps have run, so the memory behind it is freed
during the walk, and only leaves keep .grad.

Convolution uses cross-correlation semantics (no kernel flip) and builds
no im2col matrix: each kernel tap is one GEMM over a contiguous row block
of a phase-split padded copy of the input, accumulated into the output
inside BLAS (see conv2d). Max pooling reads the same phase split, one
np.maximum per window position. All ops preserve the input dtype, so the
same graph runs in float32 for training and float64 for finite-
difference verification.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager

import numpy as np
from scipy.linalg.blas import get_blas_funcs
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


class _Node:
    """A tensor's place in the graph: its gradient and its edges.

    _inputs lists (parent node, vjp) pairs. The node refers to its tensor
    only weakly, so an edge to it keeps no data alive; data is the
    tensor's array while the tensor lives and None after.
    """

    __slots__ = ("grad", "_inputs", "_tensor")

    def __init__(self, tensor: "Tensor"):
        self.grad: np.ndarray | None = None
        self._inputs: list = []
        self._tensor = weakref.ref(tensor)

    @property
    def data(self) -> np.ndarray | None:
        tensor = self._tensor()
        return None if tensor is None else tensor.data


class Tensor:
    """An ndarray plus the graph node (_node) that records how it was
    produced; .grad and ._inputs read and write the node."""

    __slots__ = ("data", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self._node = _Node(self)

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def _inputs(self) -> list:
        return self._node._inputs

    @_inputs.setter
    def _inputs(self, value):
        self._node._inputs = value

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

        The seed grad must be shaped like self (it defaults to 1 for a scalar).
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
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeMismatch(f"backward() seed {grad.shape} does not match output {self.data.shape}")
        self._node.grad = grad

        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _on_tape(x: Tensor) -> bool:
    """Whether an op on x records a vjp: grad is enabled and x is on a grad path."""
    return _grad_enabled and (x.requires_grad or bool(x._node._inputs))


def _make(data, inputs) -> Tensor:
    """Build an op result from (parent Tensor, vjp) pairs, attaching edges to
    the parents' nodes only when a grad path exists."""
    out = Tensor(data)
    live = [(p._node, fn) for p, fn in inputs if _on_tape(p)]
    if live:
        out._node._inputs = live
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
        a_shape = a.data.shape
        return _make(a.data + b, [(a, lambda g: _unbroadcast(g, a_shape))])
    if isinstance(a, (int, float)):
        return add(b, a)
    a, b = as_tensor(a), as_tensor(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    return _make(
        a.data + b.data,
        [
            (a, lambda g: _unbroadcast(g, a_shape)),
            (b, lambda g: _unbroadcast(g, b_shape)),
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
    """The sum of all elements.

    The vjp keeps x itself, though it reads only x's shape and dtype. The
    model never calls tsum; it closes hand-built graphs in tests and in
    perfbench, whose tape-probe test counts x's buffer as held by this vjp.
    """
    x = as_tensor(x)
    return _make(
        np.asarray(x.data.sum(), dtype=x.data.dtype),
        [(x, lambda g: np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False))],
    )


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    x_shape = x.data.shape
    return _make(x.data.reshape(shape), [(x, lambda g: g.reshape(x_shape))])


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


# -- matrix products --------------------------------------------------------


def _fortran(m: np.ndarray, trans: bool) -> tuple[np.ndarray, bool]:
    """m as an F-contiguous operand for BLAS, and whether BLAS must transpose it.

    f2py silently copies an operand that is not F-contiguous, so a C-ordered
    matrix goes in as its transpose (a view) with the transpose flag flipped.
    """
    if m.flags.c_contiguous:
        return m.T, trans
    if m.flags.f_contiguous:
        return m, not trans
    return np.ascontiguousarray(m).T, trans


_GEMMS: dict[np.dtype, object] = {}  # scipy's BLAS gemm per dtype, looked up on first use


def _gemm(a, b, out=None, beta: float = 0.0, trans_a: bool = False, trans_b: bool = False) -> np.ndarray:
    """out = op(a) @ op(b) + beta * out in BLAS, op(m) = m with its last two axes swapped where flagged.

    a and b are matrices, or equal-length stacks of them (3-D, one call per
    pair); out, when given, is C-contiguous, of the operands' dtype, and
    written in place. BLAS is column-major, so each call computes
    out.T = op(b).T @ op(a).T, where each transposed C-ordered matrix is an
    F-ordered view: nothing is copied. With beta = 1 the product is added
    to out inside the call, with no separate pass.
    """
    if a.dtype != b.dtype:
        dtype = np.result_type(a.dtype, b.dtype)
        a, b = a.astype(dtype), b.astype(dtype)
    gemm = _GEMMS.get(a.dtype)
    if gemm is None:
        gemm = _GEMMS[a.dtype] = get_blas_funcs("gemm", dtype=a.dtype)
    if a.ndim == 2:
        fa, ta = _fortran(a, trans_a)
        fb, tb = _fortran(b, trans_b)
        if out is None:
            return gemm(1.0, fb, fa, trans_a=tb, trans_b=ta).T
        gemm(1.0, fb, fa, beta, out.T, trans_a=tb, trans_b=ta, overwrite_c=True)
        return out
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if out is None:
        out = np.empty((len(a), a.shape[2 if trans_a else 1], b.shape[1 if trans_b else 2]), a.dtype)
    for fa, fb, fo in zip(a.transpose(0, 2, 1), b.transpose(0, 2, 1), out.transpose(0, 2, 1)):
        gemm(1.0, fb, fa, beta, fo, trans_a=trans_b, trans_b=trans_a, overwrite_c=True)
    return out


def _bmm(a: np.ndarray, b: np.ndarray, trans_a: bool = False, trans_b: bool = False) -> np.ndarray:
    """numpy-matmul semantics over _gemm: op(a) @ op(b), transposing the last two axes.

    A 2-D b takes every leading axis of a as more rows, so one GEMM serves a
    (batch, tokens, features) input; otherwise the leading axes broadcast
    and each matrix pair is one GEMM.
    """
    if b.ndim == 2 and not trans_a:
        rows = a.reshape(-1, a.shape[-1])
        out = _gemm(rows, b, trans_b=trans_b)
        return out.reshape(a.shape[:-1] + out.shape[-1:])
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:]).reshape((-1,) + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:]).reshape((-1,) + b.shape[-2:])
    out = _gemm(a, b, trans_a=trans_a, trans_b=trans_b)
    return out.reshape(lead + out.shape[1:])


def _col_sum(a: np.ndarray) -> np.ndarray:
    """The sum over every axis but the last, as ones @ a.reshape(-1, c): one GEMM."""
    rows = a.reshape(-1, a.shape[-1])
    return _gemm(np.ones((1, len(rows)), rows.dtype), rows).reshape(a.shape[-1])


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp_a(g):
        return _unbroadcast(_bmm(g, b.data, trans_b=True), a.data.shape)

    def vjp_b(g):
        if b.data.ndim == 2:  # a's leading axes are rows of one GEMM, which also sums them
            return _gemm(a.data.reshape(-1, a.data.shape[-1]), g.reshape(-1, g.shape[-1]), trans_a=True)
        return _unbroadcast(_bmm(a.data, g, trans_a=True), b.data.shape)

    return _make(_bmm(a.data, b.data), [(a, vjp_a), (b, vjp_b)])


def linear(x, weight, bias) -> Tensor:
    """y = x @ weight.T + bias with weight stored (out_features, in_features)."""
    weight = as_tensor(weight)
    y = matmul(x, transpose(weight, (1, 0)))
    return add(y, bias)


# -- activations -----------------------------------------------------------


def relu(x) -> Tensor:
    """max(x, 0).

    The vjp keeps a bool mask of x > 0, a quarter of the bytes of a float32
    x or output it could read instead, so the batch-norm output or residual
    sum in front of a relu is freed once the model drops it. The mask is
    built only when x is on a grad path.
    """
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0)
    if not _on_tape(x):
        return Tensor(out_data)
    mask = x.data > 0
    return _make(out_data, [(x, lambda g: g * mask)])


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


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, per_channel: bool):
    """(x - mean) / sqrt(var + NORM_EPS) * gamma + beta, the one normalization op.

    gamma and beta scale the last axis. With per_channel (batch norm) the
    mean and biased variance of each feature are taken over every other
    axis, as column sums of the (rows, features) view, one ones-vector
    GEMM each (_col_sum); otherwise (layer norm) over each row's features.
    The affine gradients sum over every axis but the last. Returns the
    output Tensor and the statistics. The output is one buffer, normalized
    in place; the vjps recompute the normalized input, so only the input
    data and the per-feature or per-row state stay on the tape.
    """
    d = x.data
    lead = tuple(range(d.ndim - 1))
    if per_channel:
        stat_sum = affine_sum = _col_sum
    else:
        stat_sum = lambda a: a.sum(axis=-1, keepdims=True)  # noqa: E731
        affine_sum = lambda a: a.sum(axis=lead)  # noqa: E731
    total = stat_sum(d)
    n = d.size // total.size
    mean = total / n
    out_data = d - mean
    var = stat_sum(np.square(out_data, out=out_data)) / n
    inv = 1.0 / np.sqrt(var + NORM_EPS)

    def xhat(out=None):
        xh = np.subtract(d, mean, out=out)
        xh *= inv
        return xh

    xhat(out_data)  # the squares' buffer becomes the output
    out_data *= gamma.data
    out_data += beta.data

    def vjp_x(g):  # (inv / n) * (n * gxhat - s1 - xh * s2), in place over three buffers
        gxhat = g * gamma.data
        xh = xhat()
        s1 = stat_sum(gxhat)
        prod = np.multiply(gxhat, xh)
        s2 = stat_sum(prod)
        gxhat *= n
        gxhat -= s1
        gxhat -= np.multiply(xh, s2, out=prod)
        gxhat *= inv / n
        return gxhat

    def vjp_gamma(g):
        xh = xhat()
        xh *= g
        return affine_sum(xh)

    out = _make(out_data, [(x, vjp_x), (gamma, vjp_gamma), (beta, affine_sum)])
    return out, mean, var


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Train-mode batch norm over an NHWC map.

    Normalizes each channel with its biased batch statistics and updates
    the running arrays in place (kept fraction = BN_MOMENTUM). Eval mode has
    no op of its own: the model folds the running statistics into the
    convolution before the norm.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data
    if d.ndim != 4 or gamma.data.shape != (d.shape[3],) or beta.data.shape != (d.shape[3],):
        raise ShapeMismatch(
            f"batch_norm expects NHWC with per-channel affine, got {d.shape}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    out, mean, var = _normalize(x, gamma, beta, per_channel=True)
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
    return _normalize(x, gamma, beta, per_channel=False)[0]


# -- convolution, pooling, upsampling --------------------------------------


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _phase_geometry(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """The stride phases a kh x kw window reads on an h x w map padded by padding.

    Returns the phase grid (ph, pw), the phases (a, b) in sorted order, and
    per phase the first grid row and column inside the input and the input
    row and column they hold.
    """
    s, p = stride, padding
    ph, pw = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    phases = sorted({(i % s, j % s) for i in range(kh) for j in range(kw)})
    spans = []
    for a, b in phases:
        y0, x0 = -((a - p) // s), -((b - p) // s)
        spans.append((y0, x0, a + s * y0 - p, b + s * x0 - p))
    return (ph, pw), phases, spans


def _phase_split(d: np.ndarray, kh: int, kw: int, stride: int, padding: int, spare: int, fill, dtype):
    """Pad an NHWC map and split it into the stride phases a kh x kw window reads.

    X is (phases, n, ph * pw + spare, c): phase (a, b) = phases[k] holds
    padded pixel (a + stride*r, b + stride*q) of image i in row r * pw + q
    of X[k, i], and `spare` rows follow each image; everything outside the
    input reads `fill`. Also returns _phase_geometry's grid, phases and
    spans. A 1x1 window at stride 1 without padding reads the input
    itself, so X is then a view.
    """
    n, h, w, c = d.shape
    grid, phases, spans = _phase_geometry(h, w, kh, kw, stride, padding)
    if (kh, kw, stride, padding) == (1, 1, 1, 0):
        return d.astype(dtype, copy=False).reshape(1, n, h * w, c), grid, phases, spans
    shape = (len(phases), n, grid[0] * grid[1] + spare, c)
    X = np.full(shape, fill, dtype) if fill else np.zeros(shape, dtype)
    for k, (y0, x0, r0, c0) in enumerate(spans):
        src = d[:, r0::stride, c0::stride]
        _grid(X[k], *grid)[:, y0 : y0 + src.shape[1], x0 : x0 + src.shape[2]] = src
    return X, grid, phases, spans


def _phase_merge(gX: np.ndarray, grid: tuple, spans: list, shape: tuple, stride: int) -> np.ndarray:
    """Gather a gradient shaped like _phase_split's X back onto the NHWC input."""
    gx = np.zeros(shape, gX.dtype)
    for k, (y0, x0, r0, c0) in enumerate(spans):
        dst = gx[:, r0::stride, c0::stride]
        dst[...] = _grid(gX[k], *grid)[:, y0 : y0 + dst.shape[1], x0 : x0 + dst.shape[2]]
    return gx


def _grid(rows: np.ndarray, h: int, w: int) -> np.ndarray:
    """An (n, h, w, c) view of the first h * w rows of an (n, rows, c) block.

    Splitting an axis never copies, so writes reach the block.
    """
    return rows[:, : h * w].reshape(rows.shape[0], h, w, rows.shape[2])


# Inputs with fewer channels than this run the forward and the weight
# gradient as one GEMM over all kernel taps (see conv2d).
STACK_BELOW_CHANNELS = 16
# The narrow path copies at most this many input values per GEMM (see _window_bands).
WINDOW_ELEMENTS = 1 << 20


def _window_bands(n: int, oh: int, ow: int, k: int) -> list[tuple[int, int, int, int]]:
    """The (first image, end image, first row, end row) bands of output pixels
    whose windows, k values each, the narrow path copies for one GEMM: all
    images at once if their windows hold at most WINDOW_ELEMENTS values,
    else bands of whole output rows of one image. Copying a whole 512² image's
    stem windows at once would put 38.5 MB on top of the train step's peak
    RSS."""
    rows = max(1, WINDOW_ELEMENTS // (ow * k))
    if rows >= n * oh:
        return [(0, n, 0, oh)]
    return [(i, i + 1, y, min(y + rows, oh)) for i in range(n) for y in range(0, oh, rows)]


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate an NHWC map with (out_c, in_c, kh, kw) filters.

    No im2col matrix is built for inputs of STACK_BELOW_CHANNELS channels or
    more. The input is padded once into stride x stride phases
    (_phase_split), each a (rows, c_in) matrix per image with a row pitch
    of pw pixels and (kw - 1) // stride spare rows at the end. Kernel tap
    (i, j) then reads one contiguous row block of one phase, and the
    output, oh * pw rows per image, is the sum over taps of
    block_ij @ W[:, :, i, j].T. Each tap's block spans the whole batch,
    from image 0's first output row to the last image's last, so a tap is
    one GEMM whatever n is. Each tap's GEMM adds into the output inside
    BLAS (_gemm with beta = 1), so no tap costs a separate pass; the
    pw - ow wrap-around columns of each row and the pitch - oh * pw rows
    between images are dropped at the end.

    A narrower input with more than one tap (the 3-channel 7x7 stem)
    instead copies each output pixel's kh x kw x c_in window into one row
    of a matrix and runs one GEMM with K = kh * kw * c_in, because a GEMM
    with K = c_in runs far below peak. In channels-last order each window
    row is kw * c_in contiguous input values. The copy covers one band of
    output rows (_window_bands).

    The vjps keep only the input data and the weight parameter. The input
    gradient adds g @ W_ij, one GEMM per tap, into the row block of a
    phase-shaped buffer that the tap read, again inside BLAS, and merges the
    phases back; the weight gradient re-reads the input and takes
    block.T @ g, one GEMM per tap, with g zero in every row the output
    drops.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    d, w = x.data, weight.data
    if d.ndim != 4 or w.ndim != 4 or d.shape[3] != w.shape[1]:
        raise ShapeMismatch(f"conv2d got input {d.shape}, weight {w.shape}")
    n, h, wid, c_in = d.shape
    c_out, _, kh, kw = w.shape
    s = stride
    oh = _conv_out_size(h, kh, s, padding)
    ow = _conv_out_size(wid, kw, s, padding)
    if oh < 1 or ow < 1:
        raise ShapeMismatch(f"conv2d output would be empty for input {d.shape}, kernel {kh}")
    dtype = np.result_type(d.dtype, w.dtype)
    spare = (kw - 1) // s
    grid, phases, spans = _phase_geometry(h, wid, kh, kw, s, padding)
    n_phases, pw = len(phases), grid[1]
    pitch = grid[0] * pw + spare
    span = (n - 1) * pitch + oh * pw  # the flat rows from image 0's first output row to the last image's last
    # per row-major tap, the phase it reads and its row offset there
    taps = [(phases.index((i % s, j % s)), (i // s) * pw + j // s) for i in range(kh) for j in range(kw)]
    windowed = c_in < STACK_BELOW_CHANNELS and len(taps) > 1
    bands = _window_bands(n, oh, ow, len(taps) * c_in)

    def tap_rows(X, t):  # the (span, c_in) rows tap t reads: a view
        k, off = taps[t]
        return X[k].reshape(n * pitch, c_in)[off : off + span]

    def padded_input():  # the narrow path's zero-padded copy of the input
        P = np.zeros((n, h + 2 * padding, wid + 2 * padding, c_in), dtype)
        P[:, padding : padding + h, padding : padding + wid] = d
        return P

    def windows(P, i0, i1, y0, y1):  # a band's window rows, (pixels, kh * kw * c_in): a copy
        view = np.lib.stride_tricks.sliding_window_view(P[i0:i1], (kh, kw), axis=(1, 2))
        view = view[:, s * y0 : s * (y1 - 1) + 1 : s, ::s].transpose(0, 1, 2, 4, 5, 3)
        rows = np.empty(((i1 - i0) * (y1 - y0) * ow, len(taps) * c_in), dtype)
        rows.reshape(view.shape)[...] = view
        return rows

    def window_weights():  # (c_out, kh * kw * c_in), columns in a window row's (i, j, channel) order
        return np.ascontiguousarray(weight.data.transpose(0, 2, 3, 1), dtype).reshape(c_out, -1)

    def tap_weights():  # (kh * kw, c_out, c_in): W[:, :, i, j] at tap i * kw + j
        return np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1), dtype).reshape(len(taps), c_out, c_in)

    if windowed:
        wt, P = window_weights(), padded_input()
        out_data = np.empty((n * oh * ow, c_out), dtype)
        for i0, i1, y0, y1 in bands:
            rows = windows(P, i0, i1, y0, y1)
            start = (i0 * oh + y0) * ow
            _gemm(rows, wt, out_data[start : start + len(rows)], trans_b=True)
        del P
        out_data = out_data.reshape(n, oh, ow, c_out)
        if bias is not None:
            out_data += as_tensor(bias).data
    else:
        wt = tap_weights()
        X = _phase_split(d, kh, kw, s, padding, spare, 0, dtype)[0]
        acc = np.empty((n * pitch, c_out), dtype)
        for t in range(len(taps)):
            _gemm(tap_rows(X, t), wt[t], acc[:span], float(t > 0), trans_b=True)
        del X
        out_data = _grid(acc.reshape(n, pitch, c_out), oh, pw)[:, :, :ow]
        out_data = np.ascontiguousarray(out_data) if bias is None else out_data + as_tensor(bias).data
    del wt

    def padded(g):  # g on n images' pitch rows, zero in every row the output drops
        gp = np.zeros((n, pitch, c_out), dtype)
        _grid(gp, oh, pw)[:, :, :ow] = g
        return gp.reshape(n * pitch, c_out)

    def vjp_x(g):
        gp = padded(g)
        wt = tap_weights()
        gX = np.zeros((n_phases, n, pitch, c_in), dtype)
        for t in range(len(taps)):
            _gemm(gp[:span], wt[t], tap_rows(gX, t), 1.0)
        return _phase_merge(gX, grid, spans, d.shape, s)

    def vjp_w(g):
        if windowed:
            gw = np.empty((c_out, len(taps) * c_in), dtype)
            g, P = g.reshape(n * oh * ow, c_out), padded_input()
            for b, (i0, i1, y0, y1) in enumerate(bands):
                rows = windows(P, i0, i1, y0, y1)
                start = (i0 * oh + y0) * ow
                _gemm(g[start : start + len(rows)], rows, gw, float(b > 0), trans_a=True)
        else:
            gw = np.empty((len(taps), c_out, c_in), dtype)
            gp = padded(g)
            X = _phase_split(d, kh, kw, s, padding, spare, 0, dtype)[0]
            for t in range(len(taps)):
                _gemm(gp[:span], tap_rows(X, t), gw[t], trans_a=True)
            gw = np.ascontiguousarray(gw.transpose(1, 0, 2))
        gw = gw.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(gw, weight.data.dtype)

    inputs = [(x, vjp_x), (weight, vjp_w)]
    if bias is not None:
        inputs.append((bias, _col_sum))
    return _make(out_data, inputs)


def max_pool2d(x) -> Tensor:
    """Max over 3x3 windows of an NHWC map at stride 2 with padding 1, the
    encoder's pool; padding uses -inf so it never wins.

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
        raise ShapeMismatch(f"max_pool2d expects NHWC, got {d.shape}")
    n, h, w, c = d.shape
    kernel, s, padding = 3, 2, 1
    if h + 2 * padding < kernel or w + 2 * padding < kernel:
        raise ShapeMismatch(f"pool window {kernel} exceeds padded input {d.shape}")
    oh = _conv_out_size(h, kernel, s, padding)
    ow = _conv_out_size(w, kernel, s, padding)
    taps = [(i, j) for i in range(kernel) for j in range(kernel)]

    X, grid, phases, _ = _phase_split(d, kernel, kernel, s, padding, 0, -np.inf, d.dtype)

    def tap(i, j):
        k = phases.index((i % s, j % s))
        return _grid(X[k], *grid)[:, i // s : i // s + oh, j // s : j // s + ow]

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
        dest = np.arange(n).reshape(n, 1, 1, 1) * (hp * wp * c) + (s * wp * c) * np.arange(oh).reshape(oh, 1, 1)
        dest = dest + (s * c) * np.arange(ow).reshape(ow, 1) + np.arange(c)
        dest = dest + np.array([(i * wp + j) * c for i, j in taps])[first]
        gp = np.zeros(n * hp * wp * c, g.dtype)
        np.add.at(gp, dest.ravel()[::-1], g.ravel()[::-1])
        return gp.reshape(n, hp, wp, c)[:, padding : padding + h, padding : padding + w]

    return _make(out_data, [(x, vjp)])


def interleave_phases(z) -> Tensor:
    """Interleave four phase maps into one NHWC map of twice the size (sub-pixel shuffle).

    z is (n, h + 1, w + 1, 4c). Phase (a, b) is channels (2a + b) * c up to
    the next c, and its window [a : a + h, b : b + w] fills
    out[:, 2r + a, 2q + b]; the row and column outside each window are
    dropped. The vjp gathers the output gradient back into those windows.
    """
    z = as_tensor(z)
    shape = z.data.shape
    if z.data.ndim != 4 or shape[3] % 4:
        raise ShapeMismatch(f"interleave_phases expects (n, h + 1, w + 1, 4c), got {shape}")
    n, h, w, c = shape[0], shape[1] - 1, shape[2] - 1, shape[3] // 4
    phases = [(a, b) for a in (0, 1) for b in (0, 1)]

    def window(arr, k, a, b):
        return arr[:, a : a + h, b : b + w, k * c : (k + 1) * c]

    out = np.empty((n, h, 2, w, 2, c), z.data.dtype)
    for k, (a, b) in enumerate(phases):
        out[:, :, a, :, b] = window(z.data, k, a, b)

    def vjp(g):
        g = g.reshape(n, h, 2, w, 2, c)
        gz = np.zeros(shape, g.dtype)
        for k, (a, b) in enumerate(phases):
            window(gz, k, a, b)[...] = g[:, :, a, :, b]
        return gz

    return _make(out.reshape(n, 2 * h, 2 * w, c), [(z, vjp)])


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
