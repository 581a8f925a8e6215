"""Finite-difference verification of every op, analytic spot checks, and
convolution and max pooling against independent reference implementations."""

import tracemalloc
import types
import weakref
from functools import partial

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from vesselseg import autodiff as ad
from vesselseg.autodiff import Tensor
from vesselseg.errors import ShapeMismatch
from vesselseg.losses import bcej_loss
from vesselseg.model import ParamStore, conv_bn, init_params, model_logits, tiny_config
from vesselseg.training import block_counts

RNG = np.random.default_rng(20240101)


def fd_check(build, *shapes, h=1e-6, tol=1e-6, samples=6):
    """build(*tensors) -> scalar Tensor; compare backward against central FD."""
    tensors = [Tensor(RNG.normal(size=s), requires_grad=True) for s in shapes]
    loss = build(*tensors)
    loss.backward()
    worst = 0.0
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        for _ in range(samples):
            i = int(RNG.integers(t.data.size))
            orig = t.data.flat[i]
            t.data.flat[i] = orig + h
            lp = build(*tensors).item()
            t.data.flat[i] = orig - h
            lm = build(*tensors).item()
            t.data.flat[i] = orig
            fd = (lp - lm) / (2 * h)
            a = grad.flat[i]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    assert worst < tol, f"max relative error {worst:.3e}"


def test_arithmetic_and_broadcast_grads():
    fd_check(lambda a, b: ad.tsum(ad.mul(a, b)), (3, 4), (3, 4))
    fd_check(lambda a, b: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))), (3, 4), (4,))
    fd_check(lambda a: ad.tsum(ad.mul(ad.add(a, 1.5), 3.0)), (5, 6))


@pytest.mark.parametrize("fill", [None, 0, 4])
def test_bcej_from_logits_matches_finite_differences(fill):
    shape = (2, 1, 3, 5)
    k = RNG.integers(0, 5, size=shape) if fill is None else np.full(shape, fill)
    fd_check(lambda z: ad.bcej_from_logits(z, k), shape, samples=12)


def _full_resolution_oracle(z, mask):
    """The probability-form loss of the nearest-upsampled sigmoid, and its
    gradient in z: the BCE and soft-Jaccard derivatives in each pixel's p,
    written out by hand and chained back through the sigmoid and upsample ops."""
    zt = Tensor(z, requires_grad=True)
    pt = ad.upsample_nearest2x(ad.sigmoid(zt))
    p, y, n = pt.data, mask.astype(np.float64), mask.size
    inter = (p * y).sum() + 1.0
    union = p.sum() + y.sum() - (p * y).sum() + 1.0
    dbce = (-y / p + (1.0 - y) / (1.0 - p)) / n
    djac = -(y * union - inter * (1.0 - y)) / union**2
    pt.backward(dbce + djac)
    return bcej_loss(p, y), zt.grad


@pytest.mark.parametrize("case", range(6))
def test_bcej_from_logits_equals_the_full_resolution_probability_loss(case):
    rng = np.random.default_rng(case)
    n, h, w = (1, 2, 3)[case % 3], 4 + case, 6
    z = rng.normal(scale=3.0, size=(n, 1, h, w))
    mask = (rng.uniform(size=(n, 2 * h, 2 * w)) < (0.0, 0.3, 1.0)[case // 2]).astype(np.uint8)
    want_loss, want_grad = _full_resolution_oracle(z, mask[:, None])
    zt = Tensor(z, requires_grad=True)
    loss = ad.bcej_from_logits(zt, block_counts(mask))
    loss.backward()
    assert loss.data.dtype == np.float64
    assert abs(loss.item() - want_loss) <= 1e-12
    assert np.abs(zt.grad - want_grad).max() <= 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_wrong_side_logit_keeps_its_bce_gradient(dtype):
    """A logit of -30 over an all-positive block, and +30 over an empty one,
    gets (sigmoid(z) - y) / N, which the clamped probability loss zeroed."""
    z = RNG.normal(size=(2, 1, 4, 4))
    k = RNG.integers(0, 5, size=z.shape)
    z[0, 0, 1, 2], k[0, 0, 1, 2] = -30.0, 4
    z[1, 0, 3, 0], k[1, 0, 3, 0] = 30.0, 0
    zt = Tensor(z.astype(dtype), requires_grad=True)
    ad.bcej_from_logits(zt, k).backward()
    n = z.size
    assert abs(zt.grad[0, 0, 1, 2] - (1.0 / (1.0 + np.exp(30.0)) - 1.0) / n) <= 1e-6
    assert abs(zt.grad[1, 0, 3, 0] - (1.0 / (1.0 + np.exp(-30.0)) - 0.0) / n) <= 1e-6


def test_bcej_from_logits_is_finite_at_extreme_logits_and_checks_shapes():
    z = Tensor(np.array([[[[-1e4, 1e4], [0.0, 80.0]]]], dtype=np.float32), requires_grad=True)
    loss = ad.bcej_from_logits(z, np.array([[[[4, 0], [2, 0]]]]))
    loss.backward()
    assert np.isfinite(loss.item()) and np.isfinite(z.grad).all()
    # p = (0, 1, 1/2, 1): sum(p k) = 1, sum(p) = 5/2, sum(k) = 6
    jaccard = 1.0 - (1.0 + 1.0) / (4 * 2.5 + 6.0 - 1.0 + 1.0)
    assert loss.item() == pytest.approx((1e4 + 1e4 + np.log(2.0) + 80.0) / 4 + jaccard, rel=1e-6)
    with pytest.raises(ShapeMismatch):
        ad.bcej_from_logits(z, np.zeros((1, 1, 2, 3)))


def test_matmul_and_linear_grads():
    fd_check(lambda a, b: ad.tsum(ad.matmul(a, b)), (3, 4), (4, 5))
    m = Tensor(RNG.normal(size=(2, 2, 3, 5)))
    fd_check(lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), m)), (2, 2, 3, 4), (2, 2, 4, 5))
    m2 = Tensor(RNG.normal(size=(2, 5, 3)))
    fd_check(lambda x, w, b: ad.tsum(ad.mul(ad.linear(x, w, b), m2)), (2, 5, 4), (3, 4), (3,))


def test_activation_grads():
    fd_check(lambda a: ad.tsum(ad.relu(ad.add(a, 0.31))), (50,))
    fd_check(lambda a: ad.tsum(ad.mul(ad.sigmoid(a), ad.sigmoid(a))), (50,))
    fd_check(lambda a: ad.tsum(ad.mul(ad.gelu(a), ad.gelu(a))), (50,))
    m = Tensor(RNG.normal(size=(4, 7)))
    fd_check(lambda a: ad.tsum(ad.mul(ad.softmax(a), m)), (4, 7))


def test_shape_op_grads():
    fd_check(lambda a: ad.tsum(ad.mul(ad.transpose(ad.reshape(a, (2, 2, 3, 4)), (0, 2, 1, 3)), 2.0)), (4, 12))
    m = Tensor(RNG.normal(size=(2, 3, 4)))
    fd_check(lambda a: ad.tsum(ad.mul(ad.slice_axis(a, 1, 2, 5), m)), (2, 7, 4))
    fd_check(lambda a: ad.tsum(ad.mul(ad.slice_axis(a, 0, 0, 2), m)), (3, 3, 4))


@pytest.mark.parametrize("h, w", [(3, 4), (4, 4), (5, 3)])
def test_interleave_phases_values_and_grads(h, w):
    z = RNG.normal(size=(2, 4 * 3, h + 1, w + 1))
    want = np.empty((2, 3, 2 * h, 2 * w))
    for a in (0, 1):
        for b in (0, 1):
            k = 2 * a + b
            for r in range(h):
                for s in range(w):
                    want[:, :, 2 * r + a, 2 * s + b] = z[:, 3 * k : 3 * k + 3, r + a, s + b]
    np.testing.assert_array_equal(ad.interleave_phases(Tensor(z)).data, want)
    m = Tensor(RNG.normal(size=want.shape))
    fd_check(lambda z: ad.tsum(ad.mul(ad.interleave_phases(z), m)), z.shape)
    with pytest.raises(ShapeMismatch):
        ad.interleave_phases(Tensor(np.zeros((1, 6, 3, 3))))


def test_conv2d_grads():
    m = Tensor(RNG.normal(size=(2, 4, 6, 6)))
    fd_check(lambda x, k, b: ad.tsum(ad.mul(ad.conv2d(x, k, b, 1, 1), m)), (2, 3, 6, 6), (4, 3, 3, 3), (4,))
    fd_check(lambda x, k: ad.tsum(ad.mul(ad.conv2d(x, k, None, 2, 3), 1.5)), (2, 3, 8, 8), (4, 3, 7, 7))
    m2 = Tensor(RNG.normal(size=(1, 4, 4, 4)))
    fd_check(lambda x, k: ad.tsum(ad.mul(ad.conv2d(x, k, None, 2, 0), m2)), (1, 3, 8, 8), (4, 3, 1, 1))


def test_pool_and_upsample_grads():
    m = Tensor(RNG.normal(size=(2, 3, 4, 4)))
    fd_check(lambda x: ad.tsum(ad.mul(ad.max_pool2d(x), m)), (2, 3, 8, 8))
    m2 = Tensor(RNG.normal(size=(1, 2, 6, 8)))
    fd_check(lambda a: ad.tsum(ad.mul(ad.upsample_nearest2x(a), m2)), (1, 2, 3, 4))


def test_norm_grads():
    m = Tensor(RNG.normal(size=(3, 4, 5)))
    fd_check(lambda x, g, b: ad.tsum(ad.mul(ad.layer_norm(x, g, b), m)), (3, 4, 5), (5,), (5,))

    mb = Tensor(RNG.normal(size=(2, 3, 4, 4)))

    def bn_train(x, g, b):
        rm, rv = np.zeros(3), np.ones(3)
        return ad.tsum(ad.mul(ad.batch_norm(x, g, b, rm, rv), mb))

    fd_check(bn_train, (2, 3, 4, 4), (3,), (3,))

    def bn_eval(x, w, g, b):  # eval mode: the running statistics folded into the conv
        ps = _conv_bn_store(w, g, b, np.full(3, 0.1), np.full(3, 1.3))
        return ad.tsum(ad.mul(conv_bn(partial(ad.conv2d, x, padding=1), ps, "conv.weight", "bn", False), mb))

    fd_check(bn_eval, (2, 2, 4, 4), (3, 2, 3, 3), (3,), (3,))


def test_train_bn_chain_with_skip_fanout():
    """Stacked train-mode norms with a shared skip tap, the U-Net pattern."""
    x = Tensor(RNG.normal(size=(2, 3, 8, 8)))
    w = Tensor(RNG.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
    g1 = Tensor(np.ones(3), requires_grad=True)
    b1 = Tensor(np.zeros(3), requires_grad=True)
    g2 = Tensor(np.ones(4), requires_grad=True)
    b2 = Tensor(np.zeros(4), requires_grad=True)
    m1 = Tensor(RNG.normal(size=(2, 4, 4, 4)))
    m2 = Tensor(RNG.normal(size=(2, 3, 8, 8)))

    def forward():
        s = ad.relu(ad.batch_norm(x, g1, b1, np.zeros(3), np.ones(3), ))
        y = ad.max_pool2d(s)
        y = ad.conv2d(y, w, None, 1, 1)
        y = ad.batch_norm(y, g2, b2, np.zeros(4), np.ones(4), )
        return ad.tsum(ad.mul(y, m1)) + ad.tsum(ad.mul(s, m2))

    loss = forward()
    loss.backward()
    h = 1e-6
    for t in (g1, b1, g2, b2, w):
        for _ in range(5):
            i = int(RNG.integers(t.data.size))
            orig = t.data.flat[i]
            t.data.flat[i] = orig + h
            lp = forward().item()
            t.data.flat[i] = orig - h
            lm = forward().item()
            t.data.flat[i] = orig
            fd = (lp - lm) / (2 * h)
            a = t.grad.flat[i]
            assert abs(a - fd) / max(abs(a), abs(fd), 1e-8) < 1e-6


def test_fanout_accumulation_analytic():
    a = Tensor(np.array([3.0]), requires_grad=True)
    loss = ad.tsum(ad.mul(a, a))
    loss.backward()
    assert a.grad[0] == pytest.approx(6.0)


def test_conv_identity_kernel():
    x = RNG.normal(size=(1, 1, 5, 5))
    out = ad.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), stride=1, padding=0)
    np.testing.assert_array_equal(out.data, x)


def test_conv_ones_kernel_interior_sum():
    c = 0.7
    x = Tensor(np.full((1, 1, 6, 6), c))
    out = ad.conv2d(x, Tensor(np.ones((1, 1, 3, 3))), stride=1, padding=1)
    assert out.data[0, 0, 2, 3] == pytest.approx(9 * c)


def test_conv_shape_formula():
    x = Tensor(np.zeros((1, 3, 256, 256)))
    w = Tensor(np.zeros((64, 3, 7, 7)))
    out = ad.conv2d(x, w, stride=2, padding=3)
    assert out.data.shape == (1, 64, 128, 128)  # (256 + 6 - 7)//2 + 1


def test_conv_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))


def test_max_pool_values():
    const = ad.max_pool2d(Tensor(np.full((1, 1, 8, 8), 2.5)))
    assert (const.data == 2.5).all()

    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 0, 0] = 9.0
    out = ad.max_pool2d(Tensor(x))
    assert out.data.shape == (1, 1, 2, 2)
    assert out.data[0, 0, 0, 0] == 9.0
    assert out.data[0, 0, 0, 1] == 0.0
    assert out.data[0, 0, 1, 0] == 0.0
    assert out.data[0, 0, 1, 1] == 0.0

    big = ad.max_pool2d(Tensor(np.zeros((1, 1, 128, 128))))
    assert big.data.shape == (1, 1, 64, 64)


def test_batch_norm_train_statistics():
    x = Tensor(RNG.normal(loc=3.0, scale=2.0, size=(4, 3, 8, 8)))
    gamma = Tensor(np.array([1.0, 2.0, 0.5]))
    beta = Tensor(np.array([0.0, -1.0, 4.0]))
    out = ad.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), )
    for c in range(3):
        vals = out.data[:, c]
        assert vals.mean() == pytest.approx(beta.data[c], abs=1e-5)
        assert vals.std() == pytest.approx(gamma.data[c], abs=1e-3)


def test_batch_norm_running_update_momentum():
    x = Tensor(RNG.normal(size=(2, 3, 4, 4)))
    rm, rv = np.zeros(3), np.ones(3)
    ad.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, )
    np.testing.assert_allclose(rm, 0.1 * x.data.mean(axis=(0, 2, 3)), rtol=1e-6)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * x.data.var(axis=(0, 2, 3)), rtol=1e-6)


def _conv_bn_store(w, gamma, beta, running_mean, running_var) -> ParamStore:
    tensors = {"conv.weight": w, "bn.gamma": gamma, "bn.beta": beta}
    tensors |= {"bn.running_mean": Tensor(running_mean), "bn.running_var": Tensor(running_var)}
    return ParamStore(tiny_config(), tensors)


def test_batch_norm_eval_analytic():
    """Eval-mode batch norm, folded into the conv before it, against the
    unfolded (x - running_mean) / sqrt(running_var + eps) * gamma + beta."""
    x = RNG.normal(size=(2, 3, 4, 4))
    gamma, beta = RNG.uniform(0.5, 1.5, 3), RNG.normal(size=3)
    mean, var = RNG.normal(size=3), RNG.uniform(0.5, 2.0, 3)
    ps = _conv_bn_store(Tensor(np.eye(3).reshape(3, 3, 1, 1)), Tensor(gamma), Tensor(beta), mean, var)
    out = conv_bn(partial(ad.conv2d, Tensor(x)), ps, "conv.weight", "bn", training=False)
    shape = (1, 3, 1, 1)
    want = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + 1e-5) * gamma.reshape(shape) + beta.reshape(shape)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-14)


def test_layer_norm_values():
    out = ad.layer_norm(Tensor(np.array([1.0, 1.0, 1.0])), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0])

    out = ad.layer_norm(Tensor(np.array([-1.0, 1.0])), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    x = Tensor(RNG.normal(size=(10, 16)))
    out = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-3


def _parent_batch_norm(x, gamma, beta, running_mean, running_var, momentum=0.9, eps=1e-5):
    """Train-mode batch norm as written before the shared normalization core."""
    x, gamma, beta = ad.as_tensor(x), ad.as_tensor(gamma), ad.as_tensor(beta)
    d = x.data
    axes = (0, 2, 3)
    shape = (1, d.shape[1], 1, 1)
    mean = d.mean(axis=axes)
    var = d.var(axis=axes)
    running_mean *= momentum
    running_mean += (1.0 - momentum) * mean
    running_var *= momentum
    running_var += (1.0 - momentum) * var
    inv = 1.0 / np.sqrt(var + eps)

    def xhat():
        xh = d - mean.reshape(shape)
        xh *= inv.reshape(shape)
        return xh

    out_data = xhat()
    out_data *= gamma.data.reshape(shape)
    out_data += beta.data.reshape(shape)

    def vjp_x(g):
        gxhat = g * gamma.data.reshape(shape)
        xh = xhat()
        n = d.shape[0] * d.shape[2] * d.shape[3]
        s1 = gxhat.sum(axis=axes).reshape(shape)
        s2 = (gxhat * xh).sum(axis=axes).reshape(shape)
        return (inv.reshape(shape) / n) * (n * gxhat - s1 - xh * s2)

    return ad._make(
        out_data,
        [(x, vjp_x), (gamma, lambda g: (g * xhat()).sum(axis=axes)), (beta, lambda g: g.sum(axis=axes))],
    )


def _parent_layer_norm(x, gamma, beta, eps=1e-5):
    """Layer norm as written before the shared normalization core (it keeps x-hat)."""
    x, gamma, beta = ad.as_tensor(x), ad.as_tensor(gamma), ad.as_tensor(beta)
    d = x.data
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

    return ad._make(
        out_data.astype(d.dtype, copy=False),
        [(x, vjp_x), (gamma, lambda g: (g * xhat).sum(axis=lead)), (beta, lambda g: g.sum(axis=lead))],
    )


def _norm_run(norm, x, gamma, beta, g, *running):
    """The output, the x, gamma and beta gradients for seed g, and the running arrays after the call."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
    running = [r.copy() for r in running]
    out = norm(*tensors, *running)
    out.backward(g)
    return [out.data] + [t.grad for t in tensors] + running


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, (i, a.dtype, b.dtype, a.shape, b.shape)
        assert a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 3, 5, 7), (2, 4, 9, 3), (3, 1, 7, 7), (4, 6, 3, 11)])
def test_batch_norm_is_bit_identical_to_the_parent_op(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    c = shape[1]
    x = rng.normal(1.5, 2.0, size=shape).astype(dtype)
    gamma, beta = rng.uniform(0.5, 1.5, c).astype(dtype), rng.normal(size=c).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    running = rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype)
    got = _norm_run(ad.batch_norm, x, gamma, beta, g, *running)
    _assert_bytes_equal(got, _norm_run(_parent_batch_norm, x, gamma, beta, g, *running))
    assert not np.array_equal(got[4], running[0]) and not np.array_equal(got[5], running[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 5), (1, 16), (2, 9, 12), (3, 4, 1)])
def test_layer_norm_is_bit_identical_to_the_parent_op(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    d = shape[-1]
    x = rng.normal(-0.5, 3.0, size=shape).astype(dtype)
    gamma, beta = rng.uniform(0.5, 1.5, d).astype(dtype), rng.normal(size=d).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    got = _norm_run(ad.layer_norm, x, gamma, beta, g)
    _assert_bytes_equal(got, _norm_run(_parent_layer_norm, x, gamma, beta, g))


def test_activation_values():
    assert ad.relu(Tensor(np.array([-2.0]))).data[0] == 0.0
    assert ad.relu(Tensor(np.array([3.0]))).data[0] == 3.0
    assert ad.sigmoid(Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)
    out = ad.softmax(Tensor(np.array([0.0, 0.0])))
    np.testing.assert_allclose(out.data, [0.5, 0.5])
    rows = ad.softmax(Tensor(RNG.normal(size=(20, 9)))).data
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-6)
    assert ((rows > 0) & (rows < 1)).all()


def test_relu_builds_its_mask_only_on_a_grad_path():
    x = Tensor(RNG.normal(size=(100, 80)), requires_grad=True)
    with ad.no_grad():
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        out = ad.relu(x)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert out._inputs == [] and not out.requires_grad
    assert peak < out.data.nbytes + x.data.size // 2  # the output, and no bool mask
    np.testing.assert_array_equal(out.data, np.maximum(x.data, 0))
    assert ad.relu(Tensor(x.data))._inputs == []  # not on a grad path either

    out = ad.relu(x)
    (vjp,) = [fn for _, fn in out._inputs]
    (mask,) = _closure_arrays([vjp])
    np.testing.assert_array_equal(mask, x.data > 0)


def test_no_grad_blocks_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.mul(a, 2.0)
    assert out._inputs == [] and not out.requires_grad


def test_dtype_preserved():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
    assert ad.mul(a, 2.0).data.dtype == np.float32
    assert ad.add(a, -1.0).data.dtype == np.float32
    assert ad.bcej_from_logits(a, np.ones((2, 2))).data.dtype == np.float32
    assert ad.gelu(a).data.dtype == np.float32
    assert ad.sigmoid(a).data.dtype == np.float32
    x = Tensor(np.ones((1, 2, 8, 8), dtype=np.float32))
    assert ad.conv2d(x, w, stride=1, padding=1).data.dtype == np.float32


# -- reference implementations -------------------------------------------------
# An im2col convolution and an argmax max pool: independent oracles for the
# shifted-GEMM convolution and the phase-split max pool.


def _im2col_conv2d(x, weight, bias=None, stride=1, padding=0):
    d, w = x.data, weight.data
    n, c_in, h, wid = d.shape
    c_out, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wid + 2 * padding - kw) // stride + 1
    dp = np.pad(d, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(dp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c_in * kh * kw)
    out_mat = cols @ w.reshape(c_out, -1).T
    if bias is not None:
        out_mat = out_mat + bias.data
    out_data = out_mat.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    def vjp_x(g):
        gm = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
        gcols = (gm @ w.reshape(c_out, -1)).reshape(n, oh, ow, c_in, kh, kw)
        gcols = gcols.transpose(0, 3, 4, 5, 1, 2)
        gx = np.zeros((n, c_in, h + 2 * padding, wid + 2 * padding), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += gcols[:, :, i, j]
        return gx[:, :, padding : padding + h, padding : padding + wid]

    def vjp_w(g):
        gm = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
        return (gm.T @ cols).reshape(w.shape)

    inputs = [(x, vjp_x), (weight, vjp_w)]
    if bias is not None:
        inputs.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return ad._make(out_data, inputs)


def _argmax_max_pool2d(x, kernel=3, stride=2, padding=1):
    d = x.data
    n, c, h, w = d.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    hp, wp = h + 2 * padding, w + 2 * padding
    dp = np.full((n, c, hp, wp), -np.inf, dtype=d.dtype)
    dp[:, :, padding : padding + h, padding : padding + w] = d
    windows = sliding_window_view(dp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def vjp(g):
        rows = (np.arange(oh) * stride)[None, None, :, None] + arg // kernel
        colx = (np.arange(ow) * stride)[None, None, None, :] + arg % kernel
        nn, cc = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
        flat_idx = ((nn[:, :, None, None] * c + cc[:, :, None, None]) * hp + rows) * wp + colx
        gx = np.zeros(n * c * hp * wp, dtype=g.dtype)
        np.add.at(gx, flat_idx.ravel(), g.ravel())
        return gx.reshape(n, c, hp, wp)[:, :, padding : padding + h, padding : padding + w]

    return ad._make(out_data, [(x, vjp)])


def _value_and_grads(op, arrays, seed, *args):
    """op's output and the gradients of every input under a fixed random seed."""
    tensors = [None if a is None else Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors, *args)
    out.backward(np.random.default_rng(seed).normal(size=out.data.shape).astype(out.data.dtype))
    return [out.data] + [t.grad for t in tensors if t is not None]


@pytest.mark.parametrize("kernel", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 3])
def test_conv2d_matches_im2col_oracle(kernel, stride, padding):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    for (h, w), c_in, n, bias in [
        ((9, 7), 1, 1, False),
        ((9, 7), 3, 3, True),
        ((8, 11), 64, 1, True),
        ((7, 9), 64, 3, False),
        ((10, 10), 3, 1, False),
        ((9, 9), 1, 3, True),
    ]:
        if min(h, w) + 2 * padding < kernel:
            continue
        arrays = [
            rng.normal(size=(n, c_in, h, w)),
            rng.normal(size=(5, c_in, kernel, kernel)),
            rng.normal(size=5) if bias else None,
        ]
        for dtype in (np.float64, np.float32):
            typed = [None if a is None else a.astype(dtype) for a in arrays]
            got = _value_and_grads(ad.conv2d, typed, 7, stride, padding)
            want = _value_and_grads(_im2col_conv2d, typed, 7, stride, padding)
            for g, o in zip(got, want):
                assert g.shape == o.shape and g.dtype == o.dtype == dtype
                if dtype == np.float64:
                    np.testing.assert_allclose(g, o, rtol=0, atol=1e-10)
                else:
                    assert np.abs(g - o).max() <= 1e-5 * np.abs(o).max()


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_values(fns) -> list:
    """Every value reachable from the closure cells of fns, through nested
    functions, lists and tuples."""
    found, seen = [], set()

    def visit(v):
        if id(v) in seen:
            return
        seen.add(id(v))
        found.append(v)
        if isinstance(v, (list, tuple)):
            for item in v:
                visit(item)
        elif isinstance(v, types.FunctionType):
            for cell in v.__closure__ or ():
                visit(cell.cell_contents)

    for fn in fns:
        visit(fn)
    return found


def _closure_arrays(fns) -> list:
    """Every ndarray (as the buffer it views) reachable from the closure cells of fns."""
    found = {}
    for v in _closure_values(fns):
        a = v.data if isinstance(v, Tensor) else v
        if isinstance(a, np.ndarray):
            found[id(_base(a))] = _base(a)
    return list(found.values())


def test_conv2d_tape_holds_no_column_matrix():
    x = Tensor(RNG.normal(size=(2, 64, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.normal(size=(64, 64, 3, 3)).astype(np.float32), requires_grad=True)
    out = ad.conv2d(x, w, stride=1, padding=1)
    padded_input = 2 * 64 * 34 * 34 * 4
    held = sum(a.nbytes for a in _closure_arrays([vjp for _, vjp in out._inputs]))
    assert held <= 1.5 * (padded_input + w.data.nbytes), held


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: rng.normal(size=(2, 3, 8, 8)),
        lambda rng: rng.normal(size=(1, 2, 9, 7)),
        lambda rng: np.full((2, 2, 8, 8), 2.5),
        lambda rng: np.round(rng.normal(size=(2, 3, 9, 9))),  # duplicated maxima
        lambda rng: np.tile([[1.0, 3.0], [3.0, 1.0]], (1, 1, 4, 5)),
    ],
)
def test_max_pool_matches_argmax_oracle(make):
    rng = np.random.default_rng(5)
    x = make(rng)
    for dtype in (np.float64, np.float32):
        got = _value_and_grads(ad.max_pool2d, [x.astype(dtype)], 3)
        want = _value_and_grads(_argmax_max_pool2d, [x.astype(dtype)], 3)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].dtype == want[1].dtype == dtype
        np.testing.assert_allclose(got[1], want[1], rtol=1e-5 if dtype == np.float32 else 1e-12, atol=1e-12)


def test_gelu_computes_float32_in_float32():
    x = Tensor(np.linspace(-6.0, 6.0, 241, dtype=np.float32), requires_grad=True)
    out = ad.gelu(x)
    ad.tsum(out).backward()
    assert out.data.dtype == x.grad.dtype == np.float32
    assert all(a.dtype == np.float32 for a in _closure_arrays([vjp for _, vjp in out._inputs]))
    ref = Tensor(x.data.astype(np.float64), requires_grad=True)
    ref_out = ad.gelu(ref)
    ad.tsum(ref_out).backward()
    np.testing.assert_allclose(out.data, ref_out.data, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(x.grad, ref.grad, rtol=1e-6, atol=1e-7)


# -- the backward walk and what the tape keeps -----------------------------------


def _retaining_backward(root):
    """The walk before backward consumed the graph: every node keeps .grad and _inputs."""
    root.grad = np.ones_like(root.data)
    order, seen, stack = [], set(), [(root, False)]
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
            parent.grad = g if parent.grad is None else parent.grad + g


def _graph_nodes(root) -> list:
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(parent for parent, _ in node._inputs)
    return nodes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_consumes_the_graph_with_the_retaining_walks_grads(dtype):
    rng = np.random.default_rng(17)
    x = rng.uniform(size=(2, 32, 32, 3)).astype(dtype)
    k = block_counts((rng.uniform(size=(2, 32, 32)) < 0.3).astype(np.uint8))
    grads = []
    for walk in (_retaining_backward, Tensor.backward):
        params = init_params(tiny_config(), seed=5, dtype=dtype)
        loss = ad.bcej_from_logits(model_logits(x, params, mode="train"), k)
        inner = [t for t in _graph_nodes(loss) if t._inputs]
        walk(loss)
        grads.append({n: params[n].grad for n in params.trainable_names()})
    want, got = grads
    assert all(g is not None for g in want.values())
    for name in want:
        assert got[name].dtype == want[name].dtype == dtype
        assert got[name].tobytes() == want[name].tobytes(), name
    assert len(inner) > 100
    assert all(t._inputs == [] and t.grad is None for t in inner)

    kept = {n: g.copy() for n, g in got.items()}
    loss.backward()  # the consumed graph reaches no leaf
    for name, g in kept.items():
        np.testing.assert_array_equal(params[name].grad, g)


@pytest.mark.parametrize("c_in, stride, training", [(3, 2, True), (8, 1, False), (64, 1, True)])
def test_conv_and_batch_norm_vjps_keep_only_inputs_and_per_channel_state(c_in, stride, training, monkeypatch):
    rng = np.random.default_rng(c_in)
    c_out = 6

    def param(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    # The graph's edges hold parent nodes, whose data may already be freed, so
    # each op's parent tensors are recorded (and kept alive) as it is built.
    given = {}  # node -> {parent node: the parent Tensor the op was given}
    make = ad._make

    def recording_make(data, inputs):
        out = make(data, inputs)
        given[out._node] = {p._node: p for p, _ in inputs}
        return out

    monkeypatch.setattr(ad, "_make", recording_make)
    x, w, gamma, beta = param(2, c_in, 12, 12), param(c_out, c_in, 3, 3), param(c_out), param(c_out)
    ps = _conv_bn_store(w, gamma, beta, np.zeros(c_out, np.float32), np.ones(c_out, np.float32))
    # train mode is conv then batch_norm; eval mode folds the norm into the conv
    z = conv_bn(partial(ad.conv2d, x, stride=stride, padding=1), ps, "conv.weight", "bn", training)
    nodes = [node for node in _graph_nodes(z._node) if node._inputs]
    assert len(nodes) >= (2 if training else 6)
    for out in nodes:
        own = {id(_base(given[out][p].data)) for p, _ in out._inputs}
        for a in _closure_arrays([vjp for _, vjp in out._inputs]):
            assert id(a) in own or a.size <= max(c_in, c_out), (a.shape, a.dtype)

@pytest.mark.parametrize("shape", [(16, 24), (2, 16, 24)])
def test_layer_norm_vjps_keep_only_the_input_and_per_row_state(shape):
    rng = np.random.default_rng(7)
    d = shape[-1]
    x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(d, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(d, np.float32), requires_grad=True)
    out = ad.layer_norm(x, gamma, beta)
    rows = x.data.size // d
    held = _closure_arrays([vjp for _, vjp in out._inputs])
    assert any(a is x.data for a in held)
    for a in held:
        assert a is x.data or a.size <= max(rows, d), (a.shape, a.dtype)


def test_backward_seed_must_match_the_output_shape():
    for seed_shape in [(3,), (4, 2, 3), (3, 2)]:
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            ad.mul(x, 2.0).backward(np.ones(seed_shape))
        assert x.grad is None
    with pytest.raises(ShapeMismatch):
        ad.mul(x, 2.0).backward()  # no seed for a non-scalar output
    ad.mul(x, 2.0).backward(np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_add_and_shape_moves_capture_no_tensor():
    x = Tensor(RNG.normal(size=(2, 8, 3, 3)), requires_grad=True)
    y = Tensor(RNG.normal(size=(8, 1, 1)), requires_grad=True)
    outs = [
        ad.add(x, y),
        ad.add(x, 2.0),
        ad.reshape(x, (2, -1)),
        ad.transpose(x, (0, 2, 3, 1)),
        ad.slice_axis(x, 1, 2, 5),
        ad.interleave_phases(x),
    ]
    for out in outs:
        assert out._inputs and all(isinstance(p, ad._Node) for p, _ in out._inputs)
        held = _closure_values([vjp for _, vjp in out._inputs])
        assert not any(isinstance(v, (Tensor, ad._Node)) for v in held), held


def _residual_chain(dtype):
    """relu(relu(batch_norm(conv(x))) + x), with the batch-norm output and the
    residual sum returned alongside; the same values for every call."""
    rng = np.random.default_rng(29)

    def param(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    leaves = [param(2, 4, 6, 6), param(4, 4, 3, 3), param(4), param(4)]
    x, w, gamma, beta = leaves
    running = [np.zeros(4, dtype), np.ones(4, dtype)]
    bn = ad.batch_norm(ad.conv2d(x, w, padding=1), gamma, beta, *running)
    total = ad.add(ad.relu(bn), x)
    return ad.relu(total), bn, total, leaves, running


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_graph_frees_the_data_no_vjp_reads(dtype):
    results = []
    for walk in (_retaining_backward, Tensor.backward):
        out, bn, total, leaves, running = _residual_chain(dtype)
        nodes = _graph_nodes(out._node)
        held = {id(a) for a in _closure_arrays([vjp for node in nodes for _, vjp in node._inputs])}
        assert id(_base(bn.data)) not in held and id(_base(total.data)) not in held
        freed = [weakref.ref(bn.data), weakref.ref(total.data)]
        bn_node, total_node = bn._node, total._node
        assert bn_node in nodes and total_node in nodes
        del bn, total, nodes
        assert all(ref() is None for ref in freed)  # relu keeps a mask and add only shapes
        assert bn_node.data is None and total_node.data is None
        walk(ad.tsum(out))
        results.append([t.grad for t in leaves] + running)
    want, got = results
    for g, o in zip(got, want):
        assert g.dtype == o.dtype == dtype
        assert g.tobytes() == o.tobytes()
