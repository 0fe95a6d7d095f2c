"""Reverse-mode autodiff: finite-difference checks per primitive."""
import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from jobshopls.nn import autodiff as ad


def fd_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = fn(x)
        flat[i] = keep - eps
        lo = fn(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check(build, shape, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)

    def scalar(arr):
        return float(build(ad.constant(arr.copy())).data)

    t = ad.parameter(x.copy())
    out = build(t)
    out.backward()
    fd = fd_grad(scalar, x.copy())
    err = np.abs(t.grad - fd).max()
    scale = max(np.abs(fd).max(), 1.0)
    assert err / scale < tol, err


def test_elementwise_chain():
    check(lambda t: ad.tsum(ad.mul(t, ad.gelu(t))), (4, 3))


def test_gelu_matches_exact_formula():
    x = np.linspace(-4, 4, 41)
    got = ad.gelu(ad.constant(x)).data
    want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    assert np.allclose(got, want, atol=0, rtol=1e-12)


def test_mean_max_and_gather():
    from oracles import rows

    def build(t):
        picked = rows(t, np.array([0, 2, 2, 1]))
        return ad.add(ad.tsum(ad.block_max(picked, [1, 3])),
                      ad.tsum(ad.block_mean(t, [3, 1])))
    check(build, (4, 3))


@pytest.mark.parametrize("fill", [-np.inf, 0.0])
def test_blocks_pads_and_gradient(fill):
    from oracles import amax, padded_blocks

    sizes = [2, 4, 1]
    x = np.arange(14.0).reshape(7, 2)
    out = padded_blocks(ad.constant(x), sizes, fill).data
    assert out.shape == (3, 4, 2)
    assert np.array_equal(out[1], x[2:6]) and np.array_equal(out[2, 0], x[6])
    assert np.all(out[0, 2:] == fill) and np.all(out[2, 1:] == fill)
    # the pads reach the output but take no gradient
    r = np.random.default_rng(11).standard_normal((3, 4, 2))
    def build(t):
        b = padded_blocks(t, sizes, fill)
        if fill == -np.inf:
            return ad.tsum(ad.mul(amax(b, axis=1), ad.constant(r[:, 0])))
        return ad.tsum(ad.mul(b, ad.constant(r)))
    check(build, (7, 2), seed=12)


def test_equal_size_union_pools_without_padded_copies():
    from jobshopls import generate_instance
    from jobshopls.env import ActionSpace, reset
    from jobshopls.nn import GNNConfig, QNetwork
    from jobshopls.nn.qnetwork import batch_q_values

    net = QNetwork(10, GNNConfig.desk_scale(), seed=24)
    observations = [reset(generate_instance(6, 6, seed=s), seed=s)[1] for s in range(3)]
    z, q = batch_q_values(observations, net, np.full((3, 4), 0.5))
    # a padded layout is (blocks, block size, d): the 18 machine groups of 6
    # node rows, the 3 graphs of 36 node or 6 group rows, of 4 quantile rows
    padded = {(18, 6, 32), (3, 36, 32), (3, 6, 32), (3, 4, 10)}
    stack, seen = [q], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert node.shape not in padded
            stack.extend(node._parents)
    assert len(seen) > 100 and q._parents == (z,)


def test_tmean_with_counts():
    from oracles import tmean

    count = np.array([2.0, 4.0, 1.0])[:, None, None]
    r = np.random.default_rng(13).standard_normal((3, 2))
    check(lambda t: ad.tsum(ad.mul(tmean(t, axis=1, count=count),
                                   ad.constant(r))), (3, 4, 2), seed=14)
    x = np.random.default_rng(15).standard_normal((3, 4, 2))
    # the same bits as np.mean when the count is the axis length
    assert np.array_equal(tmean(ad.constant(x), axis=1,
                                count=np.full((3, 1, 1), 4)).data, x.mean(axis=1))
    assert np.array_equal(tmean(ad.constant(x), axis=1, keepdims=True).data,
                          x.mean(axis=1, keepdims=True))
    assert np.array_equal(ad.block_mean(ad.constant(x.reshape(12, 2)), [4] * 3).data,
                          x.mean(axis=1))


# machine groups of a 6x6 and an 8x4 graph, then those graphs' node counts
@pytest.mark.parametrize("sizes", [(6,) * 6 + (8,) * 4 + (6,) * 6,
                                   (36, 32, 32, 36), (36,) * 4])
def test_block_pooling_equals_padded_reference(sizes):
    from oracles import padded_block_max, padded_block_mean

    rng = np.random.default_rng(16)
    # halves make ties, which must route to the same first maximizer
    x = np.round(rng.standard_normal((sum(sizes), 5)) * 2) / 2
    r = rng.standard_normal((len(sizes), 5))
    for op, reference in ((ad.block_max, padded_block_max),
                          (ad.block_mean, padded_block_mean)):
        got, want = (tape(f, x, [], r, sizes=sizes) for f in (op, reference))
        assert np.array_equal(op(ad.constant(x), sizes).data,
                              reference(ad.constant(x), sizes).data)
        assert np.array_equal(got[0], want[0])


def test_concat_splits_gradient():
    def build(t):
        c = ad.concat([t, ad.mul(t, t)], axis=1)
        return ad.tsum(ad.gelu(c))
    check(build, (3, 2))


def test_huber_quadratic_and_linear_zones():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    h = ad.huber(ad.constant(x), kappa=1.0).data
    want = np.where(np.abs(x) <= 1.0, 0.5 * x * x, np.abs(x) - 0.5)
    assert np.allclose(h, want)
    check(lambda t: ad.tsum(ad.huber(t, kappa=1.0)), (7,), seed=3)


def test_broadcasting_unbroadcasts_gradients():
    b = ad.parameter(np.random.default_rng(2).standard_normal(3))
    x = ad.constant(np.random.default_rng(3).standard_normal((4, 3)))
    out = ad.tsum(ad.mul(ad.add(x, b), ad.add(x, b)))
    out.backward()
    assert b.grad.shape == (3,)
    fd = fd_grad(lambda arr: float(np.sum((x.data + arr) ** 2)), b.data.copy())
    assert np.allclose(b.grad, fd, atol=1e-5)


def test_fused_layer_norm_matches_manual():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6))
    scale = rng.standard_normal(6)
    shift = rng.standard_normal(6)
    out = ad.layer_norm(ad.constant(x), ad.constant(scale), ad.constant(shift)).data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5) * scale + shift
    assert np.allclose(out, want, atol=1e-12)

    def build(t):
        return ad.tsum(ad.mul(ad.layer_norm(t, ad.constant(scale),
                                            ad.constant(shift)),
                              ad.constant(np.arange(24.0).reshape(4, 6))))
    check(build, (4, 6), seed=6, tol=1e-5)


def test_layer_norm_parameter_gradients():
    rng = np.random.default_rng(7)
    x = ad.constant(rng.standard_normal((3, 5)))
    scale = ad.parameter(rng.standard_normal(5))
    shift = ad.parameter(rng.standard_normal(5))
    ad.tsum(ad.gelu(ad.layer_norm(x, scale, shift))).backward()

    def f(arrs):
        s, b = arrs
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        y = (x.data - mu) / np.sqrt(var + 1e-5) * s + b
        return float(np.sum(0.5 * y * (1 + erf(y / np.sqrt(2)))))

    for tensor, idx in ((scale, 0), (shift, 1)):
        fd = fd_grad(lambda arr: f((arr, shift.data) if idx == 0
                                   else (scale.data, arr)),
                     tensor.data.copy())
        assert np.allclose(tensor.grad, fd, atol=1e-5)


def test_fused_mlp_matches_composition():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 4))
    w1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
    w2, b2 = rng.standard_normal((6, 3)), rng.standard_normal(3)
    fused = ad.mlp(ad.constant(x), ad.constant(w1), ad.constant(b1),
                   ad.constant(w2), ad.constant(b2)).data
    manual = ad.linear(ad.gelu(ad.linear(ad.constant(x), ad.constant(w1),
                                         ad.constant(b1))),
                       ad.constant(w2), ad.constant(b2)).data
    assert np.allclose(fused, manual, atol=1e-12)


def test_permute_rows_gradient():
    perm = np.array([2, 0, 3, 1])
    check(lambda t: ad.tsum(ad.mul(ad.permute_rows(t, perm),
                                   ad.constant(np.arange(8.0).reshape(4, 2)))),
          (4, 2), seed=9)


def test_neighbor_sum_gradient():
    # chain 0-1-2-3 plus an isolated node 4; id 5 means "no neighbour"
    nbr = np.array([[5, 1], [0, 2], [1, 3], [2, 5], [5, 5]])
    check(lambda t: ad.tsum(ad.mul(ad.neighbor_sum(t, nbr),
                                   ad.constant(np.arange(10.0).reshape(5, 2)))),
          (5, 2), seed=10)


def test_no_grad_suppresses_graph():
    x = ad.parameter(np.ones(3))
    with ad.no_grad():
        y = ad.tsum(ad.mul(x, x))
    assert not y.requires_grad
    y2 = ad.tsum(ad.mul(x, x))
    y2.backward()
    assert np.allclose(x.grad, 2 * np.ones(3))


def test_backward_accumulates_across_reuse():
    x = ad.parameter(np.array([1.5]))
    y = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2
    ad.tsum(y).backward()
    assert np.allclose(x.grad, [6.0])


def test_second_backward_through_a_spent_tape_raises():
    x = ad.parameter(np.array([1.5, -2.0]))
    y = ad.mul(x, x)
    loss = ad.tsum(y)
    loss.backward()
    assert y.grad is None and np.array_equal(x.grad, [3.0, -4.0])
    for again in (loss, ad.tsum(ad.add(y, x))):   # the same loss; a new one over y
        with pytest.raises(RuntimeError, match="already used"):
            again.backward()
    assert np.array_equal(x.grad, [3.0, -4.0])   # raised before any push


def test_amax_routes_gradient_to_first_maximum():
    x = ad.parameter(np.array([[1.0], [3.0], [3.0], [2.0], [2.0]]))
    ad.tsum(ad.block_max(x, [3, 2])).backward()
    assert np.array_equal(x.grad, [[0.0], [1.0], [0.0], [1.0], [0.0]])


def tape(op, x, params, r, **kwargs):
    """Input and parameter gradients of sum(op(x, *params) * r), one tape."""
    xt = ad.parameter(x)
    ps = [ad.parameter(p) for p in params]
    ad.tsum(ad.mul(op(xt, *ps, **kwargs), ad.constant(r))).backward()
    return xt.grad, [p.grad for p in ps]


def check_union_backward(op, x, params, d_out, sizes):
    """One tape over the union of segments with these row counts equals one
    tape per segment bit for bit: input gradients concatenated, parameter
    gradients summed in segment order."""
    r = np.random.default_rng(len(sizes)).standard_normal((len(x), d_out))
    got_x, got_params = tape(op, x, params, r, sizes=sizes)
    ends = np.cumsum(sizes)
    parts = [tape(op, x[e - s:e], params, r[e - s:e]) for s, e in zip(sizes, ends)]
    assert np.array_equal(got_x, np.concatenate([gx for gx, _ in parts]))
    for i, got in enumerate(got_params):
        want = parts[0][1][i].copy()
        for _, grads in parts[1:]:
            want += grads[i]
        assert np.array_equal(got, want), i


# the last two are runs of equal sizes: of length 2, 3 and 1 in one union,
# and the 32 equal graphs of a training batch
UNION_SIZES = [(37, 1, 64, 30), (24, 24, 24), (5, 83), (24, 24, 5, 5, 5, 37),
               (6,) * 32]


@pytest.mark.parametrize("sizes", UNION_SIZES)
def test_linear_backward_per_graph_equals_separate_tapes(sizes):
    rng = np.random.default_rng(20)
    x = rng.standard_normal((sum(sizes), 64))
    params = [rng.standard_normal((64, 96)), rng.standard_normal(96)]
    check_union_backward(ad.linear, x, params, 96, sizes)


@pytest.mark.parametrize("sizes", UNION_SIZES)
def test_layer_norm_backward_per_graph_equals_separate_tapes(sizes):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((sum(sizes), 64))
    params = [rng.standard_normal(64), rng.standard_normal(64)]
    check_union_backward(ad.layer_norm, x, params, 64, sizes)


# no one-row segment: its forward x @ w1 is a gemv on its own tape, which
# rounds differently from a row of the union's gemm
@pytest.mark.parametrize("sizes", [(37, 2, 64, 30)] + UNION_SIZES[1:])
def test_mlp_backward_per_graph_equals_separate_tapes(sizes):
    rng = np.random.default_rng(22)
    x = rng.standard_normal((sum(sizes), 64))
    params = [rng.standard_normal((64, 96)), rng.standard_normal(96),
              rng.standard_normal((96, 48)), rng.standard_normal(48)]
    check_union_backward(ad.mlp, x, params, 48, sizes)


@pytest.mark.parametrize("op, shapes", [
    (ad.linear, [(64, 64), (64,)]),
    (ad.layer_norm, [(64,), (64,)]),
    (ad.mlp, [(64, 96), (96,), (96, 64), (64,)]),
], ids=["linear", "layer_norm", "mlp"])
def test_union_backward_onto_an_existing_gradient(op, shapes):
    # op(op(x)) on one tape: the outer push writes each parameter's gradient,
    # the inner one adds onto it; separate tapes run the outer op graph by
    # graph, then the inner one with the input gradients the outer sent
    sizes = (24, 24, 5, 5, 5, 37)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((sum(sizes), 64))
    params = [rng.standard_normal(shape) for shape in shapes]
    r = rng.standard_normal(x.shape)
    xt, ps = ad.parameter(x), [ad.parameter(p) for p in params]
    mid = op(xt, *ps, sizes=sizes)
    ad.tsum(ad.mul(op(mid, *ps, sizes=sizes), ad.constant(r))).backward()
    graphs = [slice(e - s, e) for s, e in zip(sizes, np.cumsum(sizes))]
    outer = [tape(op, mid.data[s], params, r[s]) for s in graphs]
    inner = [tape(op, x[s], params, gy) for s, (gy, _) in zip(graphs, outer)]
    assert np.array_equal(xt.grad, np.concatenate([gx for gx, _ in inner]))
    for i, p in enumerate(ps):
        want = outer[0][1][i].copy()
        for _, grads in outer[1:] + inner:
            want += grads[i]
        assert np.array_equal(p.grad, want), i


def test_fold_sum_adds_left_to_right():
    # a pairwise sum of these gives 0.0; the left fold gives 1.0
    values = np.array([1e16, 1.0, -1e16, 1.0] * 4)
    x = ad.parameter(values)
    total = ad.fold_sum(x)
    assert float(total.data) == 1.0 and np.sum(values) != 1.0
    ad.mul(total, ad.constant(3.0)).backward()
    assert np.array_equal(x.grad, np.full(16, 3.0))


def test_every_public_op_has_a_caller_in_the_package():
    package = Path(ad.__file__).resolve().parent.parent
    defined = {node.name for node in ast.parse(Path(ad.__file__).read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in package.rglob("*.py"):
        if path.resolve() == Path(ad.__file__).resolve():
            continue
        used |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "ad"}
    assert defined - used == set()


def test_every_private_helper_has_a_caller_in_the_package():
    # a module-level helper counts as called when a name outside its own
    # definition reads it, in the autodiff module or elsewhere in the package
    def names(tree) -> set:
        return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                | {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)})

    package = Path(ad.__file__).resolve().parent.parent
    body = ast.parse(Path(ad.__file__).read_text()).body
    helpers = {node.name for node in body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    used = set()
    for node in body:
        used |= names(node) - {getattr(node, "name", None)}
    for path in package.rglob("*.py"):
        if path.resolve() != Path(ad.__file__).resolve():
            used |= names(ast.parse(path.read_text()))
    assert helpers - used == set()
