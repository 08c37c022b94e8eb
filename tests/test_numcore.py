import itertools
import math
import weakref

import numpy as np
import pytest
from scipy.special import erf

import hdys.numcore.tensor as tz
from hdys.numcore import (
    AdamWState,
    adamw_step,
    backward,
    load_checkpoint,
    save_checkpoint,
    GraphError,
    NonFiniteError,
    ShapeError,
    Tensor,
    no_grad,
)
from gradcheck import CASES, check_catalog, grad_check


def test_gradcheck_every_kernel():
    for report in check_catalog(trials=10, tol=1e-4, seed=3):
        assert report.passed, f"{report.kind}: {report.max_rel_err}"


def test_gradcheck_catches_corrupt_kernel(monkeypatch):
    real = tz.gelu

    def corrupt(x):
        out = real(x)
        if out._node:  # the checker's no-grad forward builds no node
            orig = out._node.rule
            out._node.rule = lambda g: ((orig(g)[0] * 1.5),)
        return out

    monkeypatch.setattr(tz, "gelu", corrupt)
    report = grad_check("gelu", trials=3, tol=1e-4)
    assert not report.passed and report.max_rel_err > 1e-4


def test_unknown_kind():
    with pytest.raises(KeyError):
        grad_check("convolve")


def test_gradcheck_samples_exactly_the_op_names():
    # the benchmark traces one kernel per name; grad_check asserts each case's
    # output node carries its kind, so a name without a kernel fails there
    assert tuple(sorted(CASES)) == tz.OP_NAMES
    assert len(set(tz.OP_NAMES)) == 16


def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = tz.matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_bias_fused_equals_separate_add():
    rng = np.random.default_rng(11)
    xa, wa, ba = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(4, 6)), rng.normal(size=6)
    weights = Tensor(rng.normal(size=(2, 3, 5, 6)))

    def run(f):
        x, w, b = (Tensor(a, requires_grad=True) for a in (xa, wa, ba))
        out = f(x, w, b)
        return out.data, backward(tz.sum_(tz.mul(out, weights)), [x, w, b])

    fused, fused_grads = run(lambda x, w, b: tz.matmul(x, w, b))
    split, split_grads = run(lambda x, w, b: tz.add(tz.matmul(x, w), b))
    # Plain numpy on the folded rows is the unfolded reference.
    x2, g2 = xa.reshape(-1, 4), weights.data.reshape(-1, 6)
    plain = (x2 @ wa + ba).reshape(fused.shape)
    plain_grads = ((g2 @ wa.T).reshape(xa.shape), x2.T @ g2, g2.sum(0))
    assert np.array_equal(fused, split)
    assert np.abs(fused - plain).max() <= 1e-12 * np.abs(plain).max()
    for ref in (split_grads, plain_grads):
        for got, want in zip(fused_grads, ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    rule = tz.matmul(Tensor(xa, requires_grad=True), Tensor(wa))._node.rule
    assert rule(np.ones((2, 3, 5, 6)))[0].base is None  # owned, so the reverse pass need not copy it


def test_gradcheck_checks_matmul_bias(monkeypatch):
    real = tz.matmul

    def corrupt(a, b, bias=None):
        out = real(a, b, bias)
        if out._node:
            orig = out._node.rule
            out._node.rule = lambda g: orig(g)[:2] + tuple(gb * 1.5 for gb in orig(g)[2:])
        return out

    monkeypatch.setattr(tz, "matmul", corrupt)
    report = grad_check("matmul", trials=1, tol=1e-4)
    assert not report.passed and report.max_rel_err > 1e-4


# -- in-place kernels against their out-of-place expressions --------------------


def _ref_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, (g * (cdf + x * pdf),)


def _ref_layer_norm(x, gamma, beta, g, eps=1e-5):
    y = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(y).mean(axis=-1, keepdims=True) + eps)
    y *= inv
    gy = g * gamma
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = (gy * y).mean(axis=-1, keepdims=True)
    batch_axes = tuple(range(g.ndim - 1))
    return gamma * y + beta, ((gy - m1 - y * m2) * inv, (g * y).sum(axis=batch_axes), g.sum(axis=batch_axes))


def _ref_attention(q, k, v, n_heads, g):
    lead, (t, d) = q.shape[:-2], q.shape[-2:]
    dh = d // n_heads
    split = lambda a: a.reshape(lead + (t, n_heads, dh)).swapaxes(-2, -3)
    merge = lambda a: a.swapaxes(-2, -3).reshape(lead + (t, d))
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scale = 1.0 / math.sqrt(dh)
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    s -= s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    p = e / e.sum(axis=-1, keepdims=True)
    dv = p.swapaxes(-1, -2) @ gh
    dp = gh @ vh.swapaxes(-1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dq = (ds @ kh) * scale
    dk = (ds.swapaxes(-1, -2) @ qh) * scale
    return merge(p @ vh), (merge(dq), merge(dk), merge(dv))


def _signed_zeros(rng, shape):
    a = rng.normal(size=shape)
    a.flat[::5] = 0.0
    a.flat[2::7] = -0.0
    return a


@pytest.mark.parametrize("t", [1, 12, 18])
def test_in_place_kernels_are_bitwise_their_expressions(t):
    rng = np.random.default_rng(t)
    cases = [
        (tz.gelu, _ref_gelu, [(3, t, 16)], {}),
        (tz.layer_norm, _ref_layer_norm, [(3, t, 16), (16,), (16,)], {}),
        (tz.attention, _ref_attention, [(2, t, 16)] * 3, {"n_heads": 4}),
    ]
    for kernel, ref, shapes, attrs in cases:
        inputs = [_signed_zeros(rng, shape) for shape in shapes]
        g = _signed_zeros(rng, shapes[0])
        g_before = g.copy()
        out = kernel(*[Tensor(a, requires_grad=True) for a in inputs], **attrs)
        got = out._node.rule(g)
        want_out, want = ref(*inputs, *attrs.values(), g)
        assert out.data.tobytes() == want_out.tobytes(), kernel.__name__
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), kernel.__name__
        assert g.tobytes() == g_before.tobytes()  # backward rules never write into g


def test_gelu_rebuild_is_its_output_bit_for_bit():
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.normal(scale=s, size=(4, 500)) for s in (0.2, 1.0, 5.0)])
    x[0, :4] = 0.0, -0.0, np.inf, -np.inf
    with np.errstate(invalid="ignore"):  # -inf * 0 and inf * 0 are NaN on both sides
        out = tz.gelu(Tensor(x, requires_grad=True))
        rebuilt = out._node.rebuild()
    assert rebuilt.tobytes() == out.data.tobytes() and rebuilt is not out.data


@pytest.mark.parametrize("kind", ["gelu", "layernorm"])
def test_matmul_rebuilds_its_input_bit_for_bit(kind):
    # A gelu or layer-norm output that feeds a shared-weight matmul is freed
    # when the caller drops it: the matmul rule rebuilds it for the weight
    # gradient, which equals the one taken from a kept leaf copy bit for bit.
    rng = np.random.default_rng(12)
    leaf = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True)
    x, gamma, beta, w, bias = leaf(3, 7, 16), leaf(16), leaf(16), leaf(16, 5), leaf(5)
    weights = Tensor(rng.normal(size=(3, 7, 5)))
    h = tz.gelu(x) if kind == "gelu" else tz.layer_norm(x, gamma, beta)
    node, ref = h._node, weakref.ref(h.data)
    assert node.rebuild().tobytes() == h.data.tobytes()
    copy = Tensor(h.data.copy(), requires_grad=True)
    out = tz.matmul(h, w, bias)
    del h
    assert ref() is None  # no rule holds the output
    got = backward(tz.sum_(tz.mul(out, weights)), [w, bias])
    assert node.rule is None and node.rebuild is None  # consumed with its node
    want = backward(tz.sum_(tz.mul(tz.matmul(copy, w, bias), weights)), [w, bias])
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_layernorm_constant_vector_is_zero_before_affine():
    x = Tensor(np.full((4, 6), 3.7))
    out = tz.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
    assert np.abs(out.data).max() < 1e-12  # (x - mu) = 0, eps keeps it finite


def test_l2_normalize_unit_norm():
    x = np.random.default_rng(1).normal(size=(10, 5)) + 0.3
    n = np.linalg.norm(tz.l2_normalize(Tensor(x)).data, axis=-1)
    assert np.abs(n - 1.0).max() < 1e-12


def test_logsumexp_value():
    out = tz.logsumexp(Tensor([[0.0, 0.0]]), axis=-1)
    assert abs(out.data[0] - np.log(2.0)) < 1e-15


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(5.0), requires_grad=True)
    (g,) = backward(tz.sum_(x), [x])
    assert np.array_equal(g, np.ones(5))


def test_backward_l1_gives_signs():
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    b = Tensor(np.zeros(3))
    (g,) = backward(tz.l1_distance(a, b), [a])
    assert np.allclose(g, np.sign(a.data) / 3.0)


def test_unreachable_leaf_gets_none():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    root = tz.sum_(tz.mul(x, x))
    gx, gy = backward(root, [x, y])
    assert gy is None and gx.any()


def test_repeated_parent_accumulates():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    (g,) = backward(tz.sum_(tz.add(x, x)), [x])
    assert np.array_equal(g, np.full(2, 2.0))


def test_shared_gradient_arrays_do_not_alias():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    s = tz.add(x, y)
    root = tz.sum_(tz.add(s, tz.mul(x, Tensor(np.array([10.0, 10.0])))))
    gx, gy = backward(root, [x, y])
    assert np.array_equal(gx, np.array([11.0, 11.0]))
    assert np.array_equal(gy, np.array([1.0, 1.0]))


def test_returned_gradients_are_correct_and_independent():
    # Leaves that get a shared array (add), a view of one (reshape, transpose,
    # concat, slice), or several contributions (three consuming ops).
    rng = np.random.default_rng(4)
    leaf = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True)
    a, b, x, r, t, c1, s, z, h, y, y2 = (leaf(2, 3) for _ in range(11))
    c2, h2 = leaf(1, 3), leaf(3, 2)
    w = {k: rng.normal(size=shape) for k, shape in
         [("ab", (2, 3)), ("r", (3, 2)), ("t", (3, 2)), ("cat", (3, 3)), ("s", (2, 2)), ("x1", (3, 2)),
          ("x2", (3, 2)), ("x3", (4, 3)), ("x4", (2, 2)), ("z1", (2, 3)), ("z2", (2, 3)), ("e", (2, 3)),
          ("y", (2, 3)), ("hy", (2, 3)), ("e2", (3, 2)), ("y2", (2, 3)), ("hy2", (2, 3))]}
    dot = lambda u, key: tz.sum_(tz.mul(u, Tensor(w[key])))
    # add(u, v) hands one array to u and v; add(h, 1) passes it on to h
    # unchanged (reshape as a view), and mul(h, e) adds into h's slot
    # before v is visited
    u = tz.add(tz.add(h, Tensor(np.ones((2, 3)))), tz.mul(h, Tensor(w["e"])))
    u2 = tz.add(tz.reshape(h2, (2, 3)), tz.reshape(tz.mul(h2, Tensor(w["e2"])), (2, 3)))
    terms = [
        dot(tz.add(a, b), "ab"),
        dot(tz.reshape(r, (3, 2)), "r"),
        dot(tz.transpose(t), "t"),
        dot(tz.concat([c1, c2], axis=0), "cat"),
        dot(tz.slice_axis(s, 1, 0, 2), "s"),
        dot(tz.reshape(x, (3, 2)), "x1"),
        dot(tz.transpose(x), "x2"),
        dot(tz.concat([x, x], axis=0), "x3"),
        dot(tz.slice_axis(x, 1, 0, 2), "x4"),
        dot(z, "z1"),
        dot(tz.mul(z, z), "z2"),
        tz.sum_(tz.add(z, Tensor(np.ones((2, 3))))),
        dot(tz.add(u, tz.mul(y, Tensor(w["y"]))), "hy"),
        dot(tz.add(u2, tz.mul(y2, Tensor(w["y2"]))), "hy2"),
    ]
    root = terms[0]
    for term in terms[1:]:
        root = tz.add(root, term)
    leaves = [a, b, x, r, t, c1, c2, s, z, h, y, h2, y2]
    grads = backward(root, leaves)

    pad = lambda m: np.concatenate([m, np.zeros((2, 1))], axis=1)
    want = [
        w["ab"], w["ab"],
        w["x1"].reshape(2, 3) + w["x2"].T + w["x3"][:2] + w["x3"][2:] + pad(w["x4"]),
        w["r"].reshape(2, 3), w["t"].T, w["cat"][:2], w["cat"][2:], pad(w["s"]),
        w["z1"] + 2.0 * z.data * w["z2"] + 1.0,
        w["hy"] * (1.0 + w["e"]),
        w["hy"] * w["y"],
        w["hy2"].reshape(3, 2) * (1.0 + w["e2"]),
        w["hy2"] * w["y2"],
    ]
    for got, expected in zip(grads, want):
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)
    for g1, g2 in itertools.combinations(grads, 2):
        assert not np.shares_memory(g1, g2)
    for i in range(len(grads)):
        others = [g.copy() for g in grads]
        grads[i] += 1.0
        assert all(np.array_equal(g, o) for j, (g, o) in enumerate(zip(grads, others)) if j != i)


def test_non_scalar_root_rejected():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        backward(tz.mul(x, x), [x])


def test_seeded_backward_continues_a_pass_through_a_cut_bit_for_bit():
    rng = np.random.default_rng(3)
    xd, wd = rng.normal(size=(4, 5, 3)), rng.normal(size=(3, 6))

    def encoder():
        w = Tensor(wd, requires_grad=True)
        return w, tz.gelu(tz.matmul(Tensor(xd), w))

    def loss(z):
        return tz.sum_(tz.mul(z, tz.l2_normalize(z)))

    w, z = encoder()
    (want,) = backward(loss(z), [w])
    w, z = encoder()
    cut = Tensor(z.data, requires_grad=True)
    (seed,) = backward(loss(cut), [cut])
    with pytest.raises(GraphError, match="seed"):
        backward(z, [w], seed[0])
    (got,) = backward(z, [w], seed)
    assert got.tobytes() == want.tobytes()


def test_backward_frees_the_graph_and_runs_once_per_root():
    x = Tensor(np.ones(3), requires_grad=True)
    y = tz.mul(x, x)
    root = tz.sum_(y)
    (g,) = backward(root, [x])
    assert np.array_equal(g, np.full(3, 2.0))
    for node in (root, y):
        assert node._node.rule is None and node._node.parents == ()
    # a second pass from the root, or through a consumed node, raises
    # instead of handing back zeros
    with pytest.raises(GraphError, match="consumed"):
        backward(root, [x])
    with pytest.raises(GraphError, match="consumed"):
        backward(tz.sum_(tz.add(y, x)), [x])


def test_graph_holds_only_what_rules_read():
    # add and sub save their inputs' shapes, so an intermediate that only
    # they consume is freed when the caller drops it; mul and gelu read
    # their inputs' arrays in the backward pass and keep them alive
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 3)))
    for kernel, kept in ((tz.add, False), (tz.sub, False), (tz.mul, True), (lambda u, v: tz.gelu(u), True)):
        u = tz.mul(x, c)
        ref = weakref.ref(u.data)
        out = kernel(u, x)
        del u
        assert (ref() is not None) == kept, kernel
        (g,) = backward(tz.sum_(out), [x])
        assert g is not None and ref() is None  # consumed rules free what they saved
    # a node refers to its inputs' nodes and to leaves, never to an op output
    y = tz.add(tz.mul(x, c), x)
    mul_node, leaf = y._node.parents
    assert y._node.op == "add" and mul_node.op == "mul" and leaf is x
    assert mul_node.parents == (x, None)  # c needs no gradient, so the node drops it


def test_non_finite_forward_raises():
    with pytest.raises(NonFiniteError):
        tz.l2_normalize(Tensor(np.zeros((1, 3))))


def test_shape_errors_name_offenders():
    with pytest.raises(ShapeError, match="matmul"):
        tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="2-D weight"):
        tz.matmul(Tensor(np.ones((2, 5, 4))), Tensor(np.ones((2, 4, 3))))
    with pytest.raises(ShapeError, match="bias"):
        tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        tz.attention(Tensor(np.ones((1, 2, 6))), Tensor(np.ones((1, 2, 6))), Tensor(np.ones((1, 2, 6))), 4)


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = tz.mul(x, x)
    assert not y.requires_grad and y._node is None


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))

    def run():
        x = Tensor(a, requires_grad=True)
        out = tz.sum_(tz.gelu(tz.matmul(x, Tensor(b))))
        (g,) = backward(out, [x])
        return out.data.copy(), g

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


# -- AdamW ---------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    st = AdamWState(lr=1e-3, weight_decay=0.0)
    adamw_step(st, {"p": p}, {"p": np.zeros(2)})
    assert np.array_equal(p.data, np.array([1.0, -2.0]))


def test_adamw_first_step_hand_value():
    p = Tensor(np.array([0.5]), requires_grad=True)
    st = AdamWState(lr=1e-3, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
    adamw_step(st, {"p": p}, {"p": np.array([1.0])})
    # bias-corrected m-hat = v-hat = 1 at t=1: step = lr / (1 + eps)
    expected = 0.5 - 1e-3 / (1.0 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15


def test_adamw_second_moment_strictly_increases():
    p = Tensor(np.array([0.0]), requires_grad=True)
    st = AdamWState(lr=1e-3)
    adamw_step(st, {"p": p}, {"p": np.array([0.7])})
    v1 = st.v["p"].copy()
    adamw_step(st, {"p": p}, {"p": np.array([0.7])})
    assert st.v["p"][0] > v1[0] and st.step == 2


def test_adamw_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeError):
        adamw_step(AdamWState(), {"p": p}, {"p": np.zeros(2)})


def test_adamw_decoupled_decay():
    p = Tensor(np.array([2.0]), requires_grad=True)
    st = AdamWState(lr=0.1, weight_decay=0.5)
    adamw_step(st, {"p": p}, {"p": np.zeros(1)})
    assert abs(p.data[0] - (2.0 - 0.1 * 0.5 * 2.0)) < 1e-15


# -- checkpoint ------------------------------------------------------------------


def test_checkpoint_byte_identical_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,)), "s": np.array(2.5)}
    st = AdamWState(lr=1e-3, weight_decay=0.01, step=7)
    st.m = {k: rng.normal(size=v.shape) for k, v in arrays.items()}
    st.v = {k: rng.random(size=v.shape) for k, v in arrays.items()}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, st)
    loaded, st2 = load_checkpoint(p1)
    save_checkpoint(p2, loaded, st2)
    assert p1.read_bytes() == p2.read_bytes()
    assert st2.step == 7 and st2.weight_decay == 0.01
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOTHDYS" + b"\x00" * 16)
    from hdys import HdysError

    with pytest.raises(HdysError, match="magic"):
        load_checkpoint(p)
    save_checkpoint(p, {"w": np.ones((2, 3))}, AdamWState(lr=1e-3))
    good = p.read_bytes()
    p.write_bytes(good[:-3])
    with pytest.raises(HdysError, match="truncated"):
        load_checkpoint(p)
    p.write_bytes(good + b"\x00")
    with pytest.raises(HdysError, match="trailing"):
        load_checkpoint(p)
