import sys
import threading
import weakref
from functools import partial

import numpy as np
import pytest

from hdys import HdysError
from hdys.model import (
    ChannelInventory,
    ConfigError,
    DeadConfigError,
    HDySModel,
    Normalisers,
    WindowGroup,
    apply_overrides,
    config_from_text,
    config_hash,
    config_to_text,
    desk_config,
    loss_align,
    loss_recon,
    network,
    paper_config,
    total_loss,
)
from hdys.model.config import ModelConfig
from hdys.model.layers import ParamSet, TransformerLayer
from hdys.model.losses import ALPHA1, ALPHA2, TEMPERATURE
from hdys.model.network import GroupOutput, encoder_threads
from hdys.kinrep import width
from hdys.numcore import Tensor, backward, no_grad, sum_

INV = ChannelInventory(
    dyn_counts={"tau_tr": 23, "tau_ts": 12, "tau_m": 12, "tau_e": 8},
    coord_counts={"x_a": 23, "x_s": 12},
    keypoint_counts={"t1": 9, "t2": 12},
    profile_tree={"A": "t1", "B": "t2", "C": "t2", "D": "t1", "E": "t2"},
)


def small_cfg(**kw) -> ModelConfig:
    base = dict(latent_dim=32, window=8)
    base.update(kw)
    return ModelConfig(**base)


def make_group(rng, profile="A", n_win=2, window=8, n_markers=6, mask=("x_m", "x_k", "x_a", "tau_tr")):
    tree = INV.profile_tree[profile]
    n_kp = INV.keypoint_counts[tree]
    x = {}
    for ch in mask:
        if ch == "x_m":
            x[ch] = rng.normal(size=(n_win, window, n_markers, 9))
        elif ch == "x_k":
            x[ch] = rng.normal(size=(n_win, window, n_kp, 9))
        elif ch in ("x_a", "x_s"):
            x[ch] = rng.normal(size=(n_win, window, width(ch, INV.coord_counts[ch])))
        else:
            x[ch] = rng.normal(size=(n_win, window, INV.dyn_counts[ch]))
    return WindowGroup(profile, x, np.ones((n_win, window)))


# -- encoders ----------------------------------------------------------------------


def test_set_encoder_permutation_invariance():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(3, 10, 9))
    z1 = model.encode_kinematics("x_m", tokens)
    perm = rng.permutation(10)
    z2 = model.encode_kinematics("x_m", tokens[:, perm])
    assert np.abs(z1.data - z2.data).max() <= 1e-10


def test_set_encoder_duplication_invariance():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=(2, 7, 9))
    z1 = model.encode_kinematics("x_m", tokens)
    z2 = model.encode_kinematics("x_m", np.concatenate([tokens, tokens], axis=1))
    assert np.abs(z1.data - z2.data).max() <= 1e-10


def test_set_encoder_variable_sizes():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(2)
    for n in (1, 5, 20, 40):
        z = model.encode_kinematics("x_m", rng.normal(size=(2, n, 9)))
        assert z.shape == (2, 32)


def test_set_encoder_rejects_empty_and_bad_rows():
    model = HDySModel(small_cfg(), INV, seed=0)
    with pytest.raises(HdysError, match="^x_m: empty token set$"):
        model.encode_kinematics("x_m", np.zeros((2, 0, 9)))
    with pytest.raises(HdysError, match="^x_m: rows must be 9-dim, got 7$"):
        model.encode_kinematics("x_m", np.zeros((2, 4, 7)))


def test_mlp_encoder_exact_width():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(3)
    z = model.encode_kinematics("x_a", rng.normal(size=(4, 69)))
    assert z.shape == (4, 32)
    with pytest.raises(HdysError, match="^x_a: expected width 69, got 68$"):
        model.encode_kinematics("x_a", rng.normal(size=(4, 68)))


def test_transformer_layer_graph_frees_what_no_rule_reads(monkeypatch):
    # The graph keeps backward rules, not tensors: the first residual sum feeds
    # only ln2 (which saves its own normalised copy) and the second residual
    # add (which saves shapes), so it is gone once the layer returns, before
    # any backward pass. So are ln1, ln2 and the gelu output, which only a
    # matmul reads: its rule rebuilds them for the weight gradient. gelu's
    # input is read by gelu's rule and stays alive until the reverse pass
    # consumes that rule.
    import hdys.model.layers as layers

    sums, gelu_inputs, gelu_outputs, norms = [], [], [], []
    real_add, real_gelu, real_layer_norm = layers.add, layers.gelu, layers.layer_norm

    def add(a, b):
        out = real_add(a, b)
        sums.append(weakref.ref(out.data))
        return out

    def gelu(x):
        gelu_inputs.append(weakref.ref(x.data))
        out = real_gelu(x)
        gelu_outputs.append(weakref.ref(out.data))
        return out

    def layer_norm(x, gamma, beta):
        out = real_layer_norm(x, gamma, beta)
        norms.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(layers, "add", add)
    monkeypatch.setattr(layers, "gelu", gelu)
    monkeypatch.setattr(layers, "layer_norm", layer_norm)
    ps = ParamSet(seed=0)
    block = TransformerLayer(ps, "blk", dim=8, heads=2, ffn_mult=2)
    y = block(Tensor(np.random.default_rng(5).normal(size=(3, 6, 8))))
    assert len(sums) == 2 and len(gelu_inputs) == 1 and len(norms) == 2
    assert sums[0]() is None  # the residual sum, dropped by the layer
    assert sums[1]() is y.data  # the returned sum, held by the caller
    assert norms[0]() is None and norms[1]() is None and gelu_outputs[0]() is None  # rebuilt, not kept
    assert gelu_inputs[0]() is not None
    leaves = list(ps.params.values())
    grads = backward(sum_(y), leaves)
    assert all(g is not None for g in grads)
    assert gelu_inputs[0]() is None  # freed with gelu's rule


# -- decoder paths ------------------------------------------------------------------


def test_forward_group_head_widths():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(4)
    g = make_group(rng)
    out = model.forward_group(g)
    assert out.kin_order == ["x_m", "x_k", "x_a"]
    assert out.dyn_preds["tau_tr"].shape == (3 * 2, 8, 23)
    assert set(out.accel_preds) == {"acc_k", "acc_a"}
    assert out.accel_preds["acc_k"].shape == (3 * 2, 8, 27)
    assert out.accel_preds["acc_a"].shape == (3 * 2, 8, 23)


def test_muscle_head_width_matches_profile():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(5)
    g = make_group(rng, profile="C", mask=("x_m", "x_k", "x_s", "tau_m"))
    out = model.forward_group(g)
    assert out.dyn_preds["tau_m"].shape[-1] == 12
    assert set(out.accel_preds) == {"acc_k", "acc_s"}
    assert out.accel_preds["acc_k"].shape[-1] == 36  # 12 keypoints on the pose tree


def test_emg_profile_predicts_keypoint_accels_only():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(6)
    g = make_group(rng, profile="D", mask=("x_m", "x_k", "tau_e"))
    out = model.forward_group(g)
    assert set(out.accel_preds) == {"acc_k"}


def test_marker_accelerations_never_predicted():
    model = HDySModel(small_cfg(), INV, seed=0)
    assert not any("acc_m" in k for k in model.acc_heads)
    with pytest.raises(KeyError):
        model.acc_heads[model.accel_head_key("acc_m", "t1")]


def test_window_length_one_works():
    model = HDySModel(small_cfg(window=1), INV, seed=0)
    rng = np.random.default_rng(7)
    g = make_group(rng, n_win=2, window=1)
    out = model.forward_group(g)
    assert out.dyn_preds["tau_tr"].shape == (6, 1, 23)


def test_temporal_ablation_is_frame_local():
    rng = np.random.default_rng(8)
    g1 = make_group(rng, n_win=1, mask=("x_a", "tau_tr"))
    g2 = WindowGroup(g1.profile_id, {k: v.copy() for k, v in g1.x.items()}, g1.weight)
    g2.x["x_a"][0, 3] += 1.0  # perturb frame 3 only

    local = HDySModel(small_cfg(no_temporal_refinement=True), INV, seed=0)
    p1 = local.forward_group(g1).dyn_preds["tau_tr"].data
    p2 = local.forward_group(g2).dyn_preds["tau_tr"].data
    diff = np.abs(p1 - p2).max(axis=-1)[0]
    assert diff[3] > 1e-6 and np.delete(diff, 3).max() == 0.0

    ctx = HDySModel(small_cfg(), INV, seed=0)
    q1 = ctx.forward_group(g1).dyn_preds["tau_tr"].data
    q2 = ctx.forward_group(g2).dyn_preds["tau_tr"].data
    dctx = np.abs(q1 - q2).max(axis=-1)[0]
    assert dctx[3] > 1e-6 and np.delete(dctx, 3).max() > 1e-9  # attention spreads it


def test_fdae_stack_untied():
    rng = np.random.default_rng(9)
    g = make_group(rng, mask=("x_m", "x_a", "tau_tr"))
    model = HDySModel(small_cfg(), INV, seed=0)
    assert model.fenc_set is not model.enc_set
    out = model.forward_group(g)
    assert out.fdae_order == [("x_m", "tau_tr"), ("x_a", "tau_tr")]
    assert out.fdae_stack.shape == (2 * 2, 8, 32)


def test_encoder_thread_count_follows_the_blas_thread_variables():
    threads, pool = threading.active_count(), network._POOL
    assert encoder_threads({}, 2) == 1  # OpenBLAS then takes every core itself
    assert encoder_threads({"OPENBLAS_NUM_THREADS": "1"}, 2) == 2
    assert encoder_threads({"OPENBLAS_NUM_THREADS": "2"}, 2) == 1
    assert encoder_threads({"OPENBLAS_NUM_THREADS": "4"}, 2) == 1
    assert encoder_threads({"OMP_NUM_THREADS": "1"}, 2) == 2
    assert encoder_threads({"OMP_NUM_THREADS": "3"}, 8) == 2
    assert encoder_threads({"OPENBLAS_NUM_THREADS": "1"}, 8) == network.MAX_ENCODER_THREADS == 2
    # OpenBLAS reads its own variable first, and the next one if that is not a positive count
    assert encoder_threads({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8) == 2
    assert encoder_threads({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2) == 2
    for value in ("", "0", "-1", "two"):
        assert encoder_threads({"OPENBLAS_NUM_THREADS": value}, 2) == 1
    assert threading.active_count() == threads and network._POOL is pool


def test_shared_calls_run_once_each_and_return_in_call_order(monkeypatch):
    # more threads than cores and a short switch interval, so the threads interleave
    monkeypatch.setattr(network, "ENCODER_THREADS", 4)
    monkeypatch.setattr(network, "_POOL", None)
    counts = [0] * 200

    def call(i):
        counts[i] += 1  # a call run twice, or lost, breaks the count
        return i * i

    def fails():
        raise ValueError("from a shared call")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert network.run_shared([partial(call, i) for i in range(200)]) == [i * i for i in range(200)]
        with pytest.raises(ValueError, match="from a shared call"):
            network.run_shared([partial(call, 0), fails, partial(call, 1)])
    finally:
        sys.setswitchinterval(interval)
        network._POOL.shutdown(wait=True)
    assert counts == [21, 21] + [20] * 198


def test_pooled_encoders_record_no_graph_under_no_grad(monkeypatch):
    monkeypatch.setattr(network, "ENCODER_THREADS", 2)
    names, both = [], threading.Barrier(2, timeout=30)
    real = HDySModel.encode_kinematics

    def on_two_threads(self, channel, block):
        names.append(threading.current_thread().name)
        if len(names) <= 2:
            both.wait()  # so the first two calls run at once, one on a worker
        return real(self, channel, block)

    monkeypatch.setattr(HDySModel, "encode_kinematics", on_two_threads)
    model = HDySModel(small_cfg(), INV, seed=0)
    g = make_group(np.random.default_rng(10))
    with no_grad():
        out = model.forward_group(g)
    assert len(set(names[:2])) == 2
    assert out.cuts == []
    tensors = [out.kin_stack, out.fdae_stack, *out.dyn_preds.values(), *out.accel_preds.values()]
    assert all(t._node is None and not t.requires_grad for t in tensors)
    # with a graph recorded, each of the 7 encoder outputs is cut from the rest
    names.clear()
    out = model.forward_group(g)
    assert len(set(names[:2])) == 2
    assert len(out.cuts) == 7 and all(z._node is not None and leaf._node is None for z, leaf in out.cuts)


# -- losses -------------------------------------------------------------------------


def _single_pred_output(pred, target, weight=None, cfg=None):
    g = WindowGroup("A", {"tau_tr": target}, weight if weight is not None else np.ones(target.shape[:2]))
    out = GroupOutput(group=g)
    out.kin_order = ["x_a"]
    out.dyn_preds = {"tau_tr": Tensor(pred)}
    return out


def test_loss_recon_exact_fixtures():
    t = np.zeros((1, 1, 1))
    norm = Normalisers(counts={"tau_tr": 1.0})
    out = _single_pred_output(t.copy(), t.copy())
    loss, _ = loss_recon(out, norm)
    assert float(loss.data) == 0.0
    out = _single_pred_output(np.full((1, 1, 1), 3.0), np.full((1, 1, 1), 1.0))
    loss, _ = loss_recon(out, norm)
    assert abs(float(loss.data) - 2.0) < 1e-15


def test_loss_recon_half_mask_equals_subset():
    rng = np.random.default_rng(11)
    pred = rng.normal(size=(2, 4, 3))
    tgt = rng.normal(size=(2, 4, 3))
    w = np.ones((2, 4))
    w[:, 2:] = 0.0
    norm = Normalisers(counts={"tau_tr": 2 * 2 * 3.0})  # kept frames x components, both ways
    masked, _ = loss_recon(_single_pred_output(pred, tgt, w), norm)
    subset, _ = loss_recon(_single_pred_output(pred[:, :2], tgt[:, :2]), norm)
    assert abs(float(masked.data) - float(subset.data)) < 1e-12


def test_loss_recon_all_masked_errors():
    g = make_group(np.random.default_rng(16), n_win=1)
    g.weight[:] = 0.0
    with pytest.raises(DeadConfigError, match="all reconstruction targets were masked out"):
        Normalisers.of_groups(small_cfg(), [g])


def _latent_output(latents_by_source, window=1):
    n_win = latents_by_source[0].shape[0]
    g = WindowGroup("E", {}, np.ones((n_win, window)))
    out = GroupOutput(group=g)
    out.kin_order = [f"s{i}" for i in range(len(latents_by_source))]
    from hdys.numcore import concat

    stacked = [Tensor(z[:, None, :]) for z in latents_by_source]
    out.kin_stack = stacked[0] if len(stacked) == 1 else concat(stacked, axis=0)
    return out


def test_loss_align_single_frame_batch_is_zero():
    z = np.array([[1.0, 0.0]])
    out = _latent_output([z, z])
    val = float(loss_align(out, Normalisers(weight_sum=1.0)).data)
    assert val == 0.0


def test_loss_align_orthonormal_two_by_two():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = _latent_output([z.copy(), z.copy()])
    val = float(loss_align(out, Normalisers(weight_sum=2.0)).data)
    # scores 1/0.1 on the diagonal and 0 off it: log(e^10 + 1) - 10 per frame
    assert abs(val - np.log(1.0 + np.exp(-10.0))) < 1e-12


def test_loss_align_prefers_aligned_latents():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(16, 8))
    aligned = _latent_output([base, base])
    random = _latent_output([base, rng.normal(size=(16, 8))])
    norm = Normalisers(weight_sum=16.0)
    assert float(loss_align(aligned, norm).data) < float(loss_align(random, norm).data)


def test_loss_align_needs_two_sources():
    g = make_group(np.random.default_rng(17), mask=("x_a",))
    with pytest.raises(DeadConfigError, match="alignment needs at least two latent sources"):
        Normalisers.of_groups(small_cfg(), [g])


def _numpy_infonce(groups, temperature):
    """Ordered-pair InfoNCE in plain numpy; `groups` holds (B, d) sources per group."""
    total = weight = 0.0
    for sources in groups:
        b = sources[0].shape[0]
        unit = [z / np.linalg.norm(z, axis=1, keepdims=True) for z in sources]
        terms = []
        for i, zi in enumerate(unit):
            for j, zj in enumerate(unit):
                if i == j:
                    continue
                sims = zi @ zj.T / temperature
                top = sims.max(axis=1, keepdims=True)
                lse = np.log(np.exp(sims - top).sum(axis=1)) + top[:, 0]
                terms.append(lse.mean() - np.trace(sims) / b)
        total += b * np.mean(terms)
        weight += b
    return total / weight


def _stacked_output(rng, n_kin, n_fdae, n_win=3, window=4, d=5):
    """A group with `n_kin` encoder and `n_fdae` composed sources, plus its (B, d) sources."""
    g = WindowGroup("A", {}, np.ones((n_win, window)))
    out = GroupOutput(group=g)
    kin = rng.normal(size=(n_kin * n_win, window, d))
    out.kin_order = [f"k{s}" for s in range(n_kin)]
    out.kin_stack = Tensor(kin)
    blocks = [kin[s * n_win : (s + 1) * n_win].reshape(-1, d) for s in range(n_kin)]
    if n_fdae:
        fdae = rng.normal(size=(n_fdae * n_win, window, d))
        out.fdae_order = [(f"k{s}", "tau_tr") for s in range(n_fdae)]
        out.fdae_stack = Tensor(fdae)
        blocks += [fdae[s * n_win : (s + 1) * n_win].reshape(-1, d) for s in range(n_fdae)]
    return out, blocks


def test_loss_align_matches_numpy_ordered_pairs():
    rng = np.random.default_rng(14)
    cases = [[(2, 0)], [(3, 0)], [(4, 0)], [(2, 2)], [(2, 1), (3, 0)]]
    for case in cases:
        built = [_stacked_output(rng, n_kin, n_fdae) for n_kin, n_fdae in case]
        norm = Normalisers(weight_sum=3 * 4.0 * len(case))  # frames of every group
        got = sum(float(loss_align(out, norm).data) for out, _ in built)
        want = _numpy_infonce([blocks for _, blocks in built], 0.1)
        assert abs(got - want) <= 1e-12 * abs(want), (case, got, want)


def test_loss_align_gradient_matches_numpy_differences():
    from hdys.numcore import backward

    out, _ = _stacked_output(np.random.default_rng(15), 3, 0, n_win=2, window=2, d=3)
    leaf = Tensor(out.kin_stack.data, requires_grad=True)
    out.kin_stack = leaf
    (grad,) = backward(loss_align(out, Normalisers(weight_sum=4.0)), [leaf])

    def ref(x):
        return _numpy_infonce([[x[s * 2 : (s + 1) * 2].reshape(-1, 3) for s in range(3)]], 0.1)

    x, h = leaf.data.copy(), 1e-6
    num = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up, dn = x.copy(), x.copy()
        up[idx] += h
        dn[idx] -= h
        num[idx] = (ref(up) - ref(dn)) / (2 * h)
    assert np.abs(grad - num).max() <= 1e-6 * np.abs(num).max()


def test_total_loss_weighting_and_flags():
    cfg = small_cfg()
    rng = np.random.default_rng(13)
    pred = rng.normal(size=(2, 2, 3))
    tgt = rng.normal(size=(2, 2, 3))
    out = _single_pred_output(pred, tgt)
    z = rng.normal(size=(4, 6))
    out.kin_order = ["x_a", "x_k"]
    from hdys.numcore import concat

    out.kin_stack = concat([Tensor(z.reshape(2, 2, 6)), Tensor(rng.normal(size=(2, 2, 6)))], axis=0)
    norm = Normalisers(counts={"tau_tr": 2 * 2 * 3.0}, weight_sum=4.0)
    total, bd = total_loss(cfg, out, norm)
    assert abs(bd["total"] - (0.01 * bd["recon"] + 0.05 * bd["align"])) < 1e-12

    cfg_na = small_cfg(no_align=True)
    total2, bd2 = total_loss(cfg_na, out, norm)
    assert bd2["align"] == 0.0 and abs(bd2["total"] - 0.01 * bd2["recon"]) < 1e-15


def test_total_loss_hand_value():
    # recon 2 (scalar |3-1|), align on identical singleton sources = 0:
    # total = 0.01 * 2 + 0.05 * 0 = 0.02; with recon 2, align 1 the formula
    # gives 0.07, checked arithmetically
    assert abs(0.01 * 2 + 0.05 * 1 - 0.07) < 1e-15
    cfg = small_cfg()
    out = _single_pred_output(np.full((1, 1, 1), 3.0), np.full((1, 1, 1), 1.0))
    z = np.array([[1.0, 0.0]])
    out.kin_order = ["x_a", "x_k"]
    from hdys.numcore import concat

    out.kin_stack = concat([Tensor(z[:, None, :]), Tensor(z[:, None, :])], axis=0)
    total, bd = total_loss(cfg, out, Normalisers(counts={"tau_tr": 1.0}, weight_sum=1.0))
    assert abs(bd["recon"] - 2.0) < 1e-15 and bd["align"] == 0.0
    assert abs(bd["total"] - 0.02) < 1e-15


def test_kin_only_with_no_align_is_dead():
    g = make_group(np.random.default_rng(18), mask=("x_m", "x_k"))
    with pytest.raises(DeadConfigError, match="neither reconstruction nor alignment"):
        Normalisers.of_groups(small_cfg(no_align=True), [g])


# -- configuration -------------------------------------------------------------------


def test_param_count_ordering_32_64_128():
    counts = {}
    for d in (32, 64, 128):
        model = HDySModel(ModelConfig(latent_dim=d), INV, seed=0)
        counts[d] = model.param_count()
    assert counts[32] < counts[64] < counts[128]


def test_config_text_roundtrip_and_hash():
    cfg = desk_config()
    text = config_to_text(cfg)
    cfg2 = config_from_text(text)
    assert config_to_text(cfg2) == text
    assert config_hash(cfg2) == config_hash(cfg)
    assert "schema = hdys-config/1" in text


def test_config_unknown_key_rejected():
    cfg = desk_config()
    with pytest.raises(ConfigError, match="momentum"):
        apply_overrides(cfg, [("train.momentum", "0.9")])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, [("optimizer.lr", "0.1")])


def test_config_override_types():
    cfg = desk_config()
    cfg = apply_overrides(cfg, [("model.latent_dim", "128")])
    cfg = apply_overrides(cfg, [("model.no_align", "true"), ("rollout.k_list", "1,2,3")])
    assert cfg.model.latent_dim == 128 and cfg.model.no_align
    assert cfg.rollout.k_list == (1, 2, 3)


def test_paper_preset_constants():
    cfg = paper_config()
    assert cfg.model.latent_dim == 128
    assert cfg.train.lr == 1e-3
    assert cfg.train.frames_per_batch == 9600
    assert cfg.train.epochs == 1000
    assert cfg.train.quota == 3000
    assert (ALPHA1, ALPHA2, TEMPERATURE) == (0.01, 0.05, 0.1)
    # the fixed architecture constants hold the parameter counts of both presets
    assert HDySModel(cfg.model, INV).param_count() == 3_298_393
    assert HDySModel(desk_config().model, INV).param_count() == 824_089


# every key a config can set; the fixed architecture, loss weights and
# optimizer constants live in the modules that read them
CONFIG_KEYS = [
    "model.latent_dim", "model.set_ffn_mult", "model.window",
    "model.no_fdae", "model.no_align", "model.no_temporal_refinement",
    "train.epochs", "train.frames_per_batch", "train.quota", "train.lr", "train.seed",
    "rollout.k_list", "rollout.fps_list", "rollout.profile", "rollout.representation",
    "rollout.max_sequences", "rollout.start_stride",
]
REMOVED_KEYS = [
    "model.set_layers", "model.set_heads", "model.mlp_hidden", "model.id_layers", "model.id_heads",
    "model.head_hidden_small", "model.head_hidden_big", "model.dyn_encoder_hidden", "model.composer_hidden",
    "model.alpha1", "model.alpha2", "model.temperature",
    "train.weight_decay", "train.beta1", "train.beta2", "train.eps",
]


def test_config_has_only_the_keys_that_vary():
    lines = config_to_text(desk_config()).splitlines()
    assert lines[0] == "schema = hdys-config/1"
    assert [line.split(" = ")[0] for line in lines[1:]] == CONFIG_KEYS
    for key in REMOVED_KEYS:
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            apply_overrides(desk_config(), [(key, "1")])


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError, match="divisible by the head counts"):
        ModelConfig(latent_dim=30)  # 30 % 4: the temporal transformer's heads
    with pytest.raises(ConfigError):
        ModelConfig(window=0)
    # values a run would only trip over part-way through, rejected when the config is built
    for key, value in (
        ("train.frames_per_batch", "8"), ("train.frames_per_batch", "20"),  # not whole 16-frame windows
        ("model.window", "7"),  # 480 frames are not whole 7-frame windows
        ("model.latent_dim", "30"), ("model.latent_dim", "33"), ("train.quota", "0"),
        ("rollout.start_stride", "0"), ("rollout.k_list", ""), ("rollout.k_list", "1,0"),
        ("rollout.fps_list", ""), ("rollout.fps_list", "90,-1"), ("rollout.max_sequences", "0"),
        ("rollout.representation", "tau_tr"), ("rollout.representation", "mean"),
        ("model.latent_dim", "0"), ("model.latent_dim", "-4"), ("model.set_ffn_mult", "0"),
        ("train.frames_per_batch", "0"), ("train.lr", "nan"), ("train.lr", "inf"), ("train.lr", "0"),
        ("train.lr", "-1e-3"), ("train.seed", "-1"), ("rollout.fps_list", "nan"), ("rollout.fps_list", "90,inf"),
    ):
        with pytest.raises(ConfigError):
            apply_overrides(desk_config(), [(key, value)])
    for rep in ("avg", "x_m", "x_k", "x_a", "x_s"):
        assert apply_overrides(desk_config(), [("rollout.representation", rep)]).rollout.representation == rep
    paper_config()
    assert config_hash(desk_config()) == "a7e4b0f385318357"


def test_frames_per_batch_is_checked_against_the_final_window():
    # keys set together are checked once, so the order of the keys is free
    for pairs in ([("model.window", "7"), ("train.frames_per_batch", "490")],
                  [("train.frames_per_batch", "490"), ("model.window", "7")]):
        cfg = apply_overrides(desk_config(), pairs)
        assert (cfg.model.window, cfg.train.frames_per_batch) == (7, 490)
        text = config_to_text(cfg)
        assert config_from_text(text) == cfg
    with pytest.raises(ConfigError, match="positive multiple of model.window"):
        apply_overrides(desk_config(), [("model.window", "7"), ("train.frames_per_batch", "491")])
    # both presets hold whole windows per batch and load back from their text
    for cfg in (desk_config(), paper_config()):
        assert cfg.train.frames_per_batch % cfg.model.window == 0
        assert config_from_text(config_to_text(cfg)) == cfg
