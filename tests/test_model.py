import numpy as np
import pytest

from hdys.model import (
    ChannelInventory,
    ConfigError,
    DeadConfigError,
    HDySModel,
    ModelError,
    WindowGroup,
    apply_override,
    config_from_text,
    config_hash,
    config_to_text,
    desk_config,
    loss_align,
    loss_recon,
    paper_config,
    total_loss,
)
from hdys.model.config import ModelConfig
from hdys.model.network import GroupOutput, accel_block, strip_accel_block
from hdys.numcore import Tensor

INV = ChannelInventory(
    dyn_widths={"tau_tr": 23, "tau_ts": 12, "tau_m": 12, "tau_e": 8},
    coord_widths={"x_a": 69, "x_s": 36},
    keypoint_counts={"t1": 9, "t2": 12},
    profile_tree={"A": "t1", "B": "t2", "C": "t2", "D": "t1", "E": "t2"},
    coord_tree={"x_a": "t1", "x_s": "t2"},
)


def small_cfg(**kw) -> ModelConfig:
    base = dict(latent_dim=32, mlp_hidden=(64, 48), composer_hidden=48, window=8)
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
            x[ch] = rng.normal(size=(n_win, window, INV.coord_widths[ch]))
        else:
            x[ch] = rng.normal(size=(n_win, window, INV.dyn_widths[ch]))
    return WindowGroup(profile, tree, n_markers, x, np.ones((n_win, window)), 70.0)


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
    with pytest.raises(ModelError):
        model.encode_kinematics("x_m", np.zeros((2, 0, 9)))
    with pytest.raises(ModelError):
        model.encode_kinematics("x_m", np.zeros((2, 4, 7)))


def test_mlp_encoder_exact_width():
    model = HDySModel(small_cfg(), INV, seed=0)
    rng = np.random.default_rng(3)
    z = model.encode_kinematics("x_a", rng.normal(size=(4, 69)))
    assert z.shape == (4, 32)
    with pytest.raises(ModelError):
        model.encode_kinematics("x_a", rng.normal(size=(4, 68)))


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
    g2 = WindowGroup(
        g1.profile_id, g1.tree_key, 0,
        {k: v.copy() for k, v in g1.x.items()}, g1.weight, g1.subject_mass,
    )
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


def test_fdae_stack_tied_and_untied():
    rng = np.random.default_rng(9)
    g = make_group(rng, mask=("x_m", "x_a", "tau_tr"))
    for tie in (False, True):
        model = HDySModel(small_cfg(tie_fdae_encoders=tie), INV, seed=0)
        assert (model.fenc_set is model.enc_set) == tie
        out = model.forward_group(g)
        assert out.fdae_order == [("x_m", "tau_tr"), ("x_a", "tau_tr")]
        assert out.fdae_stack.shape == (2 * 2, 8, 32)


def test_accel_block_helpers():
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(2, 3, 5, 9))
    assert np.array_equal(strip_accel_block("x_m", rows), rows[..., :6])
    assert accel_block("x_k", rows).shape == (2, 3, 15)
    flat = rng.normal(size=(2, 3, 12))
    assert np.array_equal(strip_accel_block("x_a", flat), flat.reshape(2, 3, 4, 3)[..., :2].reshape(2, 3, 8))
    assert accel_block("x_a", flat).shape == (2, 3, 4)
    assert np.array_equal(accel_block("x_a", flat), flat.reshape(2, 3, 4, 3)[..., 2])


# -- losses -------------------------------------------------------------------------


def _single_pred_output(pred, target, weight=None, cfg=None):
    g = WindowGroup("A", "t1", 0, {"tau_tr": target}, weight if weight is not None else np.ones(target.shape[:2]), 70.0)
    out = GroupOutput(group=g)
    out.kin_order = ["x_a"]
    out.dyn_preds = {"tau_tr": Tensor(pred)}
    return out


def test_loss_recon_exact_fixtures():
    cfg = small_cfg()
    t = np.zeros((1, 1, 1))
    out = _single_pred_output(t.copy(), t.copy())
    loss, _ = loss_recon([out], cfg)
    assert float(loss.data) == 0.0
    out = _single_pred_output(np.full((1, 1, 1), 3.0), np.full((1, 1, 1), 1.0))
    loss, _ = loss_recon([out], cfg)
    assert abs(float(loss.data) - 2.0) < 1e-15


def test_loss_recon_half_mask_equals_subset():
    cfg = small_cfg()
    rng = np.random.default_rng(11)
    pred = rng.normal(size=(2, 4, 3))
    tgt = rng.normal(size=(2, 4, 3))
    w = np.ones((2, 4))
    w[:, 2:] = 0.0
    masked, _ = loss_recon([_single_pred_output(pred, tgt, w)], cfg)
    subset, _ = loss_recon([_single_pred_output(pred[:, :2], tgt[:, :2])], cfg)
    assert abs(float(masked.data) - float(subset.data)) < 1e-12


def test_loss_recon_all_masked_errors():
    cfg = small_cfg()
    out = _single_pred_output(np.ones((1, 2, 3)), np.ones((1, 2, 3)), np.zeros((1, 2)))
    with pytest.raises(DeadConfigError):
        loss_recon([out], cfg)


def _latent_output(latents_by_source, window=1):
    n_win = latents_by_source[0].shape[0]
    g = WindowGroup("E", "t2", 0, {}, np.ones((n_win, window)), 40.0)
    out = GroupOutput(group=g)
    out.kin_order = [f"s{i}" for i in range(len(latents_by_source))]
    from hdys.numcore import concat

    stacked = [Tensor(z[:, None, :]) for z in latents_by_source]
    out.kin_stack = stacked[0] if len(stacked) == 1 else concat(stacked, axis=0)
    return out


def test_loss_align_single_frame_batch_is_zero():
    cfg = small_cfg(similarity="dot", temperature=1.0)
    z = np.array([[1.0, 0.0]])
    out = _latent_output([z, z])
    val = float(loss_align([out], cfg).data)
    assert val == 0.0


def test_loss_align_orthonormal_two_by_two():
    cfg = small_cfg(similarity="dot", temperature=1.0)
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = _latent_output([z.copy(), z.copy()])
    val = float(loss_align([out], cfg).data)
    assert abs(val - np.log(1.0 + np.exp(-1.0))) < 1e-9


def test_loss_align_prefers_aligned_latents():
    cfg = small_cfg()
    rng = np.random.default_rng(12)
    base = rng.normal(size=(16, 8))
    aligned = _latent_output([base, base])
    random = _latent_output([base, rng.normal(size=(16, 8))])
    assert float(loss_align([aligned], cfg).data) < float(loss_align([random], cfg).data)


def test_loss_align_needs_two_sources():
    cfg = small_cfg()
    out = _latent_output([np.ones((3, 4))])
    with pytest.raises(DeadConfigError):
        loss_align([out], cfg)


def test_total_loss_weighting_and_flags():
    cfg = small_cfg(similarity="dot", alpha1=0.01, alpha2=0.05)
    rng = np.random.default_rng(13)
    pred = rng.normal(size=(2, 2, 3))
    tgt = rng.normal(size=(2, 2, 3))
    out = _single_pred_output(pred, tgt)
    z = rng.normal(size=(4, 6))
    out.kin_order = ["x_a", "x_k"]
    from hdys.numcore import concat

    out.kin_stack = concat([Tensor(z.reshape(2, 2, 6)), Tensor(rng.normal(size=(2, 2, 6)))], axis=0)
    total, bd = total_loss(cfg, [out])
    assert abs(bd.total - (0.01 * bd.recon + 0.05 * bd.align)) < 1e-12

    cfg_na = small_cfg(similarity="dot", alpha1=0.01, alpha2=0.05, no_align=True)
    total2, bd2 = total_loss(cfg_na, [out])
    assert bd2.align == 0.0 and abs(bd2.total - 0.01 * bd2.recon) < 1e-15


def test_total_loss_hand_value():
    # recon 2 (scalar |3-1|), align on identical singleton sources = 0:
    # total = 0.01 * 2 + 0.05 * 0 = 0.02; with recon 2, align 1 the formula
    # gives 0.07, checked arithmetically
    assert abs(0.01 * 2 + 0.05 * 1 - 0.07) < 1e-15
    cfg = small_cfg(similarity="dot", alpha1=0.01, alpha2=0.05)
    out = _single_pred_output(np.full((1, 1, 1), 3.0), np.full((1, 1, 1), 1.0))
    z = np.array([[1.0, 0.0]])
    out.kin_order = ["x_a", "x_k"]
    from hdys.numcore import concat

    out.kin_stack = concat([Tensor(z[:, None, :]), Tensor(z[:, None, :])], axis=0)
    total, bd = total_loss(cfg, [out])
    assert abs(bd.recon - 2.0) < 1e-15 and bd.align == 0.0
    assert abs(bd.total - 0.02) < 1e-15


def test_kin_only_with_no_align_is_dead():
    cfg = small_cfg(no_align=True)
    out = _latent_output([np.ones((3, 4)), np.ones((3, 4))])
    with pytest.raises(DeadConfigError):
        total_loss(cfg, [out])


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
        apply_override(cfg, "train.momentum", "0.9")
    with pytest.raises(ConfigError):
        apply_override(cfg, "optimizer.lr", "0.1")


def test_config_override_types():
    cfg = desk_config()
    cfg = apply_override(cfg, "model.latent_dim", "128")
    cfg = apply_override(cfg, "model.no_align", "true")
    cfg = apply_override(cfg, "rollout.k_list", "1,2,3")
    assert cfg.model.latent_dim == 128 and cfg.model.no_align
    assert cfg.rollout.k_list == (1, 2, 3)


def test_paper_preset_constants():
    cfg = paper_config()
    assert cfg.model.latent_dim == 128
    assert cfg.train.lr == 1e-3
    assert cfg.train.frames_per_batch == 9600
    assert cfg.train.epochs == 1000
    assert cfg.train.quota == 3000
    assert cfg.model.alpha1 == 0.01 and cfg.model.alpha2 == 0.05


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(latent_dim=30, set_heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(alpha1=-0.1)
    with pytest.raises(ConfigError):
        ModelConfig(window=0)
