import functools
import importlib
import os

import numpy as np
import pytest
from dataclasses import replace

from hdys.engine import (
    RecordCache,
    Standardizer,
    evaluate,
    load_model,
    mean_baseline,
    rollout_eval,
    train,
    zero_baseline,
)
from hdys.engine.ablation import grid
from hdys.engine.evaluate import _metrics
from hdys.model import ChannelInventory, HDySModel, desk_config
from hdys.numcore import load_checkpoint


def tiny_cfg(**train_kw):
    cfg = desk_config()
    tr = dict(epochs=2, quota=2, lr=1e-3)
    tr.update(train_kw)
    return replace(cfg, train=replace(cfg.train, **tr))


@pytest.fixture(scope="module")
def small_cache(small_dataset):
    root, manifest = small_dataset
    return root, RecordCache.load(root, manifest)


# -- metrics ------------------------------------------------------------------------


def test_pcc_affine_invariance():
    rng = np.random.default_rng(0)
    true = rng.normal(size=(50, 4))
    pred = 2.0 * true + 5.0
    _, _, pcc, guarded = _metrics(pred - true, true, pred, 1.0)
    assert abs(pcc - 1.0) <= 1e-12 and guarded == 0


def test_rmse_and_guard_fixture():
    true = np.array([[1.0], [2.0], [3.0]])
    pred = np.ones((3, 1))
    mpje, rmse, pcc, guarded = _metrics(pred - true, true, pred, 1.0)
    assert abs(rmse - np.sqrt(5.0 / 3.0)) <= 1e-12
    assert pcc == 0.0 and guarded == 1
    assert abs(mpje - 1.0) < 1e-15  # |0|+|1|+|2| over 3


def test_metric_homogeneity_under_scaling():
    rng = np.random.default_rng(1)
    true = rng.normal(size=(40, 3))
    pred = true + rng.normal(size=(40, 3)) * 0.3
    m1, r1, p1, _ = _metrics(pred - true, true, pred, 1.0)
    c = 3.7
    m2, r2, p2, _ = _metrics(c * pred - c * true, c * true, c * pred, 1.0)
    assert abs(m2 - c * m1) < 1e-12 and abs(r2 - c * r1) < 1e-12 and abs(p2 - p1) < 1e-12


def test_perfect_prediction_zeroes():
    true = np.random.default_rng(2).normal(size=(20, 5))
    mpje, rmse, pcc, _ = _metrics(true - true, true, true, 2.0)
    assert mpje == 0.0 and rmse == 0.0 and abs(pcc - 1.0) < 1e-12


# -- standardizer ---------------------------------------------------------------------


def test_standardizer_roundtrip(small_cache):
    _, cache = small_cache
    st = Standardizer.fit(list(cache.train.values()))
    rec = next(iter(cache.train.values()))
    for ch, arr in rec.channels.items():
        back = st.invert(ch, st.apply(ch, arr))
        assert np.abs(back - arr).max() < 1e-9
    st2 = Standardizer.from_arrays(st.to_arrays())
    for ch in st.stats:
        assert np.array_equal(st.stats[ch][0], st2.stats[ch][0])


# -- training -------------------------------------------------------------------------


def test_zero_epochs_checkpoint_equals_init(small_cache, tmp_path):
    root, cache = small_cache
    cfg = tiny_cfg(epochs=0, seed=11)
    res = train(cfg, cache, str(tmp_path / "run0"), seed=11)
    arrays, opt = load_checkpoint(res.checkpoint_path)
    fresh = HDySModel(cfg.model, ChannelInventory.from_manifest(cache.manifest), seed=11)
    for name, tensor in fresh.ps.params.items():
        assert np.array_equal(arrays[name], tensor.data)
    assert opt.step == 0
    assert res.curve == []


def test_training_deterministic_per_seed(small_cache, tmp_path):
    root, cache = small_cache
    cfg = tiny_cfg(epochs=2, seed=3)
    r1 = train(cfg, cache, str(tmp_path / "a"), seed=3)
    r2 = train(cfg, cache, str(tmp_path / "b"), seed=3)
    assert r1.curve == r2.curve
    b1 = open(r1.checkpoint_path, "rb").read()
    b2 = open(r2.checkpoint_path, "rb").read()
    assert b1 == b2
    r3 = train(cfg, cache, str(tmp_path / "c"), seed=4)
    assert r3.curve != r1.curve


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("poison", ["weight", "gradient"])
def test_non_finite_loss_or_gradient_stops_training_before_the_optimizer(small_cache, tmp_path, monkeypatch, poison):
    # the package's `train` function shadows its `train` module
    train_mod = importlib.import_module("hdys.engine.train")
    _, cache = small_cache
    cfg = tiny_cfg(epochs=1, seed=2)
    models, steps = [], []

    def recorded_model(*args, **kw):
        model = real_model(*args, **kw)
        if poison == "weight":  # the x_m token embedding overflows to inf
            model.ps.params["enc.x_m.embed.w"].data[...] = 1e308
        models.append((model, {k: p.data.copy() for k, p in model.ps.params.items()}))
        return model

    def backward_with_inf(loss, leaves):
        grads = real_backward(loss, leaves)
        grads[3][0] = np.inf
        return grads

    real_model, real_backward = train_mod.HDySModel, train_mod.backward
    monkeypatch.setattr(train_mod, "HDySModel", recorded_model)
    monkeypatch.setattr(train_mod, "adamw_step", lambda *a: steps.append(a))
    if poison == "gradient":
        monkeypatch.setattr(train_mod, "backward", backward_with_inf)
    with pytest.raises(train_mod.TrainError, match="non-finite") as err:
        train(cfg, cache, str(tmp_path / poison), seed=2)
    assert "epoch 0, batch 0" in str(err.value)
    model, before = models[0]
    if poison == "gradient":
        assert f"'{list(before)[3]}'" in str(err.value)
    assert steps == []
    assert all(np.array_equal(p.data, before[k]) for k, p in model.ps.params.items())


def _batch(cache, cfg, quota=3):
    """A fresh model and the window groups of one balanced draw (all five profiles)."""
    from hdys.datahub import balanced_epoch_sampler
    from hdys.engine.batching import WindowRef, build_groups

    st = Standardizer.fit(list(cache.train.values()))
    model = HDySModel(cfg.model, ChannelInventory.from_manifest(cache.manifest), seed=0)
    rng = np.random.default_rng(0)
    draws = balanced_epoch_sampler(cache.manifest, quota, 0, 0)
    refs = [WindowRef(p, s, int(rng.integers(0, 200))) for p, s in draws]
    tree_of = {p.profile_id: p.tree_key for p in cache.manifest.profiles}
    return model, build_groups(cache.train, refs, cfg.model.window, st, tree_of, marker_rng=rng)


def _one_graph_loss(model, cfg, groups):
    """The batch's loss as one graph: every group's term, joined with `add`."""
    from hdys.model import Normalisers, total_loss
    from hdys.numcore import add

    norm = Normalisers.of_groups(cfg.model, groups)
    terms = [total_loss(cfg.model, model.forward_group(g), norm)[0] for g in groups]
    return functools.reduce(add, [t for t in terms if t is not None])


def test_every_parameter_receives_gradient(small_cache):
    from hdys.numcore import backward

    root, cache = small_cache
    cfg = tiny_cfg()
    model, groups = _batch(cache, cfg)
    loss = _one_graph_loss(model, cfg, groups)
    named = list(model.ps.params.items())
    grads = backward(loss, [p for _, p in named])
    dead = [name for (name, _), g in zip(named, grads) if not np.any(g)]
    assert dead == [], f"dead parameters: {dead[:6]}"


def test_per_group_gradients_add_up_to_the_batch_gradient(small_cache):
    # train's step: one forward/backward per group over the batch normalisers,
    # gradients added; against the same loss built over the batch as one graph
    from hdys.model import LossBreakdown, Normalisers, total_loss
    from hdys.numcore import backward

    root, cache = small_cache
    cfg = tiny_cfg()
    model, groups = _batch(cache, cfg, quota=1)
    assert len(groups) >= 2 and any(not g.dyn_present for g in groups)
    leaves = list(model.ps.params.values())
    whole = _one_graph_loss(model, cfg, groups)
    want = backward(whole, leaves)

    norm = Normalisers.of_groups(cfg.model, groups)
    got = [np.zeros_like(p.data) for p in leaves]
    bd = LossBreakdown()
    for g in groups:
        loss, part = total_loss(cfg.model, model.forward_group(g), norm)
        if not g.dyn_present:
            assert part.recon == 0.0 and part.per_target == {} and part.align > 0.0
        bd += part
        for acc, grad in zip(got, backward(loss, leaves)):
            acc += grad
    for w, g in zip(want, got):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
    assert abs(bd.total - float(whole.data)) <= 1e-12 * abs(float(whole.data))
    assert bd.per_target.keys() == norm.counts.keys()


@pytest.mark.parametrize("no_fdae", [False, True])
def test_normalisers_from_groups_match_forward_outputs(small_cache, no_fdae):
    from hdys.model import Normalisers

    root, cache = small_cache
    cfg = tiny_cfg()
    cfg = replace(cfg, model=replace(cfg.model, no_fdae=no_fdae))
    model, groups = _batch(cache, cfg)
    outputs = [model.forward_group(g) for g in groups]
    # what the loss divides by, read off the forward outputs: unmasked
    # elements per target over every stacked source, frames of the groups
    # with two or more latent sources
    counts, weight_sum = {}, 0.0
    for out in outputs:
        w = out.group.weight
        for name, pred in {**out.dyn_preds, **out.accel_preds}.items():
            copies = pred.shape[0] // w.shape[0]
            counts[name] = counts.get(name, 0.0) + float(np.tile(w, (copies, 1)).sum()) * pred.shape[-1]
        n_sources = len(out.kin_order) + (len(out.fdae_order) if out.fdae_stack is not None else 0)
        if n_sources >= 2:
            weight_sum += w.size
    assert counts and weight_sum > 0
    assert any(name.startswith("acc_") for name in counts) != no_fdae
    norm = Normalisers.of_groups(cfg.model, groups)
    assert norm.counts == counts and norm.weight_sum == weight_sum


def test_checkpoint_reload_reproduces_model(small_cache, tmp_path):
    root, cache = small_cache
    cfg = tiny_cfg(epochs=1, seed=5)
    res = train(cfg, cache, str(tmp_path / "r"), seed=5)
    model, stdizer, opt = load_model(cfg, cache.manifest, res.checkpoint_path)
    for name, p in res.model.ps.params.items():
        assert np.array_equal(p.data, model.ps.params[name].data)
    rep1 = evaluate(res.model, res.stdizer, cfg, cache, profiles=["A"])
    rep2 = evaluate(model, stdizer, cfg, cache, profiles=["A"])
    assert rep1.rows[0].mpje == rep2.rows[0].mpje


# -- evaluation -----------------------------------------------------------------------


def test_evaluate_pure_and_best_consistent(small_cache, tmp_path):
    root, cache = small_cache
    cfg = tiny_cfg(epochs=1, seed=7)
    res = train(cfg, cache, str(tmp_path / "e"), seed=7)
    rep1 = evaluate(res.model, res.stdizer, cfg, cache)
    rep2 = evaluate(res.model, res.stdizer, cfg, cache)
    for a, b in zip(rep1.rows, rep2.rows):
        assert a == b
    for pid in "ABCD":
        rows = [r for r in rep1.rows if r.profile == pid and r.representation not in ("avg", "best")]
        best_row = rep1.row(pid, "best")
        assert best_row.headline == min(r.headline for r in rows)
        chosen = rep1.best_choice[pid]
        assert rep1.row(pid, chosen).headline == best_row.headline
    # averaged row scores the mean prediction, not the mean of metrics
    assert rep1.row("A", "avg").mpje != np.mean(
        [r.mpje for r in rep1.rows if r.profile == "A" and r.representation.startswith("x_")]
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_prediction_is_an_eval_error(small_cache, tmp_path):
    from hdys.engine import EvalError, predict_sequences

    _, cache = small_cache
    cfg = tiny_cfg(epochs=0, seed=1)
    cfg = replace(cfg, rollout=replace(cfg.rollout, max_sequences=1, fps_list=(90.0,)))
    res = train(cfg, cache, str(tmp_path / "inf"), seed=1)
    res.model.ps.params["enc.x_m.embed.w"].data[...] = -np.inf
    a = cache.manifest.profile("A")
    with pytest.raises(EvalError, match="non-finite"):
        predict_sequences(res.model, res.stdizer, cfg, cache.test, "A", a.tree_key, cache.manifest.test_ids["A"])
    with pytest.raises(EvalError, match="non-finite"):
        rollout_eval(res.model, res.stdizer, cfg, cache.manifest)


def test_zero_baseline_positive(small_cache):
    _, cache = small_cache
    zb = zero_baseline(cache)
    assert set(zb) == {"A", "B", "C", "D"}
    assert all(v > 0 for v in zb.values())
    man = cache.manifest
    for pid in "CD":  # headline RMSE: the zero predictor scores the RMS of the truth
        dyn = next(p for p in man.profiles if p.profile_id == pid).dyn_mask[0]
        true = np.concatenate([cache.test[(pid, s)].channels[dyn] for s in man.test_ids[pid]])
        assert zb[pid] == float(np.sqrt((true**2).mean()))


def test_mean_baseline_scores_the_train_mean(small_cache):
    _, cache = small_cache
    mb = mean_baseline(cache)
    assert set(mb) == {"A", "B", "C", "D"}
    man = cache.manifest
    for pid in "CD":  # headline RMSE of (truth - per-channel train mean)
        dyn = next(p for p in man.profiles if p.profile_id == pid).dyn_mask[0]
        true = np.concatenate([cache.test[(pid, s)].channels[dyn] for s in man.test_ids[pid]])
        train = np.concatenate([cache.train[(pid, s)].channels[dyn] for s in man.train_ids[pid]])
        mean = train.sum(axis=0) / train.shape[0]
        assert mb[pid] == pytest.approx(float(np.sqrt(((true - mean) ** 2).mean())), rel=1e-12)
        assert mb[pid] < zero_baseline(cache, [pid])[pid]


# -- rollout --------------------------------------------------------------------------


def test_rollout_oracle_identity(small_cache, tmp_path):
    root, cache = small_cache
    cfg = tiny_cfg(epochs=0, seed=1)
    cfg = replace(cfg, rollout=replace(cfg.rollout, max_sequences=2, start_stride=40, fps_list=(90.0,)))
    res = train(cfg, cache, str(tmp_path / "ro"), seed=1)
    report = rollout_eval(res.model, res.stdizer, cfg, cache.manifest)
    for k in (1, 2, 3, 4, 5):
        assert report.mse(k, 90.0, "oracle") <= 1e-12
    for row in report.rows:
        assert row.diverged == 0 and row.n_starts > 0


def test_rollout_rejects_profiles_without_torques(small_cache, tmp_path):
    from hdys.engine import EvalError

    root, cache = small_cache
    cfg = tiny_cfg(epochs=0)
    res = train(cfg, cache, str(tmp_path / "rr"), seed=0)
    cfg = replace(cfg, rollout=replace(cfg.rollout, profile="C"))
    with pytest.raises(EvalError):
        rollout_eval(res.model, res.stdizer, cfg, cache.manifest)


# -- ablation machinery ------------------------------------------------------------


def test_grid_composition(small_cache):
    _, cache = small_cache
    cfg = tiny_cfg()
    runs = grid(cfg, cache.manifest, target="A")
    names = [r.name for r in runs]
    assert len(runs) == 20
    assert names[0] == "full"
    for pid in "ABCDE":
        assert f"only-{pid}" in names and f"drop-{pid}" in names
    for flag in ("no-align", "no-fdae", "no-temporal-refinement"):
        assert flag in names
    for d in (32, 64, 128):
        assert f"dim-{d}" in names
    assert {"single50-A", "5050-A", "single-A"} <= set(names)
    # equal seen-sample budget: single-profile runs upscale the quota
    only_a = next(r for r in runs if r.name == "only-A")
    assert only_a.cfg.train.quota == 5 * cfg.train.quota
    # shared test split everywhere
    full_test = cache.manifest.test_ids["A"]
    assert only_a.manifest.test_ids["A"] == full_test


def test_rollout_replays_the_stored_test_split_of_a_restricted_manifest(small_cache, tmp_path, monkeypatch):
    import hdys.engine.rollout as rollout_mod
    from hdys.datahub import record_path, record_to_bytes, restrict_profiles

    root, cache = small_cache
    cfg = tiny_cfg(epochs=0)
    res = train(cfg, cache, str(tmp_path / "rb"), seed=0)
    sub = restrict_profiles(cache.manifest, ["B"])  # B was generated as the second profile
    fps = sub.profile("B").fps
    cfg = replace(cfg, rollout=replace(cfg.rollout, profile="B", fps_list=(fps,), max_sequences=2,
                                       k_list=(1,), start_stride=200))
    replayed = {}
    regenerate = rollout_mod.generate_sequence

    def spy(*args, **kwargs):
        rec, traj = regenerate(*args, **kwargs)
        replayed[rec.seq_id] = record_to_bytes(rec)
        return rec, traj

    monkeypatch.setattr(rollout_mod, "generate_sequence", spy)
    rollout_eval(res.model, res.stdizer, cfg, sub)
    assert sorted(replayed) == sub.test_ids["B"][:2]
    for sid, raw in replayed.items():
        assert raw == open(record_path(root, "B", sid), "rb").read(), sid
