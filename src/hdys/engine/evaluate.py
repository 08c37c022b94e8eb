"""Test-split metrics with per-representation, averaged and best reporting.

mPJE is the mean absolute error over dynamics components, divided by subject
mass for joint-torque channels; RMSE is the root mean square over the same
errors; PCC is the Pearson correlation per output channel over all test
frames, averaged across channels (constant channels are guarded to 0 and
counted). The averaged row scores the mean of the per-representation
predictions; the best row copies the per-representation row that wins the
profile's headline metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .. import HdysError
from ..datahub import DatasetManifest
from ..kinrep import TORQUE_CHANNELS
from ..model import HDySConfig, HDySModel
from ..numcore import no_grad
from .batching import Standardizer, WindowRef, build_groups, tiling_starts


class EvalError(HdysError):
    pass


@dataclass
class MetricRow:
    profile: str
    dyn_channel: str
    representation: str  # x_m / x_k / x_a / x_s / avg / best
    mpje: float
    rmse: float
    pcc: float
    pcc_guarded: int
    headline: float


EVAL_COLUMNS = [f.name for f in fields(MetricRow)]  # eval CSV header


@dataclass
class EvalReport:
    rows: list[MetricRow] = field(default_factory=list)
    best_choice: dict[str, str] = field(default_factory=dict)


def _metrics(err: np.ndarray, true: np.ndarray, pred: np.ndarray, mass_norm: float):
    mpje = float(np.abs(err).mean()) / mass_norm
    rmse = float(np.sqrt((err**2).mean()))
    pccs = []
    guarded = 0
    for c in range(true.shape[1]):
        st, sp = true[:, c].std(), pred[:, c].std()
        if st < 1e-12 or sp < 1e-12:
            guarded += 1
            pccs.append(0.0)
            continue
        cov = ((true[:, c] - true[:, c].mean()) * (pred[:, c] - pred[:, c].mean())).mean()
        pccs.append(float(cov / (st * sp)))
    return mpje, rmse, float(np.mean(pccs)), guarded


def predict_sequences(
    model: HDySModel,
    stdizer: Standardizer,
    cfg: HDySConfig,
    records: dict[tuple[str, str], object],
    profile_id: str,
    seq_ids: list[str],
) -> dict[str, dict[str, dict[str, np.ndarray]]]:
    """Per-frame dynamics predictions: seq_id -> kin source -> dyn -> (F, w).

    Windows tile each sequence (end-aligned tail); predictions are written
    back per frame, the tail overlap keeping the later window. A sequence
    shorter than one window or a non-finite prediction is an `EvalError`.
    """
    window = cfg.model.window
    out: dict[str, dict[str, dict[str, np.ndarray]]] = {}
    with no_grad():
        for sid in seq_ids:
            rec = records[(profile_id, sid)]
            if rec.n_frames < window:
                raise EvalError(f"{profile_id}/{sid}: {rec.n_frames} frames, shorter than one {window}-frame window")
            starts = tiling_starts(rec.n_frames, window)
            refs = [WindowRef(profile_id, sid, t0) for t0 in starts]
            groups = build_groups(records, refs, window, stdizer)
            assert len(groups) == 1
            g = groups[0]
            res = model.forward_group(g, with_fdae=False)
            per_source: dict[str, dict[str, np.ndarray]] = {}
            for kin in res.kin_order:
                per_source[kin] = {}
                for dyn in g.dyn_present:
                    pred_w = res.dyn_pred_by_source(kin, dyn)  # (n_win, W, w)
                    if not np.isfinite(pred_w).all():
                        raise EvalError(f"non-finite {dyn} prediction from {kin} for {profile_id}/{sid}")
                    full = np.zeros((rec.n_frames, pred_w.shape[-1]))
                    for wi, t0 in enumerate(starts):
                        full[t0 : t0 + window] = pred_w[wi]
                    per_source[kin][dyn] = stdizer.invert(dyn, full)
            out[sid] = per_source
    return out


def _labelled_profiles(cache, profiles: list[str] | None):
    """Each selected profile with torque labels and test sequences.

    Yields (profile, dyn channel, sequence ids, records, stacked true
    dynamics, subject mass).
    """
    manifest: DatasetManifest = cache.manifest
    records = cache.test
    for profile in manifest.profiles:
        pid = profile.profile_id
        if profiles is not None and pid not in profiles:
            continue
        ids = manifest.test_ids[pid]
        if not (profile.dyn_mask and ids):
            continue
        dyn = profile.dyn_mask[0]
        true = np.concatenate([records[(pid, sid)].channels[dyn] for sid in ids], axis=0)
        yield profile, dyn, ids, records, true, records[(pid, ids[0])].subject_mass


def _scores(true: np.ndarray, pred: np.ndarray, dyn: str, mass: float):
    """(mPJE, RMSE, PCC, guarded channels, headline) of `pred` against `true`."""
    torque = dyn in TORQUE_CHANNELS  # joint torques: mass-normalized, mPJE headline; others RMSE
    mpje, rmse, pcc, guarded = _metrics(pred - true, true, pred, mass if torque else 1.0)
    return mpje, rmse, pcc, guarded, mpje if torque else rmse


def evaluate(
    model: HDySModel,
    stdizer: Standardizer,
    cfg: HDySConfig,
    cache,
    profiles: list[str] | None = None,
) -> EvalReport:
    """Pure function of (checkpoint, data): no randomness anywhere."""
    report = EvalReport()
    for profile, dyn, ids, records, true, mass in _labelled_profiles(cache, profiles):
        pid = profile.profile_id
        preds = predict_sequences(model, stdizer, cfg, records, pid, ids)
        sources = sorted(preds[ids[0]].keys())
        stacked: dict[str, np.ndarray] = {}
        for kin in sources:
            stacked[kin] = np.concatenate([preds[sid][kin][dyn] for sid in ids], axis=0)
        stacked["avg"] = np.mean([stacked[k] for k in sources], axis=0)
        rows_here = {}
        for name in sources + ["avg"]:
            row = MetricRow(pid, dyn, name, *_scores(true, stacked[name], dyn, mass))
            rows_here[name] = row
            report.rows.append(row)
        best = min(sources, key=lambda k: rows_here[k].headline)
        b = rows_here[best]
        report.best_choice[pid] = best
        report.rows.append(
            MetricRow(pid, dyn, "best", b.mpje, b.rmse, b.pcc, b.pcc_guarded, b.headline)
        )
    return report


def _baseline(cache, profiles: list[str] | None, predict) -> dict[str, float]:
    """Test-split headline metric per profile of `predict(pid, dyn, true)`, scored as `evaluate` scores a model."""
    return {
        profile.profile_id: _scores(true, predict(profile.profile_id, dyn, true), dyn, mass)[-1]
        for profile, dyn, _, _, true, mass in _labelled_profiles(cache, profiles)
    }


def zero_baseline(cache, profiles: list[str] | None = None) -> dict[str, float]:
    """Headline metric of the all-zero predictor per profile on the test split."""
    return _baseline(cache, profiles, lambda pid, dyn, true: np.zeros_like(true))


def mean_baseline(cache, profiles: list[str] | None = None) -> dict[str, float]:
    """Headline metric per profile of predicting each channel's train-split mean for every test frame."""

    def train_mean(pid, dyn, true):
        train = [cache.train[(pid, sid)].channels[dyn] for sid in cache.manifest.train_ids[pid]]
        return np.broadcast_to(np.concatenate(train, axis=0).mean(axis=0), true.shape)

    return _baseline(cache, profiles, train_mean)
