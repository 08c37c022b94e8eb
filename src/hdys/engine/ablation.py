"""The comparative run grid: profile contribution, loss/branch ablations,
latent sizes and data-scale variants, all on shared seeds, shared test
splits and an equal per-epoch sample budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..datahub import DatasetManifest, fifty_fifty, restrict_profiles, subset_dataset
from ..model import HDySConfig
from .evaluate import EvalError, evaluate
from .report import write_csv
from .train import RecordCache, TrainError, train

CSV_COLUMNS = [
    "run", "seed", "profile", "dyn_channel", "representation",
    "mpje", "rmse", "pcc", "headline", "param_count",
]


@dataclass
class RunSpec:
    name: str
    manifest: DatasetManifest
    cfg: HDySConfig
    eval_profiles: list[str]


def _with_quota(cfg: HDySConfig, base_profiles: int, run_profiles: int) -> HDySConfig:
    # equal seen samples per epoch across dataset mixes
    quota = max(1, round(cfg.train.quota * base_profiles / run_profiles))
    return replace(cfg, train=replace(cfg.train, quota=quota))


def grid(base_cfg: HDySConfig, manifest: DatasetManifest, target: str = "A") -> list[RunSpec]:
    """The 19-run comparison: full, per-profile-only for each labelled profile
    (an unlabelled one would score no row), drop-one, loss/branch flags, three
    latent sizes and the three data-scale variants."""
    pids = [p.profile_id for p in manifest.profiles]
    n = len(pids)
    runs: list[RunSpec] = [RunSpec("full", manifest, base_cfg, pids)]
    for pid in (p.profile_id for p in manifest.profiles if p.dyn_mask):
        sub = restrict_profiles(manifest, [pid])
        runs.append(RunSpec(f"only-{pid}", sub, _with_quota(base_cfg, n, 1), [pid]))
    for pid in pids:
        keep = [p for p in pids if p != pid]
        sub = restrict_profiles(manifest, keep)
        runs.append(RunSpec(f"drop-{pid}", sub, _with_quota(base_cfg, n, n - 1), keep))
    for flag in ("no_align", "no_fdae", "no_temporal_refinement"):
        cfg = replace(base_cfg, model=replace(base_cfg.model, **{flag: True}))
        runs.append(RunSpec(flag.replace("_", "-"), manifest, cfg, pids))
    for dim in (32, 64, 128):
        cfg = replace(base_cfg, model=replace(base_cfg.model, latent_dim=dim))
        runs.append(RunSpec(f"dim-{dim}", manifest, cfg, pids))
    return runs + scale_variants(base_cfg, manifest, target)


def scale_variants(base_cfg: HDySConfig, manifest: DatasetManifest, target: str) -> list[RunSpec]:
    """The three data-scale runs scored on `target`: half of its training
    set alone, that half mixed 50/50 with the other profiles, and all of it.
    A target without dynamics labels would score no row: `EvalError`."""
    if not manifest.profile(target).dyn_mask:
        raise EvalError(f"profile {target} has no dynamics labels to score the data-scale runs on")
    n = len(manifest.profiles)
    ff = fifty_fifty(manifest, target)
    return [
        RunSpec(f"single50-{target}", subset_dataset(manifest, {target: 0.5}), _with_quota(base_cfg, n, 1), [target]),
        RunSpec(f"5050-{target}", ff, _with_quota(base_cfg, n, len(ff.profiles)), [target]),
        RunSpec(f"single-{target}", restrict_profiles(manifest, [target]), _with_quota(base_cfg, n, 1), [target]),
    ]


def run_one(spec: RunSpec, root: str, out_dir: str, seed: int) -> list[dict]:
    """Train `spec` at `seed` into the run directory `out_dir` and score it."""
    cache = RecordCache.load(root, spec.manifest)
    result = train(spec.cfg, cache, out_dir, seed=seed)
    report = evaluate(result.model, result.stdizer, spec.cfg, cache, profiles=spec.eval_profiles)
    return [{"run": spec.name, "seed": seed, **r.__dict__, "param_count": result.model.param_count()} for r in report.rows]


def run_study(specs: list[RunSpec], root: str, out_dir: str, seeds, csv_name: str, log=None) -> str:
    """Train and score every spec at every seed, each in its own run directory
    `<out_dir>/<name>-s<seed>`, and write the rows to `<out_dir>/<csv_name>`."""
    rows = []
    for spec in specs:
        for seed in seeds:
            if log:
                log(f"[study] {spec.name} seed {seed}")
            try:
                rows.extend(run_one(spec, root, os.path.join(out_dir, f"{spec.name}-s{seed}"), seed))
            except TrainError as exc:
                raise TrainError(f"run {spec.name} seed {seed}: {exc}") from exc
    csv_path = os.path.join(out_dir, csv_name)
    write_csv(csv_path, CSV_COLUMNS, rows)
    return csv_path
