"""The comparative run grid: profile contribution, loss/branch ablations,
latent sizes and data-scale variants, all on shared seeds, shared test
splits and an equal per-epoch sample budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .. import HdysError
from ..datahub import DatasetManifest, fifty_fifty, restrict_profiles, subset_dataset
from ..model import HDySConfig
from .evaluate import EvalError, evaluate
from .report import write_json
from .rollout import rollout_eval, rollout_profile
from .train import RecordCache, train

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


def eval_rows(spec: RunSpec, seed: int, result, cache: RecordCache, out_dir: str) -> list[dict]:
    report = evaluate(result.model, result.stdizer, spec.cfg, cache, profiles=spec.eval_profiles)
    return [{"run": spec.name, "seed": seed, **r.__dict__, "param_count": result.model.param_count()} for r in report.rows]


def rollout_study(cfg: HDySConfig, manifest: DatasetManifest) -> list[RunSpec]:
    """The rollout table's one run, refused before it trains if it cannot roll out."""
    rollout_profile(cfg, manifest)
    return [RunSpec("train", manifest, cfg, [])]


def rollout_rows(spec: RunSpec, seed: int, result, cache: RecordCache, out_dir: str) -> list[dict]:
    report = rollout_eval(result.model, result.stdizer, spec.cfg, spec.manifest)
    write_json(os.path.join(out_dir, "timings.json"), report.timings)  # wall time stays out of the CSV
    return [r.__dict__ for r in report.rows]


def run_study(specs: list[RunSpec], root: str, out_dir: str, seeds, score, log) -> list[dict]:
    """Train every spec at every seed into `<out_dir>/<name>-s<seed>` and return,
    in order, the rows that `score(spec, seed, result, cache, out_dir)` gives each."""
    rows = []
    for spec in specs:
        cache = None  # read at the spec's first seed: no run writes to it
        for seed in seeds:
            log(f"[study] {spec.name} seed {seed}")
            try:
                cache = cache or RecordCache.load(root, spec.manifest)
                result = train(spec.cfg, cache, os.path.join(out_dir, f"{spec.name}-s{seed}"), seed=seed)
                rows.extend(score(spec, seed, result, cache, out_dir))
            except HdysError as exc:  # its class sets the exit code
                raise type(exc)(f"run {spec.name} seed {seed}: {exc}") from exc
    return rows
