"""hdysctl: generation, training, evaluation, rollouts and study reproduction.

Exit codes: 0 success, 1 domain failure (infeasible solve, dead config,
missing dataset), 2 usage or configuration errors. Every run directory gets
a frozen copy of its effective config plus a provenance file. Every
artifact (records, manifest, reports, checkpoints and config.txt) is
written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .datahub import (
    DatasetError,
    DatasetManifest,
    MANIFEST_NAME,
    default_profiles,
    generate_dataset,
    load_manifest,
)
from .engine import (
    RecordCache,
    TrainError,
    ablation_suite,
    evaluate,
    load_model,
    provenance,
    rollout_eval,
    train,
    write_csv,
    write_json,
)
from .engine.ablation import CSV_COLUMNS
from .model import ConfigError, HDySConfig, apply_override, config_hash, desk_config, load_config, save_config
from .model.losses import DeadConfigError
from .rbd import InfeasibleActivation

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _data_dir(args) -> str:
    root = args.data or os.environ.get("HDYS_DATA_DIR") or "hdys_data"
    return root


def _require_dataset(root: str) -> DatasetManifest:
    try:
        return load_manifest(root)
    except DatasetError as exc:
        raise CliError(
            f"{exc}\nhint: run 'hdysctl gen-data --data {root}' first", code=EXIT_DOMAIN
        )


def _load_cfg(args) -> HDySConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else desk_config()
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise CliError(f"--set expects key=value, got {kv!r}")
        key, value = kv.split("=", 1)
        cfg = apply_override(cfg, key.strip(), value.strip())
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    return cfg


def _manifest_for(args, root: str) -> DatasetManifest:
    if getattr(args, "manifest", None):
        import json

        with open(args.manifest) as fh:
            m = DatasetManifest.from_dict(json.load(fh))
        return m
    return _require_dataset(root)


def _freeze_run(out_dir: str, cfg: HDySConfig, root: str, seeds) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_config(os.path.join(out_dir, "config.txt"), cfg)
    provenance(out_dir, config_hash(cfg), os.path.join(root, MANIFEST_NAME), list(seeds))


# -- subcommands ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    root = _data_dir(args)
    manifest = DatasetManifest(
        seed=args.seed if args.seed is not None else 0,
        profiles=default_profiles(n_train=args.train_seqs, n_test=args.test_seqs, fps=args.fps),
    )
    generate_dataset(root, manifest, verbose=True)
    print(f"dataset written under {root}")
    return EXIT_OK


def cmd_validate(args) -> int:
    root = _data_dir(args)
    manifest = _require_dataset(root)
    cache = RecordCache.load(root, manifest)
    manifest.validate_splits()
    for p in manifest.profiles:
        pid = p.profile_id
        n_train = sum(cache.train[(pid, sid)].n_frames for sid in manifest.train_ids[pid])
        n_test = sum(cache.test[(pid, sid)].n_frames for sid in manifest.test_ids[pid])
        mask = sorted(next(iter(cache.train[(pid, sid)].mask for sid in manifest.train_ids[pid][:1])))
        print(
            f"profile {pid}: {len(manifest.train_ids[pid])} train seqs / {n_train} frames, "
            f"{len(manifest.test_ids[pid])} test seqs / {n_test} frames, channels {mask}"
        )
    print("dataset valid")
    return EXIT_OK


def cmd_train(args) -> int:
    root = _data_dir(args)
    cfg = _load_cfg(args)
    manifest = _manifest_for(args, root)
    out = args.out or "runs/train"
    _freeze_run(out, cfg, root, [cfg.train.seed])
    cache = RecordCache.load(root, manifest)
    result = train(cfg, cache, out, log=lambda s: print(s, flush=True))
    write_json(
        os.path.join(out, "meta.json"),
        {
            "config_hash": config_hash(cfg),
            "seed": cfg.train.seed,
            "param_count": result.param_count,
            "seconds": round(result.seconds, 2),
        },
    )
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _load_run(args, root: str):
    run_dir = args.run
    cfg_path = os.path.join(run_dir, "config.txt")
    ckpt_path = os.path.join(run_dir, "model.ckpt")
    if not os.path.exists(cfg_path) or not os.path.exists(ckpt_path):
        raise CliError(f"{run_dir} is not a finished run directory", code=EXIT_DOMAIN)
    cfg = load_config(cfg_path)
    manifest = _manifest_for(args, root)
    model, stdizer, _ = load_model(cfg, manifest, ckpt_path)
    return cfg, manifest, model, stdizer


def cmd_eval(args) -> int:
    root = _data_dir(args)
    cfg, manifest, model, stdizer = _load_run(args, root)
    cache = RecordCache.load(root, manifest)
    report = evaluate(model, stdizer, cfg, cache)
    out = args.out or os.path.join(args.run, "eval")
    os.makedirs(out, exist_ok=True)
    rows = [r.__dict__ for r in report.rows]
    write_csv(
        os.path.join(out, "eval.csv"),
        ["profile", "dyn_channel", "representation", "mpje", "rmse", "pcc", "pcc_guarded", "headline"],
        rows,
    )
    write_json(os.path.join(out, "eval.json"), {"best": report.best_choice})
    for r in report.rows:
        print(
            f"{r.profile} {r.representation:5s} mPJE {r.mpje:.4f}  RMSE {r.rmse:.4f}  PCC {r.pcc:.4f}"
        )
    return EXIT_OK


def cmd_rollout(args) -> int:
    root = _data_dir(args)
    cfg, manifest, model, stdizer = _load_run(args, root)
    report = rollout_eval(model, stdizer, cfg, manifest)
    out = args.out or os.path.join(args.run, "rollout")
    os.makedirs(out, exist_ok=True)
    rows = [r.__dict__ for r in report.rows]
    write_csv(os.path.join(out, "rollout.csv"), ["k", "fps", "source", "mse", "n_starts", "diverged"], rows)
    for r in report.rows:
        print(f"k={r.k} fps={r.fps:5.0f} {r.source:9s} mse {r.mse:.3e} ({r.n_starts} starts)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    root = _data_dir(args)
    cfg = _load_cfg(args)
    manifest = _manifest_for(args, root)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    out = args.out or "runs/ablation"
    _freeze_run(out, cfg, root, seeds)
    result = ablation_suite(
        cfg, root, manifest, out, seeds=seeds, target=args.target,
        log=lambda s: print(s, flush=True),
    )
    print(f"comparative table: {result.csv_path} ({len(result.rows)} rows)")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    root = _data_dir(args)
    cfg = _load_cfg(args)
    manifest = _require_dataset(root)
    out = args.out or f"runs/{args.study}"
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    _freeze_run(out, cfg, root, seeds)
    if args.study == "table1-analogue":
        result = ablation_suite(cfg, root, manifest, out, seeds=seeds, target=args.target,
                                log=lambda s: print(s, flush=True))
        print(f"study CSV: {result.csv_path}")
    elif args.study == "table2-analogue":
        from .engine.ablation import RunSpec, run_one, _with_quota
        from .datahub import fifty_fifty, restrict_profiles, single_profile_50

        rows = []
        n = len(manifest.profiles)
        for target in ("A", "D"):
            specs = [
                RunSpec(f"single50-{target}", single_profile_50(manifest, target), _with_quota(cfg, n, 1), [target]),
                RunSpec(f"5050-{target}", fifty_fifty(manifest, target),
                        _with_quota(cfg, n, len(fifty_fifty(manifest, target).profiles)), [target]),
                RunSpec(f"single-{target}", restrict_profiles(manifest, [target]), _with_quota(cfg, n, 1), [target]),
            ]
            for spec in specs:
                for seed in seeds:
                    print(f"[table2] {spec.name} seed {seed}", flush=True)
                    rows.extend(run_one(spec, root, os.path.join(out, f"{spec.name}-s{seed}"), seed))
        csv_path = os.path.join(out, "table2.csv")
        write_csv(csv_path, CSV_COLUMNS, rows)
        print(f"study CSV: {csv_path}")
    elif args.study == "rollout-table":
        cache = RecordCache.load(root, manifest)
        run_dir = os.path.join(out, f"train-s{seeds[0]}")
        result = train(replace(cfg, train=replace(cfg.train, seed=seeds[0])), cache, run_dir)
        report = rollout_eval(result.model, result.stdizer, cfg, manifest)
        rows = [r.__dict__ for r in report.rows]
        csv_path = os.path.join(out, "rollout_table.csv")
        write_csv(csv_path, ["k", "fps", "source", "mse", "n_starts", "diverged"], rows)
        print(f"study CSV: {csv_path}")
    else:
        raise CliError(f"unknown study '{args.study}'")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hdysctl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run=False):
        p.add_argument("--data", help="dataset root (default: $HDYS_DATA_DIR or ./hdys_data)")
        p.add_argument("--manifest", help="alternative manifest JSON over the same records")
        p.add_argument("--config", help="config file (hdys-config/1)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
        p.add_argument("--seed", type=int, help="training seed")
        p.add_argument("--out", help="output directory")
        if run:
            p.add_argument("--run", required=True, help="finished training run directory")

    p = sub.add_parser("gen-data", help="generate the five synthetic domain profiles")
    common(p)
    p.add_argument("--train-seqs", type=int, default=120)
    p.add_argument("--test-seqs", type=int, default=30)
    p.add_argument("--fps", type=float, default=90.0)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("validate", help="check dataset integrity and print a summary")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="metric table for a finished run")
    common(p, run=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rollout", help="k-step torque playback benchmark")
    common(p, run=True)
    p.set_defaults(fn=cmd_rollout)

    p = sub.add_parser("ablate", help="run the 20-run comparative grid")
    common(p)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--target", default="A", help="target profile for scale variants")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("reproduce", help="regenerate a full study CSV with pinned seeds")
    common(p)
    p.add_argument("--study", required=True,
                   choices=["table1-analogue", "table2-analogue", "rollout-table"])
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--target", default="A")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleActivation, DeadConfigError, TrainError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
