"""hdysctl: generation, training, evaluation, rollouts and study reproduction.

Exit codes: 0 success; 1 domain failure (infeasible solve, dead config,
missing dataset or run, a training profile without training sequences, a
rollout profile without joint-torque labels, a run whose `model.ckpt` is
unreadable or does not fit its `config.txt`); 2 usage or configuration
errors, before anything is written: unknown flags (each subcommand takes
only the flags it reads), config values the program cannot run, and a
`--seeds` list that is empty or not integers.

Every run directory, whether `train` or a `reproduce` study wrote it, holds
its effective `config.txt` (seed included), the manifest it trained on
(`run_manifest.json`), `provenance.json`, `model.ckpt`, `loss_curve.csv` and
`meta.json`. `eval --run` reads the model from it and scores the test records
under `--data`; `rollout --run` needs nothing else, because it regenerates
its sequences from the run's manifest. A study directory holds the same
config, manifest and provenance files plus its CSV. Every artifact is
written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
from .datahub import (
    DatasetError,
    DatasetManifest,
    SamplerError,
    default_profiles,
    generate_dataset,
    load_manifest,
    read_manifest,
)
from .engine import (
    ROLLOUT_COLUMNS,
    EvalError,
    RecordCache,
    TrainError,
    evaluate,
    freeze_run,
    grid,
    load_run,
    rollout_eval,
    run_study,
    scale_variants,
    train,
    write_csv,
    write_json,
)
from .model import ConfigError, HDySConfig, apply_override, desk_config, load_config
from .model.losses import DeadConfigError
from .numcore import CheckpointError
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
    cfg = load_config(args.config) if args.config else desk_config()
    for kv in args.set or []:
        if "=" not in kv:
            raise CliError(f"--set expects key=value, got {kv!r}")
        key, value = kv.split("=", 1)
        cfg = apply_override(cfg, key.strip(), value.strip())
    return cfg


def _log(msg: str) -> None:
    print(msg, flush=True)


def _manifest_for(args, root: str) -> DatasetManifest:
    if args.manifest:
        return read_manifest(args.manifest)
    return _require_dataset(root)


# -- subcommands ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    root = _data_dir(args)
    manifest = DatasetManifest(
        seed=0 if args.seed is None else args.seed,
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
        train_ids = manifest.train_ids[pid]
        if not train_ids:
            raise CliError(f"profile {pid} has no training sequences", code=EXIT_DOMAIN)
        n_train = sum(cache.train[(pid, sid)].n_frames for sid in train_ids)
        n_test = sum(cache.test[(pid, sid)].n_frames for sid in manifest.test_ids[pid])
        mask = sorted(cache.train[(pid, train_ids[0])].mask)
        print(
            f"profile {pid}: {len(train_ids)} train seqs / {n_train} frames, "
            f"{len(manifest.test_ids[pid])} test seqs / {n_test} frames, channels {mask}"
        )
    print("dataset valid")
    return EXIT_OK


def cmd_train(args) -> int:
    root = _data_dir(args)
    cfg = _load_cfg(args)
    cache = RecordCache.load(root, _manifest_for(args, root))
    result = train(cfg, cache, args.out or "runs/train", seed=args.seed, log=_log)
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    root = _data_dir(args)
    cfg, manifest, model, stdizer = load_run(args.run)
    report = evaluate(model, stdizer, cfg, RecordCache.load(root, manifest, splits=("test",)))
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
    cfg, manifest, model, stdizer = load_run(args.run)
    report = rollout_eval(model, stdizer, cfg, manifest)
    out = args.out or os.path.join(args.run, "rollout")
    os.makedirs(out, exist_ok=True)
    rows = [r.__dict__ for r in report.rows]
    write_csv(os.path.join(out, "rollout.csv"), ROLLOUT_COLUMNS, rows)
    for r in report.rows:
        print(f"k={r.k} fps={r.fps:5.0f} {r.source:9s} mse {r.mse:.3e} ({r.n_starts} starts)")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    root = _data_dir(args)
    cfg = _load_cfg(args)
    manifest = _manifest_for(args, root)
    out = args.out or f"runs/{args.study}"
    seeds = args.seeds[:1] if args.study == "rollout-table" else args.seeds  # rollout-table trains one model
    freeze_run(out, cfg, manifest, seeds)
    if args.study == "table1-analogue":
        csv_path = run_study(grid(cfg, manifest, args.target), root, out, seeds, "ablation.csv", _log)
    elif args.study == "table2-analogue":
        specs = scale_variants(cfg, manifest, "A") + scale_variants(cfg, manifest, "D")
        csv_path = run_study(specs, root, out, seeds, "table2.csv", _log)
    else:  # rollout-table
        cache = RecordCache.load(root, manifest)
        result = train(cfg, cache, os.path.join(out, f"train-s{seeds[0]}"), seed=seeds[0])
        report = rollout_eval(result.model, result.stdizer, cfg, manifest)
        csv_path = os.path.join(out, "rollout_table.csv")
        write_csv(csv_path, ROLLOUT_COLUMNS, [r.__dict__ for r in report.rows])
    print(f"study CSV: {csv_path}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("lists no seed")
    return seeds


FLAGS = {
    "--data": dict(help="dataset root (default: $HDYS_DATA_DIR or ./hdys_data)"),
    "--manifest": dict(help="manifest JSON over the records under --data (default: the dataset's own)"),
    "--config": dict(help="config file (hdys-config/1; default: the desk preset)"),
    "--set": dict(action="append", metavar="KEY=VALUE", help="config override, repeatable"),
    "--seed": dict(type=int, help="dataset seed (gen-data, default 0) or training seed (train, default: the config's)"),
    "--out": dict(help="output directory"),
    "--run": dict(required=True, help="run directory that train or reproduce finished"),
    "--train-seqs": dict(type=int, default=120),
    "--test-seqs": dict(type=int, default=30),
    "--fps": dict(type=float, default=90.0),
    "--study": dict(required=True, choices=["table1-analogue", "table2-analogue", "rollout-table"]),
    "--seeds": dict(type=_seed_list, default="0,1,2", help="comma-separated seeds (rollout-table trains only the first)"),
    "--target": dict(default="A", help="target profile of table1's data-scale runs"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hdysctl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *flags):
        # no prefix matching: `reproduce --seed` must not pass for `--seeds`
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])

    command("gen-data", cmd_gen_data, "generate the five synthetic domain profiles",
            "--data", "--seed", "--train-seqs", "--test-seqs", "--fps")
    command("validate", cmd_validate, "check dataset integrity and print a summary", "--data")
    command("train", cmd_train, "train a model into a run directory",
            "--data", "--manifest", "--config", "--set", "--seed", "--out")
    command("eval", cmd_eval, "metric table for a finished run", "--data", "--run", "--out")
    # rollouts regenerate their sequences from the run's manifest, so no --data
    command("rollout", cmd_rollout, "k-step torque playback benchmark", "--run", "--out")
    command("reproduce", cmd_reproduce, "regenerate a study CSV with pinned seeds",
            "--data", "--manifest", "--config", "--set", "--out", "--study", "--seeds", "--target")
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
    except (
        InfeasibleActivation, DeadConfigError, TrainError, DatasetError, EvalError, SamplerError, CheckpointError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
