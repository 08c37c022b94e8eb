"""hdysctl: generation, training, evaluation, rollouts and study reproduction.

Exit codes: 0 success; 1 any `hdys.HdysError`, a failure that the inputs
cause once the command runs, printed as `error: <message>` (a missing or
unreadable dataset, manifest, record or run; a `gen-data --data` that is
neither missing nor empty; records that disagree with their manifest in
id, profile or channels; a sequence too short to difference or to fill one
window; a rollout grid that its profile cannot run, on sequences too short,
without joint-torque labels, without the representation or without a test
sequence, refused by `reproduce` before `--out` is written; an infeasible
solve; a dead config; a profile without the sequences or labels a command
needs, such as a `reproduce --target` that is unknown or unlabelled, refused
before `--out` is written; a run whose files do not parse or fit); 2 usage or
configuration errors, before anything is written: unknown flags (each
subcommand takes only the flags it reads), a `--set` without `=`, config
values the program cannot run, a `--seeds` list that is empty, not integers
or holds a negative seed, a negative `--seed`, a `reproduce --target` for a
study other than table1-analogue, and a `gen-data` `--fps` that is not
positive or a sequence count below zero.

Every run directory, whether `train` or a `reproduce` study wrote it, holds
its effective `config.txt` (seed included), the manifest it trained on
(`run_manifest.json`), `provenance.json`, `model.ckpt`, `loss_curve.csv` and
`meta.json`. `eval --run` reads the model from it and scores the test records
under `--data`; `rollout --run` needs nothing else, because it regenerates
its sequences from the run's manifest. Every study trains and scores its runs
through one loop into `<out>/<run>-s<seed>` (the rollout table's one run is
`train-s<first seed>`) and writes its one CSV beside the study's config,
manifest and provenance files. `eval`, `rollout` and the rollout table write
their wall times to a `timings.json` beside their CSVs. Every artifact is
written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

from . import HdysError
from .datahub import (
    DatasetError,
    DatasetManifest,
    default_profiles,
    generate_dataset,
    load_manifest,
    read_manifest,
)
from .engine import (
    CSV_COLUMNS,
    EVAL_COLUMNS,
    ROLLOUT_COLUMNS,
    EvalError,
    RecordCache,
    check_grid,
    eval_rows,
    evaluate,
    freeze_run,
    grid,
    load_run,
    rollout_eval,
    rollout_rows,
    rollout_study,
    run_study,
    scale_variants,
    train,
    write_csv,
    write_json,
)
from .model import ConfigError, HDySConfig, apply_overrides, desk_config, load_config

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _data_dir(args) -> str:
    root = args.data or os.environ.get("HDYS_DATA_DIR") or "hdys_data"
    return root


def _require_dataset(root: str) -> DatasetManifest:
    try:
        return load_manifest(root)
    except DatasetError as exc:
        raise DatasetError(f"{exc}\nhint: run 'hdysctl gen-data --data {root}' first")


def _load_cfg(args) -> HDySConfig:
    cfg = load_config(args.config) if args.config else desk_config()
    pairs = []
    for kv in args.set or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects key=value, got {kv!r}")
        key, value = kv.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return apply_overrides(cfg, pairs)


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
    for p in manifest.profiles:
        pid = p.profile_id
        train_ids = manifest.train_ids[pid]
        if not train_ids:
            raise DatasetError(f"profile {pid} has no training sequences")
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
    cache = RecordCache.load(root, manifest, splits=("test",))
    t_eval = perf_counter()
    report = evaluate(model, stdizer, cfg, cache)
    t_eval = perf_counter() - t_eval
    if not report.rows:
        raise EvalError(f"{args.run}: its manifest lists no labelled test sequence")
    out = args.out or os.path.join(args.run, "eval")
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "eval.csv"), EVAL_COLUMNS, [r.__dict__ for r in report.rows])
    write_json(os.path.join(out, "eval.json"), {"best": report.best_choice})
    write_json(os.path.join(out, "timings.json"), {"evaluate_s": t_eval})  # wall time stays out of eval.csv/json
    for r in report.rows:
        print(
            f"{r.profile} {r.representation:5s} mPJE {r.mpje:.4f}  RMSE {r.rmse:.4f}  PCC {r.pcc:.4f}"
        )
    return EXIT_OK


def cmd_rollout(args) -> int:
    cfg, manifest, model, stdizer = load_run(args.run)
    report = rollout_eval(model, stdizer, cfg, manifest)  # checks the grid of a run edited since `train`
    out = args.out or os.path.join(args.run, "rollout")
    os.makedirs(out, exist_ok=True)
    rows = [r.__dict__ for r in report.rows]
    write_csv(os.path.join(out, "rollout.csv"), ROLLOUT_COLUMNS, rows)
    write_json(os.path.join(out, "timings.json"), report.timings)  # wall time stays out of the CSV
    for r in report.rows:
        print(f"k={r.k} fps={r.fps:5.0f} {r.source:9s} mse {r.mse:.3e} ({r.n_starts} starts)")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.target is not None and args.study != "table1-analogue":
        raise ConfigError(f"--target is read by table1-analogue only, not by {args.study}")
    root = _data_dir(args)
    cfg = _load_cfg(args)
    manifest = _manifest_for(args, root)
    out = args.out or f"runs/{args.study}"
    seeds = args.seeds[:1] if args.study == "rollout-table" else args.seeds  # rollout-table trains one model
    check_grid(cfg, manifest)  # as each run's `train` does, before the study writes anything
    # the run list too, so a target that cannot be scored leaves no --out behind
    score, columns = eval_rows, CSV_COLUMNS
    if args.study == "table1-analogue":
        specs, csv_name = grid(cfg, manifest, args.target or "A"), "ablation.csv"
    elif args.study == "table2-analogue":
        specs, csv_name = scale_variants(cfg, manifest, "A") + scale_variants(cfg, manifest, "D"), "table2.csv"
    else:
        specs, score, columns, csv_name = rollout_study(cfg, manifest), rollout_rows, ROLLOUT_COLUMNS, "rollout_table.csv"
    freeze_run(out, cfg, manifest, seeds)
    csv_path = os.path.join(out, csv_name)
    write_csv(csv_path, columns, run_study(specs, root, out, seeds, score, _log))
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
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {text!r}")
    return seeds


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _positive(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}")
    if not 0.0 < x < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return x


FLAGS = {
    "--data": dict(help="dataset root (default: $HDYS_DATA_DIR or ./hdys_data)"),
    "--manifest": dict(help="manifest JSON over the records under --data (default: the dataset's own)"),
    "--config": dict(help="config file (hdys-config/1; default: the desk preset)"),
    "--set": dict(action="append", metavar="KEY=VALUE", help="config override, repeatable"),
    "--seed": dict(type=_count, help="dataset seed (gen-data, default 0) or training seed (train, default: the config's)"),
    "--out": dict(help="output directory"),
    "--run": dict(required=True, help="run directory that train or reproduce finished"),
    "--train-seqs": dict(type=_count, default=120),
    "--test-seqs": dict(type=_count, default=30),
    "--fps": dict(type=_positive, default=90.0),
    "--study": dict(required=True, choices=["table1-analogue", "table2-analogue", "rollout-table"]),
    "--seeds": dict(type=_seed_list, default="0,1,2", help="comma-separated seeds (rollout-table trains only the first)"),
    "--target": dict(help="target profile of table1-analogue's data-scale runs (default A); no other study reads it"),
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HdysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
