import argparse
import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import hdys
from hdys.cli import build_parser, main
from hdys.datahub import (
    DatasetError,
    DatasetManifest,
    default_profiles,
    load_manifest,
    read_manifest,
    restrict_profiles,
    write_manifest,
)
from hdys.model import ConfigError, config_from_text
from hdys.numcore import load_checkpoint, save_checkpoint

# the flags each subcommand reads; any other flag is a usage error
DECLARED = {
    "gen-data": {"--data", "--seed", "--train-seqs", "--test-seqs", "--fps"},
    "validate": {"--data"},
    "train": {"--data", "--manifest", "--config", "--set", "--seed", "--out"},
    "eval": {"--data", "--run", "--out"},
    "rollout": {"--run", "--out"},
    "reproduce": {"--data", "--manifest", "--config", "--set", "--out", "--study", "--seeds", "--target"},
}


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-data"))
    code = main(["gen-data", "--data", root, "--train-seqs", "6", "--test-seqs", "2", "--seed", "0"])
    assert code == 0
    return root


def test_validate_ok(cli_dataset, capsys):
    assert main(["validate", "--data", cli_dataset]) == 0
    out = capsys.readouterr().out
    for pid in "ABCDE":
        assert f"profile {pid}:" in out
    assert "dataset valid" in out


def test_validate_refuses_a_version_1_record(cli_dataset, tmp_path, capsys):
    from hdys.datahub import record_path, records

    root = str(tmp_path / "old")
    shutil.copytree(cli_dataset, root)
    path = record_path(root, "A", load_manifest(root).train_ids["A"][0])
    with open(path, "r+b") as fh:  # the u32 version follows the 8-byte magic
        fh.seek(len(records.MAGIC))
        fh.write((1).to_bytes(4, "little"))
    assert main(["validate", "--data", root]) == 1
    err = capsys.readouterr().err
    assert "unsupported record version 1" in err and "regenerate the dataset with 'hdysctl gen-data'" in err


def test_validate_missing_dataset(tmp_path, capsys):
    code = main(["validate", "--data", str(tmp_path / "nope")])
    assert code == 1
    assert "gen-data" in capsys.readouterr().err  # remediation hint


def test_missing_record_is_domain_error(cli_dataset, tmp_path, capsys):
    broken = str(tmp_path / "broken")
    shutil.copytree(cli_dataset, broken)
    gone = os.path.join(broken, "A", "A0004.rec")
    os.remove(gone)
    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0"]) == 0
    capsys.readouterr()
    nowhere = str(tmp_path / "nonexistent")
    for argv, path in (
        (["validate", "--data", broken], gone),
        (["train", "--data", broken, "--out", str(tmp_path / "t")], gone),
        (["reproduce", "--study", "rollout-table", "--data", broken, "--out", str(tmp_path / "s")], gone),
        (["eval", "--run", run, "--data", nowhere], nowhere),
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err and "Traceback" not in err, err


def test_gen_data_rejects_impossible_sizes_before_writing(tmp_path, capsys):
    root = tmp_path / "data"
    for flags, needle in (
        (["--fps", "0"], "--fps"),
        (["--fps", "-5"], "--fps"),
        (["--fps", "nan"], "--fps"),
        (["--train-seqs", "-1", "--test-seqs", "1"], "--train-seqs"),
        (["--train-seqs", "1", "--test-seqs", "-1"], "--test-seqs"),
    ):
        assert main(["gen-data", "--data", str(root)] + flags) == 2, flags
        assert needle in capsys.readouterr().err, flags
        assert not root.exists(), flags


def test_unknown_override_is_usage_error(cli_dataset, tmp_path, capsys):
    # all but the first key existed once; a config that still sets them is rejected
    for kv in (
        "train.bogus_key=1", "model.similarity=dot", "model.tie_fdae_encoders=true",
        "train.grad_clip=1.0", "model.exclude_boundary_frames=false", "train.windows_per_sequence=2",
    ):
        code = main(["train", "--data", cli_dataset, "--out", str(tmp_path / "x"), "--set", kv])
        assert code == 2
        assert kv.split("=")[0].split(".")[1] in capsys.readouterr().err
    assert main(["train", "--data", cli_dataset, "--out", str(tmp_path / "x"), "--set", "train.epochs"]) == 2
    assert capsys.readouterr().err == "config error: --set expects key=value, got 'train.epochs'\n"
    assert not os.path.exists(tmp_path / "x")


def test_malformed_manifest_profile_is_domain_error(tmp_path, capsys):
    good = DatasetManifest(seed=0, profiles=default_profiles(n_train=1, n_test=1)).to_dict()
    unknown = json.loads(json.dumps(good))
    unknown["profiles"][0]["bogus"] = 1
    missing = json.loads(json.dumps(good))
    del missing["profiles"][0]["fps"]
    family = json.loads(json.dumps(good))
    family["profiles"][0]["family"] = "reach-like"
    docs = {"unknown": unknown, "missing": missing, "family": family}
    # the sizes gen-data's flags reject, arriving through a manifest file
    for key, value in (("fps", 0.0), ("fps", -5.0), ("fps", float("nan")), ("n_train", -1), ("n_test", -1)):
        docs[f"{key}={value}"] = json.loads(json.dumps(good))
        docs[f"{key}={value}"]["profiles"][0][key] = value
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = main(["train", "--data", str(tmp_path), "--manifest", str(path), "--out", str(tmp_path / "run")])
        assert code == 1, name
        err = capsys.readouterr().err
        assert "error:" in err, name
        if "=" in name:
            assert "profile A" in err and name.split("=")[0] in err, (name, err)


def test_unreadable_manifest_is_domain_error(tmp_path, capsys):
    good = json.dumps(DatasetManifest(seed=0, profiles=default_profiles(n_train=1, n_test=1)).to_dict())
    no_seed = json.loads(good)
    del no_seed["seed"]
    docs = {
        "truncated": good[: good.index('"profiles": [') + len('"profiles": [')],
        "not-object": "[1, 2]",
        "no-seed": json.dumps(no_seed),
        "negative-seed": json.dumps({**json.loads(good), "seed": -1}),
        "float-seed": json.dumps({**json.loads(good), "seed": 1.5}),
        "whole-float-seed": json.dumps({**json.loads(good), "seed": 1.0}),
        "bool-seed": json.dumps({**json.loads(good), "seed": True}),
        "float-gen-index": json.dumps({**json.loads(good), "gen_index": {**json.loads(good)["gen_index"], "A": 1.9}}),
        "string-gen-index": json.dumps({**json.loads(good), "gen_index": {**json.loads(good)["gen_index"], "B": "1"}}),
        "not-utf8": b"\xff\xfe{}",
    }
    for name, text in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["train", "--data", str(tmp_path), "--manifest", str(path), "--out", str(tmp_path / "run")])
        assert code == 1, name
        assert "manifest" in capsys.readouterr().err, name
        assert not (tmp_path / "run").exists(), name
    with pytest.raises(DatasetError, match="seed must be >= 0, got -1"):
        read_manifest(tmp_path / "negative-seed.json")
    for name, got in (("float-seed", "1.5"), ("whole-float-seed", "1.0"), ("bool-seed", "True")):
        with pytest.raises(DatasetError, match=f"seed must be an integer, got {got}$"):
            read_manifest(tmp_path / f"{name}.json")
    for name in ("float-gen-index", "string-gen-index"):
        with pytest.raises(DatasetError, match="gen_index values must be integers"):
            read_manifest(tmp_path / f"{name}.json")
    # a study reads the manifest's seed too: refused before --out, not a TypeError mid-study
    argv = ["reproduce", "--study", "table2-analogue", "--data", str(tmp_path), "--manifest",
            str(tmp_path / "float-seed.json"), "--out", str(tmp_path / "study")]
    assert main(argv) == 1
    assert "seed must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "study").exists()
    root = tmp_path / "root"
    root.mkdir()
    (root / "manifest.json").write_text(docs["truncated"])
    for argv in (["validate"], ["train", "--out", str(tmp_path / "run")]):
        assert main(argv + ["--data", str(root)]) == 1, argv[0]
        assert "manifest" in capsys.readouterr().err


def test_train_eval_rollout_roundtrip(cli_dataset, tmp_path, capsys):
    run = str(tmp_path / "run")
    code = main(
        [
            "train", "--data", cli_dataset, "--out", run, "--seed", "5",
            "--set", "train.epochs=1", "--set", "train.quota=2",
            "--set", "rollout.max_sequences=1", "--set", "rollout.start_stride=60",
            "--set", "rollout.fps_list=90",
        ]
    )
    assert code == 0
    assert os.path.exists(os.path.join(run, "model.ckpt"))
    assert os.path.exists(os.path.join(run, "config.txt"))
    assert os.path.exists(os.path.join(run, "provenance.json"))
    assert os.path.exists(os.path.join(run, "loss_curve.csv"))
    with open(os.path.join(run, "meta.json")) as fh:
        meta = json.load(fh)
    assert meta["seed"] == 5 and meta["param_count"] > 0 and meta["seconds"] >= 0

    assert main(["eval", "--data", cli_dataset, "--run", run]) == 0
    assert os.path.exists(os.path.join(run, "eval", "eval.csv"))
    out = capsys.readouterr().out
    assert "best" in out

    assert main(["rollout", "--run", run]) == 0
    assert os.path.exists(os.path.join(run, "rollout", "rollout.csv"))
    with open(os.path.join(run, "rollout", "timings.json")) as fh:
        timings = json.load(fh)  # wall seconds per phase, beside the CSV
    assert sorted(timings) == ["generate_s", "predict_s", "step_s"] and min(timings.values()) >= 0

    # the frozen manifest round-trips the dataset's to the byte, and provenance hashes it
    frozen = open(os.path.join(run, "run_manifest.json"), "rb").read()
    assert frozen == open(os.path.join(cli_dataset, "manifest.json"), "rb").read()
    with open(os.path.join(run, "provenance.json")) as fh:
        prov = json.load(fh)
    assert prov["dataset_hash"] == hashlib.sha256(frozen).hexdigest()
    assert prov["config_hash"] == meta["config_hash"] and prov["seeds"] == [5]

    # a run directory without its frozen manifest is not a finished run
    os.remove(os.path.join(run, "run_manifest.json"))
    for argv in (["eval", "--data", cli_dataset, "--run", run], ["rollout", "--run", run]):
        assert main(argv) == 1
        assert "run_manifest.json" in capsys.readouterr().err


def test_train_zero_epochs_writes_init(cli_dataset, tmp_path):
    run = str(tmp_path / "zero")
    code = main(["train", "--data", cli_dataset, "--out", run, "--seed", "9", "--set", "train.epochs=0"])
    assert code == 0
    arrays, opt = load_checkpoint(os.path.join(run, "model.ckpt"))
    assert opt.step == 0

    from hdys.datahub import load_manifest
    from hdys.model import ChannelInventory, HDySModel, desk_config

    fresh = HDySModel(desk_config().model, ChannelInventory.from_manifest(load_manifest(cli_dataset)), seed=9)
    for name, tensor in fresh.ps.params.items():
        assert np.array_equal(arrays[name], tensor.data)


def test_reproduce_rollout_table_byte_identical(cli_dataset, tmp_path):
    args = [
        "reproduce", "--study", "rollout-table", "--data", cli_dataset, "--seeds", "0",
        "--set", "train.epochs=1", "--set", "train.quota=2",
        "--set", "rollout.max_sequences=1", "--set", "rollout.start_stride=60",
        "--set", "rollout.k_list=1,2", "--set", "rollout.fps_list=90,120",
    ]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = open(os.path.join(out1, "rollout_table.csv"), "rb").read()
    b2 = open(os.path.join(out2, "rollout_table.csv"), "rb").read()
    assert b1 == b2
    assert b"oracle" in b1 and b"predicted" in b1
    # the trained model's directory is a finished run that eval accepts
    assert main(["eval", "--data", cli_dataset, "--run", os.path.join(out1, "train-s0")]) == 0


def test_reproduce_rollout_table_provenance_lists_the_seed_it_trains(cli_dataset, tmp_path):
    out = str(tmp_path / "rt")
    args = [
        "reproduce", "--study", "rollout-table", "--data", cli_dataset, "--seeds", "0,1,2",
        "--set", "train.epochs=0", "--set", "rollout.max_sequences=1", "--set", "rollout.start_stride=60",
        "--set", "rollout.k_list=1", "--set", "rollout.fps_list=90", "--out", out,
    ]
    assert main(args) == 0
    with open(os.path.join(out, "provenance.json")) as fh:
        assert json.load(fh)["seeds"] == [0]
    assert [d for d in os.listdir(out) if d.startswith("train-")] == ["train-s0"]
    with open(os.path.join(out, "timings.json")) as fh:
        timings = json.load(fh)  # the rollout phases' wall seconds, beside the CSV
    assert sorted(timings) == ["generate_s", "predict_s", "step_s"] and min(timings.values()) >= 0


def test_eval_reads_only_the_test_split(cli_dataset, tmp_path, monkeypatch):
    import hdys.datahub.profiles as profiles
    from hdys.datahub import record_path

    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0"]) == 0
    read = []
    real = profiles.read_record
    monkeypatch.setattr(profiles, "read_record", lambda path: read.append(path) or real(path))
    assert main(["eval", "--data", cli_dataset, "--run", run]) == 0
    manifest = load_manifest(cli_dataset)
    test_paths = [record_path(cli_dataset, pid, sid) for pid, ids in manifest.test_ids.items() for sid in ids]
    assert len(test_paths) == 10  # 2 test sequences per profile; 30 records with the train split
    assert sorted(read) == sorted(test_paths)


def test_train_reads_only_the_train_split(cli_dataset, tmp_path, monkeypatch):
    import hdys.datahub.profiles as profiles
    from hdys.datahub import record_path

    read = []
    real = profiles.read_record
    monkeypatch.setattr(profiles, "read_record", lambda path: read.append(path) or real(path))
    assert main(["train", "--data", cli_dataset, "--out", str(tmp_path / "run"), "--set", "train.epochs=0"]) == 0
    manifest = load_manifest(cli_dataset)
    train_paths = [record_path(cli_dataset, pid, sid) for pid, ids in manifest.train_ids.items() for sid in ids]
    assert len(train_paths) == 30  # 6 train sequences per profile; 40 records with the test split
    assert sorted(read) == sorted(train_paths)


def test_validate_holds_one_record_at_a_time(cli_dataset, monkeypatch, capsys):
    import weakref

    import hdys.datahub.profiles as profiles

    real, read, alive = profiles.read_record, [], []

    def read_one(path):
        alive.append(sum(ref() is not None for ref in read))  # earlier records still alive as this one is read
        rec = real(path)
        read.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(profiles, "read_record", read_one)
    assert main(["validate", "--data", cli_dataset]) == 0
    assert len(read) == 40 and alive == [0] * 40  # 6 train and 2 test sequences per profile
    assert capsys.readouterr().out.endswith("dataset valid\n")


def test_record_at_another_rate_or_from_another_tree_is_domain_error(cli_dataset, tmp_path, capsys):
    from hdys.datahub import read_record, record_path, tree_bundle, write_record

    sid = load_manifest(cli_dataset).train_ids["A"][0]
    t1, t2 = tree_bundle("t1").tree, tree_bundle("t2").tree
    for field, value, want in (("fps", 60.0, 90.0), ("tree_name", t2.name, t1.name),
                               ("subject_mass", t2.subject_mass, t1.subject_mass)):
        broken = str(tmp_path / field)
        shutil.copytree(cli_dataset, broken)
        path = record_path(broken, "A", sid)
        write_record(path, dataclasses.replace(read_record(path), **{field: value}))
        out = tmp_path / f"run-{field}"
        for argv in (["validate", "--data", broken], ["train", "--data", broken, "--out", str(out)]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: record A/{sid} has {field} {value!r}, but profile A has {want!r}\n", captured.err
            assert captured.out == ""
        assert not out.exists()


def test_eval_writes_its_wall_time_beside_the_scores(cli_dataset, tmp_path):
    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0"]) == 0
    outs = [str(tmp_path / f"eval{i}") for i in range(2)]
    for out in outs:
        t0 = time.perf_counter()
        assert main(["eval", "--data", cli_dataset, "--run", run, "--out", out]) == 0
        wall = time.perf_counter() - t0
        with open(os.path.join(out, "timings.json")) as fh:
            timings = json.load(fh)
        assert list(timings) == ["evaluate_s"] and 0.0 < timings["evaluate_s"] < wall
        assert sorted(os.listdir(out)) == ["eval.csv", "eval.json", "timings.json"]
    # the clock goes only into timings.json: the score files are byte-identical
    for name in ("eval.csv", "eval.json"):
        b1, b2 = (open(os.path.join(out, name), "rb").read() for out in outs)
        assert b1 == b2 and b"evaluate_s" not in b1, name


def test_reproduce_table2_byte_identical(cli_dataset, tmp_path):
    args = [
        "reproduce", "--study", "table2-analogue", "--data", cli_dataset, "--seeds", "0",
        "--set", "train.epochs=1", "--set", "train.quota=2",
    ]
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = open(os.path.join(out1, "table2.csv"), "rb").read()
    b2 = open(os.path.join(out2, "table2.csv"), "rb").read()
    assert b1 == b2
    header = b1.split(b"\n", 1)[0].split(b",")
    assert b"param_count" in header and not any(b"seconds" in c for c in header)
    for run in ("single50-A", "5050-A", "single-A", "single50-D", "5050-D", "single-D"):
        run_dir = os.path.join(out1, f"{run}-s0")
        with open(os.path.join(run_dir, "meta.json")) as fh:
            assert json.load(fh)["seconds"] >= 0
        # every study run is a run directory that eval scores on its own manifest
        assert main(["eval", "--data", cli_dataset, "--run", run_dir]) == 0, run


@pytest.mark.slow
def test_reproduce_table1_byte_identical(cli_dataset, tmp_path):
    args = ["reproduce", "--study", "table1-analogue", "--data", cli_dataset, "--seeds", "0", "--set", "train.epochs=0"]
    out1, out2 = str(tmp_path / "a1"), str(tmp_path / "a2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = open(os.path.join(out1, "ablation.csv"), "rb").read()
    b2 = open(os.path.join(out2, "ablation.csv"), "rb").read()
    assert b1 == b2
    runs = {line.split(b",", 1)[0] for line in b1.splitlines()[1:]}
    assert len(runs) == 19 and b"full" in runs and b"single-A" in runs


def test_usage_error_on_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["ablate"]) == 2  # gone: `reproduce --study table1-analogue` runs the grid
    assert "invalid choice: 'ablate'" in capsys.readouterr().err


def test_subcommands_declare_only_the_flags_they_read():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert declared == DECLARED
    assert sum(len(flags) for flags in declared.values()) == 25


def test_subcommands_reject_undeclared_flags(tmp_path, monkeypatch, capsys):
    # e.g. `validate --set`, `eval --set`, `gen-data --out`, `reproduce --seed`, `rollout --data`
    monkeypatch.chdir(tmp_path)  # a flag that slipped through must not write into the repository
    every = set().union(*DECLARED.values())
    required = {"eval": ["--run", "r"], "rollout": ["--run", "r"], "reproduce": ["--study", "rollout-table"]}
    for name, flags in DECLARED.items():
        for flag in sorted(every - flags):
            argv = [name, *required.get(name, []), flag, "1"]
            assert main(argv) == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert os.listdir(tmp_path) == []


def test_validate_rejects_profile_without_training_sequences(tmp_path, capsys):
    root = str(tmp_path / "data")
    assert main(["gen-data", "--data", root, "--train-seqs", "0", "--test-seqs", "1"]) == 0
    capsys.readouterr()
    assert main(["validate", "--data", root]) == 1
    assert "profile A has no training sequences" in capsys.readouterr().err


def test_runs_freeze_the_manifest_they_train_on(cli_dataset, tmp_path):
    sub = str(tmp_path / "sub.json")
    write_manifest(sub, restrict_profiles(load_manifest(cli_dataset), ["A", "C"]))
    sub_bytes = open(sub, "rb").read()
    small = ["--set", "train.epochs=1", "--set", "train.quota=2", "--set", "rollout.max_sequences=1",
             "--set", "rollout.start_stride=60", "--set", "rollout.k_list=1", "--set", "rollout.fps_list=90"]

    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--manifest", sub, "--out", run] + small) == 0
    study = str(tmp_path / "study")
    assert main(["reproduce", "--study", "rollout-table", "--data", cli_dataset, "--manifest", sub,
                 "--seeds", "0", "--out", study] + small) == 0
    for run_dir in (run, study, os.path.join(study, "train-s0")):
        assert open(os.path.join(run_dir, "run_manifest.json"), "rb").read() == sub_bytes, run_dir
    # the model fits the subset's channels: eval and rollout need only the run directory
    for run_dir in (run, os.path.join(study, "train-s0")):
        assert main(["eval", "--data", cli_dataset, "--run", run_dir]) == 0
        assert main(["rollout", "--run", run_dir]) == 0
        with open(os.path.join(run_dir, "eval", "eval.json")) as fh:
            assert set(json.load(fh)["best"]) == {"A", "C"}


def test_reproduce_rejects_bad_seeds_before_writing(cli_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    for argv, flag in [
        (["reproduce", "--study", "rollout-table", "--data", cli_dataset, "--seeds", seeds, "--out", str(out)], "--seeds")
        for seeds in (",", "a", "-1", "0,-2")
    ] + [
        (["train", "--data", cli_dataset, "--seed", "-1", "--out", str(out)], "--seed"),
        (["gen-data", "--data", str(out), "--seed", "-1"], "--seed"),
    ]:
        assert main(argv) == 2, argv
        assert flag in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_unrunnable_config_value_is_usage_error(cli_dataset, tmp_path, capsys):
    for argv in (
        ["train", "--set", "model.window=0"],
        ["train", "--set", "rollout.k_list="],
        ["reproduce", "--study", "rollout-table", "--set", "rollout.start_stride=0"],
        ["train", "--set", "train.lr=nan", "--set", "train.epochs=1"],
        ["train", "--set", "model.latent_dim=0"],
        ["train", "--set", "model.latent_dim=-4"],
        ["train", "--set", "model.set_ffn_mult=0"],
        ["train", "--set", "train.frames_per_batch=0"],
        ["train", "--set", "train.frames_per_batch=8"],  # half a 16-frame window
        ["train", "--set", "train.frames_per_batch=20"],  # one window and 4 frames
        ["train", "--set", "rollout.fps_list=nan"],
        ["train", "--set", "train.seed=-1"],
        ["reproduce", "--study", "rollout-table", "--set", "train.seed=-1"],
    ):
        out = tmp_path / "run"
        assert main(argv + ["--data", cli_dataset, "--out", str(out)]) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
        assert not out.exists(), argv
    # --set flags are checked together: 480 frames are not whole 7-frame windows, 490 are
    argv = ["train", "--data", cli_dataset, "--out", str(out), "--set", "train.epochs=0"]
    assert main(argv + ["--set", "model.window=7", "--set", "train.frames_per_batch=490"]) == 0


def test_unparsable_config_value_is_usage_error(cli_dataset, tmp_path, capsys):
    bad_file = tmp_path / "config.txt"
    bad_file.write_text("schema = hdys-config/1\ntrain.quota = five\n")
    with pytest.raises(ConfigError, match="train.quota: cannot parse int from 'five'"):
        config_from_text(bad_file.read_text())
    for extra, needle in (
        (["--set", "train.quota=a"], "train.quota: cannot parse int from 'a'"),
        (["--set", "rollout.k_list=1,x"], "rollout.k_list: cannot parse int from 'x'"),
        (["--config", str(bad_file)], "train.quota: cannot parse int from 'five'"),
    ):
        out = tmp_path / "run"
        assert main(["train", "--data", cli_dataset, "--out", str(out)] + extra) == 2, extra
        assert needle in capsys.readouterr().err, extra
        assert not out.exists(), extra


def test_rollout_on_profile_without_torque_labels_is_domain_error(cli_dataset, tmp_path, capsys):
    """A rollout grid the run could not roll out fails `train` before it writes anything."""
    for setting, needle in (
        ("rollout.profile=C", "profile C has no joint-torque labels to roll out (it carries x_m, x_k, x_s, tau_m)"),
        ("rollout.representation=x_s", "representation 'x_s' not available on profile A (it carries x_m, x_k, x_a, tau_tr)"),
    ):
        run = tmp_path / setting
        argv = ["train", "--data", cli_dataset, "--out", str(run), "--set", "train.epochs=0", "--set", setting]
        assert main(argv) == 1, setting
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err, err
        assert not run.exists()


def test_train_on_profile_without_training_ids_is_domain_error(cli_dataset, tmp_path, capsys):
    manifest = load_manifest(cli_dataset)
    manifest.train_ids["B"] = []
    path = str(tmp_path / "no-b.json")
    write_manifest(path, manifest)
    assert main(["train", "--data", cli_dataset, "--manifest", path, "--out", str(tmp_path / "run")]) == 1
    assert "profile B has no training sequences" in capsys.readouterr().err


def test_broken_or_mismatched_checkpoint_is_domain_error(cli_dataset, tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0"]) == 0
    ckpt, cfg_path = os.path.join(run, "model.ckpt"), os.path.join(run, "config.txt")
    good_ckpt, good_cfg = open(ckpt, "rb").read(), open(cfg_path).read()
    assert "model.latent_dim = 64\n" in good_cfg and "model.no_fdae = false\n" in good_cfg
    arrays, opt = load_checkpoint(ckpt)
    qkv = arrays["enc.x_m.blk0.qkv.w"].copy()
    qkv[1, 2] = np.inf
    save_checkpoint(ckpt, {**arrays, "enc.x_m.blk0.qkv.w": qkv}, opt)
    inf_weight = open(ckpt, "rb").read()
    del arrays["norm.x_m.std"]
    save_checkpoint(ckpt, arrays, opt)
    no_std = open(ckpt, "rb").read()
    for ckpt_bytes, cfg_text, needle in (
        (good_ckpt[: len(good_ckpt) // 2], good_cfg, "truncated"),
        (good_ckpt, good_cfg.replace("model.latent_dim = 64\n", "model.latent_dim = 32\n"), "shape"),
        (no_std, good_cfg, "no norm.x_m.std"),
        (inf_weight, good_cfg, "parameter 'enc.x_m.blk0.qkv.w': non-finite values"),
        (good_ckpt, good_cfg.replace("model.no_fdae = false\n", "model.no_fdae = true\n"), "parameters the model lacks: ['fdec."),
    ):
        with open(ckpt, "wb") as fh:
            fh.write(ckpt_bytes)
        with open(cfg_path, "w") as fh:
            fh.write(cfg_text)
        capsys.readouterr()
        for argv in (["eval", "--data", cli_dataset, "--run", run], ["rollout", "--run", run]):
            assert main(argv) == 1, (needle, argv)
            err = capsys.readouterr().err
            assert err.startswith("error:") and needle in err and "Traceback" not in err, err


def test_run_with_a_removed_config_key_must_be_retrained(cli_dataset, tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0"]) == 0
    cfg_path = os.path.join(run, "config.txt")
    with open(cfg_path, "a") as fh:
        fh.write("model.set_layers = 3\n")  # a key that runs wrote before it became a constant
    capsys.readouterr()
    for argv in (["eval", "--data", cli_dataset, "--run", run], ["rollout", "--run", run]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and cfg_path in err and "'model.set_layers'" in err, err
        assert "retrain" in err and "Traceback" not in err, err
    # passed in by the caller, the same key is a usage error
    for extra in (["--set", "model.set_layers=3"], ["--config", cfg_path]):
        out = tmp_path / "again"
        assert main(["train", "--data", cli_dataset, "--out", str(out)] + extra) == 2, extra
        assert "config error: unknown config key 'model.set_layers'" in capsys.readouterr().err, extra
        assert not out.exists(), extra


def test_eval_with_no_labelled_test_sequence_is_domain_error(cli_dataset, tmp_path, capsys):
    manifest = load_manifest(cli_dataset)
    no_test = str(tmp_path / "no-test.json")
    write_manifest(no_test, dataclasses.replace(manifest, test_ids={pid: [] for pid in manifest.test_ids}))
    only_e = str(tmp_path / "only-e.json")
    write_manifest(only_e, restrict_profiles(manifest, ["E"]))  # profile E has no dynamics labels
    for path in (no_test, only_e):
        run = str(tmp_path / os.path.basename(path).replace(".json", ""))
        argv = ["train", "--data", cli_dataset, "--manifest", path, "--out", run, "--set", "train.epochs=0"]
        assert main(argv) == 0, path
        capsys.readouterr()
        assert main(["eval", "--data", cli_dataset, "--run", run]) == 1, path
        assert "lists no labelled test sequence" in capsys.readouterr().err, path
        assert not os.path.exists(os.path.join(run, "eval")), path


def test_manifest_ids_must_name_exactly_its_profiles(cli_dataset, tmp_path, capsys):
    doc = load_manifest(cli_dataset).to_dict()
    for key in ("train_ids", "test_ids"):
        for change in ("without-A", "with-Z"):
            bad = json.loads(json.dumps(doc))
            if change == "without-A":
                del bad[key]["A"]
            else:
                bad[key]["Z"] = []
            with pytest.raises(DatasetError, match="train_ids and test_ids must name exactly"):
                DatasetManifest.from_dict(bad)
            root = tmp_path / f"{key}-{change}"
            root.mkdir()
            (root / "manifest.json").write_text(json.dumps(bad))
            for argv in (["validate"], ["train", "--out", str(tmp_path / "run")]):
                assert main(argv + ["--data", str(root)]) == 1, (key, change, argv)
                err = capsys.readouterr().err
                assert "must name exactly its profiles" in err and "Traceback" not in err, err


def test_gen_data_at_a_rate_below_three_frames_is_domain_error(tmp_path, capsys):
    # 3 s at 0.3 fps is 2 frames; finite differences need 3
    data = tmp_path / "data"
    assert main(["gen-data", "--data", str(data), "--fps", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: profile A: at 0.3 fps its shortest sequence (3.0 s) has 2 frames, fewer than 3; "), err
    assert "the lowest rate that works is 0.5 fps" in err and "Traceback" not in err, err
    assert not data.exists()  # rejected before any directory is made


def test_gen_data_refuses_a_populated_data_directory(cli_dataset, tmp_path, capsys):
    other = tmp_path / "other"
    other.mkdir()
    (other / "notes.txt").write_text("keep")
    with open(os.path.join(cli_dataset, "manifest.json"), "rb") as fh:
        manifest = fh.read()
    for root in (cli_dataset, str(other)):
        assert main(["gen-data", "--data", root, "--seed", "5", "--train-seqs", "1", "--test-seqs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {root} exists and is not an empty directory") and "Traceback" not in err, err
    assert os.listdir(other) == ["notes.txt"] and (other / "notes.txt").read_text() == "keep"
    with open(os.path.join(cli_dataset, "manifest.json"), "rb") as fh:
        assert fh.read() == manifest


def test_failed_gen_data_leaves_data_as_it_was(tmp_path, monkeypatch, capsys):
    from hdys.datahub import profiles

    real = profiles.generate_sequence

    def last_profile_fails(seed, profile, p_idx, s_idx):
        if profile.profile_id == "E":
            raise DatasetError(f"profile E seq {s_idx}: no feasible motion draw")
        return real(seed, profile, p_idx, s_idx)

    monkeypatch.setattr(profiles, "generate_sequence", last_profile_fails)
    empty = tmp_path / "empty"
    empty.mkdir()
    for root in (tmp_path / "missing", empty):
        assert main(["gen-data", "--data", str(root), "--train-seqs", "1", "--test-seqs", "0"]) == 1
        assert "profile E seq 0: no feasible motion draw" in capsys.readouterr().err
    assert os.listdir(empty) == []
    assert os.listdir(tmp_path) == ["empty"]  # no partial directory is left behind either


def test_records_that_disagree_with_their_manifest_masks_are_domain_error(cli_dataset, tmp_path, capsys):
    with open(os.path.join(cli_dataset, "manifest.json")) as fh:
        doc = json.load(fh)
    next(p for p in doc["profiles"] if p["profile_id"] == "A")["kin_mask"].remove("x_a")
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    run = tmp_path / "run"
    argv = ["train", "--data", cli_dataset, "--manifest", str(path), "--out", str(run), "--set", "train.epochs=1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: record A/A0000 has channels ['tau_tr', 'x_a', 'x_k', 'x_m'], ") and "Traceback" not in err, err
    assert "but profile A's kin_mask + dyn_mask is ['tau_tr', 'x_k', 'x_m']" in err, err
    assert not run.exists()


def test_record_whose_id_is_not_its_manifest_id_is_domain_error(cli_dataset, tmp_path, capsys):
    # one record file copied over another of its profile: same profile and channels, other stored id
    manifest = load_manifest(cli_dataset)
    source, victims = manifest.train_ids["A"][0], (manifest.train_ids["A"][1], manifest.test_ids["A"][0])
    broken = str(tmp_path / "broken")
    shutil.copytree(cli_dataset, broken)
    for sid in victims:
        shutil.copyfile(os.path.join(broken, "A", f"{source}.rec"), os.path.join(broken, "A", f"{sid}.rec"))
    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0"]) == 0
    capsys.readouterr()
    out = tmp_path / "t"
    for argv, sid in (
        (["validate", "--data", broken], victims[0]),
        (["train", "--data", broken, "--out", str(out), "--set", "train.epochs=1"], victims[0]),
        (["eval", "--run", run, "--data", broken, "--out", str(out)], victims[1]),  # reads the test split only
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        path = os.path.join(broken, "A", f"{sid}.rec")
        assert err == f"error: {path} holds record {source}, but the manifest lists it as {sid}\n", err
    assert not out.exists()


def test_channel_that_does_not_fit_its_tree_is_domain_error(cli_dataset, tmp_path, capsys):
    from hdys.datahub import read_record, record_path, write_record

    manifest = load_manifest(cli_dataset)
    run = str(tmp_path / "run")
    assert main(["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0"]) == 0
    capsys.readouterr()

    def narrow(channel, cut):
        return lambda rec: rec.channels.update({channel: cut(rec.channels[channel])})

    for pid, channel, edit in (
        ("D", "tau_e", narrow("tau_e", lambda b: b[:, :7])),  # 8 EMG channels on t1
        ("C", "tau_m", narrow("tau_m", lambda b: b[:, :11])),  # 12 muscles on t2
        ("A", "x_k", narrow("x_k", lambda b: b[:, :8])),  # 9 links on t1
        ("B", "x_k", narrow("x_k", lambda b: b[:, :11])),  # 12 links on t2
        ("A", "x_a", narrow("x_a", lambda b: b[:, :66])),  # 23 DoF on t1
        ("A", "x_m", narrow("x_m", lambda b: b[:, 1:])),  # one row fewer than marker ids
        ("D", "x_m", lambda rec: setattr(rec, "marker_ids", rec.marker_ids + 40)),  # t1 has 40 marker sites
    ):
        broken = str(tmp_path / f"{pid}-{channel}")
        shutil.copytree(cli_dataset, broken)
        for sid in manifest.train_ids[pid] + manifest.test_ids[pid]:
            rec = read_record(record_path(broken, pid, sid))
            edit(rec)
            write_record(record_path(broken, pid, sid), rec)
        out = tmp_path / "out"
        for argv, sid in (
            (["validate", "--data", broken], manifest.train_ids[pid][0]),
            (["train", "--data", broken, "--out", str(out), "--set", "train.epochs=1"], manifest.train_ids[pid][0]),
            (["eval", "--run", run, "--data", broken, "--out", str(out)], manifest.test_ids[pid][0]),
        ):
            assert main(argv) == 1, (channel, argv)
            err = capsys.readouterr().err
            assert err.startswith(f"error: record {pid}/{sid}") and f" {channel} " in err, (channel, argv, err)
            assert "Traceback" not in err and err.count("\n") == 1, err
        assert not out.exists()


def test_file_errors_print_one_line_without_a_traceback(cli_dataset, tmp_path, capsys):
    run = tmp_path / "run"
    fast_rollout = ["--set", "rollout.max_sequences=1", "--set", "rollout.fps_list=90"]
    assert main(["train", "--data", cli_dataset, "--out", str(run), "--set", "train.epochs=0", *fast_rollout]) == 0
    capsys.readouterr()
    undecodable = tmp_path / "config.txt"
    undecodable.write_bytes(b"\xff\xfe")
    existing = tmp_path / "existing"
    existing.write_text("kept\n")
    out = str(tmp_path / "out")
    train = ["train", "--data", cli_dataset, "--set", "train.epochs=0"]

    def tree():
        return sorted(os.path.join(d, f) for d, dirs, files in os.walk(tmp_path) for f in dirs + files)

    before = tree()
    for argv, code, prefix in (
        (train + ["--config", str(tmp_path / "nonexistent.txt"), "--out", out], 1, "error: [Errno 2] "),
        (train + ["--config", str(run), "--out", out], 1, "error: [Errno 21] "),
        (train + ["--config", str(undecodable), "--out", out], 2, f"config error: {undecodable}: not utf-8 text"),
        (train + ["--out", str(existing)], 1, "error: [Errno 17] "),
        (["eval", "--data", cli_dataset, "--run", str(run), "--out", str(existing)], 1, "error: [Errno 17] "),
        (["rollout", "--run", str(run), "--out", str(existing)], 1, "error: [Errno 17] "),
        (["reproduce", "--study", "table2-analogue", "--data", cli_dataset, "--seeds", "0", "--out", str(existing)],
         1, "error: [Errno 17] "),
    ):
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, (argv, captured.err)
        assert "Traceback" not in captured.err
        assert tree() == before and existing.read_text() == "kept\n", argv


def test_reproduce_refuses_an_unscorable_target_before_writing(cli_dataset, tmp_path, monkeypatch, capsys):
    ablation = importlib.import_module("hdys.engine.ablation")
    monkeypatch.setattr(ablation, "train", lambda *a, **k: pytest.fail("a study run started training"))
    out = tmp_path / "out"
    for target, message in (("Z", "unknown profile 'Z'"), ("E", "profile E has no dynamics labels")):
        argv = ["reproduce", "--study", "table1-analogue", "--data", cli_dataset, "--target", target, "--out", str(out)]
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert not out.exists(), argv
    # a rollout table whose manifest lacks rollout.profile, or lists no test sequence of it
    full = load_manifest(cli_dataset)
    no_test = dataclasses.replace(full, test_ids={**full.test_ids, "A": []})
    for name, manifest in (("BC", restrict_profiles(full, ["B", "C"])), ("no-test", no_test)):
        path = str(tmp_path / f"{name}.json")
        write_manifest(path, manifest)
        argv = ["reproduce", "--study", "rollout-table", "--data", cli_dataset, "--manifest", path, "--out", str(out)]
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert err == "error: the manifest lists no test sequence of profile A to roll out (rollout.profile)\n", err
        assert not out.exists(), name


def test_reproduce_target_is_a_usage_error_for_studies_that_do_not_read_it(cli_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    for study in ("table2-analogue", "rollout-table"):
        argv = ["reproduce", "--study", study, "--data", cli_dataset, "--target", "E", "--out", str(out)]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"config error: --target is read by table1-analogue only, not by {study}\n", err
        assert not out.exists(), argv


def test_rollout_on_sequences_shorter_than_one_window_is_domain_error(cli_dataset, tmp_path, capsys):
    # `train` checks the rollout grid against profile A (3 s sequences) before
    # it writes anything: a rollout needs one 16-frame window and k_max + 3 frames
    cases = [
        ("rollout.fps_list=4", "at 4 fps its shortest sequence (3.0 s) has 13 frames, fewer than 16 ", "4.834"),
        ("rollout.fps_list=0.3", "at 0.3 fps its shortest sequence (3.0 s) has 2 frames, fewer than 16 ", "4.834"),
        ("rollout.k_list=400", "at 90 fps its shortest sequence (3.0 s) has 271 frames, fewer than 403 ", "133.834"),
    ]
    run = tmp_path / "run"
    for setting, message, lowest in cases:
        argv = ["train", "--data", cli_dataset, "--out", str(run), "--set", "train.epochs=0", "--set", setting]
        assert main(argv) == 1, setting
        err = capsys.readouterr().err
        assert err.startswith(f"error: profile A: {message}") and "Traceback" not in err, err
        assert f"the lowest rate that works is {lowest} fps" in err, err
        assert not run.exists()  # nothing written
    # nor by a study, whose every run is a run directory that `rollout` accepts
    argv = ["reproduce", "--study", "rollout-table", "--data", cli_dataset, "--out", str(run), "--seeds", "0",
            "--set", "train.epochs=0", "--set", "rollout.fps_list=4"]
    assert main(argv) == 1
    assert "at 4 fps its shortest sequence (3.0 s) has 13 frames" in capsys.readouterr().err
    assert not run.exists()
    # the lowest rate named trains and rolls out from every start it has
    argv = ["train", "--data", cli_dataset, "--out", str(run), "--set", "train.epochs=0",
            "--set", "rollout.fps_list=4.834", "--set", "rollout.max_sequences=1"]
    assert main(argv) == 0
    assert main(["rollout", "--run", str(run)]) == 0
    rows = (run / "rollout" / "rollout.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and all(row.split(",")[4] == "1" for row in rows), rows  # one start each
    # `rollout` checks the grid again, for a run whose config.txt no longer passes
    shutil.rmtree(run / "rollout")
    config = run / "config.txt"
    config.write_text(config.read_text().replace("rollout.k_list = 1,2,3,4,5", "rollout.k_list = 400"))
    capsys.readouterr()
    assert main(["rollout", "--run", str(run)]) == 1
    assert "has 16 frames, fewer than 403" in capsys.readouterr().err
    assert not (run / "rollout").exists()
    # a manifest without the rollout profile, as a restricted study run has, is not checked
    sub = str(tmp_path / "sub.json")
    write_manifest(sub, restrict_profiles(load_manifest(cli_dataset), ["B"]))
    argv = ["train", "--data", cli_dataset, "--manifest", sub, "--out", str(tmp_path / "b"),
            "--set", "train.epochs=0", "--set", "rollout.fps_list=4"]
    assert main(argv) == 0


def test_rollout_without_test_sequences_is_domain_error(tmp_path, capsys):
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert main(["gen-data", "--data", data, "--train-seqs", "1", "--test-seqs", "0"]) == 0
    assert main(["train", "--data", data, "--out", str(run), "--set", "train.epochs=0"]) == 0
    capsys.readouterr()
    for argv, message in (
        (["eval", "--data", data, "--run", str(run)], "lists no labelled test sequence"),
        (["rollout", "--run", str(run)], "lists no test sequence of profile A to roll out"),
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
    assert not (run / "rollout").exists()  # no rollout.csv of zero-start rows


def test_a_study_failure_names_its_run_and_seed(cli_dataset, tmp_path, monkeypatch, capsys):
    from hdys.engine import EvalError, RunSpec, run_study
    from hdys.model import desk_config

    cfg = dataclasses.replace(desk_config(), train=dataclasses.replace(desk_config().train, epochs=0))
    spec = RunSpec("full", load_manifest(cli_dataset), cfg, ["A"])
    ablation = importlib.import_module("hdys.engine.ablation")
    for error in (EvalError, DatasetError):
        def fail(*args, error=error, **kwargs):
            raise error("non-finite prediction")

        with pytest.raises(error) as info:  # the class is kept...
            run_study([spec], cli_dataset, str(tmp_path / "direct"), [3], fail, lambda msg: None)
        assert type(info.value) is error and str(info.value) == "run full seed 3: non-finite prediction"
        # ...so a scoring failure inside a study still exits 1, naming its run
        monkeypatch.setattr(ablation, "evaluate", fail)
        argv = ["reproduce", "--study", "table2-analogue", "--data", cli_dataset, "--seeds", "4",
                "--set", "train.epochs=0", "--out", str(tmp_path / error.__name__)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: run single50-A seed 4: non-finite prediction\n"


def test_loss_curve_does_not_depend_on_the_blas_thread_count(cli_dataset, tmp_path):
    src = os.path.dirname(os.path.dirname(hdys.__file__))
    curves = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        argv = ["train", "--data", cli_dataset, "--out", str(run), "--seed", "2", "--set", "train.epochs=1"]
        subprocess.run([sys.executable, "-m", "hdys.cli", *argv], env=env, check=True, capture_output=True)
        curves.append((run / "loss_curve.csv").read_bytes())
    assert curves[0] == curves[1]


def test_exception_classes_are_the_ones_a_caller_tells_apart():
    modules = [hdys] + [importlib.import_module(m.name) for m in pkgutil.walk_packages(hdys.__path__, "hdys.")]
    defined = {
        name: obj
        for module in modules
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
    }
    domain = {"DatasetError", "InfeasibleActivation", "DivergedRollout", "DeadConfigError", "TrainError", "EvalError"}
    outside = {"ConfigError", "ShapeError", "GraphError", "NonFiniteError"}
    assert sorted(defined) == sorted(domain | outside | {"HdysError"})
    for name in domain:
        assert issubclass(defined[name], hdys.HdysError), name
    for name in outside:
        assert not issubclass(defined[name], hdys.HdysError), name
