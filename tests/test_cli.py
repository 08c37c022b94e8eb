import argparse
import hashlib
import json
import os

import numpy as np
import pytest

from hdys.cli import build_parser, main
from hdys.datahub import DatasetManifest, default_profiles, load_manifest, restrict_profiles, write_manifest
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


def test_validate_missing_dataset(tmp_path, capsys):
    code = main(["validate", "--data", str(tmp_path / "nope")])
    assert code == 1
    assert "gen-data" in capsys.readouterr().err  # remediation hint


def test_unknown_override_is_usage_error(cli_dataset, tmp_path, capsys):
    # all but the first key existed once; a config that still sets them is rejected
    for kv in (
        "train.bogus_key=1", "model.similarity=dot", "model.tie_fdae_encoders=true",
        "train.grad_clip=1.0", "model.exclude_boundary_frames=false", "train.windows_per_sequence=2",
    ):
        code = main(["train", "--data", cli_dataset, "--out", str(tmp_path / "x"), "--set", kv])
        assert code == 2
        assert kv.split("=")[0].split(".")[1] in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


def test_malformed_manifest_profile_is_domain_error(tmp_path, capsys):
    good = DatasetManifest(seed=0, profiles=default_profiles(n_train=1, n_test=1)).to_dict()
    unknown = json.loads(json.dumps(good))
    unknown["profiles"][0]["bogus"] = 1
    missing = json.loads(json.dumps(good))
    del missing["profiles"][0]["fps"]
    family = json.loads(json.dumps(good))
    family["profiles"][0]["family"] = "reach-like"
    for name, doc in (("unknown", unknown), ("missing", missing), ("family", family)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = main(["train", "--data", str(tmp_path), "--manifest", str(path), "--out", str(tmp_path / "run")])
        assert code == 1, name
        assert "error:" in capsys.readouterr().err


def test_unreadable_manifest_is_domain_error(tmp_path, capsys):
    good = json.dumps(DatasetManifest(seed=0, profiles=default_profiles(n_train=1, n_test=1)).to_dict())
    no_seed = json.loads(good)
    del no_seed["seed"]
    docs = {
        "truncated": good[: good.index('"profiles": [') + len('"profiles": [')],
        "not-object": "[1, 2]",
        "no-seed": json.dumps(no_seed),
        "not-utf8": b"\xff\xfe{}",
    }
    for name, text in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["train", "--data", str(tmp_path), "--manifest", str(path), "--out", str(tmp_path / "run")])
        assert code == 1, name
        assert "manifest" in capsys.readouterr().err, name
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
    for seeds in (",", "a"):
        out = tmp_path / "study"
        argv = ["reproduce", "--study", "rollout-table", "--data", cli_dataset, "--seeds", seeds, "--out", str(out)]
        assert main(argv) == 2, seeds
        assert "--seeds" in capsys.readouterr().err, seeds
        assert not out.exists(), seeds


def test_unrunnable_config_value_is_usage_error(cli_dataset, tmp_path, capsys):
    for argv in (
        ["train", "--set", "model.temperature=0"],
        ["train", "--set", "rollout.k_list="],
        ["reproduce", "--study", "rollout-table", "--set", "rollout.start_stride=0"],
    ):
        out = tmp_path / "run"
        assert main(argv + ["--data", cli_dataset, "--out", str(out)]) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
        assert not out.exists(), argv


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
    run = str(tmp_path / "run")
    argv = ["train", "--data", cli_dataset, "--out", run, "--set", "train.epochs=0", "--set", "rollout.profile=C"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["rollout", "--run", run]) == 1
    assert "profile C has no joint-torque labels" in capsys.readouterr().err


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
    assert "model.latent_dim = 64\n" in good_cfg
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
