import json
import os

import numpy as np
import pytest

from hdys.cli import main
from hdys.datahub import DatasetManifest, default_profiles
from hdys.numcore import load_checkpoint


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
    # the last two keys existed once; a config that still sets them is rejected
    for kv in ("train.bogus_key=1", "model.similarity=dot", "model.tie_fdae_encoders=true"):
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

    assert main(["rollout", "--data", cli_dataset, "--run", run]) == 0
    assert os.path.exists(os.path.join(run, "rollout", "rollout.csv"))


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
        with open(os.path.join(out1, f"{run}-s0", "meta.json")) as fh:
            assert json.load(fh)["seconds"] >= 0


def test_usage_error_on_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 2
