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


def test_unknown_override_is_usage_error(cli_dataset, capsys):
    code = main(
        ["train", "--data", cli_dataset, "--out", "/tmp/cli-x", "--set", "train.bogus_key=1"]
    )
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


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


def test_usage_error_on_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 2
