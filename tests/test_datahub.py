import os
import struct
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from hdys.datahub import (
    DatasetError,
    DatasetManifest,
    SamplerError,
    balanced_epoch_sampler,
    default_profiles,
    fifty_fifty,
    generate_sequence,
    load_manifest,
    load_records,
    read_record,
    record_from_bytes,
    record_path,
    record_to_bytes,
    restrict_profiles,
    single_profile_50,
    subset_dataset,
    tree_bundle,
    write_record,
)
from hdys.rbd import GeneralizedState, muscle_to_torque, rnea


def test_default_profile_masks(small_dataset):
    root, manifest = small_dataset
    expected = {
        "A": {"x_m", "x_k", "x_a", "tau_tr"},
        "B": {"x_m", "x_k", "x_s", "tau_ts"},
        "C": {"x_m", "x_k", "x_s", "tau_m"},
        "D": {"x_m", "x_k", "tau_e"},
        "E": {"x_m", "x_k", "x_s"},
    }
    for pid, mask in expected.items():
        rec = read_record(record_path(root, pid, manifest.train_ids[pid][0]))
        assert set(rec.mask) == mask, pid


def test_write_read_lossless(small_dataset):
    root, manifest = small_dataset
    rec = read_record(record_path(root, "A", "A0000"))
    blob = record_to_bytes(rec)
    rec2 = record_from_bytes(blob)
    assert record_to_bytes(rec2) == blob
    for ch in rec.channels:
        assert np.array_equal(rec.channels[ch], rec2.channels[ch])


def test_generation_deterministic(small_dataset):
    root, manifest = small_dataset
    stored = open(record_path(root, "B", "B0001"), "rb").read()
    rec, _ = generate_sequence(manifest.seed, manifest.profile("B"), 1, 1)
    assert record_to_bytes(rec) == stored


def test_corrupt_magic_rejected(tmp_path, small_dataset):
    root, manifest = small_dataset
    blob = bytearray(open(record_path(root, "A", "A0000"), "rb").read())
    blob[:8] = b"BADMAGIC"
    with pytest.raises(DatasetError, match="magic"):
        record_from_bytes(bytes(blob))
    blob2 = open(record_path(root, "A", "A0000"), "rb").read()[:-9]
    with pytest.raises(DatasetError, match="truncated|trailing"):
        record_from_bytes(blob2)

    def pstr(text):
        return struct.pack("<H", len(text)) + text.encode()

    rank0 = (
        b"HDYSREC1" + struct.pack("<I", 1) + pstr("A9999") + pstr("A") + pstr("t1")
        + struct.pack("<ddIII", 90.0, 70.0, 5, 0, 0)
        + struct.pack("<B", 1) + pstr("x_m") + struct.pack("<Bd", 0, 1.0)
    )
    with pytest.raises(DatasetError, match="frame count"):
        record_from_bytes(rank0)


def test_non_utf8_name_rejected(small_dataset):
    root, _ = small_dataset
    blob = open(record_path(root, "A", "A0000"), "rb").read()
    head = len(b"HDYSREC1") + 4
    (n,) = struct.unpack_from("<H", blob, head)
    bad = blob[:head] + struct.pack("<H", 2) + b"\xff\xfe" + blob[head + 2 + n :]
    with pytest.raises(DatasetError, match="utf-8"):
        record_from_bytes(bad)


def test_empty_manifest_roundtrip():
    m = DatasetManifest(seed=3, profiles=[])
    m2 = DatasetManifest.from_dict(m.to_dict())
    assert m2.profiles == [] and m2.seed == 3


def test_jitter_only_on_profile_b(small_dataset):
    root, manifest = small_dataset
    assert manifest.profile("B").jitter_sigma == 0.003
    for pid in "ACDE":
        assert manifest.profile(pid).jitter_sigma == 0.0


def test_profile_c_oracle_consistency(small_dataset):
    root, manifest = small_dataset
    profile = manifest.profile("C")
    bundle = tree_bundle("t2")
    p_idx = [p.profile_id for p in manifest.profiles].index("C")
    sid = manifest.train_ids["C"][0]
    rec = read_record(record_path(root, "C", sid))
    _, traj = generate_sequence(manifest.seed, profile, p_idx, int(sid[1:]))
    tau = rnea(bundle.tree, traj)
    recovered = muscle_to_torque(bundle.muscles, rec.channels["tau_m"])
    scale = max(1.0, np.abs(tau).max())
    assert np.abs(recovered - tau).max() < 1e-6 * scale


def test_sampler_counts_and_determinism(small_dataset):
    _, manifest = small_dataset
    ids = balanced_epoch_sampler(manifest, 10, seed=5, epoch=2)
    counts = Counter(pid for pid, _ in ids)
    assert all(counts[p.profile_id] == 10 for p in manifest.profiles)
    assert ids == balanced_epoch_sampler(manifest, 10, seed=5, epoch=2)
    assert ids != balanced_epoch_sampler(manifest, 10, seed=5, epoch=3)


def test_sampler_small_profile_coverage(small_dataset):
    _, manifest = small_dataset  # 8 train sequences per profile
    ids = balanced_epoch_sampler(manifest, 10, seed=0, epoch=0)
    drawn = {sid for pid, sid in ids if pid == "A"}
    assert drawn == set(manifest.train_ids["A"])  # quota > n covers everything


def test_sampler_no_test_leakage(small_dataset):
    _, manifest = small_dataset
    test_ids = {sid for ids in manifest.test_ids.values() for sid in ids}
    for epoch in range(50):
        for pid, sid in balanced_epoch_sampler(manifest, 6, seed=1, epoch=epoch):
            assert sid not in test_ids


def test_sampler_balance_chi_square(small_dataset):
    _, manifest = small_dataset
    counts = Counter()
    for epoch in range(200):
        for pid, sid in balanced_epoch_sampler(manifest, 4, seed=9, epoch=epoch):
            if pid == "B":
                counts[sid] += 1
    freq = [counts[sid] for sid in manifest.train_ids["B"]]
    assert chisquare(freq).pvalue > 0.01


def test_sampler_errors(small_dataset):
    _, manifest = small_dataset
    with pytest.raises(SamplerError):
        balanced_epoch_sampler(manifest, 0, 0, 0)
    empty = restrict_profiles(manifest, ["A"])
    empty.train_ids["A"] = []
    with pytest.raises(SamplerError):
        balanced_epoch_sampler(empty, 4, 0, 0)


def test_subset_identity(small_dataset):
    _, manifest = small_dataset
    sub = subset_dataset(manifest, {p.profile_id: 1.0 for p in manifest.profiles})
    for pid in sub.train_ids:
        assert sorted(sub.train_ids[pid]) == sorted(manifest.train_ids[pid])


def test_subset_zero_fraction_rejected(small_dataset):
    _, manifest = small_dataset
    with pytest.raises(DatasetError):
        subset_dataset(manifest, {"A": 0.0})
    with pytest.raises(DatasetError):
        subset_dataset(manifest, {"A": 0.01})  # rounds to zero sequences


def test_single_50_construction(small_dataset):
    _, manifest = small_dataset
    sub = single_profile_50(manifest, "A")
    assert [p.profile_id for p in sub.profiles] == ["A"]
    assert len(sub.train_ids["A"]) == round(0.5 * len(manifest.train_ids["A"]))
    assert sub.test_ids["A"] == manifest.test_ids["A"]


def test_fifty_fifty_proportional_volume(small_dataset):
    _, manifest = small_dataset
    sub = fifty_fifty(manifest, "A")
    n_target_full = len(manifest.train_ids["A"])
    n_target_kept = len(sub.train_ids["A"])
    assert n_target_kept == round(0.5 * n_target_full)
    others = sum(len(v) for pid, v in sub.train_ids.items() if pid != "A")
    assert abs(others - 0.5 * n_target_full) <= len(sub.profiles)  # within rounding
    assert manifest.train_ids["A"][:0] == []  # untouched source


def test_restrict_profiles(small_dataset):
    _, manifest = small_dataset
    sub = restrict_profiles(manifest, ["B", "D"])
    assert [p.profile_id for p in sub.profiles] == ["B", "D"]
    with pytest.raises(DatasetError):
        restrict_profiles(manifest, ["Z"])


def test_subset_manifests_keep_the_generation_index(small_dataset):
    _, manifest = small_dataset
    assert manifest.gen_index == {p: i for i, p in enumerate("ABCDE")}
    for sub in (restrict_profiles(manifest, ["B", "D"]), subset_dataset(manifest, {"C": 0.5, "E": 1.0}),
                fifty_fifty(manifest, "D")):
        assert sub.gen_index == {p.profile_id: "ABCDE".index(p.profile_id) for p in sub.profiles}
        assert DatasetManifest.from_dict(sub.to_dict()).gen_index == sub.gen_index
    # a manifest written without the field was generated in list order
    doc = restrict_profiles(manifest, ["B", "D"]).to_dict()
    del doc["gen_index"]
    assert DatasetManifest.from_dict(doc).gen_index == {"B": 0, "D": 1}
    doc["gen_index"] = {"B": 1}
    with pytest.raises(DatasetError, match="gen_index"):
        DatasetManifest.from_dict(doc)


def test_split_leakage_validation(small_dataset):
    _, manifest = small_dataset
    manifest.validate_splits()
    bad = restrict_profiles(manifest, ["A"])
    bad.train_ids["A"] = bad.train_ids["A"] + [bad.test_ids["A"][0]]
    with pytest.raises(DatasetError, match="overlap"):
        bad.validate_splits()


def test_loaded_records_validated(small_dataset):
    root, manifest = small_dataset
    recs = load_records(root, "D", manifest.train_ids["D"][:2])
    for rec in recs:
        assert (rec.channels["tau_e"] >= 0).all()
        assert rec.n_actuated == 23
