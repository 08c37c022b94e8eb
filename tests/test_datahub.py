import os
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from hdys.datahub import (
    DatasetError,
    DatasetManifest,
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
    subset_dataset,
    tree_bundle,
    write_record,
)
from hdys.datahub import records
from hdys.kinrep import KINEMATIC_CHANNELS, leading, triples
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


def test_kinematics_read_back_as_generated(small_dataset):
    # a record stores positions only; every block read back equals the one
    # generation built, bit for bit, and each was built by `triples`
    root, manifest = small_dataset
    for p_idx, profile in enumerate(manifest.profiles):
        pid = profile.profile_id
        for sid in manifest.train_ids[pid] + manifest.test_ids[pid]:
            rec = read_record(record_path(root, pid, sid))
            gen, _ = generate_sequence(manifest.seed, profile, p_idx, int(sid[1:]))
            assert list(rec.channels) == list(gen.channels)
            for ch in set(KINEMATIC_CHANNELS).intersection(gen.channels):
                block = gen.channels[ch]
                assert triples(ch, leading(ch, block, 1), gen.fps).tobytes() == block.tobytes(), (sid, ch)
                assert rec.channels[ch].shape == block.shape and rec.channels[ch].tobytes() == block.tobytes(), (sid, ch)
            assert os.path.getsize(record_path(root, pid, sid)) < sum(a.nbytes for a in gen.channels.values())


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
        b"HDYSREC1" + struct.pack("<I", records.VERSION) + pstr("A9999") + pstr("A") + pstr("t1")
        + struct.pack("<ddII", 90.0, 70.0, 5, 0)
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
    with pytest.raises(DatasetError, match="^quota must be positive$"):
        balanced_epoch_sampler(manifest, 0, 0, 0)
    empty = restrict_profiles(manifest, ["A"])
    empty.train_ids["A"] = []
    with pytest.raises(DatasetError, match="^profile A has no training sequences$"):
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
    sub = subset_dataset(manifest, {"A": 0.5})
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
    for keep in (["A"], ["B", "D"], list("ABCDE"), ["E", "A"], ["A", "A"]):
        sub = restrict_profiles(manifest, keep)
        kept = [pid for pid in "ABCDE" if pid in keep]
        assert [p.profile_id for p in sub.profiles] == kept
        for field in ("train_ids", "test_ids", "gen_index"):
            full = getattr(manifest, field)
            assert getattr(sub, field) == {pid: full[pid] for pid in kept}, (keep, field)
    with pytest.raises(DatasetError):
        restrict_profiles(manifest, ["Z"])
    no_b = DatasetManifest.from_dict(manifest.to_dict())
    no_b.train_ids["B"] = []
    with pytest.raises(DatasetError, match="profile B"):
        restrict_profiles(no_b, ["A", "B"])


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


def test_loaded_records_validated(small_dataset, tmp_path):
    root, manifest = small_dataset
    recs = load_records(root, manifest.profile("D"), manifest.train_ids["D"][:2])
    for rec in recs:
        assert (rec.channels["tau_e"] >= 0).all()
    # a torque label needs one column per DoF of the profile's tree (23 on t1)
    sid = manifest.train_ids["A"][0]
    rec = read_record(record_path(root, "A", sid))
    assert rec.channels["tau_tr"].shape[1] == 23
    rec.channels["tau_tr"] = rec.channels["tau_tr"][:, :22]
    os.makedirs(tmp_path / "A")
    write_record(record_path(tmp_path, "A", sid), rec)
    with pytest.raises(DatasetError, match=rf"^record A/{sid}: tau_tr has shape \((\d+), 22\), but tree t1 gives it \(\1, 23\)$"):
        list(load_records(tmp_path, manifest.profile("A"), [sid]))


def test_profile_masks_follow_the_tree_family():
    a, b = default_profiles(n_train=1, n_test=1)[:2]  # t1 carries x_a, tau_tr and tau_e, t2 x_s and tau_ts
    for profile, kin, dyn, foreign in (
        (a, ("x_m", "x_s"), ("tau_tr",), "x_s"),
        (a, ("x_m", "x_a"), ("tau_ts",), "tau_ts"),
        (b, ("x_k", "x_a"), ("tau_ts",), "x_a"),
        (b, ("x_k", "x_s"), ("tau_tr",), "tau_tr"),
        (b, ("x_k", "x_s"), ("tau_e",), "tau_e"),
    ):
        tree = profile.tree_key
        with pytest.raises(DatasetError, match=f"^profile {profile.profile_id}: tree {tree} has no {foreign} channel$"):
            replace(profile, kin_mask=kin, dyn_mask=dyn)
    with pytest.raises(DatasetError, match="^profile A: unknown tree key 't3'$"):
        replace(a, tree_key="t3")
    # a record carries exactly the coordinate and torque channel its mask names
    for profile in (a, b):
        rec, _ = generate_sequence(0, profile, 0, 0)
        assert rec.mask == frozenset(profile.kin_mask + profile.dyn_mask)


def test_clamped_spline_equals_scipy_bit_for_bit():
    # Spline records were written with scipy 1.17's CubicSpline; the numpy port keeps their bytes.
    # After a scipy upgrade that changes CubicSpline's arithmetic, this fails while records do not.
    from scipy.interpolate import CubicSpline  # the reference; src/ does not import it

    from hdys.datahub.motion import clamped_spline

    rng = np.random.default_rng(22)
    # the lowest rate gen-data accepts (0.5 fps) to 240 fps; 3 s at 0.5 fps ends 1 s past the last knot
    cases = [(3.0, 0.5), (0.5, 0.5), (6.0, 240.0)]
    cases += [(rng.uniform(0.5, 6.0), rng.uniform(0.5, 240.0)) for _ in range(250)]
    knot_counts, past_end = set(), 0
    for duration, fps in cases:
        n_knots = max(4, int(round(duration / 0.45)) + 1)  # sample_trajectory's knot rule
        n = int(rng.integers(20, 41))
        knot_t = np.linspace(0.0, duration, n_knots)
        knot_q = rng.normal(size=n) + rng.uniform(-1.0, 1.0, size=(n_knots, n)) * rng.uniform(0.0, 1.5, size=n)
        knot_q[:, 0] = 0.0  # a resting joint: every output is a zero, whose sign counts too
        t = np.arange(int(round(duration * fps)) + 1) / fps
        spline = CubicSpline(knot_t, knot_q, axis=0, bc_type="clamped")
        for nu, got in enumerate(clamped_spline(knot_t, knot_q, t)):
            want = spline(t, nu)
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (duration, fps, nu)
        knot_counts.add(n_knots)
        past_end += t[-1] > duration
    assert min(knot_counts) == 4 and max(knot_counts) == 14 and past_end > 0
