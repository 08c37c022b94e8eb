"""On-disk dataset layout: binary sequence records plus a JSON manifest.

Record layout (strings, arrays and payloads as encoded by `hdys.codec`):

    magic "HDYSREC1", u32 version 2,
    seq_id / profile_id / tree_name strings,
    f64 fps, f64 subject_mass, u32 n_frames,
    u32 n_marker_ids, i64 marker id payload,
    u8 n_channels, per channel: name string, array (frames on axis 0)

A kinematics channel stores its positions only (`kinrep.leading` at k=1);
reading derives velocity and acceleration with `kinrep.triples` at the
header's fps, as generation did, so every array keeps its bits. Version-1
records, which stored them too, must be regenerated. Payloads are raw
float64 bytes, so round trips are lossless. Files are replaced atomically.
"""

from __future__ import annotations

import os

from .. import HdysError
from ..codec import Reader, Writer, atomic_write
from ..kinrep import CHANNELS, KINEMATIC_CHANNELS, SequenceRecord, leading, triples

MAGIC = b"HDYSREC1"
VERSION = 2


class DatasetError(HdysError):
    pass


def record_to_bytes(rec: SequenceRecord) -> bytes:
    w = Writer(MAGIC, DatasetError)
    w.pack("<I", VERSION)
    w.str(rec.seq_id)
    w.str(rec.profile_id)
    w.str(rec.tree_name)
    w.pack("<ddI", rec.fps, rec.subject_mass, rec.n_frames)
    w.pack("<I", rec.marker_ids.size)
    w.payload(rec.marker_ids, "<i8")
    names = [c for c in CHANNELS if c in rec.channels]
    w.pack("<B", len(names))
    for name in names:
        w.str(name)
        block = rec.channels[name]
        w.array(leading(name, block, 1) if name in KINEMATIC_CHANNELS else block)
    return w.bytes()


def record_from_bytes(data: bytes) -> SequenceRecord:
    r = Reader(data, MAGIC, "record", DatasetError)
    version = r.unpack("<I")
    if version != VERSION:
        raise DatasetError(f"unsupported record version {version} (this hdys reads version {VERSION}); "
                           "regenerate the dataset with 'hdysctl gen-data'")
    seq_id, profile_id, tree_name = r.str(), r.str(), r.str()
    fps, mass, n_frames = r.unpack("<ddI")
    marker_ids = r.payload((r.unpack("<I"),), "<i8")
    channels = {}
    for _ in range(r.unpack("<B")):
        name = r.str()
        if name not in CHANNELS:
            raise DatasetError(f"unknown channel '{name}' in record")
        channels[name] = r.array()
        if channels[name].shape[:1] != (n_frames,):
            raise DatasetError(f"channel '{name}' frame count disagrees with header")
    r.done()
    try:
        channels = {k: triples(k, v, fps) if k in KINEMATIC_CHANNELS else v for k, v in channels.items()}
        return SequenceRecord(
            seq_id=seq_id,
            profile_id=profile_id,
            tree_name=tree_name,
            fps=fps,
            subject_mass=mass,
            channels=channels,
            marker_ids=marker_ids,
        )
    except Exception as exc:
        raise DatasetError(f"record {profile_id}/{seq_id} fails validation: {exc}") from exc


def write_record(path, rec: SequenceRecord) -> None:
    atomic_write(path, record_to_bytes(rec))


def read_record(path) -> SequenceRecord:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DatasetError(f"cannot read record {path}: {exc.strerror or exc}") from exc
    return record_from_bytes(data)


def record_path(root, profile_id: str, seq_id: str) -> str:
    return os.path.join(root, profile_id, f"{seq_id}.rec")
