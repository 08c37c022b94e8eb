"""Deterministic CSV/JSON artifact writing with atomic replacement, and the
files that identify a run directory."""

from __future__ import annotations

import hashlib
import json
import os

from ..codec import atomic_write
from ..datahub import DatasetManifest, write_manifest
from ..model import HDySConfig, config_hash, save_config

# A run's own manifest copy; never `manifest.json`, so a run directory placed
# at a dataset root leaves the dataset's manifest alone.
RUN_MANIFEST = "run_manifest.json"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row.get(c, "")) for c in columns) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    atomic_write(path, json.dumps(payload, indent=1, sort_keys=True))


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def freeze_run(out_dir, cfg: HDySConfig, manifest: DatasetManifest, seeds: list[int]) -> None:
    """Write what identifies a run or study directory: the effective
    `config.txt`, the manifest it reads as `RUN_MANIFEST`, and
    `provenance.json` (config hash, sha256 of that manifest copy, seeds)."""
    os.makedirs(out_dir, exist_ok=True)
    save_config(os.path.join(out_dir, "config.txt"), cfg)
    manifest_path = os.path.join(out_dir, RUN_MANIFEST)
    write_manifest(manifest_path, manifest)
    payload = {
        "config_hash": config_hash(cfg),
        "dataset_hash": file_sha256(manifest_path),
        "seeds": list(seeds),
    }
    write_json(os.path.join(out_dir, "provenance.json"), payload)
