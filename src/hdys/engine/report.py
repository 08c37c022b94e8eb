"""Deterministic CSV/JSON artifact writing with atomic replacement."""

from __future__ import annotations

import hashlib
import json
import os

from ..codec import atomic_write


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


def provenance(out_dir, config_hash: str, dataset_manifest_path: str, seeds: list[int], extra: dict | None = None) -> None:
    payload = {
        "config_hash": config_hash,
        "dataset_hash": file_sha256(dataset_manifest_path),
        "seeds": list(seeds),
    }
    if extra:
        payload.update(extra)
    write_json(os.path.join(out_dir, "provenance.json"), payload)
