"""The settable keys of a run, plus the key-value config format.

A config holds only what presets, studies and ablations vary; the fixed
architecture sizes live in `model/network.py`, the loss weights and the
temperature in `model/losses.py`, the weight decay in `engine/train.py`.
Two presets ship: `desk` (default) trains in minutes on one core, `paper`
holds the full-scale constants (latent 128, batch 9600 frames, 1000 epochs,
lr 1e-3). Config files use the "hdys-config/1" schema: one dotted key per
line, `key = value`, '#' comments. Unknown keys are errors, not warnings.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from ..codec import atomic_write
from ..kinrep import KINEMATIC_CHANNELS
from .network import ID_HEADS, SET_HEADS


class ConfigError(Exception):
    pass


SCHEMA = "hdys-config/1"


@dataclass
class ModelConfig:
    latent_dim: int = 64
    set_ffn_mult: int = 2
    window: int = 16
    no_fdae: bool = False
    no_align: bool = False
    no_temporal_refinement: bool = False

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("window length must be >= 1")
        if self.latent_dim < 1 or self.set_ffn_mult < 1:
            raise ConfigError("latent_dim and set_ffn_mult must be >= 1")
        if self.latent_dim % SET_HEADS or self.latent_dim % ID_HEADS:
            raise ConfigError("latent dim must be divisible by the head counts")


@dataclass
class TrainConfig:
    epochs: int = 200
    frames_per_batch: int = 480
    quota: int = 6  # sequences per profile per epoch
    lr: float = 2e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.seed < 0:
            raise ConfigError("epochs and seed must be >= 0")
        if self.quota < 1 or self.frames_per_batch < 1:
            raise ConfigError("quota and frames_per_batch must be >= 1")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class RolloutConfig:
    k_list: tuple[int, ...] = (1, 2, 3, 4, 5)
    fps_list: tuple[float, ...] = (90.0, 120.0, 150.0)
    profile: str = "A"
    representation: str = "avg"  # kin channel name or "avg"
    max_sequences: int = 6
    start_stride: int = 15

    def __post_init__(self):
        if not self.k_list or min(self.k_list) < 1:
            raise ConfigError("k_list must list step counts >= 1")
        if not self.fps_list or not all(0.0 < f < math.inf for f in self.fps_list):
            raise ConfigError("fps_list must list positive, finite frame rates")
        if self.max_sequences < 1 or self.start_stride < 1:
            raise ConfigError("max_sequences and start_stride must be >= 1")
        if self.representation not in ("avg",) + KINEMATIC_CHANNELS:
            raise ConfigError(f"representation must be 'avg' or one of {', '.join(KINEMATIC_CHANNELS)}")


@dataclass
class HDySConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)

    def __post_init__(self):
        # `train` cuts a batch into whole windows, so any other size would be rounded
        if self.train.frames_per_batch % self.model.window:
            raise ConfigError(
                f"train.frames_per_batch must be a positive multiple of model.window "
                f"({self.model.window}), got {self.train.frames_per_batch}"
            )


def desk_config() -> HDySConfig:
    return HDySConfig()


def paper_config() -> HDySConfig:
    return HDySConfig(
        model=ModelConfig(latent_dim=128, set_ffn_mult=4),
        train=TrainConfig(epochs=1000, frames_per_batch=9600, quota=3000, lr=1e-3),
    )


# -- text round trip ----------------------------------------------------------

_TUPLE_FIELDS = {"k_list": int, "fps_list": float}


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ",".join(_format_value(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def config_to_text(cfg: HDySConfig) -> str:
    lines = [f"schema = {SCHEMA}"]
    for section in ("model", "train", "rollout"):
        sub = getattr(cfg, section)
        for f in fields(sub):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(sub, f.name))}")
    return "\n".join(lines) + "\n"


def _parse_value(raw: str, target_type, name: str):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name}: cannot parse boolean from {raw!r}")
    if target_type in (int, float):
        try:
            return target_type(raw)
        except ValueError:
            raise ConfigError(f"{name}: cannot parse {target_type.__name__} from {raw!r}") from None
    if target_type is str:
        return raw
    raise ConfigError(f"{name}: unsupported field type {target_type}")


def apply_overrides(cfg: HDySConfig, pairs) -> HDySConfig:
    """Set (dotted key, raw value) pairs; unknown keys raise ConfigError. The
    pairs apply at once, so a check that spans keys (frames_per_batch against
    window) sees only the final values, whatever their order."""
    changes: dict[str, dict] = {"model": {}, "train": {}, "rollout": {}}
    for key, raw_value in pairs:
        parts = key.split(".")
        if len(parts) != 2 or parts[0] not in changes:
            raise ConfigError(f"unknown config key '{key}'")
        section, name = parts
        sub = getattr(cfg, section)
        if name not in {f.name for f in fields(sub)}:
            raise ConfigError(f"unknown config key '{key}'")
        current = getattr(sub, name)
        if isinstance(current, tuple):
            elem = _TUPLE_FIELDS.get(name, float)
            value = tuple(_parse_value(x, elem, key) for x in raw_value.split(",") if x.strip())
        else:
            value = _parse_value(raw_value, type(current), key)
        changes[section][name] = value
    return replace(cfg, **{section: replace(getattr(cfg, section), **kw) for section, kw in changes.items()})


def config_from_text(text: str) -> HDySConfig:
    pairs = []
    saw_schema = False
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "schema":
            if value != SCHEMA:
                raise ConfigError(f"unsupported config schema {value!r}")
            saw_schema = True
            continue
        pairs.append((key, value))
    if not saw_schema:
        raise ConfigError("config file is missing the schema line")
    return apply_overrides(desk_config(), pairs)


def load_config(path) -> HDySConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not utf-8 text ({exc})") from None
    return config_from_text(text)


def save_config(path, cfg: HDySConfig) -> None:
    atomic_write(path, config_to_text(cfg))


def config_hash(cfg: HDySConfig) -> str:
    return hashlib.sha256(config_to_text(cfg).encode("utf-8")).hexdigest()[:16]
