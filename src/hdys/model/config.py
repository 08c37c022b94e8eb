"""Every architecture/loss/training knob, plus the key-value config format.

Two presets ship: `desk` (default) trains in minutes on one core, `paper`
holds the full-scale constants (latent 128, batch 9600 frames, 1000 epochs,
lr 1e-3). Config files use the "hdys-config/1" schema: one dotted key per
line, `key = value`, '#' comments. Unknown keys are errors, not warnings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

from ..codec import atomic_write


class ConfigError(Exception):
    pass


SCHEMA = "hdys-config/1"


@dataclass
class ModelConfig:
    latent_dim: int = 64
    set_layers: int = 3
    set_heads: int = 2
    set_ffn_mult: int = 2
    mlp_hidden: tuple[int, int] = (256, 128)
    id_layers: int = 4
    id_heads: int = 4
    head_hidden_small: int = 32
    head_hidden_big: int = 64
    dyn_encoder_hidden: int = 64
    composer_hidden: int = 128
    window: int = 16
    alpha1: float = 0.01
    alpha2: float = 0.05
    temperature: float = 0.1
    no_fdae: bool = False
    no_align: bool = False
    no_temporal_refinement: bool = False

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.window < 1:
            raise ConfigError("window length must be >= 1")
        if self.latent_dim % self.set_heads or self.latent_dim % self.id_heads:
            raise ConfigError("latent dim must be divisible by the head counts")


@dataclass
class TrainConfig:
    epochs: int = 200
    frames_per_batch: int = 480
    quota: int = 6  # sequences per profile per epoch
    lr: float = 2e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


@dataclass
class RolloutConfig:
    k_list: tuple[int, ...] = (1, 2, 3, 4, 5)
    fps_list: tuple[float, ...] = (90.0, 120.0, 150.0)
    profile: str = "A"
    representation: str = "avg"  # kin channel name or "avg"
    max_sequences: int = 6
    start_stride: int = 15


@dataclass
class HDySConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)


def desk_config() -> HDySConfig:
    return HDySConfig()


def paper_config() -> HDySConfig:
    return HDySConfig(
        model=ModelConfig(latent_dim=128, set_ffn_mult=4),
        train=TrainConfig(epochs=1000, frames_per_batch=9600, quota=3000, lr=1e-3),
    )


# -- text round trip ----------------------------------------------------------

_TUPLE_FIELDS = {"mlp_hidden": int, "k_list": int, "fps_list": float}


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
    if target_type is int:
        return int(raw)
    if target_type is float:
        return float(raw)
    if target_type is str:
        return raw
    raise ConfigError(f"{name}: unsupported field type {target_type}")


def apply_override(cfg: HDySConfig, key: str, raw_value: str) -> HDySConfig:
    """Set one dotted key; unknown keys raise ConfigError."""
    parts = key.split(".")
    if len(parts) != 2 or parts[0] not in ("model", "train", "rollout"):
        raise ConfigError(f"unknown config key '{key}'")
    section, name = parts
    sub = getattr(cfg, section)
    match = [f for f in fields(sub) if f.name == name]
    if not match:
        raise ConfigError(f"unknown config key '{key}'")
    current = getattr(sub, name)
    if isinstance(current, tuple):
        elem = _TUPLE_FIELDS.get(name, float)
        value = tuple(_parse_value(x, elem, key) for x in raw_value.split(",") if x.strip())
    else:
        value = _parse_value(raw_value, type(current), key)
    return replace(cfg, **{section: replace(sub, **{name: value})})


def config_from_text(text: str) -> HDySConfig:
    cfg = desk_config()
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
        cfg = apply_override(cfg, key, value)
    if not saw_schema:
        raise ConfigError("config file is missing the schema line")
    return cfg


def load_config(path) -> HDySConfig:
    with open(path) as fh:
        return config_from_text(fh.read())


def save_config(path, cfg: HDySConfig) -> None:
    atomic_write(path, config_to_text(cfg))


def config_hash(cfg: HDySConfig) -> str:
    return hashlib.sha256(config_to_text(cfg).encode("utf-8")).hexdigest()[:16]
