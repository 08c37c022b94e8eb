from .config import (
    SCHEMA,
    ConfigError,
    HDySConfig,
    ModelConfig,
    RolloutConfig,
    TrainConfig,
    apply_overrides,
    config_from_text,
    config_hash,
    config_to_text,
    desk_config,
    load_config,
    paper_config,
    save_config,
)
from .layers import MLP, LayerNorm, Linear, ParamSet, SetEncoder, TemporalTransformer, TransformerLayer
from .losses import DeadConfigError, Normalisers, loss_align, loss_recon, total_loss
from .network import (
    ChannelInventory,
    GroupOutput,
    HDySModel,
    WindowGroup,
    accel_block,
    strip_accel_block,
)
