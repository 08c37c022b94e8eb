from .config import (
    SCHEMA,
    ConfigError,
    HDySConfig,
    ModelConfig,
    PRESETS,
    RolloutConfig,
    TrainConfig,
    apply_override,
    config_from_text,
    config_hash,
    config_to_text,
    desk_config,
    load_config,
    paper_config,
    save_config,
)
from .layers import MLP, LayerNorm, Linear, ParamSet, SetEncoder, TemporalTransformer, TransformerLayer
from .losses import DeadConfigError, LossBreakdown, loss_align, loss_recon, total_loss
from .network import (
    ChannelInventory,
    GroupOutput,
    HDySModel,
    ModelError,
    WindowGroup,
    accel_block,
    strip_accel_block,
)
