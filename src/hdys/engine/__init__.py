from .ablation import CSV_COLUMNS, AblationResult, RunSpec, ablation_suite, grid, run_one, scale_variants
from .batching import BatchingError, Standardizer, WindowRef, build_groups, tiling_starts
from .evaluate import EvalError, EvalReport, MetricRow, evaluate, predict_sequences, zero_baseline
from .report import file_sha256, provenance, write_csv, write_json
from .rollout import ROLLOUT_COLUMNS, RolloutReport, RolloutRow, rollout_eval
from .train import RecordCache, TrainError, TrainResult, load_model, train
