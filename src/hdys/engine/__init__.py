from .ablation import CSV_COLUMNS, RunSpec, grid, run_one, run_study, scale_variants
from .batching import BatchingError, Standardizer, WindowRef, build_groups, tiling_starts
from .evaluate import EvalError, EvalReport, MetricRow, evaluate, predict_sequences, zero_baseline
from .report import file_sha256, freeze_run, write_csv, write_json
from .rollout import ROLLOUT_COLUMNS, RolloutReport, RolloutRow, rollout_eval
from .train import RecordCache, TrainError, TrainResult, load_model, load_run, train
