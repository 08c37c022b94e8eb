from .ablation import CSV_COLUMNS, RunSpec, eval_rows, grid, rollout_rows, rollout_study, run_study, scale_variants
from .batching import Standardizer, WindowRef, build_groups, tiling_starts
from .evaluate import EVAL_COLUMNS, EvalError, EvalReport, MetricRow, evaluate, mean_baseline, predict_sequences, zero_baseline
from .report import file_sha256, freeze_run, write_csv, write_json
from .rollout import ROLLOUT_COLUMNS, RolloutReport, RolloutRow, check_grid, rollout_eval
from .train import RecordCache, TrainError, TrainResult, group_backward, load_model, load_run, train
