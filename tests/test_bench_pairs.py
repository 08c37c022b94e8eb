import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, round_s, outputs, env):
    metrics = {"round_s": {"value": round_s, "unit": "s"}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return {"pair": 1, "side": side, "returncode": 0, "env": env, "output_lines": outputs, "result": result}


def test_summarize_prints_env_medians_and_wins(capsys):
    bench_pairs = _bench_pairs()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"][:1]
    assert end_to_end[0]["name"] == "round_s"
    env = {"nproc": 2, "blas_threads": "1", "numpy": "2.0", "scipy": "1.0"}
    runs = [_run("parent", 2.0, ["output a"], env), _run("change", 1.5, ["output a"], env)]
    assert bench_pairs.summarize(runs, end_to_end)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "env " + json.dumps(env, sort_keys=True)  # one line for both runs
    assert lines[1] == (
        "round_s (s, lower is better): parent 2 min-max [2, 2], change 1.5 min-max [1.5, 1.5]; "
        "change won 1 of 1 pairs"
    )
    assert lines[2] == "outputs: identical in every run"

    # different outputs fail the comparison; each machine's env line is printed once
    other = dict(env, nproc=4)
    runs = [_run("parent", 2.0, ["output a"], env), _run("change", 2.5, ["output b"], other)]
    assert not bench_pairs.summarize(runs, end_to_end)
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("env ")] == ["env " + json.dumps(e, sort_keys=True) for e in (env, other)]
    assert "change won 0 of 1 pairs" in lines[2] and lines[3] == "outputs: 2 distinct sets"


def test_summarize_prints_the_output_lines_that_differ(capsys):
    bench_pairs = _bench_pairs()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"][:1]
    env = {"nproc": 2}
    parent = ["output loss 1.0", "output mse 0.25", "output starts 3"]
    change = ["output loss 1.0", "output mse 0.2500001", "output starts 3", "output extra"]
    runs = [dict(_run("parent", 2.0, parent, env), pair=1), dict(_run("change", 2.0, change, env), pair=1),
            dict(_run("parent", 2.0, parent, env), pair=2), dict(_run("change", 2.0, change[:3], env), pair=2)]
    assert not bench_pairs.summarize(runs, end_to_end)
    assert capsys.readouterr().out.splitlines()[2:] == [
        "outputs: 3 distinct sets",
        "outputs within parent: identical over 2 runs",
        "outputs within change: 2 distinct sets over 2 runs",
        "differs: parent output mse 0.25",
        "         change output mse 0.2500001",
        "differs: parent (no line)",
        "         change output extra",
    ]


def test_summarize_prints_quartiles_and_range(capsys):
    # a bimodal parent: the range shows that every change run beats every parent run
    bench_pairs = _bench_pairs()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"][:1]
    env = {"nproc": 2}
    runs = []
    for pair, (parent, change) in enumerate([(306.0, 288.0), (319.0, 289.0), (306.0, 288.5), (319.0, 288.2)], 1):
        runs += [dict(_run("parent", parent, ["output a"], env), pair=pair),
                 dict(_run("change", change, ["output a"], env), pair=pair)]
    assert bench_pairs.summarize(runs, end_to_end)
    line = capsys.readouterr().out.splitlines()[1]
    assert line == (
        "round_s (s, lower is better): parent 312.5 [306, 319] min-max [306, 319], "
        "change 288.35 [288.15, 288.625] min-max [288, 289]; change won 4 of 4 pairs"
    )


def test_summarize_prints_the_named_metric_lines(capsys):
    # each run's other metric lines get a row too: a rate (unit "/s") is better higher,
    # a time lower; end-to-end and failed_share lines add none
    bench_pairs = _bench_pairs()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"][:1]
    env = {"nproc": 2}
    runs = []
    pairs = [((190.0, 1.30), (240.0, 0.81)), ((195.0, 1.32), (180.0, 1.40)), ((193.0, 1.28), (242.0, 0.80))]
    for pair, (parent, change) in enumerate(pairs, 1):
        for side, (rate, step) in (("parent", parent), ("change", change)):
            lines = ["metric round_s 2 s (wall 2)", "metric failed_share 0 ratio (0 of 20)",
                     f"metric rollout_steps_per_s {rate:g} steps/s (wall {rate - 10:g})",
                     f"metric train_step_s {step:g} s (wall {step - 0.3:g})"]
            runs.append(dict(_run(side, 2.0, ["output a"], env), pair=pair, metric_lines=lines))
    assert bench_pairs.summarize(runs, end_to_end)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("round_s (s, lower is better): ") and lines[1].endswith("change won 0 of 3 pairs")
    assert lines[2:] == [
        "rollout_steps_per_s (steps/s, higher is better): parent 193 [191.5, 194] min-max [190, 195], "
        "change 240 [210, 241] min-max [180, 242]; change won 2 of 3 pairs",
        "train_step_s (s, lower is better): parent 1.3 [1.29, 1.31] min-max [1.28, 1.32], "
        "change 0.81 [0.805, 1.105] min-max [0.8, 1.4]; change won 2 of 3 pairs",
        "outputs: identical in every run",
    ]
