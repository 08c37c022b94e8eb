"""hdys loads each scipy module only where a run calls it: importing hdys and
generating data load none, training loads `scipy.special` (gelu's erf) but
not `scipy.interpolate`, and an oracle step loads no `scipy.linalg`. The
stages run in one fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap

import hdys

SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    from dataclasses import replace

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    seen = {}
    import hdys.cli
    seen["import"] = scipy_modules()

    from hdys.datahub import DatasetManifest, default_profiles, generate_dataset
    from hdys.engine import RecordCache, train
    from hdys.model import desk_config

    root, out = os.path.join(sys.argv[1], "data"), os.path.join(sys.argv[1], "run")
    manifest = generate_dataset(root, DatasetManifest(seed=0, profiles=default_profiles(n_train=1, n_test=0)))
    seen["gen-data"] = scipy_modules()

    cfg = desk_config()
    train(replace(cfg, train=replace(cfg.train, epochs=1)), RecordCache.load(root, manifest), out)
    seen["train"] = scipy_modules()

    import numpy as np
    from hdys.rbd import build_t1, step
    tree = build_t1()
    zero = np.zeros((1, tree.n_dof))
    step(tree, zero, zero, zero)
    seen["step"] = scipy_modules()
    print(json.dumps(seen))
    """
)


def test_scipy_modules_load_only_where_a_run_calls_them(tmp_path):
    src = os.path.dirname(os.path.dirname(hdys.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, check=True, capture_output=True, text=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["gen-data"] == []
    assert "scipy.special" in seen["train"]
    assert "scipy.interpolate" not in seen["train"]
    assert "scipy.linalg" not in seen["step"]
