"""Host numerics do not depend on the BLAS thread count.

The gat golden cells are the ones whose bytes used to move with it: the
attention scalars ``X @ a`` went through a threaded BLAS sgemv, whose
summation order changes with the thread count.  Every dense contraction
now goes through :func:`repro.models.functional.linear`, which never calls
BLAS.  This test runs the nine gat cells of the golden fixture in two fresh
interpreters, one with one BLAS thread and one with four, and requires
both to reproduce the pinned output hashes.  Nothing is pinned in-process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from .test_plan_regression import GOLDEN

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import hashlib, json, sys
import numpy as np
from repro.bench.harness import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import SYSTEMS

hashes = {}
for key in json.loads(sys.argv[1]):
    sysname, model, abbr = key.split("/")
    config = BenchConfig()
    ds = get_dataset(abbr, config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    res = run_system(SYSTEMS[sysname](), model, ds, config, X=X)
    hashes[key] = hashlib.sha256(
        np.ascontiguousarray(res.output).tobytes()
    ).hexdigest()
print(json.dumps(hashes))
"""


def _gat_cells() -> dict[str, str]:
    golden = json.loads(GOLDEN.read_text())
    return {
        key: want["output_sha256"]
        for key, want in sorted(golden.items())
        if key.split("/")[1] == "gat" and want is not None
    }


def test_gat_golden_hashes_invariant_to_blas_threads():
    want = _gat_cells()
    assert len(want) == 9  # DGL, FeatGraph, TLPGNN x CR, CS, PD
    procs = {}
    for threads in ("1", "4"):
        env = dict(os.environ)
        env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", _PROBE, json.dumps(sorted(want))],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    for threads, proc in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        assert json.loads(stdout) == want, (
            f"OPENBLAS_NUM_THREADS={threads}: gat output hashes drifted"
        )
