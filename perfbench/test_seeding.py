"""Seeding: a seed fixes every modeled figure; another seed changes the
generated inputs but not the op list, the dash cells or the rate ladder."""

import subprocess
import sys

import numpy as np
import pytest

from perfbench.conftest import ROOT
from perfbench.core import UNTIMED, fresh_state
from perfbench.serving import RATE_LADDER, Serve
from perfbench.table5 import Table5
from perfbench.tune import Tune

WORKLOADS = [Table5, Serve, Tune]


def modeled_lines(workload: str, seed: int) -> list[str]:
    """The deterministic figures a shortest run prints (two cycles)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    assert '"correct": true' in out.splitlines()[-1]
    return [
        line for line in out.splitlines()
        if line.startswith(("modeled_", "shed_frac"))
    ]


@pytest.mark.parametrize("cls", WORKLOADS, ids=lambda cls: cls.name)
def test_same_seed_repeats_modeled_figures_exactly(cls):
    first = modeled_lines(cls.name, 11)
    assert any(line.startswith("modeled_speedup_geomean") for line in first)
    assert modeled_lines(cls.name, 11) == first


def one_cycle(cls, seed):
    workload = cls(seed)
    with fresh_state():
        workload.setup()
    for i, op in enumerate(workload.ops):
        assert workload.check(i, workload.run_op(op, UNTIMED)) == []
    return workload


@pytest.mark.parametrize("cls", WORKLOADS, ids=lambda cls: cls.name)
def test_other_seed_changes_inputs_only(cls):
    a, b = one_cycle(cls, 11), one_cycle(cls, 12)
    assert a.ops == b.ops
    assert a.modeled() != b.modeled()
    if cls is Table5:
        assert any(
            a.datasets[d].graph.fingerprint() != b.datasets[d].graph.fingerprint()
            for d in a.datasets
        )
        assert not np.array_equal(a.X["CS"], b.X["CS"])
        dashes = [
            {op: sorted(n for n, t in w.rows[op].items() if t is None) for op in w.ops}
            for w in (a, b)
        ]
        assert dashes[0] == dashes[1]
    if cls is Serve:
        for w in (a, b):
            for (abbr, rung), cfg in w.cfgs.items():
                dgl_s = w.deployments["DGL", abbr].offline_runtime_s
                assert cfg.rate_hz * dgl_s == pytest.approx(RATE_LADDER[rung])
        assert a.traces["PD", 0] != b.traces["PD", 0]
