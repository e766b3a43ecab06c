"""Snapshot of every plan-wide dataflow fact over the 24 golden cells.

Each fact below is a query over the plan's buffer def-use relation: the
lint findings (hazards, shapes, liveness, access), the live ranges and
peak footprint, the dead transients the optimizer may delete, the
read-only inputs serving shares, the static race verdict, the
translation-validation digest, and the op lists the optimizer produces.
The fixture pins them all, so a refactor of how the relation is derived
must reproduce every fact byte for byte.

Regenerate (only when a fact is meant to change) with::

    PYTHONPATH=src python tests/lint/test_dataflow_facts.py
"""

import json
from pathlib import Path

import pytest

from repro.bench.harness import BenchConfig, get_dataset, make_features
from repro.frameworks import SYSTEMS
from repro.frameworks.base import CapacityError, UnsupportedModelError
from repro.lint import (
    dead_transients,
    default_shared,
    lint_plan,
    live_ranges,
    peak_footprint,
    serving_schedule,
    static_race_keys,
)
from repro.opt import optimize_plan
from repro.verify import normalize_plan

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "golden_plan_refactor.json"
FACTS = DATA / "dataflow_facts.json"


def cell_facts(key):
    """Every dataflow fact of one golden cell (None for a dash cell)."""
    sysname, model, abbr = key.split("/")
    config = BenchConfig()
    ds = get_dataset(abbr, config)
    X = make_features(ds.graph.num_vertices, config.feat_dim, seed=config.seed)
    spec = config.spec_for(ds)
    try:
        plan = SYSTEMS[sysname]().lower(model, ds, X, spec)
    except (UnsupportedModelError, CapacityError):
        return None
    safe, _ = optimize_plan(plan, spec, level="safe", dataset=ds)
    search, _ = optimize_plan(plan, spec, level="search", dataset=ds, budget=8)
    return {
        "lint": [
            [f.severity, f.rule, f.op, f.buffer, f.message]
            for f in lint_plan(plan, spec).findings
        ],
        "live_ranges": [
            [r.buffer, r.first, r.last, r.bytes, r.pinned]
            for r in live_ranges(plan)
        ],
        "peak_footprint": peak_footprint(plan).render(),
        "dead_transients": sorted(dead_transients(plan)),
        "default_shared": sorted(default_shared(plan)),
        "race_keys": sorted(
            list(k) for k in static_race_keys(serving_schedule(plan))
        ),
        "normal_form_digest": normalize_plan(plan).digest,
        "opt_safe_ops": [op.name for op in safe.ops],
        "opt_search_ops": [op.name for op in search.ops],
    }


def capture_facts():
    """The fixture payload: facts of every golden cell, keyed like it."""
    keys = sorted(json.loads(GOLDEN.read_text()))
    return {key: cell_facts(key) for key in keys}


def _pinned():
    return sorted(json.loads(FACTS.read_text()).items())


@pytest.mark.parametrize("key,want", _pinned(), ids=[k for k, _ in _pinned()])
def test_dataflow_facts_match_the_snapshot(key, want):
    assert cell_facts(key) == want


def test_snapshot_covers_every_golden_cell():
    pinned = dict(_pinned())
    assert sorted(pinned) == sorted(json.loads(GOLDEN.read_text()))
    assert sum(v is None for v in pinned.values()) == 3


if __name__ == "__main__":
    FACTS.write_text(json.dumps(capture_facts(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FACTS}")
