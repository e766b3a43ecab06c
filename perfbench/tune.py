"""``tune``: cold auto-tuning of one TLPGNN cell per op, then deployment.

One op tunes a cell from scratch with a fresh ``AutoTuner``, tuned-plan
store and plan cache, deploys the result with ``run(opt="search")``, and
runs DGL with ``run(opt="safe")`` on the same cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.frameworks import DGLSystem, TLPGNNEngine
from repro.lint import lint_plan
from repro.opt import AutoTuner, modeled_runtime_s
from repro.verify import check_tuned_certificate

from .core import UNTIMED, Workload, digest, fresh_state, geomean, replay_run

MODELS = ("gcn", "gat")
DATASETS = ("CR", "PD", "OA", "PI", "DD", "RD")
BUDGET = 16
#: DGL's GAT pipeline after the safe rewrites (18 kernels lowered)
DGL_GAT_SAFE_KERNELS = 10


@dataclass
class TuneResult:
    op: tuple[str, str]
    tuning: Any
    tuned: Any
    dgl: Any
    cache: dict
    store: Any
    #: the executed (tuned, DGL) plans of a traced op
    plans: tuple | None


class Tune(Workload):
    name = "tune"
    ops = tuple((model, abbr) for model in MODELS for abbr in DATASETS)

    def setup(self) -> None:
        self.datasets = self.load(DATASETS)
        self.X = {abbr: self.features(ds) for abbr, ds in self.datasets.items()}
        self.spec = {abbr: self.config.spec_for(ds) for abbr, ds in self.datasets.items()}
        #: op -> (fixed_ms, tuned_ms) of its first run
        self.first: dict[tuple[str, str], tuple[float, float]] = {}
        self.run_op(self.ops[0], UNTIMED)

    def run_op(self, op, clock):
        model, abbr = op
        cell = (model, self.datasets[abbr], self.X[abbr], self.spec[abbr])
        with fresh_state() as (cache, store):
            tuner = AutoTuner(budget=BUDGET, seed=self.seed, store=store)
            tuning = clock.call("opt.tune", tuner.tune, TLPGNNEngine(), *cell)
            if clock is UNTIMED:
                tuned = TLPGNNEngine().run(*cell, opt="search")
                dgl = DGLSystem().run(*cell, opt="safe")
                plans = None
            else:
                tuned, tuned_plan = replay_run(TLPGNNEngine(), *cell, clock, opt="search")
                dgl, dgl_plan = replay_run(DGLSystem(), *cell, clock, opt="safe")
                plans = (tuned_plan, dgl_plan)
        return TuneResult(op, tuning, tuned, dgl, cache.snapshot(), store, plans)

    def counts(self, result):
        return {
            "plan.cache.hits": result.cache["hits"],
            "plan.cache.misses": result.cache["misses"],
            "plan.cache.evictions": result.cache["evictions"],
            "plan.kernels": result.tuned.plan.num_kernels + result.dgl.plan.num_kernels,
            "opt.tuner.iterations": result.tuning.iterations,
            "opt.tuner.cached_trials": sum(t.cached for t in result.tuning.trials),
            "opt.store.hits": result.store.hits,
        }

    def signature(self, result):
        tuning = result.tuning
        return (
            tuning.fixed_ms, tuning.default_ms, tuning.tuned_ms,
            sorted(tuning.best_knobs.items()),
            digest(result.tuned.output), result.tuned.report.timing,
            digest(result.dgl.output), result.dgl.report.timing,
            self.counts(result),
        )

    def verify(self, index, result):
        model, abbr = op = self.ops[index]
        tuning, tuned, dgl = result.tuning, result.tuned, result.dgl
        ds, X, spec = self.datasets[abbr], self.X[abbr], self.spec[abbr]
        problems = []
        if not tuning.tuned_ms <= tuning.fixed_ms:
            problems.append(f"{op}: tuned {tuning.tuned_ms} ms > fixed {tuning.fixed_ms} ms")
        if tuning.iterations > BUDGET:
            problems.append(f"{op}: {tuning.iterations} iterations > budget {BUDGET}")
        if not math.isclose(tuned.runtime_ms, tuning.tuned_ms, rel_tol=1e-12):
            problems.append(f"{op}: deployed {tuned.runtime_ms} ms != tuned {tuning.tuned_ms} ms")
        check = check_tuned_certificate(TLPGNNEngine(), model, ds, X, spec, store=result.store)
        if not check.ok:
            problems.append(f"{op}: stored certificate: {check.render()}")
        with fresh_state():
            plain = {
                "TLPGNN": TLPGNNEngine().run(model, ds, X, spec).output,
                "DGL": DGLSystem().run(model, ds, X, spec).output,
            }
        for name, r in (("TLPGNN", tuned), ("DGL", dgl)):
            if r.output.tobytes() != plain[name].tobytes():
                problems.append(f"{op} {name}: optimized output != opt=None output")
        if model == "gat" and dgl.plan.num_kernels != DGL_GAT_SAFE_KERNELS:
            problems.append(
                f"{op}: DGL gat has {dgl.plan.num_kernels} launches after safe, "
                f"not {DGL_GAT_SAFE_KERNELS}"
            )
        self.first[op] = (tuning.fixed_ms, tuning.tuned_ms)
        return problems

    def probe(self, result, clock):
        """Lint both deployed plans and re-score the tuned one: single
        calls of what the optimizer runs per rewrite and the tuner per
        candidate."""
        spec = self.spec[result.op[1]]
        tuned_plan, dgl_plan = result.plans
        problems = []
        for plan in (tuned_plan, dgl_plan):
            if clock.call("lint.lint", lint_plan, plan, spec).errors:
                problems.append(f"{result.op} {plan.system}: deployed plan has lint errors")
        ms = clock.call("opt.modeled_runtime", modeled_runtime_s, tuned_plan, spec) * 1e3
        if not math.isclose(ms, result.tuning.tuned_ms, rel_tol=1e-12):
            problems.append(f"{result.op}: re-scored {ms} ms != tuned {result.tuning.tuned_ms} ms")
        return problems

    def modeled(self):
        cells = list(self.first.values())
        return {
            "modeled_speedup_geomean": (geomean(f / t for f, t in cells), "x"),
            "modeled_wins": (float(sum(t < f for f, t in cells)), "count"),
            "modeled_ms_geomean": (geomean(t for _f, t in cells), "ms"),
        }

