"""``serve``: open-loop mixed traffic against one deployment per op.

One op serves one fixed, seeded Poisson trace on the simulated clock
through ``InferenceService(planner, cfg).run(requests)``, on a fresh plan
cache.  About one request in eight is a 16-vertex target query; the
rest are full-graph requests.  Both systems see identical arrivals at
each rung of a fixed ladder of offered rates.
"""

from __future__ import annotations

import time

import numpy as np

from repro.frameworks import SYSTEMS
from repro.serve import InferenceService, Request, ServableModel, ServeConfig, poisson_trace

from .core import UNTIMED, Workload, fresh_state, geomean

SERVED = ("TLPGNN", "DGL")
DATASETS = ("PD", "OA")
MODEL = "gcn"
#: offered rates, as multiples of DGL's offline service rate on the dataset
#: (1 / its single-request runtime); the same multiples for every seed
RATE_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
REQUESTS_PER_TRACE = 400
TARGET_SHARE = 1 / 8
TARGETS_PER_QUERY = 16
#: the latency objective, as a multiple of DGL's offline runtime (the
#: ``repro.bench.serving`` convention: the baseline meets it at low load)
SLO_FACTOR = 2.5
BATCHING = dict(max_batch=4, window_s=200e-6, num_streams=2, queue_depth=64)


def mixed_trace(rate_hz: float, num_vertices: int, seed) -> list[Request]:
    """Poisson arrivals; each request is a target query with probability
    :data:`TARGET_SHARE`, else a full-graph request."""
    rng = np.random.default_rng(seed)
    arrivals = poisson_trace(rate_hz, REQUESTS_PER_TRACE, seed=rng)
    requests = []
    for rid, t in enumerate(arrivals):
        if rng.random() < TARGET_SHARE:
            draw = rng.integers(0, num_vertices, size=TARGETS_PER_QUERY)
            targets = tuple(np.unique(draw).tolist())
            requests.append(Request(rid, float(t), job="targets", targets=targets))
        else:
            requests.append(Request(rid, float(t)))
    return requests


class _Planner:
    """Forwards to a deployment; counts the kernels it plans and times
    planning per job class (the service reads only these attributes)."""

    def __init__(self, model: ServableModel, clock) -> None:
        self.model = model
        self.clock = clock
        self.label = model.label
        self.graph = model.graph
        self.offline_runtime_s = model.offline_runtime_s
        self.kernels = 0
        self.seconds = 0.0

    def plan(self, batch):
        t0 = time.perf_counter()
        kernels = self.model.plan(batch)
        dt = time.perf_counter() - t0
        self.seconds += dt
        self.kernels += len(kernels)
        self.clock.add(f"serve.plan_{batch[0].job}", dt)
        return kernels


class Serve(Workload):
    name = "serve"
    ops = tuple(
        (system, abbr, rung)
        for abbr in DATASETS
        for system in SERVED
        for rung in range(len(RATE_LADDER))
    )

    def setup(self) -> None:
        datasets = self.load(DATASETS)
        self.deployments = {}
        for abbr, ds in datasets.items():
            for system in SERVED:
                model = ServableModel(
                    SYSTEMS[system](), MODEL, ds,
                    feat_dim=self.config.feat_dim,
                    spec=self.config.spec_for(ds), seed=self.seed,
                )
                model.offline_runtime_s  # profile the deployment now
                self.deployments[system, abbr] = model
        self.slo_ms, self.traces, self.cfgs = {}, {}, {}
        for i, abbr in enumerate(DATASETS):
            dgl_s = self.deployments["DGL", abbr].offline_runtime_s
            self.slo_ms[abbr] = SLO_FACTOR * dgl_s * 1e3
            for rung, share in enumerate(RATE_LADDER):
                cfg = ServeConfig(
                    rate_hz=share / dgl_s, num_requests=REQUESTS_PER_TRACE,
                    slo_ms=self.slo_ms[abbr], seed=self.seed, **BATCHING,
                )
                self.cfgs[abbr, rung] = cfg
                self.traces[abbr, rung] = mixed_trace(
                    cfg.rate_hz, datasets[abbr].graph.num_vertices,
                    np.random.SeedSequence([self.seed, i, rung]),
                )
        #: op -> (shed, p50_ms, p99_ms) of its first run
        self.first: dict[tuple, tuple[int, float, float]] = {}
        self.run_op(self.ops[0], UNTIMED)

    def run_op(self, op, clock):
        system, abbr, rung = op
        planner = _Planner(self.deployments[system, abbr], clock)
        with fresh_state() as (cache, _store):
            t0 = time.perf_counter()
            report = InferenceService(planner, self.cfgs[abbr, rung]).run(
                self.traces[abbr, rung]
            )
            clock.add("serve.self", time.perf_counter() - t0 - planner.seconds)
        return report, cache.snapshot(), planner.kernels

    def counts(self, result):
        report, snap, kernels = result
        return {
            "plan.cache.hits": snap["hits"],
            "plan.cache.misses": snap["misses"],
            "plan.cache.evictions": snap["evictions"],
            "plan.kernels": kernels,
            "serve.batches": report.num_batches,
            "serve.completed": report.completed,
            "serve.shed": report.shed,
        }

    def signature(self, result):
        r = result[0]
        return (
            r.arrived, r.admitted, r.shed, r.completed, r.num_batches,
            r.avg_batch, r.p50_ms, r.p95_ms, r.p99_ms, r.mean_ms,
            r.mean_wait_ms, r.throughput_rps, r.makespan_s,
            r.avg_concurrency, repr(r.slo), self.counts(result),
        )

    def verify(self, index, result):
        system, abbr, rung = op = self.ops[index]
        report = result[0]
        offered = len(self.traces[abbr, rung])
        problems = []
        if report.arrived != offered or report.completed + report.shed != offered:
            problems.append(
                f"{op}: {report.completed} completed + {report.shed} shed "
                f"!= {offered} offered"
            )
        if report.slo is None:
            problems.append(f"{op}: SLO monitoring did not run")
        self.first[op] = (report.shed, report.p50_ms, report.p99_ms)
        return problems

    def sustained(self, system: str, abbr: str) -> float:
        """Highest ladder multiple served with zero shed and p99 <= SLO."""
        best = 0.0
        for rung, share in enumerate(RATE_LADDER):
            shed, _p50, p99 = self.first[system, abbr, rung]
            if shed == 0 and p99 <= self.slo_ms[abbr]:
                best = share
        return best

    def modeled(self):
        lowest = {(s, abbr): self.first[s, abbr, 0] for abbr in DATASETS for s in SERVED}
        shed = sum(f[0] for f in self.first.values())
        return {
            # light-load median-latency speedup: the p99 ratio swings a few
            # percent between seeds, the sustained-rate ratio whole ladder steps
            "modeled_speedup_geomean": (geomean(
                lowest["DGL", abbr][1] / lowest["TLPGNN", abbr][1] for abbr in DATASETS
            ), "x"),
            "modeled_wins": (float(sum(
                self.first["TLPGNN", abbr, rung][2] < self.first["DGL", abbr, rung][2]
                for abbr in DATASETS
                for rung in range(len(RATE_LADDER))
            )), "count"),
            "modeled_ms_geomean": (geomean(f[1] for f in lowest.values()), "ms"),
            "modeled_p99_ms": (geomean(f[2] for f in lowest.values()), "ms"),
            "modeled_sustained_ratio": (geomean(
                self.sustained("TLPGNN", abbr) / self.sustained("DGL", abbr)
                for abbr in DATASETS
            ), "x"),
            "shed_frac": (shed / (len(self.first) * REQUESTS_PER_TRACE), "ratio"),
        }
