"""Measurement machinery shared by the three workloads.

A workload is a fixed list of ops run in a closed loop from one process:
the next op starts when the previous one returns.  Every op starts from
fresh program state (:func:`fresh_state`), and every check runs between
ops, outside the timed region.  Host times are reported as medians so a
single descheduled op does not move a run's figures.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import math
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

import numpy as np
import scipy

from repro.bench.harness import BenchConfig, make_features
from repro.frameworks import SYSTEMS, CapacityError, UnsupportedModelError
from repro.frameworks.base import SystemResult
from repro.gpusim.profiler import ProfileReport
from repro.graph.datasets import Dataset, load_dataset
from repro.opt import (
    TUNER_VERSION,
    TunedPlanStore,
    get_tuned_store,
    optimize_plan,
    set_tuned_store,
    tuning_key,
)
from repro.plan import (
    PlanCache,
    PlanCacheEntry,
    analyze_plan,
    cost_plan,
    execute_plan,
    get_plan_cache,
    plan_fingerprint,
    set_plan_cache,
    time_parts,
)
from repro.verify import certify_plans

#: the cells the paper leaves blank raise one of these from ``run()``
DASH_ERRORS = (UnsupportedModelError, CapacityError)

#: every workload's inputs: 200k-edge stand-ins, the paper's feature size
MAX_EDGES = 200_000
FEAT_DIM = 32

#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_REPS = 3
#: each timed phase runs at least this many whole cycles of the op list,
#: so every op is repeated and its repeat is checked against its first run
MIN_CYCLES = 2

#: layers whose times are disjoint parts of a traced op (their sum over
#: the op time is ``trace.coverage``); per-system lower splits and the
#: probe layers timed outside ops are not among them
OP_LAYERS = (
    "plan.fingerprint",
    "plan.cache",
    "frameworks.lower",
    "opt.tune",
    "opt.optimize",
    "verify.certify",
    "plan.execute",
    "plan.analyze",
    "gpusim.cost",
    "serve.self",
    "serve.plan_full",
    "serve.plan_targets",
)


# ----------------------------------------------------------------------
# tracing: timing the benchmark's own calls into each layer
# ----------------------------------------------------------------------
class LayerClock:
    """Host seconds and counts per layer, accumulated over one traced
    phase.  Only the benchmark's own calls are timed; nothing inside the
    program is patched and the ``repro.obs`` tracer stays uninstalled."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, layers: str | tuple[str, ...], fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)``, its wall time charged to ``layers``."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(layers, time.perf_counter() - t0)

    def add(self, layers: str | tuple[str, ...], seconds: float) -> None:
        for layer in (layers,) if isinstance(layers, str) else layers:
            self.seconds[layer] += seconds
            self.calls[layer] += 1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n


class _Untimed:
    """The untraced stand-in for :class:`LayerClock`: plain calls."""

    @staticmethod
    def call(layers, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def add(layers, seconds: float) -> None:
        pass

    @staticmethod
    def count(name: str, n: float = 1) -> None:
        pass


UNTIMED = _Untimed()


@contextlib.contextmanager
def fresh_state() -> Iterator[tuple[PlanCache, TunedPlanStore]]:
    """A fresh plan cache and tuned-plan store for one op; the process-wide
    ones in place before are restored afterwards."""
    cache, store = PlanCache(), TunedPlanStore()
    prev_cache = set_plan_cache(cache)
    prev_store = set_tuned_store(store)
    try:
        yield cache, store
    finally:
        set_plan_cache(prev_cache)
        set_tuned_store(prev_store)


def replay_run(
    system,
    model: str,
    data: Dataset,
    X: np.ndarray,
    spec,
    clock: LayerClock,
    *,
    opt: str | None = None,
) -> tuple[SystemResult, Any]:
    """``system.run(model, data, X, spec, opt=opt)`` as its public stages,
    each timed: fingerprint → cache lookup → lower → [optimize → certify]
    → execute → analyze → time_parts + cost_plan → cache insert.

    Returns the result ``run`` would return and the executed plan (None on
    a cache hit); applied rewrites are counted as ``opt.rewrites``.  The
    workloads check that the result equals ``run``'s.
    """
    name = system.name
    if not system.supports(model):
        raise UnsupportedModelError(f"{name} does not implement {model}")
    system.check_capacity(data.graph, data)
    tuned = None
    opt_ctx = None
    if opt in ("safe", "search"):
        if opt == "search":
            tkey = tuning_key(
                system=name, model=model, graph=data.graph, X=X, spec=spec,
                dataset=data,
            )
            tuned = get_tuned_store().lookup(tkey, system=name, model=model)
        opt_ctx = {"level": opt, "tuner_version": TUNER_VERSION, "tuned": tuned}
    key = clock.call(
        "plan.fingerprint", plan_fingerprint,
        system=name, model=model, graph=data.graph, X=X, spec=spec,
        knobs=system.plan_knobs(), dataset=data, opt=opt_ctx,
    )
    cache = get_plan_cache()
    if cache is not None:
        entry = clock.call("plan.cache", cache.get, key, system=name, model=model)
        if entry is not None:
            report = ProfileReport(
                system=name, model=model, dataset=data.graph.name,
                timing=entry.timing, stats=entry.stats,
            )
            info = replace(entry.info, cached=True)
            return SystemResult(entry.output.copy(), report, info), None
    plan = clock.call(
        ("frameworks.lower", f"frameworks.{name}.lower"),
        system.lower, model, data, X, spec,
    )
    plan.fingerprint = key
    certificate = None
    if opt_ctx is not None:
        lowered = plan
        plan, records = clock.call(
            "opt.optimize", optimize_plan,
            plan, spec, level=opt, dataset=data, tuned=tuned,
        )
        clock.count("opt.rewrites", sum(r.applied for r in records))
        cert = clock.call("verify.certify", certify_plans, plan, lowered)
        if cert.certificate is not None:
            certificate = cert.certificate.as_dict()
    output = clock.call("plan.execute", execute_plan, plan)
    pipeline, parts = clock.call("plan.analyze", analyze_plan, plan, spec)
    timings = clock.call("gpusim.cost", time_parts, parts, spec)
    timing = clock.call(
        "gpusim.cost", cost_plan,
        pipeline, timings, spec, dispatch_seconds=system.dispatch_seconds,
    )
    if cache is not None:
        clock.call(
            "plan.cache", cache.put, key,
            PlanCacheEntry(
                output=output.copy(), stats=pipeline, timing=timing,
                info=plan.info(), certificate=certificate,
            ),
        )
    report = ProfileReport(
        system=name, model=model, dataset=data.graph.name,
        timing=timing, stats=pipeline,
    )
    return SystemResult(output, report, plan.info()), plan


# ----------------------------------------------------------------------
# the workload contract
# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload: a fixed op list over seeded inputs.

    Subclasses define ``name``, ``ops``, :meth:`setup`, :meth:`run_op`,
    :meth:`counts`, :meth:`signature`, :meth:`verify` and :meth:`modeled`.
    The op list does not depend on the seed; the inputs do.
    """

    name = "workload"
    ops: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = BenchConfig(max_edges=MAX_EDGES, feat_dim=FEAT_DIM, seed=seed)
        #: host seconds spent generating datasets in this set-up
        self.load_seconds = 0.0
        self._signatures: dict[int, Any] = {}

    # -- inputs ----------------------------------------------------------
    def load(self, abbrs) -> dict[str, Dataset]:
        """Generate the datasets cold, as ``get_dataset`` does on a miss,
        and finish their lazy per-graph state (degrees, fingerprint)."""
        out = {}
        for abbr in abbrs:
            t0 = time.perf_counter()
            ds = load_dataset(
                abbr, max_edges=self.config.max_edges, seed=self.config.seed
            )
            self.load_seconds += time.perf_counter() - t0
            ds.graph.in_degrees, ds.graph.out_degrees, ds.graph.fingerprint()
            out[abbr] = ds
        return out

    def features(self, ds: Dataset) -> np.ndarray:
        return make_features(
            ds.graph.num_vertices, self.config.feat_dim, seed=self.config.seed
        )

    # -- subclass hooks --------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, op, clock) -> Any:
        """Run one op; ``clock`` is :data:`UNTIMED` or a :class:`LayerClock`."""
        raise NotImplementedError

    def counts(self, result) -> dict[str, Any]:
        """Exact counts of one op (cache, tuner, serve, launches)."""
        raise NotImplementedError

    def signature(self, result) -> Any:
        """Everything about an op's result that must repeat exactly."""
        raise NotImplementedError

    def verify(self, index: int, result) -> list[str]:
        """Full output checks of an op's first run; records what
        :meth:`modeled` needs.  Returns the problems found."""
        raise NotImplementedError

    def modeled(self) -> dict[str, tuple[float, str]]:
        """Deterministic modeled metrics, from the ops' first runs."""
        raise NotImplementedError

    def probe(self, result, clock: LayerClock) -> list[str]:
        """Traced runs only, outside the op's time: time single calls of
        functions the op reaches only inside a larger call, and check
        what they return.  Returns the problems found."""
        return []

    # -- shared ----------------------------------------------------------
    def check(self, index: int, result) -> list[str]:
        """Verify an op's first run; require every later run to repeat it."""
        sig = self.signature(result)
        if index not in self._signatures:
            self._signatures[index] = sig
            return self.verify(index, result)
        if sig != self._signatures[index]:
            return [f"op {self.ops[index]} did not repeat its first result"]
        return []


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Timed op samples of one phase (untraced or traced)."""

    num_ops: int
    clock: LayerClock | None = None
    samples: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    op_seconds: float = 0.0

    @property
    def ops_per_s(self) -> float:
        """Ops per second of a cycle in which every op takes its median time."""
        return self.num_ops / sum(statistics.median(s) for s in self.samples)

    def op_ms(self) -> tuple[float, float, int]:
        """(p50, p90, sample count) of single-op times, in ms."""
        flat = [t * 1e3 for s in self.samples for t in s]
        return statistics.median(flat), statistics.quantiles(flat, n=10)[8], len(flat)


def run_phase(workload: Workload, seconds: float, clock: LayerClock | None) -> Phase:
    """Cycle through the op list until ``seconds`` of op time are spent
    (whole cycles, at least :data:`MIN_CYCLES`)."""
    phase = Phase(num_ops=len(workload.ops), clock=clock)
    phase.samples = [[] for _ in workload.ops]
    run_clock = clock if clock is not None else UNTIMED
    cycles = 0
    while cycles < MIN_CYCLES or phase.op_seconds < seconds:
        for i, op in enumerate(workload.ops):
            t0 = time.perf_counter()
            try:
                result = workload.run_op(op, run_clock)
            except Exception as exc:  # counted below, outside the op's time
                result = exc
            dt = time.perf_counter() - t0
            phase.samples[i].append(dt)
            phase.op_seconds += dt
            phase.attempted += 1
            try:
                if isinstance(result, Exception):
                    raise result
                problems = workload.check(i, result)
                if clock is not None:
                    for name, n in workload.counts(result).items():
                        clock.count(name, n)
                    problems += workload.probe(result, clock)
            except Exception as exc:  # a raising op or check fails the op
                problems = [f"op {op} raised {exc!r}"]
            if problems:
                phase.failed += 1
                phase.problems.extend(problems)
        cycles += 1
    return phase


def run_setup(cls: type[Workload], seed: int) -> tuple[Workload, list[float], list[float]]:
    """Set the workload up :data:`SETUP_REPS` times from scratch; keep the
    last.  Returns it with the per-rep set-up and dataset-load seconds."""
    setup_s, load_s = [], []
    workload = None
    for _ in range(SETUP_REPS):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = cls(seed)
        with fresh_state():
            workload.setup()
        setup_s.append(time.perf_counter() - t0)
        load_s.append(workload.load_seconds)
    assert workload is not None
    return workload, setup_s, load_s


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS uses (None when not found)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict[str, Any]:
    """What the host numerics depend on, recorded with every run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def layer_metrics(base: Phase, traced: Phase, load_s: list[float]) -> dict[str, float]:
    """Per-layer figures of a traced phase.  Times are ms per op, except
    ``graph.load_ms`` (one set-up's dataset generation) and the probe
    layers ``lint.lint_ms`` / ``opt.modeled_runtime_ms`` (ms per call);
    counts are per op."""
    clock = traced.clock
    assert clock is not None
    n = traced.attempted

    def per_op(layer: str) -> float:
        return clock.seconds.get(layer, 0.0) * 1e3 / n

    def per_call(layer: str) -> float:
        calls = clock.calls.get(layer, 0)
        return clock.seconds[layer] * 1e3 / calls if calls else 0.0

    def count(name: str) -> float:
        return clock.counts.get(name, 0.0) / n

    hits, misses = clock.counts.get("plan.cache.hits", 0), clock.counts.get("plan.cache.misses", 0)
    batches = clock.counts.get("serve.batches", 0)
    return {
        "graph.load_ms": statistics.median(load_s) * 1e3,
        "plan.fingerprint_ms": per_op("plan.fingerprint"),
        "frameworks.lower_ms": per_op("frameworks.lower"),
        **{
            f"frameworks.{name}.lower_ms": per_op(f"frameworks.{name}.lower")
            for name in SYSTEMS
        },
        "plan.execute_ms": per_op("plan.execute"),
        "plan.analyze_ms": per_op("plan.analyze"),
        "gpusim.cost_ms": per_op("gpusim.cost"),
        "plan.kernels": count("plan.kernels"),
        "plan.cache.hits": count("plan.cache.hits"),
        "plan.cache.misses": count("plan.cache.misses"),
        "plan.cache.evictions": count("plan.cache.evictions"),
        "plan.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.self_ms": per_op("serve.self"),
        "serve.plan_full_ms": per_op("serve.plan_full"),
        "serve.plan_targets_ms": per_op("serve.plan_targets"),
        "serve.batches": count("serve.batches"),
        "serve.avg_batch": clock.counts.get("serve.completed", 0) / batches if batches else 0.0,
        "opt.tune_ms": per_op("opt.tune"),
        "opt.optimize_ms": per_op("opt.optimize"),
        "opt.modeled_runtime_ms": per_call("opt.modeled_runtime"),
        "opt.tuner.iterations": count("opt.tuner.iterations"),
        "opt.tuner.cached_trials": count("opt.tuner.cached_trials"),
        "opt.rewrites": count("opt.rewrites"),
        "lint.lint_ms": per_call("lint.lint"),
        "verify.certify_ms": per_op("verify.certify"),
        "trace.overhead": base.ops_per_s / traced.ops_per_s,
        "trace.coverage": sum(clock.seconds.get(l, 0.0) for l in OP_LAYERS) / traced.op_seconds,
        "trace.op_ms": traced.op_seconds * 1e3 / n,
    }
