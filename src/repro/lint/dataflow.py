"""Whole-plan dataflow: the def-use index, shapes, liveness, footprint.

The per-op analyses (resources, access) check each launch in isolation;
this module checks the plan as a *program*.  :class:`PlanDataflow` is the
plan's one def-use index — every effect-table access with its resolved
shape, plus the producer and consumer relations per buffer — built in a
single pass over the ops.  Every def-use fact the repo derives is a query
over it: the hazards (HAZ001-HAZ003), the shape and liveness analyses
below, the serving tier's shared inputs (:func:`~repro.lint.sched.
default_shared`), the translation-validation closure
(:func:`~repro.verify.normal.normalize_plan`) and the optimizer's
dead-intermediate and fusion legality.  Two analyses live here:

* a **shape/dtype abstract interpreter** — every buffer's element shape
  is resolved symbolically (in terms of the workload sizes ``n`` vertices,
  ``m`` edges, ``f`` feature dims) from the declared access tables, the
  flat-access spans, and the standard convolution vocabulary, then walked
  forward over the op list:

  - **SHAPE001** (error) — a producer and a later consumer disagree on a
    buffer's inferred element count (an ill-formed user spec that passed
    ``MessageSpec.validate()`` but lowered inconsistently),
  - **SHAPE002** (error) — a dtype conflict between a write and a later
    access (a narrower write silently truncates; a wider read
    misinterprets),
  - **SHAPE003** (error) — an under-allocated transient: a consumer's
    extent exceeds what the producing launch materialized,
  - **SHAPE004** (error) — a plan I/O contract violation: a *standard*
    buffer (``out``, ``feat``, ``indptr``, ``indices``, ``edge_vals``,
    ``att``) is declared with a shape that contradicts the workload.

* a **liveness / peak-memory analysis** — per-buffer live ranges over the
  launch order, and the peak resident footprint (bytes, with a symbolic
  rendering) checked against the device's HBM capacity:

  - **LIVE001** (error) — the peak footprint exceeds ``GPUSpec.dram_bytes``
    (the plan cannot be resident; the GNNAdvisor-style capacity failures
    of Table 5 become a static verdict),
  - **LIVE002** (warning) — the peak is above 80% of HBM (allocator
    headroom is gone; fragmentation or a second resident plan kills it).

Liveness and :func:`dead_transients` use the index's one consumer
relation (effect reads, atomics, read-role patterns and ``via`` index
buffers), so a transient the optimizer may not delete is also live in the
footprint.

Like every lint module, nothing here imports :mod:`repro.plan` — the
plan argument is duck-typed (``.ops`` with ``.name``/``.effects``/
``.access``/``.workload``, ``.compute.workload``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from ..gpusim.config import V100, GPUSpec
from .effects import is_transient
from .registry import make_finding
from .report import Finding

__all__ = [
    "DTYPE_BYTES",
    "HBM_WARN_FRACTION",
    "BufferAccess",
    "FootprintReport",
    "LiveRange",
    "PlanDataflow",
    "PlanSymbols",
    "dead_transients",
    "live_ranges",
    "liveness_findings",
    "peak_footprint",
    "plan_symbols",
    "shape_findings",
]

#: element width of every dtype the effect tables may declare
DTYPE_BYTES = {
    "f64": 8, "i64": 8, "u64": 8,
    "f32": 4, "i32": 4, "u32": 4,
    "f16": 2, "bf16": 2, "i16": 2, "u16": 2,
    "i8": 1, "u8": 1, "bool": 1,
}

#: LIVE002 fires above this fraction of the device's HBM
HBM_WARN_FRACTION = 0.8


def _dtype_bytes(dtype: str) -> int:
    """Element width of ``dtype`` (unknown dtypes default to 4 bytes)."""
    return DTYPE_BYTES.get(dtype, 4)


# ----------------------------------------------------------------------
# the symbol table: workload sizes every shape is expressed in
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanSymbols:
    """The workload sizes (``n``, ``m``, ``f``) shapes are resolved against."""

    n: int  # vertices
    m: int  # edges
    f: int  # feature dims

    def render(self, elements: int) -> str:
        """Symbolic rendering of an element count (falls back to digits)."""
        named = [
            (self.n * self.f, "n*f"),
            (2 * self.m, "2m"),
            (self.m, "m"),
            (2 * self.n, "2n"),
            (self.n + 1, "n+1"),
            (self.n, "n"),
            (self.f, "f"),
        ]
        for value, name in named:
            if elements == value and value > 1:
                return name
        return str(elements)

    def contract_shapes(self) -> dict[str, tuple[int, int]]:
        """The standard-buffer shapes the workload implies (SHAPE004's
        table, and the shapes every conv access table declares)."""
        return {
            "feat": (self.n, self.f),
            "out": (self.n, self.f),
            "indptr": (self.n + 1, 1),
            "indices": (self.m, 1),
            "att": (self.n, 2),
            "edge_vals": (self.m, 1),
        }


def plan_symbols(plan: Any) -> PlanSymbols | None:
    """Extract the (n, m, f) symbol table from a duck-typed plan.

    The compute step's workload is authoritative (every lowering carries
    one); conv ops are consulted as a fallback for hand-built plans.
    """
    candidates = [getattr(getattr(plan, "compute", None), "workload", None)]
    candidates += [getattr(op, "workload", None) for op in plan.ops]
    for wl in candidates:
        graph = getattr(wl, "graph", None)
        if not hasattr(graph, "num_vertices"):
            continue  # no workload, or a graph that declares no sizes
        return PlanSymbols(
            n=int(graph.num_vertices),
            m=int(graph.num_edges),
            f=int(getattr(wl, "feat_dim", 1)),
        )
    return None


# ----------------------------------------------------------------------
# the plan dataflow index: every def-use fact below is a query over it
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BufferAccess:
    """One declared access of one buffer by one op, in launch order."""

    index: int  # position of the op in the plan
    op: str
    buffer: str
    mode: str  # "read" | "write" | "atomic"
    dtype: str
    exclusive: bool
    shape: tuple[int, int] | None  # None = statically unknown extent


def _resolve_shape(
    op: Any, buffer: str, sym: PlanSymbols | None
) -> tuple[int, int] | None:
    """One op's declared extent of ``buffer``: access shapes first, then
    the widest flat-access span, then the standard vocabulary."""
    access = getattr(op, "access", None)
    if access is not None:
        shape = access.shapes.get(buffer)
        if shape is not None:
            return (int(shape[0]), int(shape[1]))
        spans = [
            p.span
            for p in access.patterns
            if p.buffer == buffer and p.row == "flat" and p.span is not None
        ]
        if spans:
            return (int(max(spans)), 1)
    if sym is not None and not is_transient(buffer):
        return sym.contract_shapes().get(buffer)
    return None


@dataclass(frozen=True)
class PlanDataflow:
    """A plan's buffer def-use relation, built in one pass over its ops.

    ``accesses`` holds every effect-table access in launch order.  The
    derived relations use one definition each: a *producer* writes or
    atomically merges a buffer; a *consumer* reads it through an effect
    read, an atomic RMW, a read-role access pattern or a ``via`` index
    (the last two are uses only the access table declares).  Analyses
    that follow fewer uses — HAZ003 and the normal form count effect
    reads only — filter ``accesses`` themselves.
    """

    symbols: PlanSymbols | None
    accesses: tuple[BufferAccess, ...]
    #: names of the ops that declare no effect table
    undeclared: tuple[str, ...]
    #: buffer -> positions of the ops that write or atomically merge it
    producers: Mapping[str, tuple[int, ...]]
    #: buffer -> positions of the ops that consume it
    consumers: Mapping[str, tuple[int, ...]]

    @classmethod
    def of(cls, plan: Any) -> PlanDataflow:
        """Index a duck-typed plan (``.ops`` with ``.name``/``.effects``/
        ``.access``; workloads for the symbol table)."""
        sym = plan_symbols(plan)
        accesses: list[BufferAccess] = []
        producers: dict[str, list[int]] = {}
        consumers: dict[str, list[int]] = {}
        for i, op in enumerate(plan.ops):
            eff = getattr(op, "effects", None)
            for b in eff.buffers if eff is not None else ():
                accesses.append(
                    BufferAccess(
                        index=i,
                        op=op.name,
                        buffer=b.buffer,
                        mode=b.mode,
                        dtype=b.dtype,
                        exclusive=b.exclusive,
                        shape=_resolve_shape(op, b.buffer, sym),
                    )
                )
                if b.mode != "read":
                    producers.setdefault(b.buffer, []).append(i)
                if b.mode != "write":
                    consumers.setdefault(b.buffer, []).append(i)
            access = getattr(op, "access", None)
            for pat in access.patterns if access is not None else ():
                for used in (pat.buffer if pat.role == "read" else None, pat.via):
                    if used:
                        consumers.setdefault(used, []).append(i)
        return cls(
            symbols=sym,
            accesses=tuple(accesses),
            undeclared=tuple(
                op.name for op in plan.ops if getattr(op, "effects", None) is None
            ),
            producers={b: tuple(at) for b, at in producers.items()},
            consumers={b: tuple(at) for b, at in consumers.items()},
        )

    def op_accesses(self, index: int) -> tuple[BufferAccess, ...]:
        """The effect-table accesses of the op at ``index``."""
        return tuple(a for a in self.accesses if a.index == index)

    def dead_transients(self) -> frozenset[str]:
        """Transients some op produces and no op consumes."""
        return frozenset(
            b for b in self.producers
            if is_transient(b) and b not in self.consumers
        )

    def uses(self, buffer: str) -> tuple[int, ...]:
        """Positions of every op that produces or consumes ``buffer``."""
        return self.producers.get(buffer, ()) + self.consumers.get(buffer, ())


# ----------------------------------------------------------------------
# the shape/dtype abstract interpreter (SHAPE001-004)
# ----------------------------------------------------------------------
def shape_findings(plan: Any) -> list[Finding]:
    """Forward shape/dtype inference over one lowered plan."""
    flow = PlanDataflow.of(plan)
    sym = flow.symbols
    render: Callable[[int], str] = sym.render if sym is not None else str
    findings: list[Finding] = []

    # SHAPE004: standard buffers must match the workload-derived contract
    contract = sym.contract_shapes() if sym is not None else {}
    contract_flagged: set[str] = set()

    #: buffer -> (elements, producing/first op) established so far
    env: dict[str, tuple[int, str]] = {}
    #: buffer -> (dtype, op that established it)
    dt_env: dict[str, tuple[str, str]] = {}

    for view in flow.accesses:
        b = view.buffer

        # dtype interpretation: a write fixes the buffer's dtype; any
        # later access under a different width is a silent reinterpret
        known = dt_env.get(b)
        if known is not None and known[0] != view.dtype:
            old_w, new_w = _dtype_bytes(known[0]), _dtype_bytes(view.dtype)
            kind = "narrowing" if new_w < old_w else "conflicting"
            findings.append(
                make_finding(
                    "SHAPE002",
                    f"{kind} dtype on '{b}': '{known[1]}' established "
                    f"{known[0]} ({old_w} B) but this op {view.mode}s it "
                    f"as {view.dtype} ({new_w} B)",
                    op=view.op,
                    buffer=b,
                )
            )
        if view.mode in ("write", "atomic") and known is None:
            dt_env[b] = (view.dtype, view.op)

        if view.shape is None:
            continue
        rows, cols = view.shape
        elements = rows * cols

        if b in contract and b not in contract_flagged:
            want = contract[b]
            if elements != want[0] * want[1]:
                contract_flagged.add(b)
                findings.append(
                    make_finding(
                        "SHAPE004",
                        f"standard buffer '{b}' declared as {rows}x{cols} "
                        f"but the workload implies {want[0]}x{want[1]} "
                        f"({render(want[0] * want[1])} elements)",
                        op=view.op,
                        buffer=b,
                    )
                )
                continue  # the contract mismatch subsumes pairwise checks

        prior = env.get(b)
        if prior is None:
            env[b] = (elements, view.op)
            continue
        prior_elements, prior_op = prior
        if elements == prior_elements:
            continue
        if (
            is_transient(b)
            and view.mode == "read"
            and elements > prior_elements
        ):
            findings.append(
                make_finding(
                    "SHAPE003",
                    f"under-allocated transient '{b}': '{prior_op}' "
                    f"materialized {render(prior_elements)} element(s) but "
                    f"this op reads {render(elements)}",
                    op=view.op,
                    buffer=b,
                )
            )
        else:
            findings.append(
                make_finding(
                    "SHAPE001",
                    f"shape disagreement on '{b}': '{prior_op}' declared "
                    f"{render(prior_elements)} vs {render(elements)} elements",
                    op=view.op,
                    buffer=b,
                )
            )
        # keep the larger extent so one bad op does not cascade
        if elements > prior_elements:
            env[b] = (elements, view.op)
    return findings


# ----------------------------------------------------------------------
# liveness and the peak-footprint bound (LIVE001/LIVE002)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveRange:
    """One buffer's lifetime over the plan's op list."""

    buffer: str
    first: int  # op index of the first access (def for transients)
    last: int  # op index of the last access
    bytes: int  # allocation size (0 = statically unknown)
    pinned: bool  # plan input/output: resident for the whole plan

    def live_at(self, op_index: int) -> bool:
        if self.pinned:
            return True
        return self.first <= op_index <= self.last


def dead_transients(plan: Any) -> frozenset[str]:
    """Transients some op writes but nothing ever reads.

    This is the liveness fact :class:`~repro.opt.rewrites.
    DeadIntermediateElimination` needs: a transient with no consumer
    (``via`` index uses count) has a live range that ends at its own
    definition, so the launch that materializes it (and nothing else) is
    removable.
    """
    return PlanDataflow.of(plan).dead_transients()


def live_ranges(plan: Any) -> list[LiveRange]:
    """Per-buffer live ranges over the plan's op list.

    Plan inputs (non-transient reads never produced by the plan) and the
    plan output(s) are *pinned* — resident for the whole plan.  A
    transient is live from the op that materializes it through its last
    consumer (its def alone when nothing reads it).
    """
    flow = PlanDataflow.of(plan)
    sizes: dict[str, int] = {}
    dtypes: dict[str, str] = {}
    for a in flow.accesses:
        if a.shape is not None:
            sizes[a.buffer] = max(sizes.get(a.buffer, 0), a.shape[0] * a.shape[1])
        dtypes.setdefault(a.buffer, a.dtype)
    ranges = [
        LiveRange(
            buffer=b,
            first=min(flow.uses(b)),
            last=max(flow.uses(b)),
            bytes=sizes.get(b, 0) * _dtype_bytes(dtype),
            pinned=not is_transient(b) and (b not in flow.producers or b == "out"),
        )
        for b, dtype in dtypes.items()
    ]
    return sorted(ranges, key=lambda r: (r.first, r.buffer))


@dataclass(frozen=True)
class FootprintReport:
    """The plan's peak resident footprint and where it occurs."""

    peak_bytes: int
    peak_op_index: int
    peak_op: str
    #: buffers live at the peak, largest first: (name, bytes)
    resident: tuple[tuple[str, int], ...]
    #: symbolic rendering of the peak ("(n*f + m + n+1)*4B" style)
    expression: str

    def render(self) -> str:
        mib = self.peak_bytes / (1024 * 1024)
        return (
            f"peak footprint {mib:.1f} MiB = {self.expression} "
            f"at op [{self.peak_op_index}] {self.peak_op}"
        )


def peak_footprint(plan: Any) -> FootprintReport:
    """Peak sum of live-buffer bytes over the plan's launch order."""
    ranges = live_ranges(plan)
    sym = plan_symbols(plan)
    num_ops = max(len(plan.ops), 1)
    peak, peak_i = 0, 0
    for i in range(num_ops):
        total = sum(r.bytes for r in ranges if r.live_at(i))
        if total > peak:
            peak, peak_i = total, i
    resident = sorted(
        ((r.buffer, r.bytes) for r in ranges if r.live_at(peak_i) and r.bytes),
        key=lambda item: (-item[1], item[0]),
    )
    terms = []
    for name, nbytes in resident:
        width = 4
        elements = nbytes // width if nbytes % width == 0 else nbytes
        terms.append(
            f"{sym.render(elements)}" if sym is not None else str(elements)
        )
    expression = (
        "(" + " + ".join(terms) + ")*4B" if terms else "0B"
    )
    op_name = (
        plan.ops[peak_i].name if plan.ops else "<empty>"
    )
    return FootprintReport(
        peak_bytes=peak,
        peak_op_index=peak_i,
        peak_op=op_name,
        resident=tuple(resident),
        expression=expression,
    )


def liveness_findings(plan: Any, spec: GPUSpec = V100) -> list[Finding]:
    """LIVE001/LIVE002: the symbolic peak footprint vs HBM capacity."""
    report = peak_footprint(plan)
    if report.peak_bytes <= 0:
        return []
    cap = int(spec.dram_bytes)
    if report.peak_bytes > cap:
        return [
            make_finding(
                "LIVE001",
                f"{report.render()} exceeds the device's "
                f"{cap / (1024 ** 3):.1f} GiB HBM — the plan cannot be "
                "resident",
                op=report.peak_op,
            )
        ]
    if report.peak_bytes > cap * HBM_WARN_FRACTION:
        return [
            make_finding(
                "LIVE002",
                f"{report.render()} is {report.peak_bytes / cap:.0%} of the "
                f"device's {cap / (1024 ** 3):.1f} GiB HBM — allocator "
                "headroom is gone",
                op=report.peak_op,
            )
        ]
    return []
