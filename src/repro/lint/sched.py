"""Cross-stream happens-before race detection over scheduled plans.

The serving tier (:mod:`repro.serve`) runs whole plans concurrently on
CUDA-like streams via :class:`~repro.gpusim.streams.MultiStreamSimulator`.
The per-plan analyses cannot see that composition; this module checks it.

**The happens-before model.**  Two device-side accesses are ordered iff
they are connected in the HB graph, whose only edges are

* *program order within a stream*: a stream executes its kernels FIFO,
  so every access of launch *i* on stream *s* happens-before every
  access of launch *j > i* on stream *s*;

and nothing else.  In particular **serialized host launches do not order
device execution** — the host issuing launch A before launch B only
orders the *launch starts*; B may still run concurrently with (or even
complete before) A on another stream.  Two conflicting accesses on
different streams are therefore always unordered unless an explicit
cross-stream dependency exists (the serving tier creates none).

**Sharing model.**  Each scheduled entry (one plan submission) owns a
private arena for its buffers — serving allocates outputs and transients
per batch — except the buffers it declares ``shared``.  By default
(:func:`default_shared`) the shared set is exactly the plan's read-only
inputs: non-transient buffers no op ever writes (the graph structure and
features every batch maps).  Under that default TLPGNN serving is
race-free *by construction* — the paper's §3.1 claim, now machine
checked — while a schedule that shares a written buffer (a misconfigured
in-place output arena) is flagged:

* **RACE001** (error) — unordered cross-stream write-write (or
  write-atomic) on a shared buffer,
* **RACE002** (error) — unordered cross-stream read-write,
* **RACE003** (warning) — cross-stream atomic-atomic merge: memory-safe,
  but the combine order follows hardware arrival order (the dynamic
  face of DET001).

**Dynamic cross-validation.**  :func:`cross_validate_races` replays the
schedule through the stream simulator (one seeded
:class:`~repro.gpusim.streams.StreamKernel` per op) and feeds the
completions to a :class:`VectorClockChecker` — per-stream vector clocks
with no cross-stream edges, so clock incomparability *is* HB
concurrency.  The dynamic verdict must reproduce the static one exactly;
a mismatch means the detector (not the plan) is wrong.  Same
triangulation discipline as ``cross_validate_effects``.

Like every lint module, nothing here imports :mod:`repro.plan` — plans
are duck-typed (``.ops`` with ``.name``/``.effects``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..gpusim.streams import MultiStreamSimulator, StreamCompletion, StreamKernel
from .dataflow import PlanDataflow
from .effects import is_transient
from .registry import make_finding
from .report import Finding, LintReport, sort_findings

__all__ = [
    "ScheduledPlan",
    "StreamSchedule",
    "VectorClockChecker",
    "cross_validate_races",
    "default_shared",
    "lint_schedule",
    "race_findings",
    "replay_schedule",
    "serving_schedule",
    "static_race_keys",
]


# ----------------------------------------------------------------------
# the schedule IR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduledPlan:
    """One plan submission: a whole plan enqueued on one stream.

    ``shared`` names the buffers this entry maps from the *global* arena;
    everything else is private to the entry (allocated per batch).
    """

    plan: Any
    stream: int
    label: str
    shared: frozenset[str]


@dataclass(frozen=True)
class StreamSchedule:
    """A set of concurrent plan submissions across ``num_streams``."""

    entries: tuple[ScheduledPlan, ...]
    num_streams: int

    def __post_init__(self) -> None:
        for e in self.entries:
            if not 0 <= e.stream < self.num_streams:
                raise ValueError(
                    f"entry '{e.label}' on stream {e.stream}, but the "
                    f"schedule has {self.num_streams} stream(s)"
                )

    @property
    def label(self) -> str:
        return f"{len(self.entries)} plan(s) on {self.num_streams} stream(s)"


def default_shared(plan: Any) -> frozenset[str]:
    """The plan's read-only inputs: non-transient buffers no op writes.

    These are what concurrent batches genuinely share (graph structure,
    features); outputs and transients are allocated per submission.
    """
    flow = PlanDataflow.of(plan)
    return frozenset(
        a.buffer
        for a in flow.accesses
        if not is_transient(a.buffer) and a.buffer not in flow.producers
    )


def serving_schedule(
    plan: Any,
    *,
    num_streams: int = 2,
    batches: int = 2,
    shared: frozenset[str] | None = None,
) -> StreamSchedule:
    """The schedule ``repro serve`` would run: ``batches`` submissions of
    one plan, each assigned to the least-loaded stream (by pending op
    count — the same greedy rule :meth:`InferenceService.dispatch` uses
    with ``pending_work_s``; for identical plans the two agree).
    """
    if shared is None:
        shared = default_shared(plan)
    load = [0] * num_streams
    entries = []
    ops = len(plan.ops)
    for i in range(batches):
        stream = min(range(num_streams), key=lambda s: (load[s], s))
        load[stream] += max(ops, 1)
        entries.append(
            ScheduledPlan(
                plan=plan,
                stream=stream,
                label=f"batch{i}",
                shared=shared,
            )
        )
    return StreamSchedule(entries=tuple(entries), num_streams=num_streams)


# ----------------------------------------------------------------------
# the static detector
# ----------------------------------------------------------------------
def _classify(mode_a: str, mode_b: str) -> str | None:
    """Rule code for one unordered conflicting access pair (None = no
    conflict).  Shared by the static detector and the vector-clock
    checker so the two verdicts use one definition of "race"."""
    if mode_a == "read" and mode_b == "read":
        return None
    if mode_a == "atomic" and mode_b == "atomic":
        return "RACE003"
    if "read" in (mode_a, mode_b):
        return "RACE002"
    return "RACE001"  # write-write or write-atomic


def _shared_accesses(
    schedule: StreamSchedule,
) -> tuple[dict[str, dict[int, set[str]]], dict[str, dict[int, str]]]:
    """Per shared buffer: the access modes each stream performs, plus a
    representative op name per (buffer, stream) for the messages."""
    modes: dict[str, dict[int, set[str]]] = {}
    reps: dict[str, dict[int, str]] = {}
    for entry in schedule.entries:
        for a in PlanDataflow.of(entry.plan).accesses:
            if a.buffer not in entry.shared:
                continue
            modes.setdefault(a.buffer, {}).setdefault(
                entry.stream, set()
            ).add(a.mode)
            reps.setdefault(a.buffer, {}).setdefault(
                entry.stream, f"{entry.label}/{a.op}"
            )
    return modes, reps


def race_findings(schedule: StreamSchedule) -> list[Finding]:
    """Unordered conflicting cross-stream accesses to shared buffers.

    One finding per (rule, buffer): the HB graph has no cross-stream
    edges, so any two conflicting accesses on distinct streams of one
    shared buffer are racy — enumerating every pair adds noise, not
    information.
    """
    findings: list[Finding] = []
    modes, reps = _shared_accesses(schedule)
    for buffer in sorted(modes):
        by_stream = modes[buffer]
        if len(by_stream) < 2:
            continue  # one stream: program order covers every pair
        writers = sorted(s for s, m in by_stream.items() if "write" in m)
        atomics = sorted(s for s, m in by_stream.items() if "atomic" in m)
        readers = sorted(s for s, m in by_stream.items() if "read" in m)
        mutators = sorted(set(writers) | set(atomics))

        def pair(a: list[int], b: list[int]) -> tuple[int, int] | None:
            for s in a:
                for t in b:
                    if s != t:
                        return (s, t)
            return None

        ww = pair(writers, mutators)
        if ww is not None:
            s, t = ww
            findings.append(
                make_finding(
                    "RACE001",
                    f"shared buffer '{buffer}': unordered write on stream "
                    f"{s} ({reps[buffer][s]}) vs write/atomic on stream "
                    f"{t} ({reps[buffer][t]}) — no happens-before edge "
                    "crosses streams",
                    op=reps[buffer][s],
                    buffer=buffer,
                )
            )
        rw = pair(readers, mutators)
        if rw is not None:
            s, t = rw
            findings.append(
                make_finding(
                    "RACE002",
                    f"shared buffer '{buffer}': read on stream {s} "
                    f"({reps[buffer][s]}) unordered against write/atomic "
                    f"on stream {t} ({reps[buffer][t]})",
                    op=reps[buffer][s],
                    buffer=buffer,
                )
            )
        aa = pair(atomics, atomics)
        if aa is not None:
            s, t = aa
            findings.append(
                make_finding(
                    "RACE003",
                    f"shared buffer '{buffer}': atomic merges on streams "
                    f"{s} and {t} — memory-safe, but the combine order "
                    "follows hardware arrival order",
                    op=reps[buffer][s],
                    buffer=buffer,
                )
            )
    return findings


def static_race_keys(schedule: StreamSchedule) -> set[tuple[str, str]]:
    """The static verdict as a comparable set of (rule, buffer)."""
    return {(f.rule, f.buffer or "") for f in race_findings(schedule)}


def lint_schedule(schedule: StreamSchedule) -> LintReport:
    """Race findings packaged as a report (the ``serve --lint`` path)."""
    return LintReport(
        plan_label=schedule.label,
        findings=tuple(sort_findings(race_findings(schedule))),
    )


# ----------------------------------------------------------------------
# dynamic cross-validation: seeded replay + vector clocks
# ----------------------------------------------------------------------
def replay_schedule(
    schedule: StreamSchedule, *, seed: int = 0
) -> list[StreamCompletion]:
    """Replay the schedule on the stream simulator: one tiny seeded
    kernel per op, tagged ``(entry_index, op_index)`` so completions map
    back to effect tables.  The seed perturbs the per-kernel demands, so
    different seeds exercise different interleavings of the same HB
    graph."""
    rng = random.Random(seed)
    sim = MultiStreamSimulator(num_streams=schedule.num_streams)
    for ei, entry in enumerate(schedule.entries):
        for oi, op in enumerate(entry.plan.ops):
            sim.submit(
                StreamKernel(
                    name=f"{entry.label}/{op.name}",
                    comp_seconds=rng.uniform(0.5, 1.5) * 1e-6,
                    mem_seconds=rng.uniform(0.2, 1.2) * 1e-6,
                    launch_seconds=1e-7,
                    tag=(ei, oi),
                ),
                stream=entry.stream,
                at_s=0.0,
            )
    sim.drain()
    return sim.take_completions()


def _concurrent(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Vector-clock concurrency: neither clock dominates the other."""
    a_le_b = all(x <= y for x, y in zip(a, b))
    b_le_a = all(y <= x for x, y in zip(a, b))
    return not a_le_b and not b_le_a


@dataclass
class VectorClockChecker:
    """Race detection over a completion trace via per-stream vector
    clocks.

    Each stream carries a clock; a kernel's event clock is its stream's
    clock after ticking the stream's own component.  The serving tier
    creates no cross-stream synchronization, so no component is ever
    merged across streams — two events are concurrent exactly when they
    ran on different streams, which is precisely the static HB relation.
    Every pair of concurrent conflicting accesses to one shared buffer
    is classified with the same :func:`_classify` rule the static
    detector uses.
    """

    schedule: StreamSchedule
    #: (rule, buffer) pairs observed racy during :meth:`check`
    races: set[tuple[str, str]] = field(default_factory=set)

    def check(
        self, completions: list[StreamCompletion]
    ) -> set[tuple[str, str]]:
        """Process a completion trace; return the (rule, buffer) races."""
        n = self.schedule.num_streams
        clocks: list[tuple[int, ...]] = [(0,) * n for _ in range(n)]
        #: arena key -> [(event clock, mode, shared?)]
        history: dict[object, list[tuple[tuple[int, ...], str, bool]]] = {}
        self.races = set()
        for comp in completions:
            tag = comp.kernel.tag
            if not isinstance(tag, tuple) or len(tag) != 2:
                continue
            ei, oi = tag
            entry = self.schedule.entries[ei]
            s = comp.stream
            vc = list(clocks[s])
            vc[s] += 1
            clock = tuple(vc)
            clocks[s] = clock
            eff = getattr(entry.plan.ops[oi], "effects", None)
            if eff is None:
                continue
            for b in eff.buffers:
                shared = b.buffer in entry.shared
                # private buffers live in the entry's own arena: they can
                # only ever see same-entry (same-stream, ordered) events,
                # but we track them anyway — a race on one would expose a
                # bug in the detector itself, which is what this dynamic
                # mode exists to catch.
                key: object = b.buffer if shared else (ei, b.buffer)
                events = history.setdefault(key, [])
                for prev_clock, prev_mode, _ in events:
                    if not _concurrent(prev_clock, clock):
                        continue
                    rule = _classify(prev_mode, b.mode)
                    if rule is not None:
                        name = b.buffer if shared else f"private:{b.buffer}"
                        self.races.add((rule, name))
                events.append((clock, b.mode, shared))
        return self.races


def cross_validate_races(
    schedule: StreamSchedule, *, seed: int = 0
) -> list[str]:
    """Static verdict vs seeded dynamic replay; [] = they agree.

    Any mismatch string names a (rule, buffer) one side reports and the
    other does not — a detector bug, since both sides implement the same
    HB relation over the same effect tables.
    """
    static = static_race_keys(schedule)
    dynamic = VectorClockChecker(schedule).check(replay_schedule(schedule, seed=seed))
    problems = []
    for rule, buffer in sorted(static - dynamic):
        problems.append(
            f"static-only: {rule} on '{buffer}' not reproduced by the "
            f"vector-clock replay (seed={seed})"
        )
    for rule, buffer in sorted(dynamic - static):
        problems.append(
            f"dynamic-only: {rule} on '{buffer}' seen in the replay "
            f"(seed={seed}) but missed statically"
        )
    return problems
