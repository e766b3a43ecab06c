"""Race / hazard detection over a plan's declared effect tables.

Queries the plan's def-use relation (:class:`~repro.lint.dataflow.
PlanDataflow`) between ops through their named buffers:

* **HAZ001** — an op with no effect table at all: nothing about it can be
  checked, which is itself an error (new kernels must declare).
* **HAZ002** — a non-exclusive write without a declared atomic merge of the
  same buffer: two scheduled units may write the same element and the last
  one silently wins.  This is exactly the bug class of a push/scatter
  kernel that dropped its ``atomicAdd``.
* **HAZ003** — a read of a ``tmp:*`` transient no earlier op produced: a
  read-after-write hazard across a fusion boundary (the producer was fused
  away or reordered) or a plain use-before-def.
* **HAZ004** — an rng-consuming op inside a content-fingerprinted plan:
  the :class:`~repro.plan.cache.PlanCache` key cannot capture host
  randomness, so a warm hit would silently replay stale random state.

The plan argument is duck-typed (``.ops`` with ``.name``/``.effects``,
``.fingerprint``) so this module never imports :mod:`repro.plan`.
"""

from __future__ import annotations

from typing import Any

from .dataflow import PlanDataflow
from .effects import is_transient
from .registry import make_finding
from .report import Finding

__all__ = ["hazard_findings"]


def hazard_findings(plan: Any) -> list[Finding]:
    """Def-use and cache-safety hazards of one lowered plan."""
    flow = PlanDataflow.of(plan)
    merged = {(a.index, a.buffer) for a in flow.accesses if a.mode == "atomic"}
    findings = [
        make_finding(
            "HAZ001",
            "op declares no effect table; hazard, resource and "
            "determinism analysis are impossible",
            op=name,
        )
        for name in flow.undeclared
    ]
    for a in flow.accesses:
        # HAZ003 follows effect reads only: a producer must be an earlier op
        if (
            a.mode == "read"
            and is_transient(a.buffer)
            and not any(i < a.index for i in flow.producers.get(a.buffer, ()))
        ):
            findings.append(
                make_finding(
                    "HAZ003",
                    f"reads transient '{a.buffer}' that no earlier "
                    "kernel wrote — read-after-write hazard across a "
                    "fusion boundary (or use-before-def)",
                    op=a.op,
                    buffer=a.buffer,
                )
            )
        if (
            a.mode == "write"
            and not a.exclusive
            and (a.index, a.buffer) not in merged
        ):
            findings.append(
                make_finding(
                    "HAZ002",
                    f"non-exclusive write to '{a.buffer}' without a "
                    "declared atomic merge — write-write race on "
                    "shared output rows",
                    op=a.op,
                    buffer=a.buffer,
                )
            )
    if plan.fingerprint is not None:
        findings += [
            make_finding(
                "HAZ004",
                "op consumes host randomness inside a "
                "content-fingerprinted plan — a warm PlanCache hit "
                "would replay stale random state",
                op=op.name,
            )
            for op in plan.ops
            if op.effects is not None and op.effects.reads_rng
        ]
    return findings
