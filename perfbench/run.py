"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload table5 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints every metric by name and unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run spends half its time untraced, half traced;
``trace.overhead`` compares the two.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: a traced op's layer times must cover at least this share of its time
MIN_COVERAGE = 0.9


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import core
    from perfbench.serving import Serve
    from perfbench.table5 import Table5
    from perfbench.tune import Tune

    cls = {w.name: w for w in (Table5, Serve, Tune)}[args.workload]
    workload, setup_s, load_s = core.run_setup(cls, args.seed)
    gc.collect()
    gc.freeze()
    base = core.run_phase(workload, args.seconds / (2 if args.trace else 1), None)
    phases = [base]
    if args.trace:
        phases.append(core.run_phase(workload, args.seconds / 2, core.LayerClock()))

    p50, p90, samples = base.op_ms()
    modeled = workload.modeled()
    e2e = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": core.peak_rss_mb(),
        "ops_per_s": base.ops_per_s,
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        **{name: value for name, (value, _unit) in modeled.items()},
    }
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]

    print(f"workload {args.workload} seed {args.seed}: {len(workload.ops)} ops per cycle, "
          f"{samples} timed ops, set-up x{len(setup_s)}")
    for key, value in core.environment().items():
        print(f"env {key} {value}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update({name: unit for name, (_value, unit) in modeled.items()})
    for name, value in e2e.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_frac {failed / attempted!r} ratio")

    names = bench["end_to_end"]
    values = e2e
    if args.trace:
        names = bench["per_layer"]
        values = core.layer_metrics(base, phases[1], load_s)
        for name, value in values.items():
            print(f"{name} {value!r} {units[name]}")
        if values["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"layer times cover {values['trace.coverage']:.1%} of traced op time")
    for msg in problems[:20]:
        print(f"FAIL {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
