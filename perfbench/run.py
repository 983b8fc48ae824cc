"""Benchmark of the served system, end to end through the router.

Run from the repository root::

    python3 perfbench/run.py --workload trickle --seed 1 --seconds 20 --trace 0

Each run launches ``repro serve --http 0 --replicas 1 --preset small``
fresh, drives one workload (``trickle``, ``bulk``, ``rescreen``, ``md``)
through ``repro.api.Client.http``, checks the outputs, prints every
metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing
off.  ``--trace 1`` reports per-layer metrics instead: it measures an
untraced phase, then relaunches the fleet with span wrappers installed
at interpreter start (``perfbench/hook``), drives the workload through
the router and then straight to the replica, and reads the spans both
fleet processes write at their graceful exit.  The exit code is 0 when
every output check and cache-state guard passes, 1 when one fails, and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: Fleet launches per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics and units.  On ``md`` one operation is a /v1/md
#: run: ``p50_ms`` is its time to first frame and ``structures_per_s``
#: counts MD steps (one structure each).  Tail percentiles are printed
#: but not gated: on the 2-core host a slow minute moved ``trickle``
#: p90 by 45% across ten seeds, beyond any usable bound.
END_TO_END = {"setup_s": "s", "p50_ms": "ms", "structures_per_s": "1/s"}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def start_warm(workload, **fleet_options):
    """A fresh fleet with the workload's warm-up done; (fleet, client, setup_s)."""
    from fleet import Fleet
    from loads import http_client

    fleet = Fleet(ROOT, **fleet_options).start()
    try:
        client = http_client(fleet.url)
        workload.warmup(client)
        return fleet, client, fleet.elapsed_s()
    except BaseException:
        fleet.stop()
        raise


def fleet_phase(workload, seconds: float, checker, part: int = 0):
    """Measure ``seconds`` on one fresh fleet; (phase, setup_s, spawn_s)."""
    fleet, client, setup_s = start_warm(workload)
    try:
        workload.prepare(client)
        before = fleet.model_stats()
        phase = workload.measure(client, seconds, part=part)
        after = fleet.model_stats()
    finally:
        fleet.stop()
    checker.fleet(workload, phase, before, after)
    return phase, setup_s, fleet.spawn_s


def end_to_end(workload, seconds: float, checker) -> tuple[dict, int, int]:
    # Speed differs more from one fleet launch to the next than within a
    # launch, so a run measures SETUPS fresh fleets for an equal share of
    # its time each and reports the median over fleets of every metric.
    from loads import Phase

    per_fleet = {name: [] for name in END_TO_END}
    phases = []
    for part in range(SETUPS):
        phase, setup_s, _ = fleet_phase(workload, seconds / SETUPS, checker, part)
        phases.append(phase)
        per_fleet["setup_s"].append(setup_s)
        per_fleet["p50_ms"].append(percentile(phase.latencies_ms, 50))
        per_fleet["structures_per_s"].append(phase.structures / phase.elapsed_s)
    pooled = Phase.merge(phases)
    checker.outputs(workload, pooled)
    for name, values in per_fleet.items():
        print(f"{name} per fleet: {' '.join(f'{value:.4f}' for value in values)}")
    print(f"operations timed: {len(pooled.latencies_ms)} in {pooled.elapsed_s:.2f} s")
    for q in (90, 99):
        print(f"p{q}_ms {percentile(pooled.latencies_ms, q):.4f} ms (pooled, not gated)")
    if pooled.late_ms:
        print(f"loadgen late p99: {percentile(pooled.late_ms, 99):.4f} ms")
    metrics = {name: median(values) for name, values in per_fleet.items()}
    if workload.name == "md":
        print(f"md_steps_per_s {metrics['structures_per_s']:.4f} 1/s")
        print(f"first_frame_ms {metrics['p50_ms']:.4f} ms")
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, pooled.attempted, pooled.failed


def install_client_spans(recorder):
    """Time the generator's wire encode/decode; returns an undo."""
    from repro.api import schemas

    undo = [
        recorder.wrap(schemas.PredictRequest, "to_json_dict", "client.encode"),
        recorder.wrap(schemas.MDRequest, "to_json_dict", "client.encode"),
        recorder.wrap(schemas.PredictResponse, "from_json_dict", "client.decode"),
        recorder.wrap(schemas.MDFramePayload, "from_json_dict", "client.decode"),
        recorder.wrap(schemas.MDResponse, "from_json_dict", "client.decode"),
    ]
    return lambda: [step() for step in reversed(undo)]


def per_layer(workload, seconds: float, checker) -> tuple[dict, int, int]:
    from hook.spans import Recorder
    from layers import UNITS, load_spans, span_metrics, stats_metrics
    from loads import DIRECT, Phase, http_client

    share = seconds / 3.0
    base, setup_s, spawn_s = fleet_phase(workload, share, checker)

    spans_dir = ROOT / f".perfbench_spans-{os.getpid()}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    recorder = Recorder()
    try:
        fleet, client, _ = start_warm(
            workload,
            extra_pythonpath=str(HERE / "hook"),
            env={"PERFBENCH_SPANS": str(spans_dir)},
        )
        try:
            workload.prepare(client)
            before = fleet.model_stats()
            direct_client = http_client(fleet.replica_url())
            window_start = time.time()
            undo = install_client_spans(recorder)
            try:
                routed = workload.measure(client, share)
                direct = workload.measure(direct_client, share, DIRECT)
            finally:
                undo()
            window_end = time.time()
            after = fleet.model_stats()
        finally:
            fleet.stop()
        spans = load_spans(spans_dir, window_start, window_end) + recorder.spans
    finally:
        shutil.rmtree(spans_dir, ignore_errors=True)

    checker.fleet(workload, Phase.merge([routed, direct]), before, after)
    checker.outputs(workload, Phase.merge([base, routed, direct]))

    is_md = workload.name == "md"
    operations = (
        routed.structures + direct.structures
        if is_md
        else len(routed.latencies_ms) + len(direct.latencies_ms)
    )
    p50 = lambda values: percentile(values, 50)  # noqa: E731
    metrics, calls = span_metrics(spans, operations)
    metrics.update(stats_metrics(before, after))
    routed_request = routed.run_ms if is_md else routed.latencies_ms
    direct_request = direct.run_ms if is_md else direct.latencies_ms
    metrics.update(
        {
            "loadgen.late_p99_ms": percentile(base.late_ms, 99),
            "router.overhead_ms": p50(routed_request) - p50(direct_request),
            "router.md_buffer_ms": (
                p50(routed.latencies_ms) - p50(direct.latencies_ms) if is_md else 0.0
            ),
            "setup.spawn_s": spawn_s,
            "setup.warmup_s": setup_s - spawn_s,
            "trace.overhead_ratio": p50(routed.latencies_ms) / p50(base.latencies_ms),
        }
    )
    phases = (base, routed, direct)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(f"operations traced: {operations}; spans: {len(spans)}")
    for name, count in calls.items():
        print(f"{name} calls: {count}")
    return {name: (metrics[name], unit) for name, unit in UNITS.items()}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["trickle", "bulk", "rescreen", "md"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the repo root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from fleet import FleetError
    from loads import WORKLOADS
    from verify import Checker

    workload = WORKLOADS[args.workload](args.seed)
    checker = Checker(args.seed)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed = measure(workload, args.seconds, checker)
    except FleetError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(f"  attempted {attempted}, succeeded {attempted - failed}, failed {failed}")
    for error in checker.errors:
        print(f"CHECK FAILED: {error}")
    print(
        json.dumps(
            {
                "correct": checker.ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if checker.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
