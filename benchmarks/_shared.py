"""Shared state and reporting helpers for the benchmark harness.

The Fig. 3 and Fig. 4 benches consume the *same* two-tier scaling study
(one measured ladder is ~2 minutes of real training); a process-level
cache runs it once per pytest session.  Every bench also writes its
regenerated table/figure to ``benchmarks/results/<id>.txt`` so the
artifacts are diffable after a run, and the gated benches merge their
numbers into a ``BENCH_*.json`` artifact with :func:`merge_json`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_result(experiment_id: str, text: str) -> Path:
    """Persist a bench's regenerated artifact and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path


def merge_json(path: Path, update: dict, **fixed) -> Path:
    """Merge ``update``, then ``fixed``, into the JSON artifact at ``path``.

    Several bench functions share one ``BENCH_*.json``; each adds its own
    keys.  ``fixed`` carries the fields every write re-stamps (the floor,
    host facts).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(update)
    payload.update(fixed)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def usable_cores() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def best_of(fn, rounds: int = 3) -> float:
    """Fastest wall time of ``rounds`` calls to ``fn``, in seconds."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_of_interleaved(fn_a, fn_b, rounds: int = 3) -> tuple[float, float]:
    """Best-of timings with a/b alternating each round.

    Interleaving means a sustained load spike on a shared machine hits
    both sides instead of biasing whichever ran second.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


@functools.lru_cache(maxsize=1)
def shared_scaling_study():
    """The measured ladder + calibrated surface, computed once per session."""
    from repro.experiments.scaling_study import ScalingStudy
    from repro.scaling import LadderSpec

    return ScalingStudy.run(LadderSpec())


@functools.lru_cache(maxsize=1)
def shared_depth_width_grid():
    """The measured (depth x width) grid, computed once per session."""
    from repro.scaling import DepthWidthSpec, run_measured_grid

    spec = DepthWidthSpec(
        corpus_graphs=240,
        widths=(8, 16),
        depths=(3, 4, 5, 6),
        epochs=3,
    )
    return run_measured_grid(spec)
