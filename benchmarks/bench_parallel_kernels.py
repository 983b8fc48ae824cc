"""Parallel-backend benchmarks: sharded kernels and concurrent serving.

The parallel backend's reason to exist is wall-clock: shard the
row-parallel hot kernels across cores, and run N serving workers'
forwards concurrently now that the engine is thread-safe.  Two axes
guard it:

- ``bench_parallel_kernel_speedup`` times the sharded kernels against
  the single-threaded numpy reference at paper-scale shapes (hundreds of
  thousands of edge rows, width-128 features) and records the per-kernel
  and best speedups.
- ``bench_concurrent_serving_scaling`` drives the same request stream
  through ``PredictionService.start(workers=1)`` vs ``workers=4`` (no
  model lock, shared buffer pool) and records the scaling.

The acceptance floor — ``PARALLEL_SPEEDUP_FLOOR``, default 1.3x — must
hold on **at least one axis**.  Which axes are floor-checked comes from
``PARALLEL_BENCH_AXES`` (default ``kernels,serving``); CI restricts it
to ``serving`` so shared-runner timing noise on the kernel axis cannot
flake unrelated PRs.  On a host with fewer than 2 usable cores the floor
is recorded but not enforced: thread parallelism cannot beat one core on
CPU-bound work, and asserting otherwise would only test the scheduler.

Both benches merge their numbers into
``benchmarks/results/BENCH_parallel.json`` (one CI artifact, one
regression trajectory).
"""

import json
import os
import time

import numpy as np

from _shared import RESULTS_DIR, best_of, merge_json, usable_cores, write_result
from repro.data import generate_corpus
from repro.models import HydraModel, ModelConfig
from repro.serving import PredictionService, ServiceConfig
from repro.tensor import kernels, parallel

_FLOOR = float(os.environ.get("PARALLEL_SPEEDUP_FLOOR", "1.3"))
_AXES = tuple(
    axis.strip()
    for axis in os.environ.get("PARALLEL_BENCH_AXES", "kernels,serving").split(",")
    if axis.strip()
)

_JSON_PATH = RESULTS_DIR / "BENCH_parallel.json"

#: Paper-scale message-passing shapes: a dense periodic batch has O(1e5)
#: edges and the paper's mid-ladder models run width 128.
_EDGES = 120_000
_NODES = 12_000
_WIDTH = 128


def _multicore() -> bool:
    return usable_cores() >= 2 and parallel.worker_count() >= 2


def _host_fields() -> dict:
    """What every write to the JSON artifact re-stamps."""
    return {
        "floor": _FLOOR,
        "enforced_axes": list(_AXES),
        "usable_cores": usable_cores(),
        "parallel_workers": parallel.worker_count(),
    }


def _assert_floor(axis: str, speedup: float) -> None:
    """Enforce the floor for ``axis`` when it is checkable and selected."""
    if axis not in _AXES:
        return
    if not _multicore():
        # A 1-core host cannot express thread-level speedup; the JSON
        # records the measurement and the skip reason instead of a
        # meaningless assertion.
        print(f"[{axis}] floor not enforced: {usable_cores()} usable core(s)")
        return
    assert speedup >= _FLOOR, (
        f"parallel {axis} axis only {speedup:.2f}x vs numpy "
        f"(required >= {_FLOOR}x on {usable_cores()} cores)"
    )


def bench_parallel_kernel_speedup(benchmark):
    """Sharded kernels vs numpy at paper-scale message-passing shapes."""
    rng = np.random.default_rng(0)
    h = rng.standard_normal((_NODES, _WIDTH)).astype(np.float32)
    feat = rng.standard_normal((_EDGES, 16)).astype(np.float32)
    weight = rng.standard_normal((2 * _WIDTH + 16, _WIDTH)).astype(np.float32)
    bias = rng.standard_normal((_WIDTH,)).astype(np.float32)
    src = rng.integers(0, _NODES, _EDGES).astype(np.int64)
    dst = rng.integers(0, _NODES, _EDGES).astype(np.int64)
    activations = rng.standard_normal((_EDGES, _WIDTH)).astype(np.float32)
    gate = rng.standard_normal((_EDGES, 1)).astype(np.float32)
    vectors = rng.standard_normal((_EDGES, 3)).astype(np.float32)
    positions = rng.standard_normal((_NODES, 3)).astype(np.float32)

    cases = {
        "silu": lambda impl: impl.forward(activations),
        "linear": lambda impl: impl.forward(activations, weight[:_WIDTH], bias),
        "edge_message_linear": lambda impl: impl.forward(
            h, feat, weight, bias, src, dst
        ),
        "mul_segment_sum": lambda impl: impl.forward(vectors, gate, dst, _NODES),
        "gather_diff": lambda impl: impl.forward(positions, None, src, dst),
    }

    per_kernel: dict[str, dict[str, float]] = {}
    best_name, best_speedup = "", 0.0
    for name, call in cases.items():
        numpy_impl = kernels.get_kernel(name, "numpy")
        parallel_impl = kernels.get_kernel(name, "parallel")
        call(numpy_impl)  # warm caches (incidence matrices, executor)
        call(parallel_impl)
        t_numpy = best_of(lambda: call(numpy_impl))
        t_parallel = best_of(lambda: call(parallel_impl))
        speedup = t_numpy / t_parallel
        per_kernel[name] = {
            "numpy_ms": round(t_numpy * 1e3, 3),
            "parallel_ms": round(t_parallel * 1e3, 3),
            "speedup": round(speedup, 3),
        }
        if speedup > best_speedup:
            best_name, best_speedup = name, speedup

    lines = [
        "parallel_kernel_speedup "
        f"(edges={_EDGES}, width={_WIDTH}, workers={parallel.worker_count()})"
    ]
    for name, row in per_kernel.items():
        lines.append(
            f"{name:22s}: numpy {row['numpy_ms']:8.2f} ms  "
            f"parallel {row['parallel_ms']:8.2f} ms  ({row['speedup']:5.2f}x)"
        )
    lines.append(f"best axis speedup     : {best_speedup:5.2f}x ({best_name})")
    write_result("parallel_kernels", "\n".join(lines))
    merge_json(
        _JSON_PATH,
        {
            "kernels": per_kernel,
            "kernel_axis_speedup": round(best_speedup, 3),
            "kernel_axis_best": best_name,
        },
        **_host_fields(),
    )
    _assert_floor("kernels", best_speedup)
    benchmark(lambda: cases["silu"](kernels.get_kernel("silu", "parallel")))


def _serving_workload() -> tuple[HydraModel, list]:
    """A width-64 model and 48 structures heavy enough to release the GIL."""
    corpus = generate_corpus(220, seed=13)
    graphs = sorted(corpus.graphs, key=lambda g: -g.n_atoms)[:48]
    model = HydraModel(ModelConfig(hidden_dim=64, num_layers=3), seed=0)
    return model, graphs


def bench_concurrent_serving_scaling(benchmark):
    """4 serving workers vs 1 on the same stream (no model lock)."""
    model, graphs = _serving_workload()

    def session(workers: int) -> float:
        # Graph budget 4 → 12 micro-batches to spread across workers;
        # caching off so every request costs a forward.
        service = PredictionService(
            model,
            ServiceConfig(
                max_graphs=4,
                max_atoms=10**9,
                cache_capacity=0,
                flush_interval_s=0.001,
            ),
        )
        service.start(workers=workers)
        try:
            start = time.perf_counter()
            pending = [service.submit(graph) for graph in graphs]
            for request in pending:
                request.wait(60.0)
            return time.perf_counter() - start
        finally:
            service.stop()

    session(1)  # warm: pools, incidence caches
    best_1 = best_4 = float("inf")
    for _ in range(3):
        best_1 = min(best_1, session(1))
        best_4 = min(best_4, session(4))
    speedup = best_1 / best_4
    sps_1 = len(graphs) / best_1
    sps_4 = len(graphs) / best_4
    text = (
        "concurrent_serving_scaling\n"
        f"workers=1 : {best_1 * 1e3:8.1f} ms ({sps_1:8.1f} structures/s)\n"
        f"workers=4 : {best_4 * 1e3:8.1f} ms ({sps_4:8.1f} structures/s)\n"
        f"scaling   : {speedup:8.2f}x (floor {_FLOOR}x on "
        f"{usable_cores()} usable cores)"
    )
    write_result("parallel_serving_scaling", text)
    merge_json(
        _JSON_PATH,
        {
            "serving_axis_speedup": round(speedup, 3),
            "serving_workers1_structures_per_s": round(sps_1, 1),
            "serving_workers4_structures_per_s": round(sps_4, 1),
        },
        **_host_fields(),
    )
    _assert_floor("serving", speedup)

    # The PR-level acceptance bar: >= floor on at least one measured axis
    # (whenever any axis is actually enforceable on this host).
    payload = json.loads(_JSON_PATH.read_text())
    axis_speedups = [
        payload[key]
        for key in ("kernel_axis_speedup", "serving_axis_speedup")
        if key in payload
    ]
    if _multicore() and _AXES == ("kernels", "serving"):
        assert max(axis_speedups) >= _FLOOR, (
            f"no axis reached {_FLOOR}x: {axis_speedups}"
        )
    benchmark(lambda: session(4))
