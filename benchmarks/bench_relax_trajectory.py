"""Incremental skin neighbor lists vs from-scratch rebuilds on a trajectory.

The trajectory workload (relaxation, MD) presents the same structure
over and over with angstrom-fraction displacements.  The serving stack's
answer is the Verlet-style :class:`SkinNeighborList`: build candidates
once at ``cutoff + skin``, then re-filter by exact distance while atoms
stay inside the skin bound.  This bench drives both paths over the same
MD-like displacement stream and pins two claims:

- **Throughput.**  The incremental path must beat per-step
  ``build_edges`` rebuilds by at least ``RELAX_SPEEDUP_FLOOR`` (default
  1.5x locally; CI relaxes it for noisy shared runners).  Like the plan
  floor this is deterministic work-avoidance — a KD-tree over periodic
  images skipped per step — so it holds on a single core.
- **Bit-identity.**  At every step the incremental edges must equal the
  canonicalized from-scratch edges exactly; a fast wrong neighbor list
  is a regression, not a win.

Numbers merge into ``benchmarks/results/BENCH_relax.json`` (uploaded as
a CI artifact next to the serving/parallel/plan/replica trajectories).
"""

import os
import time

import numpy as np

from _shared import RESULTS_DIR, merge_json, write_result
from repro.graph.radius import SkinNeighborList, build_edges, canonicalize_edges

_FLOOR = float(os.environ.get("RELAX_SPEEDUP_FLOOR", "1.5"))
_JSON_PATH = RESULTS_DIR / "BENCH_relax.json"

#: A bulk-like periodic cell: big enough that the KD-tree over replicated
#: images costs real time, small enough for a quick CI job.
_ATOMS = 80
_CUTOFF = 4.5
_SKIN = 0.4
_STEPS = 60
#: Per-step per-coordinate displacement scale — MD-like thermal jitter,
#: far inside the skin bound so candidate reuse dominates.
_STEP_SCALE = 0.01

_CELL = np.array(
    [
        [9.4, 0.0, 0.0],
        [1.7, 8.9, 0.0],
        [-0.9, 1.1, 9.8],
    ]
)
_PBC = (True, True, True)


def _displacement_stream(steps: int = _STEPS, seed: int = 0) -> list[np.ndarray]:
    """Precomputed MD-like position stream (same stream for both paths)."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 9.0, size=(_ATOMS, 3))
    stream = [positions]
    for _ in range(steps - 1):
        positions = positions + rng.normal(0.0, _STEP_SCALE, size=positions.shape)
        stream.append(positions)
    return stream


def _rebuild_edges(positions: np.ndarray):
    """The from-scratch path with the same output contract (canonical order)."""
    return canonicalize_edges(*build_edges(positions, _CUTOFF, _CELL, _PBC))


def bench_relax_trajectory_speedup(benchmark):
    """Incremental skin-list updates vs per-step from-scratch rebuilds."""
    stream = _displacement_stream()

    def incremental_sweep() -> SkinNeighborList:
        nl = SkinNeighborList(_CUTOFF, _SKIN)
        for positions in stream:
            nl.update(positions, _CELL, _PBC)
        return nl

    def rebuild_sweep() -> None:
        for positions in stream:
            _rebuild_edges(positions)

    # Sanity inside the bench: the fast path must be the *same* graph,
    # bit for bit, at every step of the stream it is being timed on.
    nl = SkinNeighborList(_CUTOFF, _SKIN)
    for positions in stream:
        edge_index, edge_shift = nl.update(positions, _CELL, _PBC)
        ref_index, ref_shift = _rebuild_edges(positions)
        assert np.array_equal(edge_index, ref_index)
        assert np.array_equal(edge_shift, ref_shift)
    reuse_rate = nl.reuses / (nl.rebuilds + nl.reuses)

    def best_of(fn, rounds: int = 5) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best / len(stream)

    rebuild_sweep()  # warm caches (shift ranges, allocator) before timing
    incremental_sweep()
    rebuild_s = best_of(rebuild_sweep)
    incremental_s = best_of(incremental_sweep)
    speedup = rebuild_s / incremental_s

    edges = _rebuild_edges(stream[0])[0].shape[1]
    text = (
        "relax_trajectory_speedup "
        f"(atoms={_ATOMS}, steps={len(stream)}, cutoff={_CUTOFF}, skin={_SKIN}, "
        f"~{edges} edges, triclinic PBC)\n"
        f"rebuild     : {rebuild_s * 1e6:8.1f} us/step\n"
        f"incremental : {incremental_s * 1e6:8.1f} us/step\n"
        f"speedup     : {speedup:8.2f}x (floor {_FLOOR}x)\n"
        f"skin list   : {nl.rebuilds} rebuilds, {nl.reuses} reuses "
        f"({reuse_rate:.0%} reuse)"
    )
    write_result("relax_trajectory", text)
    merge_json(
        _JSON_PATH,
        {
            "rebuild_us_per_step": round(rebuild_s * 1e6, 2),
            "incremental_us_per_step": round(incremental_s * 1e6, 2),
            "speedup": round(speedup, 3),
            "atoms": _ATOMS,
            "steps": len(stream),
            "edges": int(edges),
            "neighbor_rebuilds": nl.rebuilds,
            "neighbor_reuses": nl.reuses,
            "reuse_rate": round(reuse_rate, 4),
        },
        floor=_FLOOR,
    )
    assert speedup >= _FLOOR, (
        f"incremental neighbor lists only {speedup:.2f}x over per-step rebuilds "
        f"(required >= {_FLOOR}x)"
    )
    benchmark(incremental_sweep)


def bench_relax_loop_convergence(benchmark):
    """The served relax loop terminates and rides the plan cache."""
    from repro.graph.atoms import AtomGraph
    from repro.models import HydraModel, ModelConfig
    from repro.serving import PredictionService, RelaxSettings, ServiceConfig

    rng = np.random.default_rng(1)
    n = 16
    positions = rng.uniform(0.0, 5.0, size=(n, 3))
    graph = AtomGraph(
        atomic_numbers=rng.integers(1, 9, size=n),
        positions=positions,
        edge_index=np.zeros((2, 0), dtype=np.int64),
        edge_shift=np.zeros((0, 3)),
        source="bench",
    )
    model = HydraModel(ModelConfig(hidden_dim=32, num_layers=3), seed=0)
    service = PredictionService(model, ServiceConfig(plan=True))
    settings = RelaxSettings(max_steps=60, cutoff=4.0)

    result = service.relax(graph, settings)
    assert result.reason in ("fmax", "step", "max_steps")
    assert result.energy <= result.energy_initial
    plans = service.telemetry()["plans"]
    relax = service.telemetry()["relax"]
    write_result(
        "relax_loop",
        "relax_loop_convergence "
        f"(atoms={n}): {result.steps} steps, reason={result.reason}, "
        f"dE={result.energy - result.energy_initial:+.4f}, "
        f"plan hits={plans['plan_hits']}, "
        f"neighbor reuse={relax['neighbor_reuses']}/{relax['steps']}",
    )
    merge_json(
        _JSON_PATH,
        {
            "relax_steps": result.steps,
            "relax_reason": result.reason,
            "relax_converged": bool(result.converged),
            "relax_plan_hits": int(plans["plan_hits"]),
        },
        floor=_FLOOR,
    )
    benchmark(lambda: service.relax(graph, settings))
