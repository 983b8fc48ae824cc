"""Served MD throughput: skin-list reuse vs per-step neighbor rebuilds.

MD is the trajectory workload at its purest — hundreds of force
evaluations over the same atoms with sub-angstrom displacements per
step.  The serving stack reuses the Verlet :class:`SkinNeighborList`
candidates across steps; this bench pins what that is worth on the real
integrator:

- **Throughput.**  ``run_md`` with the production skin must beat the
  same run with a degenerate (effectively zero) skin — which forces a
  candidate rebuild every step — by at least ``MD_SPEEDUP_FLOOR``
  (default 1.3x locally; CI relaxes it for noisy shared runners).
- **Bit-identity.**  Swapping the skin changes *when* candidates are
  rebuilt, never the exact-cutoff edges — so a seeded NVT trajectory
  must be bit-identical across both skins, and across repeated runs.
  A fast wrong trajectory is a regression, not a win.

Numbers merge into ``benchmarks/results/BENCH_md.json`` (uploaded as a
CI artifact next to the other bench trajectories).
"""

import os
import time

import numpy as np

from _shared import RESULTS_DIR, merge_json, write_result
from repro.graph.atoms import AtomGraph
from repro.models import HydraModel, ModelConfig
from repro.serving import MDSettings, PredictionService, ServiceConfig, run_md

_FLOOR = float(os.environ.get("MD_SPEEDUP_FLOOR", "1.3"))
_JSON_PATH = RESULTS_DIR / "BENCH_md.json"

_ATOMS = 80
_CUTOFF = 4.5
_SKIN = 0.4
#: Degenerate skin: any displacement exceeds it, so every step rebuilds
#: candidates from scratch — the per-step-rebuild baseline.  (Settings
#: require skin > 0.)
_TINY_SKIN = 1e-9
_STEPS = 120
_SEED = 7

#: Bulk-like triclinic periodic cell (matches the relax bench): the
#: KD-tree over replicated images is the real per-rebuild cost that
#: skin reuse amortizes.  Without PBC the rebuild is too cheap to see
#: next to the model forward.
_CELL = np.array(
    [
        [9.4, 0.0, 0.0],
        [1.7, 8.9, 0.0],
        [-0.9, 1.1, 9.8],
    ]
)
_PBC = (True, True, True)


def _make_graph() -> AtomGraph:
    rng = np.random.default_rng(0)
    return AtomGraph(
        atomic_numbers=rng.integers(1, 9, size=_ATOMS),
        positions=rng.uniform(0.0, 9.0, size=(_ATOMS, 3)),
        edge_index=np.zeros((2, 0), dtype=np.int64),
        edge_shift=np.zeros((0, 3)),
        cell=_CELL,
        pbc=_PBC,
        source="bench",
    )


def _settings(skin: float) -> MDSettings:
    return MDSettings(
        n_steps=_STEPS,
        timestep_fs=0.5,
        thermostat="langevin",
        temperature_k=300.0,
        friction=0.05,
        seed=_SEED,
        frame_interval=_STEPS,  # initial + final frame only; timing, not I/O
        skin=skin,
        cutoff=_CUTOFF,
    )


def bench_md_throughput(benchmark):
    """Seeded NVT steps/s with the production skin vs per-step rebuilds."""
    graph = _make_graph()
    model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
    service = PredictionService(model, ServiceConfig(plan=True))
    predict = service.predict

    def sweep(skin: float) -> list:
        return [payload for kind, payload in run_md(predict, graph, _settings(skin))]

    # Bit-identity sweep inside the bench: the skin is a scheduling knob,
    # not a physics knob.  Same trajectory with reuse, without reuse, and
    # across repeated runs.
    skinned = sweep(_SKIN)
    rebuilt = sweep(_TINY_SKIN)
    again = sweep(_SKIN)
    for reference, candidate in ((skinned, rebuilt), (skinned, again)):
        for a, b in zip(reference[:-1], candidate[:-1]):
            assert a.step == b.step
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.velocities, b.velocities)
            assert a.energy == b.energy
    result = skinned[-1]
    baseline_result = rebuilt[-1]
    reuse_rate = result.neighbor_reuses / (
        result.neighbor_rebuilds + result.neighbor_reuses
    )
    assert baseline_result.neighbor_reuses == 0  # tiny skin defeats reuse
    assert reuse_rate > 0.5

    def best_of(fn, rounds: int = 3) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best / _STEPS

    sweep(_SKIN)  # warm model caches before timing
    skinned_s = best_of(lambda: sweep(_SKIN))
    rebuilt_s = best_of(lambda: sweep(_TINY_SKIN))
    speedup = rebuilt_s / skinned_s

    text = (
        "md_throughput "
        f"(atoms={_ATOMS}, steps={_STEPS}, cutoff={_CUTOFF}, skin={_SKIN}, "
        f"triclinic PBC, langevin @300K)\n"
        f"per-step rebuild : {1.0 / rebuilt_s:8.1f} steps/s\n"
        f"skin reuse       : {1.0 / skinned_s:8.1f} steps/s\n"
        f"speedup          : {speedup:8.2f}x (floor {_FLOOR}x)\n"
        f"skin list        : {result.neighbor_rebuilds} rebuilds, "
        f"{result.neighbor_reuses} reuses ({reuse_rate:.0%} reuse)"
    )
    write_result("md_throughput", text)
    merge_json(
        _JSON_PATH,
        {
            "steps_per_s_rebuild": round(1.0 / rebuilt_s, 1),
            "steps_per_s_skin": round(1.0 / skinned_s, 1),
            "speedup": round(speedup, 3),
            "atoms": _ATOMS,
            "steps": _STEPS,
            "thermostat": "langevin",
            "neighbor_rebuilds": result.neighbor_rebuilds,
            "neighbor_reuses": result.neighbor_reuses,
            "reuse_rate": round(reuse_rate, 4),
            "bit_identical_across_skins": True,
        },
        floor=_FLOOR,
    )
    assert speedup >= _FLOOR, (
        f"skin reuse only {speedup:.2f}x over per-step rebuilds "
        f"(required >= {_FLOOR}x)"
    )
    benchmark(lambda: sweep(_SKIN))
