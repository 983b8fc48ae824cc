"""Output checks and cache-state guards.

Served results depend on batch composition at the ~1e-8 level, so a
seeded sample of every run's responses (always including the first and
the last) is compared, to the 1e-6 tolerance the repo's threaded-serving
check uses, with the same preset and model seed run in this process.
The reference is the model's op-by-op forward on one structure at a
time: an in-process ``PredictionService`` would share the batching,
caching and scatter code whose output is being checked.  Bit-equality
is required only where the repo guarantees it: ``rescreen`` re-requests
against their first-pass results, and one ``md`` run against
``Client.local`` with the same seed.
"""

from __future__ import annotations

import numpy as np

from repro.api import Client
from repro.api.schemas import DEFAULT_CUTOFF, StructurePayload
from repro.graph.batch import collate
from repro.models import HydraModel, get_preset
from repro.serving import ModelRegistry

from fleet import MODEL_SEED, PRESET

TOLERANCE = 1e-6
SAMPLE = 6


def _model() -> HydraModel:
    return HydraModel(get_preset(PRESET), seed=MODEL_SEED)


def sample_indices(count: int, seed: int) -> list[int]:
    """First, last, and a seeded sample of ``count`` operations."""
    if count == 0:
        return []
    picks = np.random.default_rng([seed, 4]).choice(count, size=min(SAMPLE, count), replace=False)
    return sorted({0, count - 1, *(int(index) for index in picks)})


class Checker:
    """Accumulates failed checks as human-readable lines."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: list[str] = []
        self._model: HydraModel | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def reference(self, payloads: list[StructurePayload]) -> list[tuple[float, np.ndarray]]:
        """(energy, forces) per structure from the model's op-by-op forward."""
        if self._model is None:
            self._model = _model()
        expected = []
        for payload in payloads:
            batch = collate([payload.to_graph(DEFAULT_CUTOFF)])
            outputs = self._model.serve(batch, plan=False)
            expected.append((float(outputs["energy"][0, 0]), outputs["forces"]))
        return expected

    def _compare(self, label: str, served, expected) -> None:
        energy, forces = expected
        error = max(
            abs(served.energy - energy),
            float(np.abs(np.asarray(served.forces) - forces).max(initial=0.0)),
        )
        if not error < TOLERANCE:
            self.errors.append(f"{label}: differs from the in-process reference by {error:.3g}")

    def predictions(self, phase, label: str) -> None:
        """Tolerance check of a sample of (index, payloads, results) outputs."""
        chosen = [phase.outputs[index] for index in sample_indices(len(phase.outputs), self.seed)]
        payloads = [payload for _, batch, _ in chosen for payload in batch]
        served = [result for _, _, results in chosen for result in results]
        if len(served) != len(payloads):
            self.errors.append(f"{label}: {len(served)} results for {len(payloads)} structures")
            return
        for position, (result, expected) in enumerate(zip(served, self.reference(payloads))):
            self._compare(f"{label} structure {position}", result, expected)

    def rescreen_bits(self, phase, workload) -> None:
        """Every re-request must equal its fleet's first-pass result bit for bit."""
        for index, _payloads, (result,) in phase.outputs:
            first = workload.first_pass[workload.pick(index)]
            if result.energy != first.energy or not np.array_equal(result.forces, first.forces):
                self.errors.append(f"rescreen request {index}: differs from its first-pass result")
                return

    def rescreen(self, workload) -> None:
        """Tolerance check of a sample of the last fleet's first pass."""
        library = list(workload.first_pass.items())
        chosen = [library[index] for index in sample_indices(len(library), self.seed)]
        for (entry, served), expected in zip(
            chosen, self.reference([workload.library[entry] for entry, _ in chosen])
        ):
            self._compare(f"rescreen library entry {entry}", served, expected)

    def md(self, phase, workload) -> None:
        """Frame energies against the reference; one run bit-exact vs local."""
        runs = [phase.outputs[index] for index in sample_indices(len(phase.outputs), self.seed)]
        for record in runs:
            if len(record.frames) != workload.knobs["n_steps"] // workload.knobs["frame_interval"] + 1:
                self.errors.append(f"md run seed {record.seed}: {len(record.frames)} frames")
                return
        frames = [frame for record in runs for frame in (record.frames[0], record.frames[-1])]
        starts = [record.payload for record in runs for _ in range(2)]
        payloads = [
            StructurePayload(
                atomic_numbers=start.atomic_numbers,
                positions=frame.positions,
                cell=start.cell,
                pbc=start.pbc,
            )
            for start, frame in zip(starts, frames)
        ]
        for frame, (energy, _forces) in zip(frames, self.reference(payloads)):
            error = abs(frame.energy - energy)
            if not error < TOLERANCE:
                self.errors.append(f"md frame {frame.step}: energy off by {error:.3g}")
        if phase.outputs:
            self._md_local(phase.outputs[-1], workload)

    def _md_local(self, record, workload) -> None:
        registry = ModelRegistry()
        registry.register_model("default", _model())
        with Client.local(registry, workers=2) as local:
            run = local.md(record.payload, seed=record.seed, **workload.knobs)
            frames = list(run)
        same = len(frames) == len(record.frames) and all(
            a.step == b.step
            and a.energy == b.energy
            and np.array_equal(a.positions, b.positions)
            and np.array_equal(a.velocities, b.velocities)
            for a, b in zip(frames, record.frames)
        )
        if not same:
            self.errors.append(f"md run seed {record.seed}: HTTP frames differ from Client.local")

    def fleet(self, workload, phase, before: dict, after: dict) -> None:
        """Checks that hold per fleet: cache state, rescreen bit-equality."""
        self.cache_guard(workload.name, before, after)
        if workload.name == "rescreen":
            self.rescreen_bits(phase, workload)

    def outputs(self, workload, phase) -> None:
        """Tolerance checks of a run's pooled outputs."""
        if workload.name == "md":
            self.md(phase, workload)
        elif workload.name == "rescreen":
            self.rescreen(workload)
        else:
            self.predictions(phase, workload.name)

    def cache_guard(self, name: str, before: dict, after: dict) -> None:
        """Zero result-cache hits, except all hits on ``rescreen``."""
        hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
        misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
        if name == "rescreen":
            if misses != 0 or hits == 0:
                self.errors.append(f"rescreen cache guard: {hits} hits, {misses} misses (want all hits)")
        elif hits != 0:
            self.errors.append(f"{name} cache guard: {hits} result-cache hits (want 0)")
