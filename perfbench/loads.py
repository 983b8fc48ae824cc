"""The four workloads: inputs from a seed, warm-up, and the timed loops.

Every input comes from :func:`repro.data.generate_corpus` with the
benchmark's ``--seed``.  Where a loop needs more unique structures than
the generated pool holds, structure ``i >= len(pool)`` is pool entry
``i % len(pool)`` with a seeded 0.01 Å Gaussian displacement, so every
request stays a distinct structure (a result-cache miss) without paying
corpus generation for thousands of graphs.  A *variant* of a phase
displaces every structure with other noise: warm-up and the traced
run's direct-to-replica replay see the same sizes and arrival times as
the measured phase, but never a structure it sent.  Generation is never
timed.

Each loop drives the public :class:`repro.api.Client` over HTTP with at
most two threads (the benchmark host's core count), retries off, so a
refused or failed request is counted as failed instead of hidden.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import Client, StructurePayload
from repro.data import generate_corpus
from repro.data.sources import ANI1xSource, MPTrjSource, OC20Source, OC22Source, QM7XSource

#: Threads and connections the load generator may use (host cores).
MAX_THREADS = 2

#: Seeded displacement that turns a pool entry into a new structure.
JITTER_A = 0.01

#: Input variants: the measured phase, the traced run's replay straight
#: to the replica, and warm-up never share a structure.
MEASURED, DIRECT, WARMUP = 0, 1, 2

#: Operations reserved per part: the parts of a run (one per fleet) draw
#: disjoint stretches of the input stream.
PART_STRIDE = 100_000


def http_client(url: str) -> Client:
    return Client.http(url, retries=0)


class Stream:
    """Deterministic, unbounded sequence of unique structures."""

    def __init__(self, pool, seed: int) -> None:
        # The corpus lists sources one after another; a seeded shuffle
        # gives every request the whole mix instead of one source's run.
        order = np.random.default_rng([seed, 5]).permutation(len(pool))
        self.pool = [StructurePayload.from_graph(pool[index]) for index in order]
        self.seed = seed

    def get(self, index: int, variant: int = MEASURED) -> StructurePayload:
        base = self.pool[index % len(self.pool)]
        if index < len(self.pool) and variant == MEASURED:
            return base
        rng = np.random.default_rng([self.seed, variant, index])
        return StructurePayload(
            atomic_numbers=base.atomic_numbers,
            positions=base.positions + rng.normal(0.0, JITTER_A, base.positions.shape),
            cell=base.cell,
            pbc=base.pbc,
        )


@dataclass
class Phase:
    """What one timed loop observed."""

    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    structures: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: (index, payloads, results) per successful operation, for output
    #: checks; md records are :class:`MDRunRecord`\ s.
    outputs: list = field(default_factory=list)
    #: md only: full-run latencies.
    run_ms: list[float] = field(default_factory=list)

    @classmethod
    def merge(cls, phases: list["Phase"]) -> "Phase":
        """One phase pooling the samples and counts of several."""
        merged = cls()
        for phase in phases:
            for name in ("latencies_ms", "late_ms", "outputs", "run_ms"):
                getattr(merged, name).extend(getattr(phase, name))
            for name in ("structures", "attempted", "failed", "elapsed_s"):
                setattr(merged, name, getattr(merged, name) + getattr(phase, name))
        return merged


def _closed_loop(client: Client, seconds: float, request, part: int) -> Phase:
    """One client, next request only after the previous completes."""
    phase = Phase()
    start = time.perf_counter()
    building = 0.0  # input generation, excluded from the window
    index = part * PART_STRIDE
    while time.perf_counter() - start - building < seconds:
        built = time.perf_counter()
        payloads = request(index)
        building += time.perf_counter() - built
        index += 1
        phase.attempted += 1
        sent = time.perf_counter()
        try:
            results = client.predict(payloads)
        except Exception:  # noqa: BLE001 - a failed request is a counted outcome
            phase.failed += 1
            continue
        phase.latencies_ms.append((time.perf_counter() - sent) * 1000.0)
        phase.structures += len(results)
        phase.outputs.append((index - 1, payloads, results))
    phase.elapsed_s = time.perf_counter() - start - building
    return phase


class Trickle:
    """Open loop, Poisson 25 req/s, K=1 small molecules."""

    name = "trickle"
    rate_per_s = 25.0

    def __init__(self, seed: int) -> None:
        corpus = generate_corpus(600, seed=seed, sources=[ANI1xSource(), QM7XSource()])
        self.stream = Stream(corpus.graphs, seed)
        self.seed = seed

    def warmup(self, client: Client) -> None:
        for index in range(24):
            client.predict([self.stream.get(index, WARMUP)])

    def prepare(self, client: Client) -> None:
        # Soak: compile the plans of the rarer shape buckets before timing.
        for index in range(24, 120):
            client.predict([self.stream.get(index, WARMUP)])

    def measure(
        self, client: Client, seconds: float, variant: int = MEASURED, part: int = 0
    ) -> Phase:
        # A Poisson process conditioned on its count: N uniform arrival
        # times, so every seed offers exactly rate * seconds requests.
        count = int(round(self.rate_per_s * seconds))
        rng = np.random.default_rng([self.seed, part, 1])
        due = np.sort(rng.uniform(0.0, seconds, count))
        first = part * PART_STRIDE
        payloads = [self.stream.get(first + index, variant) for index in range(count)]
        phase = Phase(attempted=count)
        slots = [None] * count
        cursor = iter(range(count))
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def sender() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due_at = start + due[index]
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    results = client.predict([payloads[index]])
                except Exception:  # noqa: BLE001 - a failed request is a counted outcome
                    slots[index] = ("failed", sent - due_at)
                    continue
                slots[index] = (time.perf_counter() - due_at, sent - due_at, results)

        threads = [threading.Thread(target=sender) for _ in range(MAX_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed_s = time.perf_counter() - start
        for index, slot in enumerate(slots):
            if slot[0] == "failed":
                phase.failed += 1
                phase.late_ms.append(slot[1] * 1000.0)
                continue
            latency, late, results = slot
            phase.latencies_ms.append(latency * 1000.0)
            phase.late_ms.append(late * 1000.0)
            phase.structures += len(results)
            phase.outputs.append((first + index, [payloads[index]], results))
        return phase


class Bulk:
    """Closed loop, one client, K=32 structures from the whole corpus mix."""

    name = "bulk"
    k = 32

    def __init__(self, seed: int) -> None:
        self.stream = Stream(generate_corpus(512, seed=seed).graphs, seed)

    def _request(self, variant: int):
        return lambda index: [
            self.stream.get(index * self.k + slot, variant) for slot in range(self.k)
        ]

    def warmup(self, client: Client) -> None:
        request = self._request(WARMUP)
        for index in range(3):
            client.predict(request(index))

    def prepare(self, client: Client) -> None:
        # Soak: compile the plans of the rarer shape buckets before timing.
        request = self._request(WARMUP)
        for index in range(3, 12):
            client.predict(request(index))

    def measure(
        self, client: Client, seconds: float, variant: int = MEASURED, part: int = 0
    ) -> Phase:
        return _closed_loop(client, seconds, self._request(variant), part)


class Rescreen:
    """Closed loop, one client, K=1 re-requests of a cached slab library."""

    name = "rescreen"
    # Filling the cache costs one forward per entry on each of a run's
    # three fleets; 256 slabs keep that within the run's time budget.
    library_size = 256

    def __init__(self, seed: int) -> None:
        corpus = generate_corpus(
            self.library_size, seed=seed, sources=[OC20Source(), OC22Source()]
        )
        self.library = Stream(corpus.graphs[: self.library_size], seed).pool
        self.seed = seed
        #: First-pass results, the bit-exact reference for every re-request.
        self.first_pass: dict[int, object] = {}

    def warmup(self, client: Client) -> None:
        pass  # the measured phase runs no forward, so no plan to compile

    def prepare(self, client: Client) -> None:
        for start in range(0, len(self.library), 32):
            chunk = self.library[start : start + 32]
            for offset, result in enumerate(client.predict(chunk)):
                self.first_pass[start + offset] = result

    def measure(
        self, client: Client, seconds: float, variant: int = MEASURED, part: int = 0
    ) -> Phase:
        # Every variant re-requests the same library entries: all hits.
        return _closed_loop(
            client, seconds, lambda index: [self.library[self.pick(index)]], part
        )

    def pick(self, index: int) -> int:
        """Library entry re-requested by request ``index`` of a phase."""
        rng = np.random.default_rng([self.seed, index, 2])
        return int(rng.integers(0, len(self.library)))


@dataclass
class MDRunRecord:
    payload: StructurePayload
    seed: int
    frames: list
    result: object


class MD:
    """Sequential /v1/md runs on one 32-atom periodic cell."""

    name = "md"
    knobs = dict(n_steps=100, thermostat="langevin", temperature_k=300.0, frame_interval=10)

    def __init__(self, seed: int) -> None:
        # One material for every seed: the 32-atom cells of different
        # corpus seeds span 600 to 1650 edges, which alone moves steps/s
        # by ~20%.  The seed varies the trajectories instead.  Each run
        # starts from its own displaced copy of the cell with a fresh
        # thermostat seed: a repeated start would be served from the
        # result cache and turn md into a cache-hit workload.
        corpus = generate_corpus(24, seed=0, sources=[MPTrjSource()])
        cell = next(graph for graph in corpus.graphs if graph.n_atoms == 32)
        self.stream = Stream([cell], seed)
        self.seed = seed

    def run_seed(self, index: int) -> int:
        return int(np.random.default_rng([self.seed, index, 3]).integers(0, 2**31 - 1))

    def run(self, client: Client, index: int, variant: int, n_steps: int | None = None):
        """One /v1/md run: (first_frame_s, total_s, record)."""
        payload = self.stream.get(1 + index, variant)
        seed = self.run_seed(index)
        knobs = dict(self.knobs, n_steps=n_steps or self.knobs["n_steps"])
        sent = time.perf_counter()
        first = None
        frames = []
        run = client.md(payload, seed=seed, **knobs)
        for frame in run:
            if first is None:
                first = time.perf_counter() - sent
            frames.append(frame)
        total = time.perf_counter() - sent
        return first, total, MDRunRecord(payload, seed, frames, run.result)

    def warmup(self, client: Client) -> None:
        self.run(client, 0, WARMUP, n_steps=10)

    def prepare(self, client: Client) -> None:
        pass

    def measure(
        self, client: Client, seconds: float, variant: int = MEASURED, part: int = 0
    ) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        index = part * PART_STRIDE
        while time.perf_counter() - start < seconds:
            phase.attempted += 1
            try:
                first, total, record = self.run(client, index, variant)
            except Exception:  # noqa: BLE001 - a failed run is a counted outcome
                phase.failed += 1
                continue
            finally:
                index += 1
            phase.latencies_ms.append(first * 1000.0)
            phase.run_ms.append(total * 1000.0)
            phase.structures += record.result.steps
            phase.outputs.append(record)
        phase.elapsed_s = time.perf_counter() - start
        return phase


WORKLOADS = {cls.name: cls for cls in (Trickle, Bulk, Rescreen, MD)}
