"""Micro-batcher flush discipline: idle dispatch, budgets, hold, drain."""

import sys
import threading
import time

import pytest

from repro.serving import (
    FLUSH_ATOMS,
    FLUSH_GRAPHS,
    FLUSH_IDLE,
    FLUSH_TIMEOUT,
    MicroBatcher,
    ServeRequest,
    ServiceOverloaded,
)
from tests.helpers import make_molecule_graphs


def _requests(count: int, seed: int = 0) -> list[ServeRequest]:
    graphs = make_molecule_graphs(count, seed=seed)
    return [ServeRequest(graph=g, key=str(i)) for i, g in enumerate(graphs)]


def test_atom_budget_flush():
    requests = _requests(6)
    total_atoms = sum(r.n_atoms for r in requests[:3])
    batcher = MicroBatcher(max_atoms=total_atoms, max_graphs=100, flush_interval_s=60.0)
    for request in requests[:3]:
        batcher.submit(request)
    batch = batcher.next_batch()  # must not wait for the 60s tick
    assert [r.key for r in batch] == ["0", "1", "2"]
    assert batcher.flush_reasons == {FLUSH_ATOMS: 1}
    assert batcher.pending_graphs == 0
    assert batcher.pending_atoms == 0


def test_graph_budget_flush_keeps_fifo_order():
    requests = _requests(5)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=2, flush_interval_s=60.0)
    for request in requests:
        batcher.submit(request)
    assert [r.key for r in batcher.next_batch()] == ["0", "1"]
    assert [r.key for r in batcher.next_batch()] == ["2", "3"]
    assert batcher.flush_reasons[FLUSH_GRAPHS] == 2


def test_default_dispatches_to_idle_worker():
    # Default config: no hold, so a consumer already blocked in
    # next_batch() takes a lone request as a batch of one at once.
    batcher = MicroBatcher()
    assert batcher.flush_interval_s == 0.0
    assert batcher.lane_aging_s == 0.05
    received = []
    thread = threading.Thread(target=lambda: received.append(batcher.next_batch()))
    thread.start()
    time.sleep(0.02)  # let the consumer block on an empty queue
    request = _requests(1)[0]
    batcher.submit(request)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert received == [[request]]
    assert batcher.flush_reasons == {FLUSH_IDLE: 1}


def test_submit_many_is_one_batch_for_an_idle_worker():
    # The whole list is visible at once, so the idle worker's batch is
    # the budget-capped prefix inline chunking would form.
    requests = _requests(5)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=3)
    batcher.submit_many(requests)
    assert [r.key for r in batcher.next_batch()] == ["0", "1", "2"]
    assert [r.key for r in batcher.next_batch()] == ["3", "4"]
    assert batcher.flush_reasons == {FLUSH_GRAPHS: 1, FLUSH_IDLE: 1}


def test_submit_many_is_all_or_nothing_in_order():
    requests = _requests(4)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, max_pending=3)
    batcher.submit(requests[0])
    # requests[1] and [2] would fit; [3] is past the bound once the two
    # ahead of it in the list count as queued.
    with pytest.raises(ServiceOverloaded, match=r"queue full \(3/3"):
        batcher.submit_many(requests[1:])
    assert batcher.pending_graphs == 1
    assert batcher.rejected == 1
    assert not any(r.done() for r in requests)
    batcher.submit_many(requests[1:3])
    assert batcher.pending_graphs == 3


def test_concurrent_submit_many_delivers_each_request_once():
    # More producers and consumers than cores, with a short switch
    # interval: every admitted request reaches exactly one batch, and a
    # rejected list leaves nothing behind in the queue counters.
    requests = _requests(240)
    lists = [requests[i : i + 1 + i % 5] for i in range(0, 240, 6)]
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=4, max_pending=8)
    admitted, served = [], []
    lock = threading.Lock()

    def produce(own):
        for chunk in own:
            try:
                batcher.submit_many(chunk)
            except ServiceOverloaded:
                continue
            with lock:
                admitted.extend(chunk)

    def consume():
        while (batch := batcher.next_batch()) is not None:
            with lock:
                served.extend(batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        consumers = [threading.Thread(target=consume) for _ in range(4)]
        producers = [threading.Thread(target=produce, args=(lists[i::4],)) for i in range(4)]
        for thread in consumers + producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=30.0)
        batcher.close()
        for thread in consumers:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in consumers + producers)
    assert sorted(r.key for r in served) == sorted(r.key for r in admitted)
    assert len({id(r) for r in served}) == len(served)
    assert batcher.pending_graphs == 0
    assert batcher.pending_atoms == 0


def test_timeout_tick_flushes_partial_batch():
    requests = _requests(2)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=0.02)
    start = time.monotonic()
    for request in requests:
        batcher.submit(request)
    batch = batcher.next_batch()
    waited = time.monotonic() - start
    assert [r.key for r in batch] == ["0", "1"]
    assert batcher.flush_reasons == {FLUSH_TIMEOUT: 1}
    assert waited >= 0.015  # actually honored the tick, within clock slop


def test_oversized_structure_ships_alone():
    requests = _requests(3)
    big = max(requests, key=lambda r: r.n_atoms)
    batcher = MicroBatcher(max_atoms=big.n_atoms - 1, max_graphs=100, flush_interval_s=0.0)
    batcher.submit(big)
    batch = batcher.next_batch()
    assert batch == [big]


def test_close_drains_then_returns_none():
    requests = _requests(3)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=60.0)
    for request in requests:
        batcher.submit(request)
    batcher.close()
    assert len(batcher.next_batch()) == 3
    assert batcher.next_batch() is None
    with pytest.raises(RuntimeError):
        batcher.submit(requests[0])


def test_blocked_consumer_wakes_on_submit():
    batcher = MicroBatcher(max_atoms=1, max_graphs=100, flush_interval_s=60.0)
    received = []

    def consume():
        received.append(batcher.next_batch())

    thread = threading.Thread(target=consume)
    thread.start()
    time.sleep(0.02)  # let the consumer block on an empty queue
    request = _requests(1)[0]
    batcher.submit(request)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert received == [[request]]


def test_validates_parameters():
    with pytest.raises(ValueError):
        MicroBatcher(max_atoms=0)
    with pytest.raises(ValueError):
        MicroBatcher(max_graphs=0)
    with pytest.raises(ValueError):
        MicroBatcher(flush_interval_s=-1.0)
    with pytest.raises(ValueError):
        MicroBatcher(max_pending=-1)


def test_admission_control_rejects_at_the_bound():
    requests = _requests(4)
    # No consumer thread runs here, so rejection is deterministic even
    # with an immediate timeout tick (which keeps next_batch() instant).
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=0.0, max_pending=2)
    batcher.submit(requests[0])
    batcher.submit(requests[1])
    with pytest.raises(ServiceOverloaded, match="queue full"):
        batcher.submit(requests[2])
    # The rejection left the queue untouched and was counted.
    assert batcher.pending_graphs == 2
    assert batcher.rejected == 1
    # Draining frees capacity: admission is about *current* depth.
    assert len(batcher.next_batch()) == 2
    batcher.submit(requests[2])
    assert batcher.pending_graphs == 1


def test_admission_control_disabled_by_default():
    requests = _requests(6)
    batcher = MicroBatcher(max_atoms=10**9, max_graphs=100, flush_interval_s=60.0)
    for request in requests:
        batcher.submit(request)
    assert batcher.pending_graphs == 6
    assert batcher.rejected == 0


def test_service_surfaces_overload_and_keeps_serving():
    """A rejected burst does not poison the service for later requests."""
    from repro.models import HydraModel, ModelConfig
    from repro.serving import PredictionService, ServiceConfig

    model = HydraModel(ModelConfig(hidden_dim=8, num_layers=1), seed=0)
    service = PredictionService(
        model,
        ServiceConfig(max_pending=1, flush_interval_s=0.5),
    )
    graphs = make_molecule_graphs(3, seed=5)
    service.start(workers=1)
    try:
        # The first submit fills the bound; the second (well inside the
        # 0.5 s flush tick, so nothing has drained) must be rejected.
        admitted = service.submit(graphs[0])
        with pytest.raises(ServiceOverloaded):
            service.submit(graphs[1])
        # Telemetry shows the rejection while the admitted request is
        # unaffected, and once it drains the service accepts new work.
        assert service.telemetry()["batching"]["rejected"] == 1
        assert admitted.wait(10.0).n_atoms == graphs[0].n_atoms
        result = service.predict(graphs[2])
        assert result.n_atoms == graphs[2].n_atoms
    finally:
        service.stop()
    assert service.telemetry()["batching"]["rejected"] == 1  # survives stop()


def test_cache_hits_bypass_admission_control():
    """A full queue must not reject requests the cache can answer."""
    from repro.models import HydraModel, ModelConfig
    from repro.serving import PredictionService, ServiceConfig

    model = HydraModel(ModelConfig(hidden_dim=8, num_layers=1), seed=0)
    service = PredictionService(model, ServiceConfig(max_pending=1, flush_interval_s=0.2))
    graphs = make_molecule_graphs(3, seed=6)
    warm = None
    service.start(workers=1)
    try:
        warm = service.predict(graphs[0])  # populate the cache
        # Fill the queue to its bound...
        service.submit(graphs[1])
        with pytest.raises(ServiceOverloaded):
            service.submit(graphs[2])
        # ...and the cached structure still resolves instantly.
        hit = service.submit(graphs[0])
        assert hit.done()
        assert hit.wait(0).cached
        assert hit.wait(0).energy == warm.energy
    finally:
        service.stop()
