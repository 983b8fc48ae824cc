"""Per-layer metrics from the traced run's spans and ``/v1/stats`` deltas.

``<layer>_ms`` is busy time per completed operation (a request; an MD
step on ``md``); its call count is printed beside it.  A layer that does
no work on a workload reports 0 with 0 calls.  ``model.forward_ms`` is
per forward call, as the forward is the unit an engine change moves.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median

#: Span-timed layers: metric stem -> span names summed into it.
SPAN_LAYERS = {
    "client.encode": ("client.encode",),
    "client.decode": ("client.decode",),
    "api.parse": ("api.parse",),
    "api.validate": ("api.validate",),
    "api.encode": ("api.to_json", "api.dumps"),
    "gateway.predict": ("gateway.predict",),
    "graph.neighbor_search": ("graph.neighbor_search",),
    "graph.collate": ("graph.collate",),
    "graph.split": ("graph.split",),
    "graph.skin_update": ("graph.skin_update",),
    "serving.hash": ("serving.hash",),
    "serving.admission": ("serving.admission",),
}

#: Every per-layer metric with its unit, in report order.
UNITS = {
    **{f"{stem}_ms": "ms" for stem in SPAN_LAYERS},
    "gateway.predict_self_ms": "ms",
    "model.forward_ms": "ms",
    "model.forward_atoms_per_s": "1/s",
    "md.step_self_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.queue_wait_ms": "ms",
    "serving.batch_graphs": "count",
    "serving.flush_timeout_ratio": "ratio",
    "serving.failed": "count",
    "tensor.plan_hit_ratio": "ratio",
    "graph.skin_rebuild_ratio": "ratio",
    "loadgen.late_p99_ms": "ms",
    "router.overhead_ms": "ms",
    "router.md_buffer_ms": "ms",
    "setup.spawn_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_spans(directory: Path, start: float, end: float) -> list[tuple]:
    """Spans from every fleet process that began inside ``[start, end]``."""
    spans = []
    for path in sorted(directory.glob("spans-*.json")):
        spans.extend(
            tuple(span) for span in json.loads(path.read_text()) if start <= span[1] <= end
        )
    return spans


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(before: dict, after: dict, section: str, key: str) -> float:
    return after[section].get(key, 0) - before[section].get(key, 0)


def span_metrics(spans: list[tuple], operations: int) -> tuple[dict, dict]:
    """(metrics, call counts): layer busy time per operation and ratios."""
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    metrics, calls = {}, {}
    for stem, names in SPAN_LAYERS.items():
        chosen = [span for name in names for span in by_name.get(name, [])]
        metrics[f"{stem}_ms"] = _ratio(sum(span[2] for span in chosen) * 1000.0, operations)
        calls[f"{stem}_ms"] = len(chosen)
    gateway = by_name.get("gateway.predict", [])
    metrics["gateway.predict_self_ms"] = _ratio(sum(s[3] for s in gateway) * 1000.0, operations)
    forward = by_name.get("model.forward", [])
    forward_s = sum(span[2] for span in forward)
    metrics["model.forward_ms"] = _ratio(forward_s * 1000.0, len(forward))
    calls["model.forward_ms"] = len(forward)
    metrics["model.forward_atoms_per_s"] = _ratio(sum(span[4] for span in forward), forward_s)
    steps = by_name.get("md.step", [])
    metrics["md.step_self_ms"] = _ratio(sum(span[3] for span in steps) * 1000.0, operations)
    calls["md.step_self_ms"] = len(steps)
    lookups = by_name.get("serving.cache_get", [])
    metrics["serving.cache_hit_ratio"] = _ratio(
        sum(1 for span in lookups if span[4] is not None), len(lookups)
    )
    batches = [span[4] for span in by_name.get("serving.next_batch", []) if span[4]]
    waits = [wait for batch in batches for wait in batch]
    metrics["serving.queue_wait_ms"] = median(waits) * 1000.0 if waits else 0.0
    metrics["serving.batch_graphs"] = _ratio(len(waits), len(batches))
    return metrics, calls


def stats_metrics(before: dict, after: dict) -> dict:
    """Ratios and failure counts from the fleet's ``/v1/stats`` deltas."""
    flushes = {
        reason: count - before["batching"]["flush_reasons"].get(reason, 0)
        for reason, count in after["batching"]["flush_reasons"].items()
    }
    plan_hits = _delta(before, after, "plans", "plan_hits")
    plan_misses = _delta(before, after, "plans", "plan_misses")
    rebuilds = _delta(before, after, "md", "neighbor_rebuilds")
    reuses = _delta(before, after, "md", "neighbor_reuses")
    failed = sum(
        _delta(before, after, "batching", key) for key in ("rejected", "expired", "shed_predicted")
    )
    return {
        "serving.flush_timeout_ratio": _ratio(flushes.get("timeout", 0), sum(flushes.values())),
        "serving.failed": failed,
        "tensor.plan_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "graph.skin_rebuild_ratio": _ratio(rebuilds, rebuilds + reuses),
    }
