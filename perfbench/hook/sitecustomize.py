"""Span wrappers for the traced benchmark run, installed at interpreter start.

The traced fleet runs with this directory first on ``PYTHONPATH`` and
``PERFBENCH_SPANS`` naming an output directory.  The replica supervisor
passes both through to the replica it spawns, so the supervisor and the
replica each import this file before ``repro`` runs.  Each name is
wrapped where its caller looks it up (``repro.api.schemas.build_edges``,
not ``repro.graph.radius.build_edges``).  Spans stay in memory and are
written to ``<PERFBENCH_SPANS>/spans-<pid>.json`` at interpreter exit,
which the graceful SIGTERM path reaches.
"""

import atexit
import json
import os
import time

_OUTPUT = os.environ.get("PERFBENCH_SPANS")


class _JsonShim:
    """``json`` as ``repro.api.server`` sees it, with timed loads/dumps."""

    def __init__(self, module, recorder) -> None:
        self._module = module
        # Only calls inside a request span count: health probes and
        # stats polls also serialize JSON.
        self.loads = recorder.timed(module.loads, "api.parse", nested_only=True)
        self.dumps = recorder.timed(module.dumps, "api.dumps", nested_only=True)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _install(recorder) -> None:
    import repro.api.schemas as schemas
    import repro.api.server as server
    import repro.serving.service as service
    from repro.graph.batch import GraphBatch
    from repro.graph.radius import SkinNeighborList
    from repro.models.hydra import HydraModel
    from repro.serving.admission import AdmissionController
    from repro.serving.batcher import MicroBatcher, ServeRequest
    from repro.serving.cache import ResultCache
    from repro.serving.md import MDSession

    def queue_waits(_args, batch):
        now = time.monotonic()
        return [now - request.submitted_at for request in batch]

    wrap = recorder.wrap
    wrap(server._ApiRequestHandler, "do_POST", "api.post")
    server.json = _JsonShim(server.json, recorder)
    wrap(schemas.PredictRequest, "from_json_dict", "api.validate")
    wrap(schemas.MDRequest, "from_json_dict", "api.validate")
    wrap(schemas.PredictResponse, "to_json_dict", "api.to_json")
    wrap(schemas.MDFramePayload, "to_json_dict", "api.to_json")
    wrap(schemas.MDResponse, "to_json_dict", "api.to_json")
    wrap(server.ApiGateway, "predict", "gateway.predict")
    wrap(schemas, "build_edges", "graph.neighbor_search")
    wrap(service, "structure_hash", "serving.hash")
    wrap(service, "collate", "graph.collate")
    wrap(GraphBatch, "split_node_array", "graph.split")
    wrap(SkinNeighborList, "update", "graph.skin_update")
    wrap(ResultCache, "get", "serving.cache_get", extra=lambda _args, _result: 1)
    wrap(AdmissionController, "admit", "serving.admission")
    wrap(ServeRequest, "wait", "serving.wait")
    wrap(MicroBatcher, "next_batch", "serving.next_batch", extra=queue_waits)
    wrap(HydraModel, "serve", "model.forward", extra=lambda args, _result: args[1].num_nodes)
    wrap(MDSession, "step", "md.step")


def _write(recorder) -> None:
    path = os.path.join(_OUTPUT, f"spans-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(recorder.spans, handle)


if _OUTPUT:
    from spans import Recorder

    _recorder = Recorder()
    _install(_recorder)
    atexit.register(_write, _recorder)
