"""Wire-schema contract: bit-exact round trips, strict validation, goldens."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ApiError,
    ErrorPayload,
    MDFramePayload,
    MDRequest,
    MDResponse,
    OverloadedError,
    PredictionPayload,
    PredictRequest,
    PredictResponse,
    RelaxRequest,
    RelaxResponse,
    SchemaError,
    ServerInfo,
    StatsSnapshot,
    StructurePayload,
    UnavailableError,
    UnknownModelError,
    structures_from_json,
)
from tests.helpers import make_molecule_graphs, make_periodic_graphs

GOLDEN = Path(__file__).parent / "golden"


def wire_round_trip(payload_dict: dict) -> dict:
    """dict -> JSON text -> dict, exactly what HTTP does to a body."""
    return json.loads(json.dumps(payload_dict))


def make_triclinic_payload() -> StructurePayload:
    """A fully periodic structure with a deliberately skewed cell."""
    rng = np.random.default_rng(7)
    return StructurePayload(
        atomic_numbers=np.array([22, 8, 8, 8]),
        positions=rng.uniform(0.0, 3.0, size=(4, 3)),
        cell=np.array(
            [
                [3.9051234567890123, 0.0, 0.0],
                [1.2716049382716049, 3.7103456789012345, 0.0],
                [0.8271604938271605, 1.0123456789012345, 3.6051234567890122],
            ]
        ),
        pbc=(True, True, True),
    )


class TestStructureRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_molecule_graph_payload_json_bit_exact(self, seed):
        graph = make_molecule_graphs(1, seed=seed)[0]
        payload = StructurePayload.from_graph(graph)
        recovered = StructurePayload.from_json_dict(wire_round_trip(payload.to_json_dict()))
        # Bit-exact: float64 survives JSON because dumps uses repr.
        assert np.array_equal(recovered.positions, graph.positions)
        assert np.array_equal(recovered.atomic_numbers, graph.atomic_numbers)
        assert recovered.cell is None
        assert recovered.pbc == (False, False, False)

    def test_periodic_graph_payload_json_bit_exact(self):
        graph = make_periodic_graphs(1, seed=1)[0]
        payload = StructurePayload.from_graph(graph)
        recovered = StructurePayload.from_json_dict(wire_round_trip(payload.to_json_dict()))
        assert np.array_equal(recovered.positions, graph.positions)
        assert np.array_equal(recovered.cell, np.asarray(graph.cell, dtype=np.float64))
        assert recovered.pbc == tuple(graph.pbc)

    def test_triclinic_cell_bit_exact_and_graph_rebuild(self):
        payload = make_triclinic_payload()
        recovered = StructurePayload.from_json_dict(wire_round_trip(payload.to_json_dict()))
        assert np.array_equal(recovered.cell, payload.cell)
        assert np.array_equal(recovered.positions, payload.positions)
        # Same bytes in -> same derived graph out, periodic images included.
        original = payload.to_graph(cutoff=4.0)
        rebuilt = recovered.to_graph(cutoff=4.0)
        assert np.array_equal(original.edge_index, rebuilt.edge_index)
        assert np.array_equal(original.edge_shift, rebuilt.edge_shift)
        assert original.n_edges > 0  # the cutoff genuinely crosses the cell

    def test_float32_coordinates_survive_exactly(self):
        """float32-origin coordinates are exactly representable in float64/JSON."""
        coords32 = np.random.default_rng(5).uniform(-3, 3, size=(6, 3)).astype(np.float32)
        payload = StructurePayload(
            atomic_numbers=np.array([6] * 6), positions=coords32.astype(np.float64)
        )
        recovered = StructurePayload.from_json_dict(wire_round_trip(payload.to_json_dict()))
        assert np.array_equal(recovered.positions.astype(np.float32), coords32)

    def test_to_graph_matches_source_pipeline_connectivity(self):
        """Rebuilding from the wire reproduces the radius-graph edges."""
        graph = make_molecule_graphs(1, seed=2)[0]
        rebuilt = StructurePayload.from_graph(graph).to_graph(cutoff=5.0)
        assert np.array_equal(rebuilt.edge_index, graph.edge_index)


class TestStructureValidation:
    def valid(self) -> dict:
        return {
            "atomic_numbers": [1, 8],
            "positions": [[0.0, 0.0, 0.0], [0.96, 0.0, 0.0]],
        }

    def test_unknown_key_rejected(self):
        obj = self.valid()
        obj["velocity"] = [[0, 0, 0]]
        with pytest.raises(SchemaError, match="unknown key"):
            StructurePayload.from_json_dict(obj)

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError, match="missing required"):
            StructurePayload.from_json_dict({"positions": [[0.0, 0.0, 0.0]]})

    def test_row_count_mismatch_rejected(self):
        obj = self.valid()
        obj["positions"] = [[0.0, 0.0, 0.0]]
        with pytest.raises(SchemaError, match="expected 2 rows"):
            StructurePayload.from_json_dict(obj)

    def test_short_row_rejected(self):
        obj = self.valid()
        obj["positions"][1] = [0.96, 0.0]
        with pytest.raises(SchemaError, match="3 components"):
            StructurePayload.from_json_dict(obj)

    def test_non_finite_coordinates_rejected(self):
        obj = self.valid()
        obj["positions"][0][0] = math.inf
        with pytest.raises(SchemaError, match="non-finite"):
            StructurePayload.from_json_dict(obj)

    def test_non_numeric_coordinate_rejected(self):
        obj = self.valid()
        obj["positions"][0][0] = "zero"
        with pytest.raises(SchemaError, match="non-numeric"):
            StructurePayload.from_json_dict(obj)

    def test_bool_is_not_an_atomic_number(self):
        obj = self.valid()
        obj["atomic_numbers"] = [True, 8]
        with pytest.raises(SchemaError, match="atomic_numbers"):
            StructurePayload.from_json_dict(obj)

    def test_element_number_range_enforced(self):
        obj = self.valid()
        obj["atomic_numbers"] = [1, 200]
        with pytest.raises(SchemaError, match=r"\[1, 118\]"):
            StructurePayload.from_json_dict(obj)

    def test_pbc_without_cell_rejected(self):
        obj = self.valid()
        obj["pbc"] = [True, True, True]
        with pytest.raises(SchemaError, match="no cell"):
            StructurePayload.from_json_dict(obj)

    def test_huge_int_coordinate_rejected(self):
        """A JSON int past float64 range is a 400, not an OverflowError."""
        obj = self.valid()
        obj["positions"][1][2] = 10**400
        with pytest.raises(SchemaError, match=r"positions\[1\]"):
            StructurePayload.from_json_dict(obj)

    def test_bad_cell_shape_rejected(self):
        obj = self.valid()
        obj["cell"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(SchemaError, match="cell"):
            StructurePayload.from_json_dict(obj)


class TestPredictRequest:
    def test_round_trip_with_model(self):
        graphs = make_molecule_graphs(2, seed=0)
        request = PredictRequest.from_graphs(graphs, model="prod")
        recovered = PredictRequest.from_json_dict(wire_round_trip(request.to_json_dict()))
        assert recovered.model == "prod"
        assert len(recovered.structures) == 2
        for graph, structure in zip(graphs, recovered.structures):
            assert np.array_equal(structure.positions, graph.positions)

    def test_version_is_mandatory_and_checked(self):
        request = PredictRequest.from_graphs(make_molecule_graphs(1, seed=0))
        obj = request.to_json_dict()
        obj["schema_version"] = "v0"
        with pytest.raises(SchemaError, match="unsupported schema_version"):
            PredictRequest.from_json_dict(obj)
        del obj["schema_version"]
        with pytest.raises(SchemaError, match="missing required"):
            PredictRequest.from_json_dict(obj)

    def test_empty_structures_rejected(self):
        with pytest.raises(SchemaError, match="non-empty"):
            PredictRequest.from_json_dict({"schema_version": "v1", "structures": []})

    def test_oversized_request_rejected(self):
        structure = {"atomic_numbers": [1], "positions": [[0.0, 0.0, 0.0]]}
        obj = {"schema_version": "v1", "structures": [structure] * 2000}
        with pytest.raises(SchemaError, match="at most"):
            PredictRequest.from_json_dict(obj)

    def test_non_string_model_rejected(self):
        structure = {"atomic_numbers": [1], "positions": [[0.0, 0.0, 0.0]]}
        obj = {"schema_version": "v1", "structures": [structure], "model": 7}
        with pytest.raises(SchemaError, match="model"):
            PredictRequest.from_json_dict(obj)

    def test_identity_fields_round_trip(self):
        request = PredictRequest.from_graphs(make_molecule_graphs(1, seed=0))
        request.client_id = "tenant-42"
        request.priority = "bulk"
        recovered = PredictRequest.from_json_dict(wire_round_trip(request.to_json_dict()))
        assert recovered.client_id == "tenant-42"
        assert recovered.priority == "bulk"

    def test_identity_fields_absent_when_unset(self):
        """Additive contract: an anonymous request emits exactly the old keys."""
        obj = PredictRequest.from_graphs(make_molecule_graphs(1, seed=0)).to_json_dict()
        assert "client_id" not in obj
        assert "priority" not in obj

    def test_bad_priority_rejected(self):
        structure = {"atomic_numbers": [1], "positions": [[0.0, 0.0, 0.0]]}
        obj = {"schema_version": "v1", "structures": [structure], "priority": "express"}
        with pytest.raises(SchemaError, match="priority"):
            PredictRequest.from_json_dict(obj)

    def test_bad_client_id_rejected(self):
        structure = {"atomic_numbers": [1], "positions": [[0.0, 0.0, 0.0]]}
        for bad in ("", 7, "x" * 129):
            obj = {"schema_version": "v1", "structures": [structure], "client_id": bad}
            with pytest.raises(SchemaError, match="client_id"):
                PredictRequest.from_json_dict(obj)


class TestPredictResponse:
    def payload(self) -> PredictionPayload:
        return PredictionPayload(
            key="k" * 64,
            energy=-3.25,
            forces=np.array([[0.1, -0.2, 0.3], [0.0, 0.5, -0.25]]),
            n_atoms=2,
            cached=False,
            batch_graphs=3,
            physical_units=True,
            latency_s=0.002,
        )

    def test_round_trip_bit_exact(self):
        response = PredictResponse(model="prod", results=[self.payload()])
        recovered = PredictResponse.from_json_dict(wire_round_trip(response.to_json_dict()))
        assert recovered.model == "prod"
        (result,) = recovered.results
        assert result.energy == -3.25
        assert np.array_equal(result.forces, self.payload().forces)
        assert result.batch_graphs == 3 and result.physical_units

    def test_to_results_rebuilds_prediction_result(self):
        (result,) = PredictResponse(model="m", results=[self.payload()]).to_results()
        assert result.energy == -3.25
        assert result.n_atoms == 2
        assert result.cached is False
        assert result.forces.shape == (2, 3)

    @pytest.mark.parametrize("bad", ["x", [1], True, None])
    def test_bad_latency_rejected(self, bad):
        obj = self.payload().to_json_dict()
        obj["latency_s"] = bad
        with pytest.raises(SchemaError, match=r"result\.latency_s"):
            PredictionPayload.from_json_dict(obj)

    def test_absent_latency_defaults_to_zero(self):
        obj = self.payload().to_json_dict()
        del obj["latency_s"]
        assert PredictionPayload.from_json_dict(obj).latency_s == 0.0

    def test_huge_int_energy_rejected(self):
        """A JSON int past float64 range is a 400, not an OverflowError."""
        obj = self.payload().to_json_dict()
        obj["energy"] = 10**400
        with pytest.raises(SchemaError, match=r"result\.energy"):
            PredictionPayload.from_json_dict(obj)

    def test_forces_shape_checked_against_n_atoms(self):
        obj = PredictResponse(model="m", results=[self.payload()]).to_json_dict()
        obj["results"][0]["n_atoms"] = 5
        with pytest.raises(SchemaError, match="expected 5 rows"):
            PredictResponse.from_json_dict(obj)


class TestErrorPayload:
    def test_round_trip_rebuilds_typed_error(self):
        payload = ErrorPayload.from_error(OverloadedError("queue full"))
        recovered = ErrorPayload.from_json_dict(wire_round_trip(payload.to_json_dict()))
        error = recovered.to_error()
        assert isinstance(error, OverloadedError)
        assert error.http_status == 429
        assert "queue full" in str(error)

    def test_unknown_code_degrades_to_base_api_error(self):
        payload = ErrorPayload(code="from_the_future", message="?", status=500)
        error = payload.to_error()
        assert type(error) is ApiError

    def test_status_codes(self):
        assert SchemaError("x").http_status == 400
        assert UnknownModelError("x").http_status == 404
        assert OverloadedError("x").http_status == 429
        assert UnavailableError("x").http_status == 503

    def test_unavailable_round_trip(self):
        """The draining router's 503 rebuilds to the typed error."""
        payload = ErrorPayload.from_error(UnavailableError("draining"))
        recovered = ErrorPayload.from_json_dict(wire_round_trip(payload.to_json_dict()))
        error = recovered.to_error()
        assert isinstance(error, UnavailableError)
        assert error.http_status == 503

    def test_retry_after_round_trips_onto_rebuilt_error(self):
        source = OverloadedError("rate quota")
        source.retry_after_s = 2.5
        payload = ErrorPayload.from_error(source)
        recovered = ErrorPayload.from_json_dict(wire_round_trip(payload.to_json_dict()))
        assert recovered.retry_after_s == 2.5
        assert recovered.to_error().retry_after_s == 2.5

    def test_retry_after_absent_when_error_has_no_hint(self):
        """Additive contract: hint-free errors emit exactly the old keys."""
        obj = ErrorPayload.from_error(OverloadedError("queue full")).to_json_dict()
        assert "retry_after_s" not in obj["error"]
        assert ErrorPayload.from_json_dict(obj).to_error().retry_after_s is None

    def test_bad_retry_after_rejected(self):
        base = ErrorPayload.from_error(OverloadedError("x")).to_json_dict()
        for bad in ("soon", -1.0, float("inf"), True):
            obj = json.loads(json.dumps(base))
            obj["error"]["retry_after_s"] = bad
            with pytest.raises(SchemaError, match="retry_after_s"):
                ErrorPayload.from_json_dict(obj)


class TestServerInfoAndStats:
    def test_server_info_round_trip(self):
        info = ServerInfo(models=[{"name": "a", "loaded": True}], default_model="a")
        recovered = ServerInfo.from_json_dict(wire_round_trip(info.to_json_dict()))
        assert recovered.default_model == "a"
        assert recovered.models[0]["name"] == "a"
        assert "POST /v1/predict" in recovered.endpoints

    @pytest.mark.parametrize("bad", [5, "abc", None, ["GET /v1/models", 7]])
    def test_bad_endpoints_rejected(self, bad):
        obj = ServerInfo(models=[]).to_json_dict()
        obj["endpoints"] = bad
        with pytest.raises(SchemaError, match=r"info\.endpoints"):
            ServerInfo.from_json_dict(obj)

    def test_stats_round_trip(self):
        snapshot = StatsSnapshot(models={"a": {"serving": {"requests": 4}}})
        recovered = StatsSnapshot.from_json_dict(wire_round_trip(snapshot.to_json_dict()))
        assert recovered.models["a"]["serving"]["requests"] == 4

    def test_stats_identity_fields_round_trip(self):
        """uptime_s/pid/replicas/router are additive top-level fields."""
        snapshot = StatsSnapshot(
            models={"a": {}},
            uptime_s=3.25,
            pid=1234,
            replicas={"0": {"healthy": True, "replica_pid": 77}},
            router={"requests": 9, "admitting": True},
        )
        recovered = StatsSnapshot.from_json_dict(wire_round_trip(snapshot.to_json_dict()))
        assert recovered.uptime_s == 3.25
        assert recovered.pid == 1234
        assert recovered.replicas["0"]["replica_pid"] == 77
        assert recovered.router["admitting"] is True

    def test_stats_identity_fields_are_optional(self):
        """Snapshots from pre-uptime servers must keep parsing (additive)."""
        recovered = StatsSnapshot.from_json_dict({"schema_version": "v1", "models": {}})
        assert recovered.uptime_s is None
        assert recovered.pid is None
        assert recovered.replicas is None
        assert recovered.router is None
        assert "uptime_s" not in recovered.to_json_dict()

    def test_stats_identity_fields_are_validated(self):
        base = {"schema_version": "v1", "models": {}}
        with pytest.raises(SchemaError, match="uptime_s"):
            StatsSnapshot.from_json_dict({**base, "uptime_s": "soon"})
        with pytest.raises(SchemaError, match="pid"):
            StatsSnapshot.from_json_dict({**base, "pid": 1.5})
        with pytest.raises(SchemaError, match="replicas"):
            StatsSnapshot.from_json_dict({**base, "replicas": [1]})
        with pytest.raises(SchemaError, match="router"):
            StatsSnapshot.from_json_dict({**base, "router": "busy"})


class TestGoldenFiles:
    """The committed fixtures pin the wire encoding itself.

    parse -> re-emit must reproduce the golden file *byte for byte* —
    key order and int-vs-float included, which dict equality misses
    (``1 == 1.0``).  If one of these breaks, the change is a wire-format
    break and needs a schema_version bump, not a fixture update.
    """

    @pytest.mark.parametrize(
        "name, schema",
        [
            ("predict_request.json", PredictRequest),
            ("predict_request_identity.json", PredictRequest),
            ("predict_response.json", PredictResponse),
            ("error_overloaded.json", ErrorPayload),
            ("error_retry_after.json", ErrorPayload),
            ("server_info.json", ServerInfo),
            ("stats_snapshot.json", StatsSnapshot),
            ("predict_request_edges.json", PredictRequest),
            ("relax_request.json", RelaxRequest),
            ("relax_response.json", RelaxResponse),
            ("md_request.json", MDRequest),
            ("md_frame.json", MDFramePayload),
            ("md_summary.json", MDResponse),
        ],
    )
    def test_parse_reemit_identity(self, name, schema):
        text = (GOLDEN / name).read_text()
        re_emitted = schema.from_json_dict(json.loads(text)).to_json_dict()
        assert json.dumps(re_emitted, indent=2) + "\n" == text

    def test_golden_stats_carry_plan_counters(self):
        """The plans section is additive: new counters, same schema v1."""
        golden = json.loads((GOLDEN / "stats_snapshot.json").read_text())
        snapshot = StatsSnapshot.from_json_dict(golden)
        plans = snapshot.models["default"]["plans"]
        assert plans["enabled"] is True
        assert {"plans_compiled", "plan_hits", "plan_misses"} <= plans.keys()

    def test_stats_without_plans_section_still_parse(self):
        """Snapshots from pre-plan servers must keep parsing (additive)."""
        golden = json.loads((GOLDEN / "stats_snapshot.json").read_text())
        del golden["models"]["default"]["plans"]
        snapshot = StatsSnapshot.from_json_dict(golden)
        assert "plans" not in snapshot.models["default"]

    def test_golden_request_structures_build_graphs(self):
        golden = json.loads((GOLDEN / "predict_request.json").read_text())
        request = PredictRequest.from_json_dict(golden)
        molecule, crystal = (s.to_graph(cutoff=4.0) for s in request.structures)
        assert molecule.cell is None and molecule.n_edges > 0
        assert crystal.pbc == (True, True, True) and crystal.n_edges > 0

    def test_golden_error_carries_429(self):
        golden = json.loads((GOLDEN / "error_overloaded.json").read_text())
        error = ErrorPayload.from_json_dict(golden).to_error()
        assert isinstance(error, OverloadedError)

    def test_golden_identity_request_carries_lane_and_client(self):
        """New fields are additive: the old request golden is untouched,
        the new one pins client_id/priority on the wire."""
        golden = json.loads((GOLDEN / "predict_request_identity.json").read_text())
        request = PredictRequest.from_json_dict(golden)
        assert request.client_id == "tenant-42"
        assert request.priority == "bulk"

    def test_golden_retry_after_error_rebuilds_hint(self):
        golden = json.loads((GOLDEN / "error_retry_after.json").read_text())
        error = ErrorPayload.from_json_dict(golden).to_error()
        assert isinstance(error, OverloadedError)
        assert error.retry_after_s == 2.5


class TestStructuresFromJson:
    def structure(self) -> dict:
        return {"atomic_numbers": [1], "positions": [[0.0, 0.0, 0.0]]}

    def test_accepts_request_list_and_single(self):
        single = structures_from_json(self.structure())
        listed = structures_from_json([self.structure(), self.structure()])
        request = structures_from_json(
            {"schema_version": "v1", "structures": [self.structure()]}
        )
        assert len(single) == 1 and len(listed) == 2 and len(request) == 1

    def test_rejects_junk(self):
        with pytest.raises(SchemaError):
            structures_from_json(42)
