"""/v1/relax, schema v2 precomputed edges, and client trajectory sessions."""

import json
import urllib.request

import numpy as np
import pytest

from repro.api import (
    ApiServer,
    Client,
    RelaxRequest,
    RelaxResponse,
    RelaxationPayload,
    SchemaError,
    StructurePayload,
)
from repro.graph import build_edges, canonicalize_edges
from repro.models import HydraModel, ModelConfig
from repro.serving import ModelRegistry, ServiceConfig
from repro.serving.relax import MAX_RELAX_STEPS

CUTOFF = 4.0


def make_registry(**models) -> ModelRegistry:
    registry = ModelRegistry()
    for name, seed in (models or {"tiny": 0}).items():
        registry.register_model(
            name, HydraModel(ModelConfig(hidden_dim=8, num_layers=2), seed=seed)
        )
    return registry


def make_structure(n=10, seed=0) -> StructurePayload:
    rng = np.random.default_rng(seed)
    return StructurePayload(
        atomic_numbers=rng.integers(1, 9, size=n),
        positions=rng.uniform(0.0, 4.5, size=(n, 3)),
    )


@pytest.fixture(scope="module")
def server():
    with ApiServer(
        make_registry(),
        port=0,
        workers=1,
        cutoff=CUTOFF,
        config=ServiceConfig(plan=True),
    ) as api_server:
        yield api_server


def post_json(url: str, payload: dict):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestRelaxRequestSchema:
    def test_round_trips(self):
        request = RelaxRequest(structure=make_structure(), max_steps=40, fmax=0.1)
        rebuilt = RelaxRequest.from_json_dict(request.to_json_dict())
        assert rebuilt.max_steps == 40
        assert rebuilt.fmax == 0.1
        assert rebuilt.skin is None
        np.testing.assert_array_equal(
            rebuilt.structure.positions, request.structure.positions
        )

    def test_rejects_unknown_keys(self):
        body = RelaxRequest(structure=make_structure()).to_json_dict()
        body["surprise"] = 1
        with pytest.raises(SchemaError, match="unknown key"):
            RelaxRequest.from_json_dict(body)

    @pytest.mark.parametrize("value", [0, MAX_RELAX_STEPS + 1, "ten", 1.5, True])
    def test_rejects_bad_max_steps(self, value):
        body = RelaxRequest(structure=make_structure()).to_json_dict()
        body["max_steps"] = value
        with pytest.raises(SchemaError):
            RelaxRequest.from_json_dict(body)

    @pytest.mark.parametrize("field", ["fmax", "max_step", "skin"])
    @pytest.mark.parametrize("value", [0.0, -1.0, "big", True])
    def test_rejects_bad_floats(self, field, value):
        body = RelaxRequest(structure=make_structure()).to_json_dict()
        body[field] = value
        with pytest.raises(SchemaError):
            RelaxRequest.from_json_dict(body)

    def test_settings_cap_local_callers_too(self):
        """LocalTransport skips wire parsing; the gateway still 400s."""
        request = RelaxRequest(structure=make_structure(), max_steps=MAX_RELAX_STEPS + 1)
        with Client.local(make_registry()) as client:
            with pytest.raises(SchemaError):
                client.transport.relax(request)


class TestSchemaV2Edges:
    def test_v2_round_trips_edges_bit_exactly(self):
        structure = make_structure(seed=1)
        edge_index, edge_shift = canonicalize_edges(
            *build_edges(structure.positions, CUTOFF)
        )
        payload = StructurePayload(
            atomic_numbers=structure.atomic_numbers,
            positions=structure.positions,
            edge_index=edge_index,
            edge_shift=edge_shift,
        )
        from repro.api import PredictRequest

        body = PredictRequest(structures=[payload]).to_json_dict()
        assert body["schema_version"] == "v2"
        rebuilt = PredictRequest.from_json_dict(body).structures[0]
        np.testing.assert_array_equal(rebuilt.edge_index, edge_index)
        assert rebuilt.edge_shift.dtype == edge_shift.dtype
        np.testing.assert_array_equal(rebuilt.edge_shift, edge_shift)

    def test_edge_free_requests_stay_v1(self):
        from repro.api import PredictRequest

        body = PredictRequest(structures=[make_structure()]).to_json_dict()
        assert body["schema_version"] == "v1"

    def test_v1_with_edges_is_rejected(self):
        from repro.api import PredictRequest

        structure = make_structure(seed=2)
        entry = structure.to_json_dict()
        entry["edges"] = {"edge_index": [[0], [1]], "edge_shift": [[0.0, 0.0, 0.0]]}
        with pytest.raises(SchemaError, match="v2"):
            PredictRequest.from_json_dict(
                {"schema_version": "v1", "structures": [entry]}
            )

    def test_v2_edge_validation(self):
        from repro.api import PredictRequest

        structure = make_structure(seed=3, n=4)
        entry = structure.to_json_dict()
        entry["edges"] = {"edge_index": [[0], [9]], "edge_shift": [[0.0, 0.0, 0.0]]}
        with pytest.raises(SchemaError, match="out of range"):
            PredictRequest.from_json_dict(
                {"schema_version": "v2", "structures": [entry]}
            )
        entry["edges"] = {"edge_index": [[0], [1]], "edge_shift": [[1.0, 0.0, 0.0]]}
        with pytest.raises(SchemaError, match="non-periodic"):
            PredictRequest.from_json_dict(
                {"schema_version": "v2", "structures": [entry]}
            )

    def test_precomputed_edges_skip_server_search(self, server):
        """A v2 predict with client edges equals a v1 predict numerically."""
        structure = make_structure(seed=4)
        client = Client.http(server.url)
        plain = client.predict_one(structure)
        edge_index, edge_shift = build_edges(structure.positions, CUTOFF)
        with_edges = client.predict_one(
            StructurePayload(
                atomic_numbers=structure.atomic_numbers,
                positions=structure.positions,
                edge_index=edge_index,
                edge_shift=edge_shift,
            )
        )
        # Identical edge order -> identical batch -> identical floats.
        assert with_edges.energy == plain.energy
        np.testing.assert_array_equal(with_edges.forces, plain.forces)


class TestRelaxEndpoint:
    def test_http_relax_converges(self, server):
        request = RelaxRequest(structure=make_structure(seed=5), max_steps=80, fmax=0.05)
        status, body = post_json(server.url + "/v1/relax", request.to_json_dict())
        assert status == 200
        response = RelaxResponse.from_json_dict(body)
        assert response.model == "tiny"
        assert response.result.converged
        assert response.result.reason in ("fmax", "step")
        assert response.result.energy <= response.result.energy_initial

    def test_response_payload_round_trips(self, server):
        client = Client.http(server.url)
        result = client.relax(make_structure(seed=6), max_steps=40)
        payload = RelaxationPayload.from_result(result)
        rebuilt = RelaxationPayload.from_json_dict(payload.to_json_dict())
        np.testing.assert_array_equal(rebuilt.positions, result.positions)
        np.testing.assert_array_equal(rebuilt.forces, result.forces)
        assert rebuilt.energy == result.energy

    def test_local_and_http_agree(self, server):
        """The same relax over both transports lands on the same geometry."""
        structure = make_structure(seed=7)
        http_result = Client.http(server.url).relax(structure, max_steps=40)
        with Client.local(make_registry(), cutoff=CUTOFF) as local:
            local_result = local.relax(structure, max_steps=40)
        assert local_result.steps == http_result.steps
        assert local_result.reason == http_result.reason
        np.testing.assert_array_equal(local_result.positions, http_result.positions)
        assert local_result.energy == http_result.energy

    def test_numpy_scalar_knobs_agree_over_both_transports(self, server):
        """Knobs computed with numpy reach the server as the numbers they
        hold: the encoder coerces by kind, so HTTP neither fails on
        ``np.int64`` nor diverges from the in-process run."""
        knobs = dict(
            max_steps=np.int64(12),
            fmax=np.float32(0.05),
            max_step=np.float64(0.1),
            deadline_ms=np.int64(60_000),
        )
        structure = make_structure(seed=8)
        http_result = Client.http(server.url).relax(structure, **knobs)
        with Client.local(make_registry(), cutoff=CUTOFF) as local:
            local_result = local.relax(structure, **knobs)
        assert local_result.steps == http_result.steps
        assert local_result.fmax == http_result.fmax
        np.testing.assert_array_equal(local_result.positions, http_result.positions)

    def test_knobs_encode_by_kind(self):
        body = RelaxRequest(
            structure=make_structure(), max_steps=np.int64(3), fmax=1, deadline_ms=100
        ).to_json_dict()
        assert type(body["max_steps"]) is int
        assert type(body["fmax"]) is float and type(body["deadline_ms"]) is float

    def test_unknown_model_is_404(self, server):
        from repro.api import UnknownModelError

        client = Client.http(server.url)
        with pytest.raises(UnknownModelError):
            client.relax(make_structure(), model="nope")

    def test_malformed_body_is_400(self, server):
        import urllib.error

        body = json.dumps({"schema_version": "v1"}).encode()
        request = urllib.request.Request(
            server.url + "/v1/relax",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_relax_endpoint_advertised(self, server):
        info = Client.http(server.url).server_info()
        assert "POST /v1/relax" in info.endpoints

    def test_stats_carry_relax_section(self, server):
        client = Client.http(server.url)
        client.relax(make_structure(seed=8), max_steps=20)
        stats = client.stats()
        relax = stats.models["tiny"]["relax"]
        assert relax["sessions"] >= 1
        assert relax["steps"] >= 1
        assert relax["neighbor_rebuilds"] >= 1


class TestClientTrajectory:
    def test_trajectory_over_http_matches_local(self, server):
        structure = make_structure(seed=9)
        rng = np.random.default_rng(10)
        stream = [structure.positions]
        for _ in range(4):
            stream.append(stream[-1] + rng.normal(0.0, 0.004, size=stream[-1].shape))

        http_client = Client.http(server.url)
        http_traj = http_client.trajectory(
            structure.atomic_numbers, cutoff=CUTOFF, skin=0.4
        )
        http_results = [http_traj.step(p) for p in stream]
        assert http_traj.rebuilds == 1
        assert http_traj.reuses == len(stream) - 1

        with Client.local(make_registry()) as local_client:
            local_traj = local_client.trajectory(
                structure.atomic_numbers, cutoff=CUTOFF, skin=0.4
            )
            local_results = [local_traj.step(p) for p in stream]
        for http_result, local_result in zip(http_results, local_results):
            assert http_result.energy == local_result.energy
            np.testing.assert_array_equal(http_result.forces, local_result.forces)
