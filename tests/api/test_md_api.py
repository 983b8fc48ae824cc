"""/v1/md: wire schemas, streamed frames, chunked resume, fleet stats."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import (
    ApiServer,
    Client,
    DeadlineExceededError,
    MDDivergedError,
    MDFramePayload,
    MDRequest,
    MDResponse,
    MDResultPayload,
    SchemaError,
    StructurePayload,
    TransportError,
    UnknownModelError,
)
from repro.api import server as server_module
from repro.models import HydraModel, ModelConfig
from repro.serving import ModelRegistry, ServiceConfig
from repro.serving.md import MAX_MD_STEPS, MDResult
from repro.serving.router import Router

CUTOFF = 4.0

#: One NVT recipe reused verbatim across transports and chunkings so
#: every comparison below is over the *same* seeded trajectory.
NVT_KNOBS = dict(
    n_steps=30,
    timestep_fs=0.5,
    thermostat="langevin",
    temperature_k=300.0,
    friction=0.05,
    seed=21,
    frame_interval=3,
)


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


def assert_frames_identical(lhs, rhs):
    assert [f.step for f in lhs] == [f.step for f in rhs]
    for a, b in zip(lhs, rhs):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert a.energy == b.energy
        assert a.kinetic_energy == b.kinetic_energy


class TestMDRequestSchema:
    def test_round_trips_with_velocities(self):
        velocities = np.random.default_rng(0).normal(size=(10, 3))
        request = MDRequest(
            structure=make_structure(),
            n_steps=50,
            thermostat="berendsen",
            temperature_k=500.0,
            step_offset=20,
            velocities=velocities,
        )
        rebuilt = MDRequest.from_json_dict(request.to_json_dict())
        assert rebuilt.n_steps == 50
        assert rebuilt.thermostat == "berendsen"
        assert rebuilt.step_offset == 20
        assert rebuilt.timestep_fs is None
        np.testing.assert_array_equal(rebuilt.velocities, velocities)
        np.testing.assert_array_equal(
            rebuilt.structure.positions, request.structure.positions
        )

    def test_rejects_unknown_keys(self):
        body = MDRequest(structure=make_structure()).to_json_dict()
        body["barostat"] = "parrinello"
        with pytest.raises(SchemaError, match="unknown key"):
            MDRequest.from_json_dict(body)

    @pytest.mark.parametrize("value", [0, MAX_MD_STEPS + 1, "ten", 1.5, True])
    def test_rejects_bad_n_steps(self, value):
        body = MDRequest(structure=make_structure()).to_json_dict()
        body["n_steps"] = value
        with pytest.raises(SchemaError):
            MDRequest.from_json_dict(body)

    @pytest.mark.parametrize("field", ["timestep_fs", "friction", "tau_fs", "skin"])
    @pytest.mark.parametrize("value", [0.0, -1.0, "big", True])
    def test_rejects_bad_floats(self, field, value):
        body = MDRequest(structure=make_structure()).to_json_dict()
        body[field] = value
        with pytest.raises(SchemaError):
            MDRequest.from_json_dict(body)

    def test_rejects_unknown_thermostat_and_bad_temperature(self):
        body = MDRequest(structure=make_structure()).to_json_dict()
        body["thermostat"] = "nose-hoover"
        with pytest.raises(SchemaError, match="thermostat"):
            MDRequest.from_json_dict(body)
        body = MDRequest(structure=make_structure()).to_json_dict()
        body["temperature_k"] = -10.0
        with pytest.raises(SchemaError):
            MDRequest.from_json_dict(body)

    def test_rejects_velocity_shape_mismatch(self):
        body = MDRequest(
            structure=make_structure(n=10), velocities=np.zeros((10, 3))
        ).to_json_dict()
        body["velocities"] = [[0.0, 0.0, 0.0]] * 4
        with pytest.raises(SchemaError, match="velocities"):
            MDRequest.from_json_dict(body)

    def test_rejects_negative_step_offset(self):
        body = MDRequest(structure=make_structure()).to_json_dict()
        body["step_offset"] = -1
        with pytest.raises(SchemaError):
            MDRequest.from_json_dict(body)


class TestMDStreamPayloads:
    def test_frame_payload_round_trips_bit_exactly(self):
        rng = np.random.default_rng(1)
        payload = MDFramePayload(
            step=17,
            energy=-3.25,
            kinetic_energy=0.125,
            temperature_k=271.5,
            positions=rng.uniform(size=(6, 3)),
            velocities=rng.normal(size=(6, 3)),
        )
        rebuilt = MDFramePayload.from_json_dict(json.loads(json.dumps(payload.to_json_dict())))
        assert rebuilt.step == 17
        np.testing.assert_array_equal(rebuilt.positions, payload.positions)
        np.testing.assert_array_equal(rebuilt.velocities, payload.velocities)
        frame = rebuilt.to_frame()
        assert frame.energy == payload.energy
        assert frame.kinetic_energy == payload.kinetic_energy

    def test_result_payload_round_trips(self):
        result = MDResult(
            steps=40,
            first_step=10,
            final_step=50,
            frames=5,
            energy=-1.0,
            kinetic_energy=0.5,
            temperature_k=310.0,
            thermostat="langevin",
            n_atoms=12,
            physical_units=True,
            neighbor_rebuilds=4,
            neighbor_reuses=36,
        )
        response = MDResponse.from_result("tiny", result)
        rebuilt = MDResponse.from_json_dict(json.loads(json.dumps(response.to_json_dict())))
        assert rebuilt.model == "tiny"
        assert rebuilt.to_result() == result

    def test_result_payload_rejects_missing_fields(self):
        with pytest.raises(SchemaError):
            MDResultPayload.from_json_dict({"steps": 1}, where="test")


class TestMDEndpoint:
    def test_http_matches_local_bit_for_bit(self, server):
        structure = make_structure(seed=5)
        http_run = Client.http(server.url).md(structure, **NVT_KNOBS)
        http_frames = http_run.frames()
        with Client.local(make_registry(), cutoff=CUTOFF) as local:
            local_run = local.md(structure, **NVT_KNOBS)
            local_frames = local_run.frames()
        assert_frames_identical(local_frames, http_frames)
        assert http_run.result.steps == local_run.result.steps == 30
        assert http_run.result.thermostat == "langevin"

    def test_numpy_scalar_knobs_agree_over_both_transports(self, server):
        """numpy-scalar knobs: HTTP encodes them by kind, and the local run
        uses the same coerced values, so both stay bit-identical."""
        knobs = dict(
            NVT_KNOBS,
            n_steps=np.int64(6),
            timestep_fs=np.float32(0.4),
            temperature_k=np.float64(300.0),
            seed=np.int64(21),
            frame_interval=np.int64(2),
        )
        structure = make_structure(seed=5)
        http_frames = Client.http(server.url).md(structure, **knobs).frames()
        with Client.local(make_registry(), cutoff=CUTOFF) as local:
            local_frames = local.md(structure, **knobs).frames()
        assert [frame.step for frame in http_frames] == [0, 2, 4, 6]
        assert_frames_identical(local_frames, http_frames)

    def test_knobs_encode_by_kind(self):
        body = MDRequest(
            structure=make_structure(), n_steps=np.int64(2), friction=1, deadline_ms=100
        ).to_json_dict()
        assert type(body["n_steps"]) is int
        assert type(body["friction"]) is float and type(body["deadline_ms"]) is float

    def test_chunked_equals_unchunked(self, server):
        structure = make_structure(seed=6)
        client = Client.http(server.url)
        plain = client.md(structure, **NVT_KNOBS)
        plain_frames = plain.frames()
        chunked = client.md(structure, chunk_steps=7, **NVT_KNOBS)
        chunked_frames = chunked.frames()
        assert_frames_identical(plain_frames, chunked_frames)
        assert chunked.result.steps == plain.result.steps
        assert chunked.result.final_step == plain.result.final_step
        assert chunked.resumes == 0

    def test_frame_thinning_and_streamed_steps(self, server):
        frames = Client.http(server.url).md(
            make_structure(seed=7), n_steps=20, timestep_fs=0.5, frame_interval=6
        ).frames()
        assert [f.step for f in frames] == [0, 6, 12, 18, 20]

    def test_raw_ndjson_stream_shape(self, server):
        """The wire format itself: frame lines, then one summary line."""
        body = json.dumps(
            MDRequest(structure=make_structure(seed=8), n_steps=5).to_json_dict()
        ).encode()
        request = urllib.request.Request(
            server.url + "/v1/md",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in response.read().splitlines()]
        assert all("frame" in line for line in lines[:-1])
        assert "summary" in lines[-1]
        MDResponse.from_json_dict(lines[-1])

    def test_unknown_model_is_typed_404(self, server):
        with pytest.raises(UnknownModelError):
            Client.http(server.url).md(make_structure(), model="nope").frames()

    def test_pre_stream_validation_is_http_400(self, server):
        body = json.dumps(
            {
                "schema_version": "v1",
                "structure": make_structure().to_json_dict(),
                "thermostat": "langevin",  # temperature_k missing
            }
        ).encode()
        request = urllib.request.Request(
            server.url + "/v1/md",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_divergence_surfaces_as_typed_error(self, server):
        # An absurd timestep blows the first step past the coordinate
        # bound; by then the stream is already open, so the verdict
        # arrives as a mid-stream ``error`` line the client re-raises.
        with pytest.raises(MDDivergedError):
            Client.http(server.url).md(
                make_structure(seed=9),
                n_steps=10,
                timestep_fs=1e8,
                thermostat="langevin",
                temperature_k=300.0,
            ).frames()

    def test_expired_deadline_is_typed_mid_stream(self, server):
        with pytest.raises(DeadlineExceededError):
            Client.http(server.url).md(
                make_structure(seed=10), n_steps=100, deadline_ms=0.001
            ).frames()

    def test_md_endpoint_advertised(self, server):
        info = Client.http(server.url).server_info()
        assert "POST /v1/md" in info.endpoints

    def test_stats_carry_md_section(self, server):
        client = Client.http(server.url)
        client.md(make_structure(seed=11), n_steps=15, timestep_fs=0.5).frames()
        md = client.stats().models["tiny"]["md"]
        assert md["sessions"] >= 1
        assert md["steps"] >= 15
        assert md["steps_per_s"] > 0
        assert md["neighbor_reuse_rate"] > 0
        assert md["thermostats"].get("none", 0) >= 1


class _TruncatingTransport:
    """Delegate that kills the first md stream after a few frames."""

    def __init__(self, inner, fail_after_frames):
        self._inner = inner
        self._fail_after = fail_after_frames
        self.failed = False

    def md(self, request):
        events = self._inner.md(request)
        if self.failed:
            yield from events
            return
        self.failed = True
        seen = 0
        for event in events:
            yield event
            if event[0] == "frame":
                seen += 1
                if seen >= self._fail_after:
                    raise TransportError("injected: replica died mid-stream")


class TestChunkedResume:
    def test_mid_stream_death_resumes_from_last_frame(self, server):
        structure = make_structure(seed=12)
        client = Client.http(server.url)
        baseline = client.md(structure, **NVT_KNOBS).frames()

        run = client.md(structure, chunk_steps=30, **NVT_KNOBS)
        run._transport = _TruncatingTransport(run._transport, fail_after_frames=4)
        frames = run.frames()
        assert run.resumes == 1
        assert_frames_identical(baseline, frames)
        assert run.result.steps == 30

    def test_unchunked_runs_do_not_resume(self, server):
        run = Client.http(server.url).md(make_structure(seed=12), **NVT_KNOBS)
        run._transport = _TruncatingTransport(run._transport, fail_after_frames=2)
        with pytest.raises(TransportError):
            run.frames()

    def test_survives_replica_restart_between_chunks(self):
        """Kill the serving process after chunk one; a replacement on the
        same port finishes the run and the trajectory is unchanged."""
        structure = make_structure(seed=13)
        with Client.local(make_registry(), cutoff=CUTOFF) as local:
            baseline = local.md(structure, **NVT_KNOBS).frames()

        first = ApiServer(make_registry(), port=0, workers=1, cutoff=CUTOFF)
        first.start()
        port = first.bound_port
        client = Client.http(first.url)
        run = client.md(structure, chunk_steps=10, **NVT_KNOBS)
        frames = []
        iterator = iter(run)
        try:
            while len(frames) < 4:  # steps 0,3,6,9 — within chunk one
                frames.append(next(iterator))
        finally:
            first.close()

        with ApiServer(make_registry(), port=port, workers=1, cutoff=CUTOFF):
            frames.extend(iterator)
        assert_frames_identical(baseline, frames)
        assert run.result.steps == 30


@pytest.fixture()
def routed(server):
    """A real router with the module's server as its only replica."""
    router = Router().start()
    router.set_replica(0, server.bound_port, pid=1)
    yield router
    router.close()


class TestThroughRouter:
    """md streamed through ``repro serve --replicas``' router is unchanged."""

    def test_routed_matches_local_bit_for_bit(self, routed):
        structure = make_structure(seed=14)
        run = Client.http(routed.url).md(structure, **NVT_KNOBS)
        routed_frames = run.frames()
        with Client.local(make_registry(), cutoff=CUTOFF) as local:
            local_run = local.md(structure, **NVT_KNOBS)
            local_frames = local_run.frames()
        assert_frames_identical(local_frames, routed_frames)
        assert run.result == local_run.result
        assert routed.total_in_flight() == 0

    def test_deadline_verdict_passes_through(self, routed):
        """A budget that runs out mid-stream still ends in the replica's
        typed ``deadline_exceeded`` line, not a router-side cut."""
        with pytest.raises(DeadlineExceededError):
            Client.http(routed.url).md(
                make_structure(seed=16), n_steps=MAX_MD_STEPS, deadline_ms=50.0
            ).frames()
        assert routed.wait_idle(timeout_s=10.0)

    def test_stream_cut_mid_segment_resumes_identically(self, routed, monkeypatch):
        """The replica's first stream ends after four frame lines, the
        way a replica killed mid-run ends it; the router passes the
        truncation on and the chunked run resumes from its last frame."""
        structure = make_structure(seed=15)
        with Client.local(make_registry(), cutoff=CUTOFF) as local:
            baseline = local.md(structure, **NVT_KNOBS).frames()

        stream_md = server_module._ApiRequestHandler._stream_md
        cuts = []

        def cut_first_stream(handler, model, events):
            if cuts:
                return stream_md(handler, model, events)
            cuts.append(model)

            def four_frames():
                try:
                    for count, event in enumerate(events):
                        if count == 4:
                            return
                        yield event
                finally:
                    events.close()

            return stream_md(handler, model, four_frames())

        monkeypatch.setattr(server_module._ApiRequestHandler, "_stream_md", cut_first_stream)
        run = Client.http(routed.url).md(structure, chunk_steps=20, **NVT_KNOBS)
        frames = run.frames()
        assert cuts and run.resumes == 1
        assert_frames_identical(baseline, frames)
        assert run.result.steps == 30
        assert routed.total_in_flight() == 0
