"""Hypothesis properties of the wire codec, over every wire class.

- **Round trip.** encode -> ``json.dumps`` -> ``json.loads`` -> decode
  is bit-exact for float64: ``-0.0``, subnormals, ``+-1e308`` and
  float32-origin values included.
- **Mutation fuzz.** A valid body with one key dropped, one key added,
  or one nested value swapped for another JSON type either decodes or
  raises :class:`SchemaError` — never any other exception, so a
  malformed body is always a 400 and never a stack trace.
"""

import copy
import json
import math
import struct
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import (
    PRIORITY_LANES,
    ErrorPayload,
    MDFramePayload,
    MDRequest,
    MDResponse,
    MDResultPayload,
    PredictionPayload,
    PredictRequest,
    PredictResponse,
    RelaxationPayload,
    RelaxRequest,
    RelaxResponse,
    SchemaError,
    ServerInfo,
    StatsSnapshot,
    StructurePayload,
)
from repro.api.schemas import MAX_DEADLINE_MS, RELAX_REASONS
from repro.serving.md import MD_THERMOSTATS

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308, 1.7976931348623157e308]

#: Finite float64 values, weighted toward the ones JSON could mangle.
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)
positive = floats.map(abs).filter(lambda x: x > 0)
non_negative = floats.map(abs)
counts = st.integers(0, 10**6)
names = st.text(max_size=8)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), names, floats)
json_objects = st.dictionaries(names, json_scalars, max_size=3)


def matrices(rows: int):
    return arrays(np.float64, (rows, 3), elements=floats)


def optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def structures(draw, with_edges=False):
    n = draw(st.integers(1, 4))
    cell = draw(optional(matrices(3)))
    flags = st.tuples(st.booleans(), st.booleans(), st.booleans())
    pbc = (False, False, False) if cell is None else draw(flags)
    payload = StructurePayload(
        atomic_numbers=np.asarray(draw(st.lists(st.integers(1, 118), min_size=n, max_size=n))),
        positions=draw(matrices(n)),
        cell=cell,
        pbc=pbc,
    )
    if with_edges and draw(st.booleans()):
        count = draw(st.integers(0, 5))
        payload.edge_index = draw(arrays(np.int64, (2, count), elements=st.integers(0, n - 1)))
        # Shifts travel as float32 (the graph dtype) and are zero unless periodic.
        shifts = st.floats(width=32, allow_nan=False, allow_infinity=False)
        payload.edge_shift = draw(
            arrays(np.float32, (count, 3), elements=shifts if any(pbc) else st.just(0.0))
        )
    return payload


@st.composite
def predictions(draw):
    n = draw(st.integers(1, 4))
    return PredictionPayload(
        key=draw(names),
        energy=draw(floats),
        forces=draw(matrices(n)),
        n_atoms=n,
        cached=draw(st.booleans()),
        batch_graphs=draw(st.integers()),
        physical_units=draw(st.booleans()),
        latency_s=draw(floats),
    )


@st.composite
def relaxations(draw):
    n = draw(st.integers(1, 4))
    return RelaxationPayload(
        converged=draw(st.booleans()),
        reason=draw(st.sampled_from(RELAX_REASONS)),
        steps=draw(counts),
        energy=draw(floats),
        energy_initial=draw(floats),
        fmax=draw(floats),
        positions=draw(matrices(n)),
        forces=draw(matrices(n)),
        n_atoms=n,
        physical_units=draw(st.booleans()),
        neighbor_rebuilds=draw(counts),
        neighbor_reuses=draw(counts),
    )


@st.composite
def md_requests(draw):
    structure = draw(structures())
    n = len(structure.atomic_numbers)
    return MDRequest(
        structure=structure,
        model=draw(optional(names)),
        n_steps=draw(optional(st.integers(1, 100))),
        timestep_fs=draw(optional(positive)),
        thermostat=draw(optional(st.sampled_from(MD_THERMOSTATS))),
        temperature_k=draw(optional(non_negative)),
        friction=draw(optional(positive)),
        tau_fs=draw(optional(positive)),
        seed=draw(optional(st.integers(0, 2**63 - 1))),
        frame_interval=draw(optional(st.integers(1, 100))),
        step_offset=draw(optional(counts)),
        velocities=draw(optional(matrices(n))),
        skin=draw(optional(positive)),
        deadline_ms=draw(optional(st.floats(1e-3, MAX_DEADLINE_MS))),
        client_id=draw(optional(st.text(min_size=1, max_size=16))),
        priority=draw(optional(st.sampled_from(PRIORITY_LANES))),
    )


md_results = st.builds(
    MDResultPayload,
    steps=counts,
    first_step=counts,
    final_step=counts,
    frames=counts,
    energy=floats,
    kinetic_energy=floats,
    temperature_k=floats,
    thermostat=st.sampled_from(MD_THERMOSTATS),
    n_atoms=st.integers(1, 10**6),
    physical_units=st.booleans(),
    neighbor_rebuilds=counts,
    neighbor_reuses=counts,
)


@st.composite
def md_frames(draw):
    n = draw(st.integers(1, 4))
    return MDFramePayload(
        step=draw(counts),
        energy=draw(floats),
        kinetic_energy=draw(floats),
        temperature_k=draw(floats),
        positions=draw(matrices(n)),
        velocities=draw(matrices(n)),
    )


#: One generator per wire class; nested payloads are decoded on their own too.
WIRE = {
    StructurePayload: structures(),
    PredictRequest: st.builds(
        PredictRequest,
        structures=st.lists(structures(with_edges=True), min_size=1, max_size=3),
        model=optional(names),
        deadline_ms=optional(st.floats(1e-3, MAX_DEADLINE_MS)),
        client_id=optional(st.text(min_size=1, max_size=16)),
        priority=optional(st.sampled_from(PRIORITY_LANES)),
    ),
    PredictionPayload: predictions(),
    PredictResponse: st.builds(
        PredictResponse, model=names, results=st.lists(predictions(), max_size=3)
    ),
    RelaxRequest: st.builds(
        RelaxRequest,
        structure=structures(with_edges=True),
        model=optional(names),
        max_steps=optional(st.integers(1, 1000)),
        fmax=optional(positive),
        max_step=optional(positive),
        skin=optional(positive),
        deadline_ms=optional(st.floats(1e-3, MAX_DEADLINE_MS)),
        client_id=optional(st.text(min_size=1, max_size=16)),
        priority=optional(st.sampled_from(PRIORITY_LANES)),
    ),
    RelaxationPayload: relaxations(),
    RelaxResponse: st.builds(RelaxResponse, model=names, result=relaxations()),
    MDRequest: md_requests(),
    MDFramePayload: md_frames(),
    MDResultPayload: md_results,
    MDResponse: st.builds(MDResponse, model=names, result=md_results),
    ErrorPayload: st.builds(
        ErrorPayload,
        code=names,
        message=st.text(max_size=40),
        status=st.integers(),
        retry_after_s=optional(non_negative),
    ),
    ServerInfo: st.builds(
        ServerInfo,
        models=st.lists(json_objects, max_size=3),
        default_model=optional(names),
        endpoints=st.lists(names, max_size=4).map(tuple),
    ),
    StatsSnapshot: st.builds(
        StatsSnapshot,
        models=st.dictionaries(names, json_objects, max_size=3),
        uptime_s=optional(floats),
        pid=optional(st.integers()),
        replicas=optional(st.dictionaries(names, json_objects, max_size=2)),
        router=optional(json_objects),
        watchdog=optional(json_objects),
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(WIRE), ids=lambda cls: cls.__name__)


def decode(cls, body):
    """Decode a body the way the server would accept it."""
    if cls is StructurePayload:
        return cls.from_json_dict(body, allow_edges=True)
    return cls.from_json_dict(body)


def assert_bit_equal(expected, actual, path="body"):
    """Field-by-field equality that tells ``-0.0`` from ``0.0``."""
    if is_dataclass(expected):
        assert type(actual) is type(expected), path
        for f in fields(expected):
            assert_bit_equal(getattr(expected, f.name), getattr(actual, f.name), f"{path}.{f.name}")
    elif isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray) and actual.shape == expected.shape, path
        if expected.dtype.kind == "f":
            bits = [array.astype(np.float64).view(np.uint64) for array in (expected, actual)]
            assert np.array_equal(*bits), path
        else:
            assert np.array_equal(expected, actual), path
    elif isinstance(expected, float):
        assert isinstance(actual, float), path
        assert struct.pack("<d", expected) == struct.pack("<d", actual), path
    elif isinstance(expected, (list, tuple)):
        assert type(actual) is type(expected) and len(actual) == len(expected), path
        for index, (lhs, rhs) in enumerate(zip(expected, actual)):
            assert_bit_equal(lhs, rhs, f"{path}[{index}]")
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), path
        for key in expected:
            assert_bit_equal(expected[key], actual[key], f"{path}.{key}")
    else:
        assert actual == expected and type(actual) is type(expected), path


@CLASSES
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_is_bit_exact(cls, data):
    payload = data.draw(WIRE[cls])
    wire = json.loads(json.dumps(payload.to_json_dict()))
    assert_bit_equal(payload, decode(cls, wire))


def _paths(node, path=()):
    """The path (keys and indices) of every value nested in a JSON body."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutants(text, extra):
    """Every one-edit variant of a JSON body: each value dropped or swapped
    for one of every JSON type (``extra`` among them), and an unknown key
    added to each object."""
    body = json.loads(text)
    objects = [()] + [path for path in _paths(body) if isinstance(_at(body, path), dict)]
    for path in objects:
        mutant = json.loads(text)
        _at(mutant, path)["unexpected"] = extra
        yield mutant
    for path in list(_paths(body)):
        for value in (DROP, *REPLACEMENTS, extra):
            mutant = json.loads(text)
            parent = _at(mutant, path[:-1])
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield mutant


def _at(body, path):
    for key in path:
        body = body[key]
    return body


DROP = object()
#: One value of every JSON type, plus the numbers that stress a decoder:
#: past float64 range, and NaN/inf as ``json.loads`` reads them.
REPLACEMENTS = [None, True, 0, -1, 10**400, 2.5, math.nan, -math.inf, "", "x", [], [[1]], {}]
other_json = st.one_of(json_scalars, st.lists(json_scalars, max_size=3), json_objects)


@CLASSES
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mutated_body_decodes_or_raises_schema_error(cls, data):
    text = json.dumps(data.draw(WIRE[cls]).to_json_dict())
    for mutant in _mutants(text, data.draw(other_json)):
        try:
            decode(cls, mutant)
        except SchemaError:
            pass
