"""Versioned wire schemas for the prediction API.

Everything that crosses a process boundary — a request body, a response
body, an error — is one of the dataclasses here, and every top-level
object carries ``schema_version`` (currently :data:`SCHEMA_VERSION`,
``"v1"``) so servers and clients can detect drift instead of
misinterpreting each other.  Two design rules:

- **Strict validation.** ``from_json_dict`` rejects unknown keys, wrong
  types, wrong shapes, and non-finite coordinates with a typed
  :class:`SchemaError` whose message names the offending field.  A
  malformed request must become a clean 400, never a stack trace deep in
  graph construction.
- **Bit-exact floats.** Coordinates, cells, energies, and forces are
  serialized as plain JSON numbers.  Python's ``json`` writes floats via
  ``repr``, which is the shortest string that round-trips the exact
  float64 value — so payload → JSON → payload is **bit-exact** for
  float64 (and therefore for float32), and a structure predicted over
  HTTP is numerically identical to the same structure predicted
  in-process.  The golden files under ``tests/api/golden/`` pin this
  encoding.

One codec serves every class.  Each wire field is declared once, with
:func:`_wire` and a *kind* (string, bounded int, finite number, float
matrix, nested payload, ...); the inherited ``to_json_dict`` /
``from_json_dict`` walk those declarations, and the only hand-written
rules are the ones that span fields (a ``pbc`` flag needs a ``cell``,
the ``v2`` edges block).  Keys are emitted in declaration order.  To add
a field **additively**, declare it ``optional=True``: a body without
the key (or with ``null``) decodes to the default, and an unset value is
left off the wire, so bodies that never use the field keep exactly
their old bytes.  There is no ``schema_version`` bump; a new golden
pins the new key.

In schema ``v1`` a :class:`StructurePayload` does *not* carry edges:
connectivity is derived (radius cutoff + periodic images), so the wire
format ships only the physical inputs — positions, atomic numbers, cell,
pbc — and both the server and the local transport rebuild edges with the
same :func:`~repro.graph.radius.build_edges` call.  Clients on other
stacks therefore cannot disagree with the server about neighbor lists.
Schema ``v2`` is ``v1`` plus one optional ``edges`` block per structure
for *trusted* clients — a trajectory session keeping a
:class:`~repro.graph.radius.SkinNeighborList` hot client-side ships its
incrementally-maintained edges and the server skips neighbor search
entirely.  ``v2`` is additive: every ``v1`` body is a valid ``v2`` body,
responses stay ``v1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

import numpy as np

from repro.api.errors import (  # re-exported: the schemas' failure half
    ERROR_TYPES,
    ApiError,
    DeadlineExceededError,
    MDDivergedError,
    NotFound,
    OverloadedError,
    RequestTimeout,
    SchemaError,
    TransportError,
    UnavailableError,
    UnknownModelError,
)
from repro.graph.atoms import AtomGraph
from repro.graph.radius import build_edges
from repro.serving.md import (
    MAX_MD_STEP_OFFSET,
    MAX_MD_STEPS,
    MD_THERMOSTATS,
    MDFrame,
    MDResult,
    MDSettings,
)
from repro.serving.batcher import DEFAULT_LANE, LANES
from repro.serving.relax import MAX_RELAX_STEPS, RelaxResult, RelaxSettings
from repro.serving.service import PredictionResult
from repro.tensor.core import DEFAULT_DTYPE

SCHEMA_VERSION = "v1"

#: Request versions the server accepts.  ``v2`` = ``v1`` + optional
#: precomputed edges per structure; responses are always ``v1``.
SUPPORTED_VERSIONS = ("v1", "v2")

#: Neighbor-search cutoff (angstrom) used when a wire structure is turned
#: into a graph; matches the data sources' default so served predictions
#: see the connectivity the models were trained on.
DEFAULT_CUTOFF = 5.0

#: Hard bound on structures per request — one request is one micro-batch
#: admission decision, not a bulk-import channel.
MAX_STRUCTURES_PER_REQUEST = 1024

#: HTTP header carrying the request's *remaining* deadline budget in
#: milliseconds (gRPC-timeout style: relative, re-stamped per hop).  The
#: header wins over the body's ``deadline_ms`` so proxies can decrement
#: the budget without re-serializing the body.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Bound on ``deadline_ms`` — anything longer than an hour is a config
#: error, not a latency budget.
MAX_DEADLINE_MS = 3_600_000.0


def validate_deadline_ms(value, where: str) -> float | None:
    """Validate an optional ``deadline_ms`` value (body field or header)."""
    return None if value is None else _DEADLINE.decode(value, where)


#: HTTP header carrying the request's ``client_id`` for quota accounting
#: (additive; the header wins over the body field so front doors can
#: attribute traffic without parsing bodies).
CLIENT_HEADER = "X-Repro-Client"

#: HTTP header carrying the request's priority lane.  Like
#: :data:`CLIENT_HEADER` it mirrors a body field so the router can make
#: lane-level shedding decisions without parsing request bodies.
PRIORITY_HEADER = "X-Repro-Priority"

#: Valid ``priority`` values, highest priority first (the batcher's
#: scheduling lanes; see :mod:`repro.serving.batcher`).
PRIORITY_LANES = LANES

#: Lane used when a request carries no ``priority``.
DEFAULT_PRIORITY = DEFAULT_LANE

#: Bound on ``client_id`` length — it is an accounting key, not a payload.
MAX_CLIENT_ID_CHARS = 128


def validate_client_id(value, where: str) -> str | None:
    """Validate an optional ``client_id`` value (body field or header)."""
    return None if value is None else _CLIENT_ID.decode(value, where)


def validate_priority(value, where: str) -> str | None:
    """Validate an optional ``priority`` lane (body field or header)."""
    return None if value is None else _LANE.decode(value, where)


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------
def _expect_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"{where}: missing required key(s) {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")


def _expect_version(obj: dict, where: str, supported: tuple[str, ...]) -> str:
    version = obj.get("schema_version")
    if version not in supported:
        expected = supported[0] if len(supported) == 1 else f"one of {list(supported)}"
        raise SchemaError(f"{where}: unsupported schema_version {version!r} (expected {expected})")
    return version


def _float_matrix(value: Any, shape: tuple[int | None, int], where: str) -> np.ndarray:
    """Validate a nested list of finite numbers into a float64 array."""
    if not isinstance(value, list) or any(not isinstance(row, list) for row in value):
        raise SchemaError(f"{where}: expected a list of {shape[1]}-element rows")
    rows = shape[0] if shape[0] is not None else len(value)
    if len(value) != rows:
        raise SchemaError(f"{where}: expected {rows} rows, got {len(value)}")
    try:
        for index, row in enumerate(value):
            if len(row) != shape[1]:
                raise SchemaError(f"{where}[{index}]: expected {shape[1]} components")
            for component in row:
                if isinstance(component, bool) or not isinstance(component, (int, float)):
                    raise SchemaError(f"{where}[{index}]: non-numeric component {component!r}")
                if not math.isfinite(component):
                    raise SchemaError(f"{where}[{index}]: non-finite component {component!r}")
    except OverflowError:  # an int past float64 range
        raise SchemaError(f"{where}[{index}]: component out of float64 range") from None
    return np.asarray(value, dtype=np.float64).reshape(len(value), shape[1])


def _matrix_to_json(array: np.ndarray) -> list[list[float]]:
    return [[float(component) for component in row] for row in np.asarray(array)]


def _edges_from_json(
    obj: Any, n_atoms: int, periodic: bool, where: str
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a v2 ``edges`` block into (edge_index, edge_shift) arrays."""
    _expect_keys(obj, {"edge_index", "edge_shift"}, set(), where)
    pairs = obj["edge_index"]
    if (
        not isinstance(pairs, list)
        or len(pairs) != 2
        or any(not isinstance(side, list) for side in pairs)
        or len(pairs[0]) != len(pairs[1])
    ):
        raise SchemaError(f"{where}.edge_index: expected two equal-length index lists")
    for side in pairs:
        for value in side:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"{where}.edge_index: non-integer index {value!r}")
            if not 0 <= value < n_atoms:
                raise SchemaError(
                    f"{where}.edge_index: index {value} out of range [0, {n_atoms})"
                )
    count = len(pairs[0])
    shift = _float_matrix(obj["edge_shift"], (count, 3), f"{where}.edge_shift")
    if not periodic and count and bool(np.any(shift != 0.0)):
        raise SchemaError(f"{where}.edge_shift: nonzero shift on a non-periodic structure")
    # Cartesian image shifts live as DEFAULT_DTYPE in graphs; clients send
    # values that originated as that dtype, so the narrowing cast is exact.
    return (
        np.asarray(pairs, dtype=np.int64).reshape(2, count),
        shift.astype(DEFAULT_DTYPE),
    )


# ----------------------------------------------------------------------
# Field kinds: how one value is validated, encoded and mirrored
# ----------------------------------------------------------------------
def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """An int or float that float64 can hold (a huge JSON int cannot)."""
    if isinstance(value, float):
        return True
    try:
        return _is_int(value) and math.isfinite(value)
    except OverflowError:
        return False


class _Kind:
    """One kind of wire value.

    ``decode`` checks a parsed JSON value with ``accepts`` (the error
    names its path ``where``) and converts it with ``load``; ``encode``
    coerces to plain JSON with ``dump``, ``mirror`` for the in-process
    twin.  Optional fields are left off the wire while ``unset``.
    """

    #: Field whose decoded value this kind reads from ``done``.
    after: str | None = None

    def __init__(self, accepts, expected: str, load=None, dump=None) -> None:
        self.accepts, self.expected, self.load, self.dump = accepts, expected, load, dump

    def decode(self, value: Any, where: str, done=None, version=None) -> Any:
        if not self.accepts(value):
            raise SchemaError(f"{where}: expected {self.expected}")
        return value if self.load is None else self.load(value)

    def encode(self, value: Any) -> Any:
        return value if self.dump is None else self.dump(value)

    def mirror(self, value: Any) -> Any:
        return self.encode(value)

    def unset(self, value: Any) -> bool:
        return value is None


class _Flags(_Kind):
    """Booleans, unset while none is true."""

    def unset(self, value):
        return not any(value)


class _Matrix(_Kind):
    """Rows of three finite numbers as a float64 array.

    ``rows`` is a fixed count, ``None`` (any), or the dotted path of an
    already-decoded field whose value (an int) or length fixes it.
    """

    def __init__(self, rows: int | str | None = None) -> None:
        self.rows = rows
        if isinstance(rows, str):
            self.after, *self.attributes = rows.split(".")

    def decode(self, value, where, done, version):
        rows = self.rows
        if isinstance(rows, str):
            rows = done[self.after]
            for attribute in self.attributes:
                rows = getattr(rows, attribute)
            rows = rows if isinstance(rows, int) else len(rows)
        return _float_matrix(value, (rows, 3), where)

    def encode(self, value):
        return _matrix_to_json(value)

    def mirror(self, value):
        return np.asarray(value, dtype=np.float64)


class _Nested(_Kind):
    """One payload, or with ``many`` a list of them (at most ``most``)."""

    def __init__(self, cls: type, many: bool = False, non_empty: bool = False, most=None):
        self.cls, self.many, self.non_empty, self.most = cls, many, non_empty, most

    def decode(self, value, where, done, version):
        if not self.many:
            return _decode(self.cls, value, where, version)
        if not isinstance(value, list) or (self.non_empty and not value):
            noun = "a non-empty list" if self.non_empty else "a list"
            raise SchemaError(f"{where}: expected {noun}")
        if self.most is not None and len(value) > self.most:
            raise SchemaError(f"{where}: at most {self.most} per request, got {len(value)}")
        return [_decode(self.cls, item, f"{where}[{i}]", version) for i, item in enumerate(value)]

    def encode(self, value):
        return [item.to_json_dict() for item in value] if self.many else value.to_json_dict()


def _number(check, expected: str) -> _Kind:
    return _Kind(lambda v: _is_number(v) and check(float(v)), expected, float, float)


def _int_in(low: int, high: int) -> _Kind:
    return _Kind(lambda v: _is_int(v) and low <= v <= high, f"an int in [{low}, {high}]", None, int)


def _one_of(choices: tuple[str, ...]) -> _Kind:
    return _Kind(lambda v: isinstance(v, str) and v in choices, f"one of {list(choices)}")


_STR = _Kind(lambda v: isinstance(v, str), "a string")
_BOOL = _Kind(lambda v: isinstance(v, bool), "a boolean", None, bool)
_INT = _Kind(_is_int, "an int", None, int)
_COUNT = _Kind(lambda v: _is_int(v) and v >= 0, "a non-negative int", None, int)
_POSITIVE_INT = _Kind(lambda v: _is_int(v) and v >= 1, "a positive int", None, int)
_NUMBER = _Kind(_is_number, "a number", float, float)
_FINITE = _number(math.isfinite, "a finite number")
_POSITIVE = _number(lambda x: math.isfinite(x) and x > 0, "a positive finite number")
_NON_NEGATIVE = _number(lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0")
_DEADLINE = _number(
    lambda x: 0 < x <= MAX_DEADLINE_MS, f"milliseconds in (0, {MAX_DEADLINE_MS:.0f}]"
)
_CLIENT_ID = _Kind(
    lambda v: isinstance(v, str) and 0 < len(v) <= MAX_CLIENT_ID_CHARS,
    f"a non-empty string of at most {MAX_CLIENT_ID_CHARS} characters",
)
_LANE = _one_of(PRIORITY_LANES)
_ELEMENTS = _Kind(
    lambda v: isinstance(v, list)
    and v
    and not any(isinstance(z, bool) or not isinstance(z, int) or not 1 <= z <= 118 for z in v),
    "a non-empty list of element numbers in [1, 118]",
    lambda numbers: np.asarray(numbers, dtype=np.int64),
    lambda numbers: [int(z) for z in numbers],
)
_STRINGS = _Kind(
    lambda v: isinstance(v, list) and all(isinstance(item, str) for item in v),
    "a list of strings",
    tuple,
    list,
)
_PBC = _Flags(
    lambda v: isinstance(v, list) and len(v) == 3 and all(isinstance(f, bool) for f in v),
    "three booleans",
    tuple,
    lambda flags: [bool(flag) for flag in flags],
)
_OBJECT = _Kind(lambda v: isinstance(v, dict), "a JSON object")
_LIST = _Kind(lambda v: isinstance(v, list), "a list")


@dataclass(frozen=True)
class _Spec:
    """One field's wire declaration (see :func:`_wire`)."""

    kind: _Kind
    key: str | None
    optional: bool
    missing: Any
    knob: bool
    last: bool


def _wire(kind, *, key=None, optional=False, missing=MISSING, knob=False, last=False, **field_args):
    """Declare a dataclass field's wire form.

    - ``key``: the JSON key, if not the field name.
    - ``optional``: the key may be absent or ``null`` (both decode to the
      field default, ``None`` unless given) and an unset value is left
      off the wire.
    - ``missing``: the key may be absent and decodes to this value, but
      is always emitted; ``null`` is accepted only when this is ``None``.
    - ``knob``: an optional relax/md setting that overrides the server default.
    - ``last``: emitted after the other keys (v1 key order).

    Without ``optional`` or ``missing`` the key is required.
    """
    if optional or knob:
        optional = True
        field_args.setdefault("default", None)
        missing = field_args["default"]
    spec = _Spec(kind, key, optional, missing, knob, last)
    return field(metadata={"wire": spec}, **field_args)


@dataclass(frozen=True)
class _Plan:
    encode: tuple  # (name, key, spec) in emission order
    decode: tuple  # same, fields read by a later kind's ``after`` first
    required: frozenset
    optional: frozenset


@functools.cache
def _plan(cls: type) -> _Plan:
    declared = [
        (f.name, f.metadata["wire"].key or f.name, f.metadata["wire"])
        for f in fields(cls)
        if "wire" in f.metadata
    ]
    keys = {key for _, key, spec in declared if spec.missing is MISSING}
    return _Plan(
        encode=tuple(sorted(declared, key=lambda entry: entry[2].last)),
        decode=tuple(sorted(declared, key=lambda entry: entry[2].kind.after is not None)),
        required=frozenset(keys),
        optional=frozenset(key for _, key, _ in declared if key not in keys) | cls._extra_keys,
    )


def _decode(cls: type, obj: Any, where: str, version: str | None):
    """Validate ``obj`` into ``cls`` by its field declarations."""
    plan = _plan(cls)
    head = {"schema_version"} if cls._versions else set()
    if cls._envelope is not None:
        _expect_keys(obj, head | {cls._envelope}, set(), where)
        version = _expect_version(obj, where, cls._versions)
        obj, where, head = obj[cls._envelope], f"{where}.{cls._envelope}", set()
    _expect_keys(obj, plan.required | head, plan.optional, where)
    if head:
        version = _expect_version(obj, where, cls._versions)
    values: dict[str, Any] = {}
    for name, key, spec in plan.decode:
        value = obj.get(key, MISSING)
        if value is MISSING or (value is None and (spec.optional or spec.missing is None)):
            values[name] = spec.missing
        else:
            values[name] = spec.kind.decode(value, f"{where}.{key}", values, version)
    cls._check(obj, values, where, version)
    return cls(**values)


def _mirror(target: type, source: Any) -> Any:
    """Field-for-field copy between a payload and its in-process twin."""
    payload = type(source) if isinstance(source, _Wire) else target
    return target(
        **{name: spec.kind.mirror(getattr(source, name)) for name, _, spec in _plan(payload).encode}
    )


def _knobs(request: Any) -> dict:
    """The request's set knobs as settings overrides, coerced as the wire would."""
    return {
        name: spec.kind.mirror(value)
        for name, _, spec in _plan(type(request)).encode
        if spec.knob and (value := getattr(request, name)) is not None
    }


class _Wire:
    """Base of every wire dataclass: the one generic codec.

    A subclass names its wire identity in the class statement: ``where``
    (the path prefix of its errors), ``versions`` (accepted schema
    versions; none for nested payloads), ``envelope`` (the key its fields
    nest under) and ``extra_keys`` (keys a hand-written rule owns).
    """

    def __init_subclass__(cls, where="", versions=(), envelope=None, extra_keys=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._where, cls._versions, cls._envelope = where, versions, envelope
        cls._extra_keys = frozenset(extra_keys)

    def to_json_dict(self) -> dict:
        """This payload as plain JSON types, keys in declaration order."""
        body = {}
        for name, key, spec in _plan(type(self)).encode:
            value = getattr(self, name)
            if not (spec.optional and spec.kind.unset(value)):
                body[key] = spec.kind.encode(value)
        if not self._versions:
            return body
        if self._envelope is not None:
            return {"schema_version": self._version(), self._envelope: body}
        return {"schema_version": self._version(), **body}

    @classmethod
    def from_json_dict(cls, obj: dict, where: str | None = None):
        """Validate a parsed JSON body; a rejection names its field path."""
        return _decode(cls, obj, where or cls._where, None)

    def _version(self) -> str:
        """The lowest version that carries the body: ``v2`` only for edges."""
        structures = getattr(self, "structures", None) or [getattr(self, "structure", None)]
        return "v2" if any(getattr(s, "has_edges", False) for s in structures) else SCHEMA_VERSION

    @classmethod
    def _check(cls, obj: dict, values: dict, where: str, version: str | None) -> None:
        """Rules that span fields; may fill fields no declaration owns."""


# ----------------------------------------------------------------------
# Structures
# ----------------------------------------------------------------------
@dataclass
class StructurePayload(_Wire, where="structure", extra_keys=("edges",)):
    """One atomistic structure as it crosses the wire.

    The projection of :class:`AtomGraph` onto physical inputs: atomic
    numbers, positions, and (for periodic systems) cell + pbc flags.
    Conversion back to a graph rebuilds connectivity with the server's
    cutoff — unless the payload carries a schema-v2 ``edges`` block
    (trusted clients only), in which case :meth:`to_graph` uses those
    edges verbatim and skips neighbor search.
    """

    atomic_numbers: np.ndarray = _wire(_ELEMENTS)
    positions: np.ndarray = _wire(_Matrix("atomic_numbers"))
    cell: np.ndarray | None = _wire(_Matrix(3), optional=True)
    pbc: tuple[bool, bool, bool] = _wire(_PBC, optional=True, default=(False, False, False))
    edge_index: np.ndarray | None = None
    edge_shift: np.ndarray | None = None

    @classmethod
    def from_graph(cls, graph: AtomGraph, include_edges: bool = False) -> "StructurePayload":
        return cls(
            atomic_numbers=np.asarray(graph.atomic_numbers, dtype=np.int64),
            positions=np.asarray(graph.positions, dtype=np.float64),
            cell=None if graph.cell is None else np.asarray(graph.cell, dtype=np.float64),
            pbc=tuple(bool(flag) for flag in graph.pbc),
            edge_index=np.asarray(graph.edge_index) if include_edges else None,
            edge_shift=np.asarray(graph.edge_shift) if include_edges else None,
        )

    @property
    def has_edges(self) -> bool:
        return self.edge_index is not None

    def to_graph(
        self, cutoff: float = DEFAULT_CUTOFF, max_neighbors: int | None = None
    ) -> AtomGraph:
        """Rebuild the model-input graph (neighbor search included)."""
        if self.edge_index is not None and self.edge_shift is not None:
            edge_index = np.asarray(self.edge_index, dtype=np.int64)
            edge_shift = np.asarray(self.edge_shift, dtype=DEFAULT_DTYPE)
        else:
            edge_index, edge_shift = build_edges(
                self.positions, cutoff, self.cell, self.pbc, max_neighbors
            )
        return AtomGraph(
            atomic_numbers=self.atomic_numbers,
            positions=self.positions,
            edge_index=edge_index,
            edge_shift=edge_shift,
            cell=self.cell,
            pbc=self.pbc,
            source="api",
        )

    def to_json_dict(self) -> dict:
        payload = super().to_json_dict()
        if self.edge_index is not None and self.edge_shift is not None:
            payload["edges"] = {
                "edge_index": [[int(i) for i in side] for side in np.asarray(self.edge_index)],
                "edge_shift": _matrix_to_json(self.edge_shift),
            }
        return payload

    @classmethod
    def from_json_dict(
        cls, obj: dict, where: str = "structure", allow_edges: bool = False
    ) -> "StructurePayload":
        return _decode(cls, obj, where, "v2" if allow_edges else None)

    @classmethod
    def _check(cls, obj, values, where, version):
        if any(values["pbc"]) and values["cell"] is None:
            raise SchemaError(f"{where}: pbc set but no cell given")
        if obj.get("edges") is None:
            return
        if version != "v2":
            raise SchemaError(f"{where}.edges: precomputed edges require schema_version 'v2'")
        values["edge_index"], values["edge_shift"] = _edges_from_json(
            obj["edges"], len(values["atomic_numbers"]), any(values["pbc"]), f"{where}.edges"
        )


# ----------------------------------------------------------------------
# Predict request / response
# ----------------------------------------------------------------------
@dataclass
class PredictRequest(_Wire, where="request", versions=SUPPORTED_VERSIONS):
    """``POST /v1/predict`` body: one or many structures, optional model."""

    structures: list[StructurePayload] = _wire(
        _Nested(StructurePayload, many=True, non_empty=True, most=MAX_STRUCTURES_PER_REQUEST)
    )
    model: str | None = _wire(_STR, optional=True)
    #: Optional latency budget in milliseconds, relative to send time
    #: (additive v1 field).  Work still unserved when it runs out is
    #: dropped with a typed ``deadline_exceeded`` 504 instead of
    #: executing; see :data:`DEADLINE_HEADER` for the hop-by-hop form.
    deadline_ms: float | None = _wire(_DEADLINE, optional=True)
    #: Optional caller identity for per-client quota accounting
    #: (additive v1 field; :data:`CLIENT_HEADER` is the header form).
    client_id: str | None = _wire(_CLIENT_ID, optional=True)
    #: Optional priority lane (additive v1 field; one of
    #: :data:`PRIORITY_LANES`, default ``interactive`` server-side).
    priority: str | None = _wire(_LANE, optional=True)

    @classmethod
    def from_graphs(
        cls, graphs: list[AtomGraph], model: str | None = None
    ) -> "PredictRequest":
        return cls(structures=[StructurePayload.from_graph(g) for g in graphs], model=model)


@dataclass
class PredictionPayload(_Wire, where="result"):
    """One structure's prediction as it crosses the wire.

    Mirrors :class:`~repro.serving.service.PredictionResult` — energy,
    forces, and the serving provenance (cache hit? batch size? physical
    or normalized units?) a client needs to interpret and debug it.
    """

    key: str = _wire(_STR)
    energy: float = _wire(_NUMBER)
    forces: np.ndarray = _wire(_Matrix("n_atoms"))
    n_atoms: int = _wire(_POSITIVE_INT)
    cached: bool = _wire(_BOOL)
    batch_graphs: int = _wire(_INT)
    physical_units: bool = _wire(_BOOL)
    latency_s: float = _wire(_NUMBER, missing=0.0, default=0.0)

    @classmethod
    def from_result(cls, result: PredictionResult) -> "PredictionPayload":
        return _mirror(cls, result)

    def to_result(self) -> PredictionResult:
        """Rebuild the in-process result type clients already consume."""
        return _mirror(PredictionResult, self)


@dataclass
class PredictResponse(_Wire, where="response", versions=(SCHEMA_VERSION,)):
    """``POST /v1/predict`` success body: results in request order."""

    model: str = _wire(_STR)
    results: list[PredictionPayload] = _wire(_Nested(PredictionPayload, many=True))

    @classmethod
    def from_results(
        cls, model: str, results: list[PredictionResult]
    ) -> "PredictResponse":
        return cls(model=model, results=[PredictionPayload.from_result(r) for r in results])

    def to_results(self) -> list[PredictionResult]:
        return [payload.to_result() for payload in self.results]


# ----------------------------------------------------------------------
# Relax request / response
# ----------------------------------------------------------------------
#: ``reason`` values a relax response may carry.
RELAX_REASONS = ("fmax", "step", "max_steps")


@dataclass
class RelaxRequest(_Wire, where="relax request", versions=SUPPORTED_VERSIONS):
    """``POST /v1/relax`` body: one structure plus optional relax knobs.

    Unset knobs take the server's :class:`~repro.serving.relax.RelaxSettings`
    defaults; the neighbor cutoff is always the server's (clients cannot
    request connectivity the model was not trained on).
    """

    structure: StructurePayload = _wire(_Nested(StructurePayload))
    model: str | None = _wire(_STR, optional=True)
    max_steps: int | None = _wire(_int_in(1, MAX_RELAX_STEPS), knob=True)
    fmax: float | None = _wire(_POSITIVE, knob=True)
    max_step: float | None = _wire(_POSITIVE, knob=True)
    skin: float | None = _wire(_POSITIVE, knob=True)
    #: Optional latency budget in ms (see :class:`PredictRequest`);
    #: a descent re-checks it before every force evaluation.
    deadline_ms: float | None = _wire(_DEADLINE, optional=True)
    #: Optional identity / lane (see :class:`PredictRequest`); one relax
    #: is one admission decision, not one per force evaluation.
    client_id: str | None = _wire(_CLIENT_ID, optional=True)
    priority: str | None = _wire(_LANE, optional=True)

    def to_settings(self, cutoff: float, max_neighbors: int | None = None) -> RelaxSettings:
        """Server-side settings: request overrides on top of defaults."""
        return RelaxSettings(cutoff=cutoff, max_neighbors=max_neighbors, **_knobs(self))


@dataclass
class RelaxationPayload(_Wire, where="relaxation"):
    """One relaxation outcome as it crosses the wire.

    Mirrors :class:`~repro.serving.relax.RelaxResult` field for field,
    including the skin-list counters — a client can tell how much of the
    descent rode the incremental neighbor-list path.
    """

    converged: bool = _wire(_BOOL)
    reason: str = _wire(_one_of(RELAX_REASONS))
    steps: int = _wire(_COUNT)
    energy: float = _wire(_FINITE)
    energy_initial: float = _wire(_FINITE)
    fmax: float = _wire(_FINITE)
    positions: np.ndarray = _wire(_Matrix("n_atoms"))
    forces: np.ndarray = _wire(_Matrix("n_atoms"))
    n_atoms: int = _wire(_POSITIVE_INT)
    physical_units: bool = _wire(_BOOL)
    neighbor_rebuilds: int = _wire(_COUNT)
    neighbor_reuses: int = _wire(_COUNT)

    @classmethod
    def from_result(cls, result: RelaxResult) -> "RelaxationPayload":
        return _mirror(cls, result)

    def to_result(self) -> RelaxResult:
        """Rebuild the in-process result type clients already consume."""
        return _mirror(RelaxResult, self)


@dataclass
class RelaxResponse(_Wire, where="relax response", versions=(SCHEMA_VERSION,)):
    """``POST /v1/relax`` success body."""

    model: str = _wire(_STR)
    result: RelaxationPayload = _wire(_Nested(RelaxationPayload))

    @classmethod
    def from_result(cls, model: str, result: RelaxResult) -> "RelaxResponse":
        return cls(model=model, result=RelaxationPayload.from_result(result))

    def to_result(self) -> RelaxResult:
        return self.result.to_result()


# ----------------------------------------------------------------------
# MD request / streamed frames / terminal summary
# ----------------------------------------------------------------------
@dataclass
class MDRequest(_Wire, where="md request", versions=SUPPORTED_VERSIONS):
    """``POST /v1/md`` body: one structure plus optional integrator knobs.

    Unset knobs take the server's :class:`~repro.serving.md.MDSettings`
    defaults; like relax, the neighbor cutoff is always the server's.
    ``velocities`` (internal units, same shape as positions) and
    ``step_offset`` are the resume channel: a chunked client re-submits
    the last frame's positions + velocities with ``step_offset`` set to
    that frame's step, and the seeded step-indexed thermostat noise makes
    the resumed trajectory bit-identical to an uninterrupted one.
    ``deadline_ms`` is re-checked between force evaluations, so one
    request never holds a worker past its budget — long runs should
    chunk client-side (``Client.md(chunk_steps=...)``).
    """

    structure: StructurePayload = _wire(_Nested(StructurePayload))
    model: str | None = _wire(_STR, optional=True)
    n_steps: int | None = _wire(_int_in(1, MAX_MD_STEPS), knob=True)
    timestep_fs: float | None = _wire(_POSITIVE, knob=True)
    thermostat: str | None = _wire(_one_of(MD_THERMOSTATS), knob=True)
    temperature_k: float | None = _wire(_NON_NEGATIVE, knob=True)
    friction: float | None = _wire(_POSITIVE, knob=True)
    tau_fs: float | None = _wire(_POSITIVE, knob=True)
    seed: int | None = _wire(_int_in(0, 2**63 - 1), knob=True)
    frame_interval: int | None = _wire(_int_in(1, MAX_MD_STEPS), knob=True)
    step_offset: int | None = _wire(_int_in(0, MAX_MD_STEP_OFFSET), knob=True)
    velocities: np.ndarray | None = _wire(_Matrix("structure.atomic_numbers"), knob=True, last=True)
    skin: float | None = _wire(_POSITIVE, knob=True)
    deadline_ms: float | None = _wire(_DEADLINE, optional=True)
    #: Optional identity / lane (see :class:`PredictRequest`); one MD run
    #: is one admission decision, not one per force evaluation.
    client_id: str | None = _wire(_CLIENT_ID, optional=True)
    priority: str | None = _wire(_LANE, optional=True)

    def to_settings(self, cutoff: float, max_neighbors: int | None = None) -> MDSettings:
        """Server-side settings: request overrides on top of defaults."""
        return MDSettings(cutoff=cutoff, max_neighbors=max_neighbors, **_knobs(self))


@dataclass
class MDFramePayload(_Wire, where="md frame", versions=(SCHEMA_VERSION,), envelope="frame"):
    """One streamed trajectory snapshot (an NDJSON ``frame`` line).

    Mirrors :class:`~repro.serving.md.MDFrame`.  Positions are Å;
    velocities are internal units, serialized as plain JSON numbers —
    bit-exact for float64 — so resuming a chunked run from the last
    frame reproduces the uninterrupted trajectory exactly.
    """

    step: int = _wire(_COUNT)
    energy: float = _wire(_FINITE)
    kinetic_energy: float = _wire(_FINITE)
    temperature_k: float = _wire(_FINITE)
    positions: np.ndarray = _wire(_Matrix())
    velocities: np.ndarray = _wire(_Matrix("positions"))

    @classmethod
    def from_frame(cls, frame: MDFrame) -> "MDFramePayload":
        return _mirror(cls, frame)

    def to_frame(self) -> MDFrame:
        """Rebuild the in-process frame type clients already consume."""
        return _mirror(MDFrame, self)


@dataclass
class MDResultPayload(_Wire, where="md summary"):
    """Terminal MD summary as it crosses the wire.

    Mirrors :class:`~repro.serving.md.MDResult` field for field,
    including the skin-list counters — reported identically to the relax
    payload so clients read one vocabulary.
    """

    steps: int = _wire(_COUNT)
    first_step: int = _wire(_COUNT)
    final_step: int = _wire(_COUNT)
    frames: int = _wire(_COUNT)
    energy: float = _wire(_FINITE)
    kinetic_energy: float = _wire(_FINITE)
    temperature_k: float = _wire(_FINITE)
    thermostat: str = _wire(_one_of(MD_THERMOSTATS))
    n_atoms: int = _wire(_POSITIVE_INT)
    physical_units: bool = _wire(_BOOL)
    neighbor_rebuilds: int = _wire(_COUNT)
    neighbor_reuses: int = _wire(_COUNT)

    @classmethod
    def from_result(cls, result: MDResult) -> "MDResultPayload":
        return _mirror(cls, result)

    def to_result(self) -> MDResult:
        return _mirror(MDResult, self)


@dataclass
class MDResponse(_Wire, where="md response", versions=(SCHEMA_VERSION,)):
    """``POST /v1/md`` terminal summary (the stream's last NDJSON line).

    The ``summary`` key is the stream-integrity marker: a well-formed
    MD stream is zero or more ``frame`` lines followed by exactly one
    line carrying ``summary`` (success) or ``error`` (typed failure).  A
    stream that ends without either was truncated mid-run, and clients
    treat it as a transport error (and resume from the last frame).
    """

    model: str = _wire(_STR)
    result: MDResultPayload = _wire(_Nested(MDResultPayload), key="summary")

    @classmethod
    def from_result(cls, model: str, result: MDResult) -> "MDResponse":
        return cls(model=model, result=MDResultPayload.from_result(result))

    def to_result(self) -> MDResult:
        return self.result.to_result()


# ----------------------------------------------------------------------
# Errors, server info, stats
# ----------------------------------------------------------------------
@dataclass
class ErrorPayload(_Wire, where="error payload", versions=(SCHEMA_VERSION,), envelope="error"):
    """JSON body every non-2xx response carries."""

    code: str = _wire(_STR)
    message: str = _wire(_STR)
    status: int = _wire(_INT)
    #: Honest backoff hint in seconds, carried on retryable rejections
    #: (429/503) alongside the HTTP ``Retry-After`` header — in the body
    #: too so the hint survives transports that drop response headers
    #: (additive v1 field).
    retry_after_s: float | None = _wire(_NON_NEGATIVE, optional=True)

    @classmethod
    def from_error(cls, error: ApiError) -> "ErrorPayload":
        retry_after = getattr(error, "retry_after_s", None)
        return cls(
            code=error.code,
            message=str(error),
            status=error.http_status,
            retry_after_s=None if retry_after is None else float(retry_after),
        )

    def to_error(self) -> ApiError:
        """Rebuild the typed exception (client side of the contract)."""
        error_type = ERROR_TYPES.get(self.code, ApiError)
        error = error_type(self.message)
        if self.retry_after_s is not None:
            error.retry_after_s = float(self.retry_after_s)
        return error


@dataclass
class ServerInfo(_Wire, where="info", versions=(SCHEMA_VERSION,)):
    """``GET /v1/models`` body: what this server serves and where."""

    models: list[dict] = _wire(_LIST)
    default_model: str | None = _wire(_STR, missing=None, default=None)
    endpoints: tuple[str, ...] = _wire(
        _STRINGS,
        missing=(),
        default=(
            "POST /v1/predict",
            "POST /v1/relax",
            "POST /v1/md",
            "GET /v1/models",
            "GET /v1/healthz",
            "GET /v1/stats",
        ),
    )


@dataclass
class StatsSnapshot(_Wire, where="stats", versions=(SCHEMA_VERSION,)):
    """``GET /v1/stats`` body: per-model serving telemetry.

    Each model's entry carries the service's telemetry sections
    (``serving``, ``result_cache``, ``buffer_pool``, ``batching``,
    ``engine``), a ``plans`` section with the execution-plan cache
    counters (``enabled``, ``plans_compiled``, ``plan_hits``,
    ``plan_misses``, ``plan_fallbacks``, ``plan_hit_rate``,
    ``cached_plans``), a ``relax`` section with trajectory-workload
    counters (``sessions``, ``steps``, ``converged``,
    ``neighbor_rebuilds``, ``neighbor_reuses``, ``neighbor_reuse_rate``),
    and an ``md`` section with molecular-dynamics counters (``sessions``,
    ``steps``, ``steps_per_s``, the same skin-list trio as ``relax``,
    and a ``thermostats`` breakdown by kind).
    Additive top-level fields, still schema ``v1``:

    - ``uptime_s`` / ``pid`` — how long this server has been up and its
      process id, which is what lets a client (or the replica
      supervisor's tests) tell two replicas apart.
    - ``replicas`` — present only on a replica *router's* snapshot: the
      per-replica breakdown (health, in-flight, restarts, pid, and each
      replica's own ``models`` telemetry), while ``models`` holds the
      fleet-aggregated counters.
    - ``router`` — the router's own counters (requests, rerouted,
      rejected, proxy_errors, breaker_opens, deadline_expired,
      admitting).
    - ``watchdog`` — also router-only: the supervisor's hung-replica
      escalation counters (hung_detected, sigterm, sigkill, respawns).

    Sections and fields are additive by contract: snapshots written
    before a field existed keep parsing, and clients must tolerate
    unknown sections inside each model entry.
    """

    models: dict[str, dict] = _wire(_OBJECT, default_factory=dict)
    uptime_s: float | None = _wire(_NUMBER, optional=True)
    pid: int | None = _wire(_INT, optional=True)
    replicas: dict[str, dict] | None = _wire(_OBJECT, optional=True)
    router: dict | None = _wire(_OBJECT, optional=True)
    watchdog: dict | None = _wire(_OBJECT, optional=True)


def structures_from_json(obj: Any) -> list[StructurePayload]:
    """Structures from either wire shape users reasonably write.

    Accepts a full :class:`PredictRequest` dict, a bare list of
    structure objects, or one structure object — the shapes ``repro
    predict --input`` meets in the wild.
    """
    if isinstance(obj, list):
        return [
            StructurePayload.from_json_dict(entry, where=f"structures[{index}]")
            for index, entry in enumerate(obj)
        ]
    if isinstance(obj, dict) and "structures" in obj:
        return PredictRequest.from_json_dict(obj).structures
    if isinstance(obj, dict):
        return [StructurePayload.from_json_dict(obj)]
    raise SchemaError(
        "expected a predict request, a list of structures, or one structure object"
    )
