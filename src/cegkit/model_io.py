"""Reading and writing the UTF-8 model, intervention and query documents.

The model document is JSON with keys ``devents``, ``vertices``, ``edges``,
``leaf_status`` and ``theta`` plus the optional ``stages`` and
``root_causes`` sections.  Edge order inside ``edges`` is sibling order;
``theta`` vectors follow it.  ``dumps(loads(text))`` is lossless.  Bulk type
checks accept a valid ``edges`` list; the ordered scan names the first fault.

Edges elsewhere (indicator maps, partitions, singular interventions) are
referenced as ``"src->dst#index"``; ``#index`` may be omitted when it is 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, Mapping, Optional

from .errors import ParseError
from .event_tree import DEvent, Edge, edge_indices

_EDGE_KEYS = ("src", "dst", "devent")


@dataclass(frozen=True)
class ModelDocument:
    name: str
    devents: tuple[DEvent, ...]
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    leaf_status: Mapping[str, str]
    theta: Mapping[str, tuple[float, ...]]
    stages: Optional[tuple[tuple[str, ...], ...]] = None
    root_causes: tuple[str, ...] = ()


@dataclass(frozen=True)
class InterventionDocument:
    """Parsed intervention document; payloads stay in document form."""

    type: str  # stochastic | indicators | singular | remedial
    positions: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    indicators: Mapping[tuple[str, str, int], int] = field(default_factory=dict)
    alpha: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    eta: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    edge: Optional[tuple[str, str, int]] = None
    record: Optional[Mapping[str, Any]] = None


@dataclass(frozen=True)
class QueryDocument:
    target: str
    partition_kind: Optional[str] = None  # devents | stages | positions | edges
    partition_blocks: tuple[tuple[str, ...], ...] = ()


def parse_edge_ref(ref: str) -> tuple[str, str, int]:
    """Parse ``"src->dst#index"`` (index defaults to 1)."""
    body, sep, idx = ref.partition("#")
    if "->" not in body:
        raise ParseError(f"bad edge reference {ref!r}")
    src, _, dst = body.partition("->")
    if not src or not dst:
        raise ParseError(f"bad edge reference {ref!r}")
    if sep:
        try:
            index = int(idx)
        except ValueError:
            raise ParseError(f"bad edge index in {ref!r}") from None
        if index < 1:
            raise ParseError(f"edge index must be positive in {ref!r}")
    else:
        index = 1
    return (src, dst, index)


def _require(obj: Mapping[str, Any], key: str, kind) -> Any:
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(f"key {key!r} has wrong type {type(value).__name__}")
    return value


def _optional(obj: Mapping[str, Any], key: str, kind, default) -> Any:
    """``_require`` for a key that may be left out."""
    return _require(obj, key, kind) if key in obj else default


def _root_object(text: str, kind: str) -> dict:
    """Decode a document whose root must be an object; ``kind`` names the
    document in the error."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # past the digit limit, or too deep
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{kind} root must be an object")
    return raw


def _optional_text(obj: Mapping[str, Any], key: str) -> str:
    """An optional string field; absent or null reads as ``""``."""
    return "" if obj.get(key) is None else _require(obj, key, str)


def _is_number(x) -> bool:
    """A JSON number; ``true``/``false`` are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_float(x) -> float:
    """A JSON number as a float; an integer too large for one reads as
    +-inf, as a float literal such as ``1e400`` does."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_vector(raw, name: str, key: str) -> tuple[float, ...]:
    """``raw`` as floats; an error names it ``name[key]``."""
    if isinstance(raw, (list, tuple)) and all(map(_is_number, raw)):
        return tuple(map(_as_float, raw))
    raise ParseError(f"{name}[{key}]: expected a list of numbers")


def _prior_vectors(raw: Mapping[str, Any], key: str) -> dict:
    """``alpha`` or ``eta``: position -> non-empty list of numbers."""
    table = {}
    for w, vec in _optional(raw, key, dict, {}).items():
        table[w] = _float_vector(vec, key, w)
        if not table[w]:
            raise ParseError(f"{key}[{w}]: expected a non-empty list of numbers")
    return table


def _only(values, kind: type) -> bool:
    """Whether every decoded JSON value is a ``kind`` (``True`` is no int)."""
    return set(map(type, values)) <= {kind}


def _is_id_lists(x) -> bool:
    return type(x) is list and _only(x, list) and _only(chain.from_iterable(x), str)


def _edges(items: list) -> tuple[Edge, ...]:
    """The ``edges`` entries as edges."""
    if _only(items, dict):
        srcs, dsts, devents = (list(map(dict.get, items, repeat(k))) for k in _EDGE_KEYS)
        if _only(chain(srcs, dsts, devents), str):
            autos = edge_indices(srcs, dsts)
            indices = list(map(dict.get, items, repeat("index"), autos))
            if indices == autos and _only(indices, int):
                rows = zip(srcs, dsts, devents, indices)
                return tuple(map(tuple.__new__, repeat(Edge), rows))
    ordinal: dict[tuple[str, str], int] = {}
    for item in items:  # name the first faulty entry
        if not isinstance(item, dict):
            raise ParseError("edges entries must be objects")
        src, dst, _ = (_require(item, k, str) for k in _EDGE_KEYS)
        auto = ordinal[(src, dst)] = ordinal.get((src, dst), 0) + 1
        index = item.get("index", auto)
        if type(index) is not int:  # 1.0 and true compare equal to 1
            raise ParseError(f"edge {src}->{dst}: index must be an integer")
        if index != auto:
            raise ParseError(
                f"edge {src}->{dst}: index {index} out of document order (expected {auto})"
            )
    raise AssertionError("the edges fail a bulk check but no entry is at fault")


def loads(text: str) -> ModelDocument:
    """Parse a model document; structural problems raise ParseError."""
    raw = _root_object(text, "document")
    devents = []
    for item in _require(raw, "devents", list):
        if not isinstance(item, dict):
            raise ParseError("devents entries must be objects")
        devent_id = _require(item, "id", str)
        devents.append(DEvent(id=devent_id, text=_optional_text(item, "text")))
    vertices = tuple(_require(raw, "vertices", list))
    if not _only(vertices, str):
        raise ParseError("vertices must be strings")
    edges = _edges(_require(raw, "edges", list))
    leaf_status = dict(_require(raw, "leaf_status", dict))
    vecs = _require(raw, "theta", dict)
    if _only(vecs.values(), list) and _only(chain.from_iterable(vecs.values()), float):
        theta = dict(zip(vecs, map(tuple, vecs.values())))
    else:  # converts ints, or names the first vector that is no list of numbers
        theta = {v: _float_vector(vec, "theta", v) for v, vec in vecs.items()}
    stages = None
    if raw.get("stages") is not None:
        if not _is_id_lists(raw["stages"]):
            raise ParseError("stages must be a list of vertex lists")
        stages = tuple(map(tuple, raw["stages"]))
    root_causes = raw.get("root_causes", [])
    if not isinstance(root_causes, list):
        raise ParseError("root_causes must be a list of d-event ids")
    if not all(isinstance(x, str) for x in root_causes):
        raise ParseError("root_causes must be d-event ids")
    return ModelDocument(
        name=_optional_text(raw, "name"),
        devents=tuple(devents),
        vertices=vertices,
        edges=edges,
        leaf_status=leaf_status,
        theta=theta,
        stages=stages,
        root_causes=tuple(root_causes),
    )


def _read(path) -> str:
    """A document file's text; a file that cannot be opened or is not UTF-8
    is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def load(path) -> ModelDocument:
    return loads(_read(path))


def dumps(doc: ModelDocument) -> str:
    """Serialize with explicit edge indices; loads(dumps(doc)) == doc."""
    payload: dict[str, Any] = {
        "name": doc.name,
        "devents": [{"id": d.id, "text": d.text} for d in doc.devents],
        "vertices": list(doc.vertices),
        "edges": [
            {"src": e.src, "dst": e.dst, "devent": e.devent, "index": e.index}
            for e in doc.edges
        ],
        "leaf_status": dict(doc.leaf_status),
        "theta": {v: list(vec) for v, vec in doc.theta.items()},
    }
    if doc.stages is not None:
        payload["stages"] = [list(b) for b in doc.stages]
    if doc.root_causes:
        payload["root_causes"] = list(doc.root_causes)
    return json.dumps(payload, indent=2) + "\n"


def dump(doc: ModelDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def loads_intervention(text: str) -> InterventionDocument:
    raw = _root_object(text, "intervention document")
    kind = _require(raw, "type", str)
    if kind == "stochastic":
        positions = {
            w: _float_vector(vec, "positions", w)
            for w, vec in _require(raw, "positions", dict).items()
        }
        return InterventionDocument(type=kind, positions=positions)
    if kind == "singular":
        return InterventionDocument(
            type=kind, edge=parse_edge_ref(_require(raw, "edge", str))
        )
    if kind in ("indicators", "remedial"):
        indicators = {}
        for ref, value in _optional(raw, "indicators", dict, {}).items():
            if isinstance(value, bool) or value not in (0, 1):
                raise ParseError(f"indicator for {ref!r} must be 0 or 1")
            indicators[parse_edge_ref(ref)] = int(value)
        alpha = _prior_vectors(raw, "alpha")
        eta = _prior_vectors(raw, "eta")
        record = raw.get("record")
        if kind == "remedial" and not isinstance(record, dict):
            raise ParseError("remedial intervention needs a record object")
        return InterventionDocument(
            type=kind, indicators=indicators, alpha=alpha, eta=eta, record=record
        )
    raise ParseError(f"unknown intervention type {kind!r}")


def load_intervention(path) -> InterventionDocument:
    return loads_intervention(_read(path))


def loads_query(text: str) -> QueryDocument:
    raw = _root_object(text, "query document")
    target = _require(raw, "target", str)
    if raw.get("partition") is None:
        return QueryDocument(target=target)
    part = _require(raw, "partition", dict)
    kind = _require(part, "kind", str)
    if kind not in ("devents", "stages", "positions", "edges"):
        raise ParseError(f"unknown partition kind {kind!r}")
    blocks = _require(part, "blocks", list)
    if not _is_id_lists(blocks):
        raise ParseError("partition blocks must be lists of ids")
    return QueryDocument(
        target=target, partition_kind=kind, partition_blocks=tuple(map(tuple, blocks))
    )


def load_query(path) -> QueryDocument:
    return loads_query(_read(path))
