"""GeoJSON ingestion and emission (RFC 7946: [longitude, latitude] degrees).

Writing goes through a small serializer of our own so every float is
printed with exactly 15 significant digits: byte-identical output for
identical inputs is part of the command-line contract.
"""

from __future__ import annotations

import json
import math
import reprlib
from itertools import chain
from json.encoder import encode_basestring_ascii  # what json.dumps does to a str
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, GeoJsonError, NonFiniteValue
from .geometry import SpherePoint

# nesting depth of the positions in each geometry type's "coordinates"
_POSITION_DEPTH = {"Point": 0, "MultiPoint": 1, "LineString": 1,
                   "MultiLineString": 2, "Polygon": 2, "MultiPolygon": 3}
_POSITION = "[%.15g, %.15g]"  # a position's image as dumps writes it
# features that point_feature_collection formats with one `%`
_ROW_BLOCK = 1 << 13


def format_float(x: float) -> str:
    """Fixed 15-significant-digit decimal form used in all outputs."""
    if not math.isfinite(x):
        raise NonFiniteValue(f"non-finite value {x} in output")
    return format(float(x), ".15g")


def dumps(obj, arrays=(), texts=()) -> str:
    """Serialize JSON with deterministic float formatting.

    ``arrays`` are ``map_positions``' (array, count) pairs of ``obj`` and
    ``texts`` their ``position_texts``: each array is written as its text
    in brackets.
    """
    pieces: list[str] = []
    try:
        _write(obj, pieces, {id(array) for array, _ in arrays})
    except RecursionError:  # parsed JSON can nest deeper than the writer recurses
        raise GeoJsonError("input nested too deeply") from None
    return "".join(pieces) % tuple(texts)


def position_texts(arrays, x, y) -> list[str]:
    """The text inside the brackets of each of ``map_positions``' arrays
    with every position written as its image [x[i], y[i]], without a third
    element: ``x, y`` for a Point's position, ``[x, y], [x, y]`` for an
    array of two.  One ``%`` fills the ``[%.15g, %.15g]`` templates of all
    of them, so each position is formatted once for every writer.
    """
    template = "".join(
        (_POSITION[1:-1] if count is None else ", ".join([_POSITION] * count)) + "\0"
        for _, count in arrays
    )
    return (template % _rows(x, y)).split("\0")[:-1]  # a NUL is in no number's text


def _rows(*columns) -> tuple:
    """The columns' values row by row, for one ``%`` over repeated
    templates, as ``"%.15g" % v`` is ``format(v, ".15g")``; the first
    non-finite one raises ``format_float``'s error.  Callers build the
    template first: boxed after it, the values raise the peak memory less."""
    return tuple(_finite_rows(columns).ravel().tolist())


def _finite_rows(columns) -> np.ndarray:
    """The columns side by side; the first non-finite value, row by row,
    raises ``format_float``'s error."""
    values = np.column_stack(columns)
    bad = ~np.isfinite(values)
    if bad.any():
        format_float(float(values.flat[np.argmax(bad)]))
    return values


def _write(obj, pieces: list[str], arrays: set[int]) -> None:
    # most frequent types first; bool is tested before int, of which it is a subclass;
    # a "%" in text is doubled for dumps' final "%"
    if isinstance(obj, float):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(encode_basestring_ascii(obj).replace("%", "%%"))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(encode_basestring_ascii(str(key)).replace("%", "%%"))
            pieces.append(": ")
            _write(value, pieces, arrays)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        if id(obj) in arrays:
            pieces.append("[%s]")
            return
        pieces.append("[")
        for i, value in enumerate(obj):
            if i:
                pieces.append(", ")
            _write(value, pieces, arrays)
        pieces.append("]")
    elif obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def load(path: str) -> dict:
    """Read a GeoJSON object (ConfigError if unreadable, GeoJsonError if malformed)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise GeoJsonError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict) or "type" not in data:
        raise GeoJsonError("input is not a GeoJSON object")
    return data


def _array(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise GeoJsonError(f"{what} is not an array")
    return value


def _geometries(obj: dict):
    if not isinstance(obj, dict):
        raise GeoJsonError("GeoJSON member is not an object")
    kind = obj.get("type")
    if kind == "FeatureCollection":
        for feature in _array(obj.get("features", []), "features"):
            yield from _geometries(feature)
    elif kind == "Feature":
        geom = obj.get("geometry")
        if geom is not None:
            yield from _geometries(geom)
    elif kind == "GeometryCollection":
        for geom in _array(obj.get("geometries", []), "geometries"):
            yield from _geometries(geom)
    elif isinstance(kind, str) and kind in _POSITION_DEPTH:
        yield obj
    else:
        raise GeoJsonError(f"unsupported GeoJSON type {reprlib.repr(kind)}")


def _position(pos) -> tuple[float, float]:
    """(lon, lat) of a position: two or more real numbers (booleans are not
    numbers here), finite longitude, latitude in [-90, 90]."""
    if not isinstance(pos, (list, tuple)) or len(pos) < 2:
        raise GeoJsonError(f"malformed position {reprlib.repr(pos)}")
    for v in pos:
        if v.__class__ is not float and (isinstance(v, bool) or not isinstance(v, (int, float))):
            raise GeoJsonError(f"non-numeric value in position {reprlib.repr(pos)}")
    try:
        lon, lat = float(pos[0]), float(pos[1])
    except OverflowError:  # an integer beyond the float range
        raise GeoJsonError(f"position {reprlib.repr(pos)} out of range") from None
    if not (math.isfinite(lon) and -90.0 <= lat <= 90.0):
        raise GeoJsonError(f"position {reprlib.repr(pos)}: need a finite lon and lat in [-90, 90]")
    return lon, lat


def _columns(positions: list) -> np.ndarray:
    """The (lon, lat) of every position, one after the other, as ``_position``
    reads them.  Positions of two ints or floats are checked in bulk;
    ``_position`` reads them one by one only when that check fails, to
    name the first bad one or to read what the check does not take
    (tuples, altitudes, subclasses of float)."""
    count = 2 * len(positions)
    if (set(map(type, positions)) <= {list} and set(map(len, positions)) <= {2}
            and set(map(type, chain.from_iterable(positions))) <= {float, int}):
        try:
            columns = np.fromiter(chain.from_iterable(positions), dtype=float, count=count)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            lon, lat = columns[0::2], columns[1::2]
            if np.isfinite(lon).all() and ((-90.0 <= lat) & (lat <= 90.0)).all():
                return columns
    return np.fromiter((v for pos in positions for v in _position(pos)), dtype=float, count=count)


def _nested(coords, depth: int):
    """Yield the members nested ``depth`` arrays deep in ``coords``."""
    if depth == 0:
        yield coords
    else:
        for item in _array(coords, "coordinates"):
            yield from _nested(item, depth - 1)


def region_polyline(obj: dict) -> list[SpherePoint]:
    """Closed boundary polyline from the first usable geometry.

    A Polygon contributes its exterior ring; a LineString is taken as an
    implicitly closed ring.
    """
    for geom in _geometries(obj):
        kind = geom["type"]
        if kind in ("LineString", "Polygon", "MultiPolygon"):
            ring = next(_nested(geom.get("coordinates", []), _POSITION_DEPTH[kind] - 1), None)
            if ring is not None:
                positions = map(_position, _nested(ring, 1))
                return [SpherePoint.from_degrees(lat, lon) for lon, lat in positions]
    raise GeoJsonError("no polygon or line boundary found in input")


def map_positions(obj, mapper: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]):
    """The position arrays of every geometry of a GeoJSON object, their
    images and the lines among them: ``(arrays, x, y, lines)``.

    ``arrays`` pairs each array of positions of ``obj`` (a line, a ring or a
    MultiPoint's coordinates) with its length, and each Point's position with
    None, in document order; ``obj`` is left as it is.  Every position is
    validated before ``mapper`` runs.  It receives all of them at once as
    (lon_deg, lat_deg) arrays and returns the image columns x and y.
    ``lines`` holds the range ``(start, end)`` in them of each line and ring.
    """
    positions, arrays, lines = [], [], []
    try:
        for geom in _geometries(obj):
            kind, coords = geom["type"], geom.get("coordinates", [])
            if kind == "Point":
                if coords != []:  # an empty Point has no position
                    positions.append(coords)
                    arrays.append((coords, None))
            else:
                for line in _nested(coords, _POSITION_DEPTH[kind] - 1):
                    start = len(positions)
                    positions += _array(line, "coordinates")
                    arrays.append((line, len(positions) - start))
                    if kind != "MultiPoint":
                        lines.append((start, len(positions)))
    except RecursionError:  # parsed JSON can nest deeper than the walk recurses
        raise GeoJsonError("input nested too deeply") from None
    columns = _columns(positions)
    x, y = mapper(columns[0::2], columns[1::2])
    return arrays, x, y, lines


def point_feature_collection(
    lon_deg: np.ndarray, lat_deg: np.ndarray, columns: dict
) -> Iterator[str]:
    """FeatureCollection of Point features, as pieces of the text ``dumps``
    writes for it: feature i is at (lon_deg[i], lat_deg[i]) with one
    property per column, column[i].

    Every value is checked before this returns, so the first non-finite
    one raises here.  The text then comes ``_ROW_BLOCK`` features at a
    time, each block from one ``%`` over a repeated feature template.
    """
    table = (lon_deg, lat_deg, *columns.values())
    blocks = [slice(start, start + _ROW_BLOCK) for start in range(0, len(lon_deg), _ROW_BLOCK)]
    for block in blocks:
        _finite_rows([column[block] for column in table])
    properties = ", ".join(
        encode_basestring_ascii(str(name)).replace("%", "%%") + ": %.15g" for name in columns
    )
    feature = (
        '{"type": "Feature", "geometry": {"type": "Point", "coordinates": [%.15g, %.15g]}, '
        '"properties": {' + properties + "}}"
    )

    def pieces():
        yield '{"type": "FeatureCollection", "features": ['
        for block in blocks:
            part = [column[block] for column in table]
            if block.start:
                yield ", "
            yield ", ".join([feature] * len(part[0])) % _rows(*part)
        yield "]}"

    return pieces()
