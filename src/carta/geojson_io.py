"""GeoJSON ingestion and emission (RFC 7946: [longitude, latitude] degrees).

Writing goes through a small serializer of our own so every float is
printed with exactly 15 significant digits, as ``format(v, ".15g")``:
byte-identical output for identical inputs is part of the command-line
contract.  The bulk writers (``position_texts`` and
``point_feature_collection``) produce that text from float64 columns with
one numpy kernel, ``_number_words``: it rounds each value to its 15-digit
integer exactly (Dekker's error-free product with 5**k), lays the digits
out in fixed or exponent form, and hands the few values it cannot prove
(|v| below 1e-31 or from 1e15 up, or a near-half that is not an exact
tie) to ``format_float``, the reference.
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
# rows (positions or features) written per block by the bulk writers
_ROW_BLOCK = 1 << 11


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
        _write(obj, pieces, {id(array): text for (array, _), text in zip(arrays, texts)})
    except RecursionError:  # parsed JSON can nest deeper than the writer recurses
        raise GeoJsonError("input nested too deeply") from None
    return "".join(pieces)


def position_texts(arrays, x, y, lines=()) -> tuple[list[str], list[str]]:
    """``(texts, polylines)``: a text for each of ``map_positions``' arrays
    and a polyline for each of the ``lines`` (``(start, end)`` ranges of
    positions), every position written as its image (x[i], y[i]).

    A text is what goes inside the array's brackets in the GeoJSON, without
    a third element: ``x, y`` for a Point's position, ``[x, y], [x, y]``
    for an array of two.  A polyline is the SVG's points, y negated as the
    SVG's y grows downward: ``x,-y x,-y``.  The number kernel formats
    |x| and |y| once, ``_ROW_BLOCK`` positions at a time, and both rows of
    a position on a line are made from those words, each value's sign
    written in the literal piece before it: ``%.15g`` of -v is "-" and the
    text of v.  Only the rows of the texts asked for are made.  The first
    non-finite value raises ``format_float``'s error before any text is made.
    """
    _check_finite((x, y))

    def words(*columns):
        return [np.concatenate([_words(piece or "\0") for piece in column]) for column in columns]

    # each text asked for: its pieces, a word each (the ones before x and
    # after y by 2 * kind + x's sign bit, the one before y by y's sign bit),
    # kind2 = 2 * kind of each position's row, the rows it leaves out and
    # its sizes
    made = []
    if arrays:
        counts = [1 if count is None else count for _, count in arrays]
        ends = np.cumsum(counts, dtype=np.intp)
        # kind 0 inside an array, 1 an array's last, 2 a Point's
        kind2 = np.zeros(len(x), np.int8)
        kind2[ends[np.flatnonzero(counts)] - 1] = 2
        kind2[ends[[k for k, (_, count) in enumerate(arrays) if count is None]] - 1] = 4
        pieces = words(["[", "[-"] * 2 + ["", "-"], [", ", ", -"],
                       ["], "] * 2 + ["]\n"] * 2 + ["\n"] * 2)
        made.append((pieces, kind2, np.empty(0, np.intp), counts))
    if lines:
        # kind 0 inside a line, 1 a line's last; the rows of the positions on
        # no line, in the gaps before, between and after the lines, are left out
        kind2 = np.zeros(len(x), np.int8)
        kind2[[end - 1 for start, end in lines if end > start]] = 2
        lo, hi = np.reshape([0, *np.ravel(lines), len(x)], (-1, 2)).T
        size = hi - lo
        skip = np.arange(size.sum()) + np.repeat(lo + size - np.cumsum(size), size)
        # a newline ends a line
        pieces = words(["", "-"] * 2, [",-", ","], [" "] * 2 + ["\n"] * 2)
        made.append((pieces, kind2, skip, [end - start for start, end in lines]))
    done = [([], []) for _ in made]  # each text's rows, and the part of one not yet ended
    for start in range(0, len(x) if made else 0, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        xb, yb = x[block], y[block]
        # numbers[i, c]: the words of |x[i]| (c = 0) or |y[i]| (c = 1)
        numbers = _number_words(np.abs(np.concatenate((xb, yb)))).reshape(3, 2, -1).T
        rows = np.empty((len(xb), 9), _WORD)
        rows[:, 1:4], rows[:, 5:8] = numbers[:, 0], numbers[:, 1]
        sign_x, sign_y = np.signbit(xb).view(np.int8), np.signbit(yb).astype(np.intp)
        for ((opening, middle, closing), kind2, skip, _), (texts, waiting) in zip(made, done):
            row = (kind2[block] + sign_x).astype(np.intp)  # an int8 index is slower
            rows[:, 0], rows[:, 4], rows[:, 8] = opening[row], middle[sign_y], closing[row]
            if skip.size:
                first, last = np.searchsorted(skip, (start, start + len(xb)))
                rows[skip[first:last] - start] = 0  # NUL words, which _text drops
            first, *rest = _text(rows).split("\n")
            waiting.append(first)
            if rest:
                texts.append("".join(waiting))
                texts += rest[:-1]
                waiting[:] = rest[-1:]
    results = [[next(nonempty) if size else "" for size in sizes]
               for (*_, sizes), nonempty in zip(made, (iter(texts) for texts, _ in done))]
    return results[0] if arrays else [], results[-1] if lines else []


def _check_finite(columns) -> None:
    """The first non-finite value of the columns, row by row, raises
    ``format_float``'s error."""
    bad = [np.flatnonzero(~np.isfinite(column))[:1] for column in columns]
    if any(first.size for first in bad):
        row = min(int(first[0]) for first in bad if first.size)
        for column in columns:
            format_float(float(column[row]))


# -- the number kernel: %.15g of float64 values, as words of bytes -------------------
#
# A value's text is three little-endian 64-bit words, from byte 0 on, and NUL
# after its end; a literal piece of text is words that end with it, NUL before
# its start.  So a row of pieces and values is a run of text per piece and
# the value after it, and one boolean compaction that drops the NULs makes
# the rows one string.  The tables are indexed by a value's decade d + 31 (d
# from -31 to 15), digit count and sign, or by its digits, and are built at
# import by array arithmetic.

_WORD = np.dtype("<u8")
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))  # of 0..9999
# _COUNTS[j, g]: the digits up to the last nonzero one when group j (of 4)
# holds g and those after it hold zeros; a zero is written "0"
_COUNTS = ((_DIGITS != ord("0")) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
_COUNTS = np.where(_COUNTS > 0, _COUNTS + np.arange(0, 16, 4, dtype=np.uint8)[:, None], 0)
_COUNTS[0, 0] = 1
_DIGITS = np.ascontiguousarray(_DIGITS).view("<u4").ravel()


def _layouts():
    """``(layouts, moves)``: a value's text by 2 * (16 * (decade + 31) +
    digit count) + negative, as nine words, and by 2 * (decade + 31) +
    negative the bits that its digits after the point move up.

    The first three words take bytes from the digits moved up by the sign,
    the next three from the digits moved up by all before them, and the last
    three are the rest: the sign, the "0." and zeros of 1e-4 <= |v| < 1, the
    point and the exponent.  Built on int8 arrays by (decade, digit count,
    negative, byte).
    """
    minus, dot, zero, e, plus = np.frombuffer(b"-.0e+", np.int8)
    decade = np.arange(-31, 16, dtype=np.int8)
    exponents = np.column_stack((  # "e-31" ... "e+15"
        np.full(len(decade), e), np.where(decade < 0, minus, plus),
        abs(decade) // 10 + zero, abs(decade) % 10 + zero))
    decade = decade[:, None, None, None]
    count = np.arange(16, dtype=np.int8)[:, None, None]
    negative = np.arange(2, dtype=np.int8)[:, None]
    at = np.arange(24, dtype=np.int8) - negative  # the byte after the sign
    scientific = (decade < -4) | (decade > 14)
    leading = np.where(scientific | (decade >= 0), 0, 1 - decade)  # "0." and zeros
    point = np.where(scientific, 1, decade + 1)  # digits before the point
    length = np.where(leading > 0, leading + count,
                      np.maximum(count + (count > point), point))  # up to the exponent
    layouts = np.stack((
        -((leading == 0) & (0 <= at) & (at < np.minimum(point, length))).astype(np.int8),
        -((np.where(leading > 0, leading, point + 1) <= at) & (at < length)).astype(np.int8),
        minus * ((at == -1) & (negative == 1))
        + np.where(at == 1, dot, zero) * ((0 <= at) & (at < leading))
        + dot * ((leading == 0) & (at == point) & (point < length))
        + exponents[decade + 31, np.clip(at - length, 0, 3)]
        * (scientific & (length <= at) & (at < length + 4)),
    )).astype(np.uint8).view(_WORD).reshape(3, -1, 3).transpose(1, 0, 2).reshape(-1, 9)
    moves = (8 * (np.where(leading > 0, leading, 1) + negative)).astype(_WORD).ravel()
    return layouts, moves


_LAYOUTS, _MOVES = _layouts()
# 10**k = 2**k * 5**k, and 5**k = hi + lo exactly for k <= 45 (it has at most 105 bits)
_POWERS = np.arange(46)
_TWOS = np.ldexp(1.0, _POWERS)
_FIVES = 5 ** _POWERS.astype(object)
_FIVES_HI = _FIVES.astype(float)
_FIVES_LO = (_FIVES - np.frompyfunc(int, 1, 1)(_FIVES_HI)).astype(float)


def _split(v):
    """Dekker's split of v into two halves of 26 bits: v = hi + lo exactly."""
    c = 134217729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


_FIVES_HH, _FIVES_HL = _split(_FIVES_HI)


def _decade(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)): an estimate, one off where log10 rounds across an integer."""
    return np.floor(np.log10(a))


def _rounded(a: np.ndarray, k: np.ndarray):
    """``(q, rest, unsure)``: q is a * 10**k rounded half-even to an integer,
    rest is a * 10**k - q to within 1e-15, and unsure marks where q is not
    proven: a rest within 1e-9 of a half that is not an exact tie.

    With x = a * 2**k (exact), x * hi = p + e exactly (Dekker's product),
    and a * 10**k = p + e + x * lo, whose last term is below 0.2.  An exact
    tie n + 1/2 has k <= 21, so lo = 0 and e = 0: rint(p) settles it.
    """
    x = a * np.take(_TWOS, k)
    p = x * np.take(_FIVES_HI, k)
    xh, xl = _split(x)
    hh, hl = np.take(_FIVES_HH, k), np.take(_FIVES_HL, k)
    q = np.rint(p)
    rest = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl + (p - q)) + x * np.take(_FIVES_LO, k)
    step = np.rint(rest)
    tie = x - np.floor(x) == 0.5  # 5**k is odd
    unsure = ~tie & (np.abs(np.abs(rest) - 0.5) < 1e-9)
    return q + step, rest - step, unsure


def _moved(digits, bits):
    """The two words of digits moved up ``bits`` (0 to 48) into three."""
    down = _WORD.type(64) - bits
    return digits[0] << bits, (digits[1] << bits) | (digits[0] >> down), digits[1] >> down


def _number_words(v: np.ndarray) -> np.ndarray:
    """The ``format_float`` text of each finite value of ``v`` as three
    words, word j of value i at [j, i]."""
    a = np.abs(v)
    sure = (a >= 1e-31) & (a < 1e15)
    a = np.where(sure, a, 1.0)  # the others are not computed on
    k = (14 - np.clip(_decade(a), -31, 14)).astype(np.intp)
    q, rest, unsure = _rounded(a, k)
    # 10**14 <= a * 10**k < 10**15 fixes the decade; where the estimate was
    # one off, q is out of that range (or it is 10**14 with a negative rest)
    off = np.flatnonzero(((q - 1e14) + rest < 0) | (q > 1e15))
    if off.size:
        k[off] += np.where(q[off] > 1e15, -1, 1)
        q[off], rest[off], unsure[off] = _rounded(a[off], k[off])
    d = 45 - k  # the decade + 31
    up = q == 1e15  # rounded up into the next decade
    q[up], d[up] = 1e14, d[up] + 1
    q[v == 0] = 0.0
    # the 15 digits as four-digit groups, the last three and a pad, two to a
    # word (floors of quotients: q < 2**50 leaves their rounding below 1e-7)
    groups = np.empty((2, len(v), 2))
    head = np.floor(q / 1e7)
    groups[0, :, 0] = np.floor(head / 1e4)
    groups[0, :, 1] = head - 1e4 * groups[0, :, 0]
    tail = q - 1e7 * head
    groups[1, :, 0] = np.floor(tail / 1e3)
    groups[1, :, 1] = (tail - 1e3 * groups[1, :, 0]) * 10
    groups = groups.astype(np.intp)
    digits = np.take(_DIGITS, groups).view(_WORD)[..., 0]
    counts = [np.take(_COUNTS[j], groups[j // 2, :, j % 2]) for j in range(4)]
    counts = np.maximum(np.maximum(counts[0], counts[1]), np.maximum(counts[2], counts[3]))
    negative = np.signbit(v)
    keep = _moved(digits, negative * _WORD.type(8))
    move = _moved(digits, np.take(_MOVES, 2 * d + negative))
    layout = np.take(_LAYOUTS, 2 * (16 * d + counts) + negative, axis=0)
    words = np.empty((3, len(v)), _WORD)
    for j in range(3):
        words[j] = (keep[j] & layout[:, j]) | (move[j] & layout[:, 3 + j]) | layout[:, 6 + j]
    for i in np.flatnonzero(~(sure | (v == 0)) | unsure):
        words[:, i] = np.frombuffer(format_float(float(v[i])).encode().ljust(24, b"\0"), _WORD)
    return words


def _words(text: str) -> np.ndarray:
    """ASCII ``text`` as words that end with it, NULs before it."""
    data = text.encode("ascii")
    return np.frombuffer(data.rjust(-(-len(data) // 8) * 8, b"\0"), _WORD)


def _row_words(columns, pieces) -> np.ndarray:
    """The words of each row ``pieces[0] columns[0][i] pieces[1] ...
    columns[-1][i] pieces[-1]``, one row of a 2-D array per i."""
    literals = [_words(piece) for piece in pieces]
    numbers = _number_words(np.concatenate(columns)).reshape(3, len(columns), -1)
    rows = np.empty((numbers.shape[2], 3 * len(columns) + sum(map(len, literals))), _WORD)
    at = 0
    for c, literal in enumerate(literals):
        rows[:, at:at + len(literal)] = literal
        at += len(literal)
        if c < len(columns):
            rows[:, at:at + 3] = numbers[:, c].T
            at += 3
    return rows


def _text(words: np.ndarray) -> str:
    """The bytes of ``words`` without their NULs: one boolean compaction."""
    data = words.view(np.uint8)
    return str(data[data != 0].data, "ascii")


def _write(obj, pieces: list[str], arrays: dict[int, str]) -> None:
    # most frequent types first; bool is tested before int, of which it is a subclass;
    # an array of positions is its text, looked up by id
    if isinstance(obj, float):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(encode_basestring_ascii(str(key)))
            pieces.append(": ")
            _write(value, pieces, arrays)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        text = arrays.get(id(obj))
        if text is not None:
            pieces += ("[", text, "]")
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
    if set(map(type, positions)) <= {list} and set(map(len, positions)) <= {2}:
        flat = list(chain.from_iterable(positions))
        # np.fromiter would read "1.5", None and True as numbers
        if set(map(type, flat)) <= {float, int}:
            try:
                columns = np.fromiter(flat, dtype=float, count=count)
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
    time, each block written by the number kernel.
    """
    table = (lon_deg, lat_deg, *columns.values())
    _check_finite(table)
    # \x01 marks a value: encode_basestring_ascii escapes it in a name
    pieces = (
        '{"type": "Feature", "geometry": {"type": "Point", "coordinates": [\x01, \x01]}, '
        '"properties": {'
        + ", ".join(encode_basestring_ascii(str(name)) + ": \x01" for name in columns)
        + "}}, "
    ).split("\x01")
    last = _words(pieces[-1][:-2] + "\0\0")  # the last feature of a block has no ", "

    def text():
        yield '{"type": "FeatureCollection", "features": ['
        for start in range(0, len(lon_deg), _ROW_BLOCK):
            rows = _row_words([column[start:start + _ROW_BLOCK] for column in table], pieces)
            rows[-1, -len(last):] = last
            if start:
                yield ", "
            yield _text(rows)
        yield "]}"

    return text()
