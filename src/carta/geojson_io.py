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

A writer call allocates one ``_Workspace`` and makes every block of
``_ROW_BLOCK`` rows in it; the literal words of a point feature are
written into its rows once, so a block allocates little more than its text.
"""

from __future__ import annotations

import json
import math
import reprlib
from itertools import chain
from json.encoder import encode_basestring_ascii  # what json.dumps does to a str
from typing import Iterator

import numpy as np

from .errors import ConfigError, GeoJsonError, NonFiniteValue

# nesting depth of the positions in each geometry type's "coordinates"
_POSITION_DEPTH = {"Point": 0, "MultiPoint": 1, "LineString": 1,
                   "MultiLineString": 2, "Polygon": 2, "MultiPolygon": 3}
# rows (positions or features) written per block by the bulk writers
_ROW_BLOCK = 1 << 11
# bytes of a block's words compacted at a time
_TEXT_CHUNK = 1 << 15


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
    # kind2 = 2 * kind of each position's row, where it leaves rows out and
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
        made.append((pieces, kind2, np.zeros(len(x), bool), counts))
    if lines:
        # kind 0 inside a line, 1 a line's last; the rows of the positions on
        # no line, in the gaps before, between and after the lines, are left out
        kind2 = np.zeros(len(x), np.int8)
        kind2[[end - 1 for start, end in lines if end > start]] = 2
        gaps = np.arange(2 * len(lines) + 1) % 2 == 0
        off = np.repeat(gaps, np.diff([0, *np.ravel(lines), len(x)]))
        # a newline ends a line
        pieces = words(["", "-"] * 2, [",-", ","], [" "] * 2 + ["\n"] * 2)
        made.append((pieces, kind2, off, [end - start for start, end in lines]))
    done = [([], []) for _ in made]  # each text's rows, and the part of one not yet ended
    # every block is made in the same buffers: its numbers fill columns 1-3
    # and 5-7 of the rows, then each text its pieces, by row kind and sign
    block_rows = min(_ROW_BLOCK, len(x)) if made else 0
    work = _Workspace(block_rows, 2, 9)
    signs = np.empty((3, block_rows), np.intp)
    for start in range(0, len(x), block_rows) if block_rows else ():
        block = slice(start, start + block_rows)
        xb, yb = x[block], y[block]
        n = len(xb)
        values = np.concatenate((xb, yb), out=work.values[:2 * n])
        rows = work.rows[:n]
        numbers = _number_words(np.abs(values, out=values), work).reshape(3, 2, n)
        rows[:, 1:4], rows[:, 5:8] = numbers.transpose(1, 2, 0)
        sign_x, sign_y, row = signs[:, :n]
        np.signbit(xb, out=sign_x)
        np.signbit(yb, out=sign_y)
        for ((opening, middle, closing), kind2, off, _), (texts, waiting) in zip(made, done):
            np.add(kind2[block], sign_x, out=row)
            opening.take(row, out=rows[:, 0], mode="clip")
            middle.take(sign_y, out=rows[:, 4], mode="clip")
            closing.take(row, out=rows[:, 8], mode="clip")
            rows[off[block]] = 0  # NUL words, which _text drops
            first, *rest = _text(rows, work).split("\n")
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
    digit count) + negative, as nine words (word j of layout i at [j, i]),
    and by 2 * (decade + 31) + negative the bits that its digits after the
    point move up.

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
    )).astype(np.uint8).view(_WORD).reshape(3, -1, 3).transpose(0, 2, 1).reshape(9, -1)
    moves = (8 * (np.where(leading > 0, leading, 1) + negative)).astype(_WORD).ravel()
    return layouts, moves


_LAYOUTS, _MOVES = _layouts()
# 10**k = 2**k * 5**k, and 5**k = hi + lo exactly for k <= 45 (it has at most 105 bits)
_POWERS = np.arange(46)
_TWOS = np.ldexp(1.0, _POWERS)
_FIVES = 5 ** _POWERS.astype(object)
_FIVES_HI = _FIVES.astype(float)
_FIVES_LO = (_FIVES - np.frompyfunc(int, 1, 1)(_FIVES_HI)).astype(float)


def _split(v, hi, lo):
    """Dekker's split of v into two halves of 26 bits, v = hi + lo exactly,
    computed in ``hi`` and ``lo``."""
    np.multiply(v, 134217729.0, out=hi)  # c = (2**27 + 1) * v
    np.subtract(hi, np.subtract(hi, v, out=lo), out=hi)  # c - (c - v)
    return hi, np.subtract(v, hi, out=lo)


_FIVES_HH, _FIVES_HL = _split(_FIVES_HI, np.empty(46), np.empty(46))


def _decade(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """floor(log10(a)) into ``out``: an estimate, one off where log10 rounds
    across an integer."""
    return np.floor(np.log10(a, out=out), out=out)


class _Workspace:
    """A bulk writer's buffers for blocks of up to ``rows`` rows of ``width``
    words, each row with ``columns`` values.

    The writer lays each block out in ``rows`` and puts its values in
    ``values``; ``_number_words`` computes every intermediate into the
    leading ``len(v)`` columns of the other arrays, and ``_text`` compacts
    the rows into ``text``.  With no block-sized temporaries, the allocator
    has nothing to hand back to the kernel and fault in again each block.
    """

    def __init__(self, rows: int, columns: int, width: int):
        size = rows * columns
        self.rows = np.empty((rows, width), _WORD)
        self.text = np.empty(self.rows.nbytes, np.uint8)
        self.mask = np.empty(_TEXT_CHUNK, bool)
        self.values = np.empty(size)
        self.floats = np.empty((9, size))  # reused as words once the digits are out
        self.ints = np.empty((2, size), np.intp)
        self.flags = np.empty((6, size), bool)
        self.groups = np.empty((2, size, 2), np.intp)  # four-digit groups, two to a word
        self.digits = np.empty((2, size, 2), np.uint32)
        self.counts = np.empty((2, size), np.uint8)


def _rounded(a, k, floats, flags):
    """``(q, rest, unsure)``: q is a * 10**k rounded half-even to an integer,
    rest is a * 10**k - q to within 1e-15, and unsure marks where q is not
    proven: a rest within 1e-9 of a half that is not an exact tie.  They are
    computed in ``floats[:2]`` and ``flags[0]``, the other rows are scratch.

    With x = a * 2**k (exact), x * hi = p + e exactly (Dekker's product),
    and a * 10**k = p + e + x * lo, whose last term is below 0.2.  An exact
    tie n + 1/2 has k <= 21, so lo = 0 and e = 0: rint(p) settles it.
    """
    q, rest, x, p, xh, xl, hh, hl = floats
    unsure, tie = flags
    # take's mode "clip" (every index is in range) writes into out directly,
    # where the default mode "raise" would fill a temporary first
    np.multiply(a, _TWOS.take(k, out=x, mode="clip"), out=x)
    np.multiply(x, _FIVES_HI.take(k, out=p, mode="clip"), out=p)
    _split(x, xh, xl)
    _FIVES_HH.take(k, out=hh, mode="clip")
    _FIVES_HL.take(k, out=hl, mode="clip")
    np.rint(p, out=q)
    # rest = (((xh*hh - p) + xh*hl + xl*hh) + xl*hl + (p - q)) + x*lo, in that order
    np.subtract(np.multiply(xh, hh, out=rest), p, out=rest)
    rest += np.multiply(xh, hl, out=xh)
    rest += np.multiply(xl, hh, out=hh)
    rest += np.multiply(xl, hl, out=hl)
    rest += np.subtract(p, q, out=p)
    rest += np.multiply(x, _FIVES_LO.take(k, out=xh, mode="clip"), out=xh)
    np.equal(np.subtract(x, np.floor(x, out=xl), out=xl), 0.5, out=tie)  # 5**k is odd
    np.less(np.abs(np.subtract(np.abs(rest, out=hh), 0.5, out=hh), out=hh), 1e-9, out=unsure)
    unsure &= np.logical_not(tie, out=tie)
    step = np.rint(rest, out=hl)
    q += step
    rest -= step
    return q, rest, unsure


def _moved(digits, bits, out, down):
    """The two words of digits moved up ``bits`` (0 to 48), into the three
    of ``out``; ``down`` is scratch."""
    np.subtract(_WORD.type(64), bits, out=down)
    np.left_shift(digits[0], bits, out=out[0])
    np.bitwise_or(np.left_shift(digits[1], bits, out=out[1]),
                  np.right_shift(digits[0], down, out=out[2]), out=out[1])
    np.right_shift(digits[1], down, out=out[2])


def _number_words(v: np.ndarray, work: _Workspace) -> np.ndarray:
    """The ``format_float`` text of each finite value of ``v`` as three
    words, word j of value i at [j, i]: a view of ``work``'s buffers, which
    the next call overwrites."""
    n = len(v)
    a, *floats = work.floats[:, :n]
    k, index = work.ints[:, :n]
    sure, other, *flags, zero, negative = work.flags[:, :n]
    np.abs(v, out=a)
    np.logical_and(np.greater_equal(a, 1e-31, out=sure), np.less(a, 1e15, out=other), out=sure)
    np.copyto(a, 1.0, where=np.logical_not(sure, out=other))  # the others are not computed on
    decade = _decade(a, floats[0])
    k[:] = np.subtract(14, np.clip(decade, -31, 14, out=decade), out=decade)
    q, rest, unsure = _rounded(a, k, floats, flags)
    # 10**14 <= a * 10**k < 10**15 fixes the decade; where the estimate was
    # one off, q is out of that range (or it is 10**14 with a negative rest);
    # the test runs in a scratch row of _rounded's and in zero's, not yet set
    below = np.less(np.add(np.subtract(q, 1e14, out=floats[2]), rest, out=floats[2]), 0, out=other)
    off = np.flatnonzero(np.logical_or(below, np.greater(q, 1e15, out=zero), out=other))
    if off.size:
        k[off] += np.where(q[off] > 1e15, -1, 1)
        q[off], rest[off], unsure[off] = _rounded(
            a[off], k[off], np.empty((8, off.size)), np.empty((2, off.size), bool))
    d = np.subtract(45, k, out=k)  # the decade + 31
    up = np.equal(q, 1e15, out=other)  # rounded up into the next decade
    np.copyto(q, 1e14, where=up)
    np.add(d, 1, out=d, where=up)
    np.copyto(q, 0.0, where=np.equal(v, 0, out=zero))
    # the 15 digits as four-digit groups, the last three and a pad, two to a
    # word (floors of quotients: q < 2**50 leaves their rounding below 1e-7)
    head, tail, high, low = floats[2:6]
    groups = work.groups[:, :n]
    np.floor(np.divide(q, 1e7, out=head), out=head)
    groups[0, :, 0] = np.floor(np.divide(head, 1e4, out=high), out=high)
    groups[0, :, 1] = np.subtract(head, np.multiply(high, 1e4, out=low), out=low)
    np.subtract(q, np.multiply(head, 1e7, out=tail), out=tail)
    groups[1, :, 0] = np.floor(np.divide(tail, 1e3, out=high), out=high)
    groups[1, :, 1] = np.multiply(np.subtract(tail, np.multiply(high, 1e3, out=low), out=low),
                                  10, out=low)
    digits = _DIGITS.take(groups, out=work.digits[:, :n], mode="clip").view(_WORD)[..., 0]
    counts, count = work.counts[:, :n]
    _COUNTS[0].take(groups[0, :, 0], out=counts, mode="clip")
    for j in range(1, 4):
        np.maximum(counts, _COUNTS[j].take(groups[j // 2, :, j % 2], out=count, mode="clip"),
                   out=counts)
    np.signbit(v, out=negative)
    # the floats are spent: their rows hold the digits moved up by the sign
    # (keep), by all before them (move), the shifts and a layout's word
    keep, move, (shift, down, layout) = np.split(work.floats[:, :n].view(_WORD), (3, 6))
    _moved(digits, np.multiply(negative, _WORD.type(8), out=shift), keep, down)
    np.add(np.multiply(d, 2, out=index), negative, out=index)
    _moved(digits, _MOVES.take(index, out=shift, mode="clip"), move, down)
    np.add(np.multiply(np.add(np.multiply(d, 16, out=index), counts, out=index), 2, out=index),
           negative, out=index)
    for j in range(3):  # word j = keep[j] & layout j | move[j] & layout 3 + j | layout 6 + j
        keep[j] &= _LAYOUTS[j].take(index, out=layout, mode="clip")
        keep[j] |= np.bitwise_and(move[j], _LAYOUTS[3 + j].take(index, out=layout, mode="clip"),
                                  out=move[j])
        keep[j] |= _LAYOUTS[6 + j].take(index, out=layout, mode="clip")
    np.logical_or(sure, zero, out=sure)
    for i in np.flatnonzero(np.logical_or(np.logical_not(sure, out=sure), unsure, out=sure)):
        keep[:, i] = np.frombuffer(format_float(float(v[i])).encode().ljust(24, b"\0"), _WORD)
    return keep


def _words(text: str) -> np.ndarray:
    """ASCII ``text`` as words that end with it, NULs before it."""
    data = text.encode("ascii")
    return np.frombuffer(data.rjust(-(-len(data) // 8) * 8, b"\0"), _WORD)


def _text(words: np.ndarray, work: _Workspace) -> str:
    """The bytes of ``words`` without their NULs, compacted into
    ``work.text`` by a boolean compaction of each ``_TEXT_CHUNK`` bytes, so
    that no temporary is as large as the text."""
    data = words.view(np.uint8).ravel()
    end = 0
    for start in range(0, data.size, _TEXT_CHUNK):
        chunk = data[start:start + _TEXT_CHUNK]
        kept = chunk[np.not_equal(chunk, 0, out=work.mask[:chunk.size])]
        work.text[end:end + kept.size] = kept
        end += kept.size
    return str(work.text[:end].data, "ascii")


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


def _columns(positions: list) -> tuple[np.ndarray, np.ndarray]:
    """The lon and lat columns of the positions, as ``_position`` reads them.
    Positions of two ints or floats are checked in bulk; ``_position`` reads
    them one by one only when that check fails, to name the first bad one
    or to read what the check does not take (tuples, altitudes, float subclasses)."""
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
                    return lon, lat
    columns = np.fromiter((v for pos in positions for v in _position(pos)), dtype=float, count=count)
    return columns[0::2], columns[1::2]


def _nested(coords, depth: int):
    """Yield the members nested ``depth`` arrays deep in ``coords``."""
    if depth == 0:
        yield coords
    else:
        for item in _array(coords, "coordinates"):
            yield from _nested(item, depth - 1)


def region_polyline(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) radians of the closed boundary of the one region geometry
    of ``obj``, every longitude in (-pi, pi].

    The region is a Polygon of one ring, a MultiPolygon of one such
    polygon, or a LineString, taken as an implicitly closed ring.  Other
    geometries, and polygons without rings, are skipped; a hole, a second
    polygon or a second region geometry is refused.
    """
    rings = []  # the exterior ring of each region geometry
    for geom in _geometries(obj):
        kind = geom["type"]
        if kind in ("LineString", "Polygon", "MultiPolygon"):
            coords = geom.get("coordinates", [])
            polygons = {"LineString": [[coords]], "Polygon": [coords]}.get(kind, coords)
            polygons = [p for p in _array(polygons, "coordinates") if _array(p, "coordinates")]
            if len(polygons) > 1:
                raise GeoJsonError(f"{kind} of {len(polygons)} polygons: only one is supported")
            if polygons and len(polygons[0]) > 1:
                raise GeoJsonError(f"polygon of {len(polygons[0])} rings: holes are not supported")
            rings += [p[0] for p in polygons]
    if len(rings) > 1:
        raise GeoJsonError(f"{len(rings)} region geometries: only one is supported")
    if not rings:
        raise GeoJsonError("no polygon or line boundary found in input")
    lon, lat = _columns(_array(rings[0], "coordinates"))
    # longitudes reduced to (-180, 180] before they become radians, with
    # exact steps, so that a ring moved by whole turns reads the same radians
    lon = np.fmod(lon, 360.0)
    lon = np.where(lon <= -180.0, lon + 360.0, np.where(lon > 180.0, lon - 360.0, lon))
    return np.radians(lat), np.radians(lon)


def map_positions(obj):
    """The position arrays of every geometry of a GeoJSON object, their
    positions and the lines among them: ``(arrays, lon_deg, lat_deg, lines)``.

    ``arrays`` pairs each array of positions of ``obj`` (a line, a ring or a
    MultiPoint's coordinates) with its length, and each Point's position with
    None, in document order; ``obj`` is left as it is.  Every position is
    validated, and all of them come back as the columns lon_deg and lat_deg.
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
    return arrays, *_columns(positions), lines


def point_feature_collection(
    lon_deg: np.ndarray, lat_deg: np.ndarray, columns: dict
) -> Iterator[str]:
    """FeatureCollection of Point features, as pieces of the text ``dumps``
    writes for it: feature i is at (lon_deg[i], lat_deg[i]) with one
    property per column, column[i].

    Every value is checked before this returns, so the first non-finite
    one raises here.  The text then comes ``_ROW_BLOCK`` features at a
    time, each block written by the number kernel in the one workspace
    that the generator makes.
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
    block_rows = min(_ROW_BLOCK, len(lon_deg))

    def text():
        # the literal words are written into the rows once; each block
        # writes its values' words after them
        literals = [_words(piece) for piece in pieces]
        work = _Workspace(block_rows, len(table), 3 * len(table) + sum(map(len, literals)))
        slots, at = [], 0  # the column of each value's first word
        for literal in literals:
            work.rows[:, at:at + len(literal)] = literal
            slots.append(at + len(literal))
            at = slots[-1] + 3
        yield '{"type": "FeatureCollection", "features": ['
        for start in range(0, len(lon_deg), block_rows) if block_rows else ():
            n = min(block_rows, len(lon_deg) - start)
            values = np.concatenate([column[start:start + n] for column in table],
                                    out=work.values[:len(table) * n])
            rows = work.rows[:n]
            for words, at in zip(_number_words(values, work).reshape(3, -1, n).transpose(1, 2, 0),
                                 slots):
                rows[:, at:at + 3] = words
            rows[-1, -len(last):] = last
            if start:
                yield ", "
            yield _text(rows, work)
        yield "]}"

    return text()
