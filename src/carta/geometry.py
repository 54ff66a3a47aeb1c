"""Points of the sphere and the plane, inversive geometry in the plane, and
a least-squares generalized-circle fit.

Conventions used throughout the package:

* the sphere is the unit sphere; latitude in [-pi/2, pi/2], longitude
  normalized to (-pi, pi];
* the stereographic projection is centred at the North pole and maps onto
  the equator plane, so the South pole goes to the origin and the equator
  to the unit circle;
* a "generalized circle" is a circle or a straight line, the class of
  curves preserved by Mobius transformations and inversions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DegenerateTransform, InsufficientPoints, NonFiniteValue

TWO_PI = 2.0 * math.pi

# Points closer to the North pole than this (in colatitude) cannot be
# projected stereographically.
POLE_COLATITUDE_EPS = 1e-12

# Curvature below which a fitted circle is reported as a line.
LINE_CURVATURE_EPS = 1e-10


def normalize_longitude(lon: float) -> float:
    """Wrap a longitude into the half-open interval (-pi, pi]."""
    lon = math.fmod(lon, TWO_PI)
    if lon <= -math.pi:
        lon += TWO_PI
    elif lon > math.pi:
        lon -= TWO_PI
    return lon


def normalize_longitude_array(lon: np.ndarray) -> np.ndarray:
    """``normalize_longitude`` elementwise, with the same arithmetic."""
    lon = np.fmod(lon, TWO_PI)
    return np.where(lon <= -math.pi, lon + TWO_PI, np.where(lon > math.pi, lon - TWO_PI, lon))


@dataclass(frozen=True)
class SpherePoint:
    """Position on the unit sphere, latitude/longitude in radians."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not (-math.pi / 2 <= self.latitude <= math.pi / 2):
            raise ValueError(f"latitude {self.latitude} outside [-pi/2, pi/2]")
        if not math.isfinite(self.longitude):
            raise ValueError(f"longitude {self.longitude} is not finite")
        object.__setattr__(self, "longitude", normalize_longitude(self.longitude))

    @classmethod
    def from_degrees(cls, lat_deg: float, lon_deg: float) -> "SpherePoint":
        return cls(math.radians(lat_deg), math.radians(lon_deg))

    @property
    def colatitude(self) -> float:
        return math.pi / 2 - self.latitude


@dataclass(frozen=True)
class PlanePoint:
    """Point of the image plane in rectangular coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFiniteValue(f"non-finite plane point ({self.x}, {self.y})")

    @classmethod
    def from_complex(cls, z: complex) -> "PlanePoint":
        return cls(z.real, z.imag)

    def as_complex(self) -> complex:
        return complex(self.x, self.y)

    def distance(self, other: "PlanePoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class GeneralizedCircle:
    """Circle, or straight line as the infinite-radius degenerate case.

    Circles carry ``center`` and ``radius``; lines carry a unit ``normal``
    and signed ``offset`` so the line is ``{p : normal . p = offset}``.
    """

    kind: Literal["circle", "line"]
    center: PlanePoint | None = None
    radius: float | None = None
    normal: tuple[float, float] | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.kind == "circle":
            if self.center is None or self.radius is None or self.radius <= 0:
                raise ValueError("circle needs a center and a positive radius")
        elif self.kind == "line":
            if self.normal is None or self.offset is None:
                raise ValueError("line needs a normal and an offset")
            nx, ny = self.normal
            norm = math.hypot(nx, ny)
            if abs(norm - 1.0) > 1e-12:
                raise ValueError("line normal must be a unit vector")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class MobiusTransform:
    """Plane map z -> (a z + b) / (c z + d), stored normalized to det = 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0.0 or abs(det) <= 1e-12 * scale * scale:
            raise DegenerateTransform(f"determinant {det} too close to zero")
        s = cmath.sqrt(det)
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)) / s)


@dataclass(frozen=True)
class Inversion:
    """Inversion p -> pole + k (p - pole) / |p - pole|^2 with power k != 0."""

    pole: PlanePoint
    power: float

    def __post_init__(self):
        if self.power == 0.0 or not math.isfinite(self.power):
            raise ValueError("inversion power must be finite and non-zero")


# -- least-squares generalized circle fit ---------------------------------------
#
# Pratt's algebraic fit: minimize sum (A|p|^2 + B x + C y + D)^2 subject to
# B^2 + C^2 - 4 A D = 1.  Handles the line limit (A -> 0) gracefully and is
# exact on exact data, so a graticule curve that is a circle fits with a
# residual at rounding level (criterion 1).
#
# Many curves are fitted at once, each from its own points alone: its sums by
# np.add.reduceat, its eigenproblem as one matrix of a stacked np.linalg.eig,
# and every product written out (matmul's rounding can depend on the batch),
# so a curve's fit has the same bits alone or in any batch.

_FIT_FAILURES = (
    (NonFiniteValue, "non-finite plane point ({x[0]}, {y[0]})"),
    (InsufficientPoints, "need at least 3 points, got {n}"),
    (NonFiniteValue, "point spread beyond the floating-point range"),
    (InsufficientPoints, "all points coincide"),
    (InsufficientPoints, "degenerate configuration: no real fit"),
)


def circle_fit(x, y, ends):
    """Fit a generalized circle to each curve of the points (x[i], y[i]).

    ``ends`` holds the end of each curve in ``x`` and ``y``, in order, and
    the result is a list of (curve, rms orthogonal distance), one per curve.
    A fit degenerates to a line when its curvature magnitude is below
    ``LINE_CURVATURE_EPS``.  The first curve that cannot be fitted raises:
    NonFiniteValue for a non-finite coordinate, else InsufficientPoints for
    < 3 points, else the fit's own failure: a spread beyond the float range,
    coincident points or no real fit.
    """
    ends = np.asarray(ends, dtype=np.intp)
    counts = np.diff(ends, prepend=0)
    x, y = (np.asarray(v, dtype=float)[:counts.sum()] for v in (x, y))
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    # each curve's index in _FIT_FAILURES plus one, or 0; the curves with no
    # code yet are fitted from their own points, gathered
    code = np.where(counts < 3, 2, 0)
    code[np.searchsorted(ends, bad, side="right")] = 1
    fitted = code == 0
    n = counts[fitted]
    fx, fy = (v[np.repeat(fitted, counts)] for v in (x, y))

    def sums(v):
        return np.add.reduceat(v, np.cumsum(n) - n)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cx0, cy0 = sums(fx) / n, sums(fy) / n
        sx, sy = fx - np.repeat(cx0, n), fy - np.repeat(cy0, n)
        scale = np.sqrt(sums(sx * sx + sy * sy) / n)
        fit_code = np.select([~np.isfinite(scale), scale < 1e-14], [3, 4], 0)
        u, v = sx / np.repeat(scale, n), sy / np.repeat(scale, n)
        zz = u * u + v * v
        szzzz, szzu, szzv, szz, suu, suv, su, svv, sv = map(
            sums, (zz * zz, zz * u, zz * v, zz, u * u, u * v, u, v * v, v)
        )
    # the scatter matrix with the constraint's inverse applied, row by row
    matrices = np.stack([
        -0.5 * szz, -0.5 * su, -0.5 * sv, -0.5 * n,
        szzu, suu, suv, su,
        szzv, suv, svv, sv,
        -0.5 * szzzz, -0.5 * szzu, -0.5 * szzv, -0.5 * szz,
    ], axis=-1).reshape(-1, 4, 4)
    good = np.flatnonzero(fit_code == 0)
    lam, vectors = np.linalg.eig(matrices[good])
    # component j of eigenvector i at [j][:, i]
    a, b, c, d = np.real(vectors).transpose(1, 0, 2)
    q = ((a * (-2.0 * d) + b * b) + c * c) + d * (-2.0 * a)  # B^2 + C^2 - 4 A D
    admissible = np.abs(np.imag(lam)) <= 1e-8 * (1.0 + np.abs(lam))
    lam = np.real(lam)
    admissible &= (q > 1e-14) & (lam >= -1e-9)
    fit_code[good[~admissible.any(axis=1)]] = 5
    code[fitted] = fit_code
    failed = np.flatnonzero(code)[:1]
    if failed.size:
        # a curve with a non-finite point holds the first of them
        kind, message = _FIT_FAILURES[code[failed[0]] - 1]
        raise kind(message.format(x=x[bad], y=y[bad], n=counts[failed[0]]))
    # every curve is fitted: fx, fy and n are x, y and counts.  The admissible
    # eigenvector of least eigenvalue, normalized to q = 1
    pick = np.arange(len(n)), np.argmin(np.where(admissible, lam, np.inf), axis=1)
    A, B, C, D = (t[pick] / np.sqrt(q[pick]) for t in (a, b, c, d))
    # the printed line normals and offsets take math.hypot's rounding, which
    # np.hypot does not always give
    hypot = np.frompyfunc(math.hypot, 2, 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        line = 2.0 * np.abs(A) / scale < LINE_CURVATURE_EPS
        # a line's normal: B^2 + C^2 = 1 under the constraint once A ~ 0, and
        # its unit vector once more
        mag = hypot(B, C).astype(float)
        nx, ny = B / mag, C / mag
        unit = hypot(nx, ny).astype(float)
        cx, cy = -B / (2.0 * A), -C / (2.0 * A)
        # a circle's (center x, center y, radius) or a line's (normal, offset)
        params = (
            np.where(line, nx / unit, cx0 + scale * cx),
            np.where(line, ny / unit, cy0 + scale * cy),
            np.where(line, (scale * (-D / mag) + nx * cx0 + ny * cy0) / unit,
                     scale * np.sqrt(np.maximum(cx * cx + cy * cy - D / A, 0.0))),
        )
        # at each point; np.hypot, as every operation here, rounds each point alone
        p0, p1, p2, on_line = (np.repeat(t, counts) for t in (*params, line))
        residuals = np.where(
            on_line, np.abs(p0 * x + p1 * y - p2), np.abs(np.hypot(x - p0, y - p1) - p2)
        )
        rms = np.sqrt(sums(residuals * residuals) / counts)
    curves = [
        GeneralizedCircle("line", normal=(s, t), offset=w) if flat
        else GeneralizedCircle("circle", center=PlanePoint(s, t), radius=w)
        for flat, s, t, w in zip(*(t.tolist() for t in (line, *params)))
    ]
    return list(zip(curves, rms.tolist()))
