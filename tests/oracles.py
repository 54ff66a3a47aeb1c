"""Oracles that only the tests use: a scalar longitude wrap, the inverse
projection, the numerical Schwarzian derivative, Gauss's spheroid-to-sphere
reduction, the area of a spherical polygon, the conformality defect of any
projection callable and the finite-difference dilatation that probes like
it, and the chart mesh's points and the Shortley-Weller operator as they
were first computed, per unknown and arm and from five coefficient boxes.

No subcommand runs them; acceptance criteria 7, 5, 8 and 3, the round
trips through the projection kernel, and the chebyshev and distortion
tests do.
"""

import math
from typing import Callable

import numpy as np

from carta.distortion import DEFAULT_STEP, _DIAGONALS, _angle_defect, _probes
from carta.errors import (
    CartaError,
    DomainEdge,
    DomainError,
    PointAtInfinity,
    PoleSingularity,
)
from carta.geometry import TWO_PI, Inversion, sphere_point
from carta.lagrange import LagrangeProjectionSpec
from carta.surfaces import (
    SPHERE,
    SurfaceOfRevolution,
    conformal_latitude,
    conformal_scale,
    gudermannian,
    inverse_conformal_latitude,
    isometric_coordinate,
)

def wrap_longitude(lon: float) -> float:
    """One longitude wrapped into (-pi, pi] by scalar arithmetic, apart
    from the package's ``normalize_longitude_array``."""
    lon = math.fmod(lon, TWO_PI)
    if lon <= -math.pi:
        lon += TWO_PI
    elif lon > math.pi:
        lon -= TWO_PI
    return lon


# -- the inverse projection -----------------------------------------------------------
#
# The scalar inverse of the projection kernel, which the round-trip tests
# check project_array against; no subcommand runs a map backwards.


class OutsideImage(DomainError):
    """Plane point outside the image of the projection."""


def unit_vector(lat: float, lon: float) -> np.ndarray:
    cl = math.cos(lat)
    return np.array([cl * math.cos(lon), cl * math.sin(lon), math.sin(lat)])


def invert_point(inv: Inversion, p: complex) -> complex:
    """Apply an inversion to a point; involutive away from the pole."""
    d = p - inv.pole
    r2 = d.real * d.real + d.imag * d.imag
    if math.sqrt(r2) < 1e-14:
        raise PoleSingularity("point at the inversion pole")
    s = inv.power / r2
    return complex(inv.pole.real + s * d.real, inv.pole.imag + s * d.imag)


def unproject(spec: LagrangeProjectionSpec, w: complex) -> tuple[float, float]:
    """Inverse projection to (latitude, longitude), in radians; raises
    OutsideImage off the principal branch."""
    post = spec.post_transform
    if post is not None:
        if isinstance(post, Inversion):
            w = invert_point(post, w)  # inversions are involutive
        else:  # the inverse of a Mobius map with det = 1
            den = post.a - post.c * w
            if abs(den) < 1e-14:
                raise PointAtInfinity(f"point {w} maps to infinity")
            w = (post.d * w - post.b) / den
    c = spec.exponent
    rho_c = abs(w)
    if rho_c == 0.0:
        lat = -math.pi / 2
        lon = spec.central_meridian
    else:
        omega = math.atan2(w.imag, w.real)
        if abs(omega) > c * math.pi + 1e-12:
            raise OutsideImage(f"angle {omega} outside the image sector of c={c}")
        rho = rho_c ** (1.0 / c)
        lat = 2.0 * math.atan(rho) - math.pi / 2
        lon = wrap_longitude(omega / c + spec.central_meridian)
    return inverse_conformal_latitude(spec.surface.eccentricity, lat), lon


# -- Schwarzian derivative S(f) = f'''/f' - (3/2)(f''/f')^2 ---------------------------
#
# S vanishes exactly on Mobius transformations, so it classifies a transition
# map between two charts as circle-preserving or not (a deviation below 1e-6
# is the working verdict).  All derivatives come from complex central
# differences with Richardson extrapolation; before the third-derivative
# stage the map is post-composed with the Mobius transform built from its
# own estimated 2-jet, which leaves S unchanged while cancelling the
# catastrophic f'''/f' vs (f''/f')^2 subtraction near poles.

DEFAULT_PROBE_STEP = 5e-3
CRITICAL_DERIVATIVE = 1e-10

# ratio of the derivative-stage step to the jet-stage step; larger steps
# are safe on the normalized map and push down the roundoff floor
_STAGE_STEP_RATIO = 12.0


class CriticalPoint(ValueError):
    """|f'| below CRITICAL_DERIVATIVE: the Schwarzian derivative is undefined."""


def _jet(f, z: complex, h: float) -> tuple[complex, complex, complex]:
    """(f, f', f'') at z, order-4 central differences on f - f(z)."""
    f0 = f(z)
    gp, gm = f(z + h) - f0, f(z - h) - f0
    gph, gmh = f(z + h / 2) - f0, f(z - h / 2) - f0
    d1 = (4.0 * (gph - gmh) / h - (gp - gm) / (2.0 * h)) / 3.0
    d2 = (4.0 * (gph + gmh) / (h / 2) ** 2 - (gp + gm) / h**2) / 3.0
    return f0, d1, d2


def _richardson6(by_step: dict[float, complex]) -> tuple[complex, complex]:
    """(order-6 value, order-4 value at the finest pair) from three dyadic
    step estimates keyed 1, 0.5, 0.25."""
    r_coarse = (4.0 * by_step[0.5] - by_step[1.0]) / 3.0
    r_fine = (4.0 * by_step[0.25] - by_step[0.5]) / 3.0
    return (16.0 * r_fine - r_coarse) / 15.0, r_fine


def schwarzian(f, z: complex, h: float = DEFAULT_PROBE_STEP) -> tuple[complex, float]:
    """(S(f)(z), an error bound from the extrapolation gaps), probing the
    complex-differentiable map ``f`` at steps ``h`` around ``z``."""
    f0, f1, f2 = _jet(f, z, h)
    if abs(f1) < CRITICAL_DERIVATIVE:
        raise CriticalPoint(f"|f'({z})| = {abs(f1)} below {CRITICAL_DERIVATIVE}")

    # Mobius normalization from the 2-jet: F = w + (S/6) w^3 + O(w^4)
    half_curve = f2 / (2.0 * f1)

    def normalized(w: complex) -> complex:
        v = f(z + w) - f0
        return v / (f1 + half_curve * v)

    big_h = _STAGE_STEP_RATIO * h
    vals = {s: normalized(s * big_h) for s in (2, 1, 0.5, 0.25, -0.25, -0.5, -1, -2)}
    d1 = {
        s: (vals[s] - vals[-s]) / (2.0 * s * big_h) for s in (1, 0.5, 0.25)
    }
    d2 = {
        s: (vals[s] + vals[-s]) / (s * big_h) ** 2 for s in (1, 0.5, 0.25)
    }
    d3 = {
        s: (vals[2 * s] - 2 * vals[s] + 2 * vals[-s] - vals[-2 * s])
        / (2.0 * (s * big_h) ** 3)
        for s in (1, 0.5, 0.25)
    }
    g1, g1_coarse = _richardson6(d1)
    g2, g2_coarse = _richardson6(d2)
    g3, g3_coarse = _richardson6(d3)
    if abs(g1) < CRITICAL_DERIVATIVE:
        raise CriticalPoint("normalized map is critical at the sample point")

    value = g3 / g1 - 1.5 * (g2 / g1) ** 2
    # first-order propagation of the order-6 vs order-4 gaps, plus a
    # roundoff floor (the gaps alone underestimate noise-dominated error):
    # each normalized value carries the evaluation noise of f scaled by
    # 1/f', and the finest stencil divides it by powers of the step
    e1, e2, e3 = abs(g1 - g1_coarse), abs(g2 - g2_coarse), abs(g3 - g3_coarse)
    noise = 2.3e-16 * (abs(f0) + abs(f1) * (1.0 + 2.0 * big_h)) / abs(f1)
    e3 += 800.0 * noise / big_h**3
    e2 += 120.0 * noise / big_h**2
    error = (
        e3 / abs(g1)
        + 3.0 * abs(g2) / abs(g1) ** 2 * e2
        + (abs(g3) / abs(g1) ** 2 + 3.0 * abs(g2) ** 2 / abs(g1) ** 3) * e1
    )
    return value, error


def derivative(f, z: complex, h: float = DEFAULT_PROBE_STEP) -> complex:
    """First derivative by order-6 Richardson central differences."""
    d1 = {s: (f(z + s * h) - f(z - s * h)) / (2.0 * s * h) for s in (1, 0.5, 0.25)}
    return _richardson6(d1)[0]


def schwarzian_cocycle_residual(f, g, z: complex, h: float = DEFAULT_PROBE_STEP) -> float:
    """Violation of S(f.g)(z) = S(f)(g(z)) g'(z)^2 + S(g)(z)."""
    gz = g(z)
    gp = derivative(g, z, h)
    if abs(gp) < CRITICAL_DERIVATIVE:
        raise CriticalPoint("g is critical at the chaining point")
    s_f = schwarzian(f, gz, h)[0]
    s_g = schwarzian(g, z, h)[0]
    s_fg = schwarzian(lambda w: f(g(w)), z, h)[0]
    return abs(s_fg - (s_f * gp * gp + s_g))


def mobius_deviation(f, sample_points, h: float = DEFAULT_PROBE_STEP) -> float:
    """max |S(f)| over the admissible sample points.

    Points where f is critical are skipped; at least five must remain.
    """
    deviations = []
    for z in sample_points:
        try:
            deviations.append(abs(schwarzian(f, z, h)[0]))
        except CriticalPoint:
            continue
    if len(deviations) < 5:
        raise CriticalPoint(
            f"only {len(deviations)} admissible sample points (need 5)"
        )
    return max(deviations)


# -- Gauss's spheroid-to-sphere reduction ------------------------------------------------


def parallel_radius(eccentricity: float, latitude):
    """Distance from the spheroid point (a = 1) to the rotation axis."""
    e2 = eccentricity**2
    return np.cos(latitude) / np.sqrt(1.0 - e2 * np.sin(latitude) ** 2)


def gauss_constants(eccentricity: float, central_latitude: float) -> tuple:
    """(alpha, R, ln K) of the conformal map of the spheroid (a = 1) onto
    a sphere of radius R that matches isometric coordinates up to an affine
    map, sigma_sphere(psi) = alpha sigma_spheroid(lat) + ln K, with
    longitudes scaled by the same alpha.  They make the point scale 1 at
    the central latitude with vanishing first and second derivatives there,
    which keeps the scale constant along a meridian to third order."""
    surface = SurfaceOfRevolution(eccentricity)  # ValueError outside [0, 1)
    e2 = eccentricity**2
    ep2 = e2 / (1.0 - e2)
    phi0 = central_latitude
    alpha = math.sqrt(1.0 + ep2 * math.cos(phi0) ** 4)
    psi0 = math.asin(math.sin(phi0) / alpha)
    log_k = math.asinh(math.tan(psi0)) - alpha * isometric_coordinate(surface, phi0)
    radius = parallel_radius(eccentricity, phi0) / (alpha * math.cos(psi0))
    return alpha, radius, log_k


def gauss_scale(eccentricity: float, central_latitude: float, latitude: float) -> float:
    """Pointwise similarity ratio of the spheroid->sphere conformal map."""
    if eccentricity == 0.0:
        return 1.0
    alpha, radius, log_k = gauss_constants(eccentricity, central_latitude)
    surface = SurfaceOfRevolution(eccentricity)
    psi = gudermannian(alpha * isometric_coordinate(surface, latitude) + log_k)
    return radius * alpha * math.cos(psi) / parallel_radius(eccentricity, latitude)


# -- spherical polygon area -----------------------------------------------------------


def spherical_polygon_area(vertices) -> float:
    """Area (steradians) of a simple great-circle polygon of (latitude,
    longitude) vertices via angle excess.

    Vertices are traversed with the interior on the left; the result is
    sum(interior angles) - (n - 2) pi, computed from signed turning angles
    on unit 3-vectors, which stays stable near the poles.
    """
    n = len(vertices)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    v = np.array([unit_vector(*p) for p in vertices])
    nxt = np.roll(v, -1, axis=0)
    chord = np.linalg.norm(nxt - v, axis=1)
    anti = np.linalg.norm(nxt + v, axis=1)
    if np.any(chord < 1e-12):
        raise ValueError("repeated consecutive vertices")
    if np.any(anti < 1e-9):
        raise ValueError("antipodal consecutive vertices")

    # tangent at each vertex of the outgoing edge: (v x next) x v
    edge_normal = np.cross(v, nxt)
    t_out = np.cross(edge_normal, v)
    t_out /= np.linalg.norm(t_out, axis=1)[:, None]
    # tangent of arrival at the NEXT vertex along the same edge
    t_in_next = np.cross(edge_normal, nxt)
    t_in_next /= np.linalg.norm(t_in_next, axis=1)[:, None]
    t_in = np.roll(t_in_next, 1, axis=0)

    cross = np.cross(t_in, t_out)
    turn = np.arctan2(np.einsum("ij,ij->i", cross, v), np.einsum("ij,ij->i", t_in, t_out))
    return float(TWO_PI - np.sum(turn))


# -- the conformality defect of any projection callable ------------------------------
#
# The probes of the package's batched conformality defect about one point,
# each taken back to the surface's geodetic latitude and passed to a
# callable one at a time: the reference the batched defect is tested
# against, and the probing of the finite-difference dilatation below.

# a map of (latitude, longitude) in radians to the image plane
Projection = Callable[[float, float], complex]


def _check_step(h: float) -> None:
    if not (1e-8 <= h <= 1e-2):
        raise ValueError(f"finite-difference step {h} outside [1e-8, 1e-2]")


def _images(
    projection: Projection, lat: float, lon: float, h: float, bearings, surface
) -> np.ndarray:
    """Images of the probes of ``_probes`` about the point (lat, lon), each
    taken back to the surface's geodetic latitude."""
    e = surface.eccentricity
    chi, lon = _probes(conformal_latitude(e, [lat]), [lon], h, bearings)
    lat = inverse_conformal_latitude(e, chi)
    images = []
    for a, b in zip(lat[:, 0].tolist(), lon[:, 0].tolist()):
        try:
            images.append(projection(a, b))
        except CartaError as exc:
            raise DomainEdge(f"probe left the projection domain: {exc}") from exc
    return np.array(images)


def conformality_defect(
    projection: Projection,
    lat: float,
    lon: float,
    h: float = DEFAULT_STEP,
    surface=SPHERE,
) -> float:
    """Deviation from pi/2 of the image angle between the two diagonal
    directions, at 45 degrees to the meridian, at the point (lat, lon).

    Diagonals rather than the grid directions: a map may stretch the two
    graticule directions unequally while keeping them orthogonal (the
    plate carree does), and only the diagonals expose that distortion.
    """
    _check_step(h)
    lat, lon = sphere_point(lat, lon)
    defect, degenerate = _angle_defect(_images(projection, lat, lon, h, _DIAGONALS, surface))
    if degenerate:
        raise DomainEdge("degenerate probe image")
    return float(defect)


# -- finite-difference dilatation ---------------------------------------------------
#
# Central differences of an arbitrary projection callable, probing along
# great circles of the conformal sphere like the conformality defect: the
# closed-form dilatation's reference (criterion 3).

# probe bearings, clockwise from north: the meridian and the parallel, each
# pair along one great circle
_AXES = np.radians([0.0, 180.0, 90.0, 270.0])


def directional_dilatations(
    projection: Projection,
    lat: float,
    lon: float,
    h: float = DEFAULT_STEP,
    surface=SPHERE,
) -> tuple[float, float]:
    """Central-difference dilatation along the meridian and the parallel.

    For a conformal map the two values agree to O(h^2); their split is the
    raw material of both the dilatation and the isotropy diagnostics.
    """
    _check_step(h)
    images = _images(projection, lat, lon, h, _AXES, surface)
    scale = conformal_scale(surface, lat) / (2.0 * h)
    return float(abs(images[0] - images[1]) * scale), float(abs(images[2] - images[3]) * scale)


def dilatation_fd(
    projection: Projection,
    lat: float,
    lon: float,
    h: float = DEFAULT_STEP,
    surface=SPHERE,
) -> float:
    """Finite-difference dilatation: geometric mean of the two directions."""
    mer, par = directional_dilatations(projection, lat, lon, h, surface)
    return math.sqrt(mer * par)


# -- the chart mesh and its operator, written plainly ------------------------------

ARM_SHIFTS = ((0, 1), (0, -1), (1, 0), (-1, 0))  # east, west, north, south


def mesh_points(unknown, arms):
    """Box row and column of a chart mesh's points, from (n, 4) arrays of
    the unknowns' arms: the unknowns in row order, the nodes off them
    where a full arm ends, then the short arms' ends, by unknown and arm."""
    jj, ii = np.nonzero(unknown)
    theta = arms[:, jj, ii].T
    dj, di = np.array(ARM_SHIFTS).T
    nj, ni = jj[:, None] + dj, ii[:, None] + di
    full = theta == 1.0
    edge = np.zeros(unknown.shape, dtype=bool)
    edge[nj[full], ni[full]] = True
    bj, bi = np.nonzero(edge & ~unknown)
    return (np.concatenate([jj, bj, (jj[:, None] + dj * theta)[~full]]),
            np.concatenate([ii, bi, (ii[:, None] + di * theta)[~full]]))


def shortley_weller_coefficients(arms, mask, spacing, min_arm):
    """(5, rows, cols): the diagonal and east, west, north and south
    Shortley-Weller coefficients of each box node, all 0 off the unknowns,
    for arms in steps of ``spacing`` and at least ``min_arm``; an arm keeps
    its coefficient where it is full and the next node is unknown."""
    east, west, north, south = np.maximum(arms[:, mask], min_arm)
    coeffs = np.zeros((5,) + mask.shape)
    coeffs[:, mask] = 2.0 / spacing**2 * np.stack(
        [-(1 / (east * west) + 1 / (north * south)),
         1 / (east * (east + west)), 1 / (west * (east + west)),
         1 / (north * (north + south)), 1 / (south * (north + south))]
    )
    for arm, (dj, di) in enumerate(ARM_SHIFTS, 1):
        coeffs[arm] *= (arms[arm - 1] == 1.0) & np.roll(mask, (-dj, -di), axis=(0, 1))
    return coeffs


def apply_coefficients(coeffs, u):
    """The operator of the coefficient boxes times ``u``, on the flattened
    box, node by node: the diagonal term, then east, west, north and south."""
    cols, c, v = u.shape[1], coeffs.reshape(5, -1), u.reshape(-1)
    out = c[0] * v
    out[:-1] += c[1, :-1] * v[1:]
    out[1:] += c[2, 1:] * v[:-1]
    out[:-cols] += c[3, :-cols] * v[cols:]
    out[cols:] += c[4, cols:] * v[:-cols]
    return out.reshape(u.shape)
