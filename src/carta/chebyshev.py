"""Log-scale field of the least-distorted conformal map of a sphere region.

Among conformal maps of a region, the one minimizing the max/min scale
ratio has constant scale on the boundary, and its log-scale u solves the
Poisson problem  Delta_sphere u = 1  with u = 0 on the boundary (the
boundary constant is free, so zero is used).  Solving that problem on a
mesh yields the optimal distortion ratio exp(-min u) directly, without
reconstructing the map itself: ``solve_log_scale`` returns u at the mesh
points as an array, and ``distortion_ratio`` reads it.

Caps and polygons share one discretization.  The region is drawn in the
stereographic chart centred on it, which is conformal, so the equation
becomes  Delta_z u = 4 / (1 + |z|^2)^2, its right-hand side taken at the
grid nodes' chart coordinates.  Every boundary piece is a plane section
n.v = d of the sphere (a cap is one circle, a polygon edge a great-circle
arc with d = 0), so it crosses each line of a square chart grid where a
quadratic is zero.  Those crossings give the even-odd inside test and the
arm lengths of the Shortley-Weller stencil (J. Appl. Phys. 9, 334, 1938),
whose arms end on the true boundary: the solve is second order, for
regions around a pole too.

The linear system is solved on box-shaped arrays of the chart grid by
BiCGSTAB (van der Vorst, SIAM J. Sci. Stat. Comput. 13, 1992), right-
preconditioned by one geometric-multigrid V-cycle.  The grid is anchored
at the chart origin, so the unknowns at even indices are the nodes of the
grid of twice the step: each coarser level keeps those, with the
Shortley-Weller stencil of that grid, whose arms follow from the finer
level's, and every level, the last too, is smoothed by Jacobi sweeps.
Most unknowns have four full arms that end at unknowns, where the
operator is the plain 5-point stencil: a level applies that stencil to
its whole box at once, then writes the Shortley-Weller rows, those of the
unknowns with an arm that is short or ends at a boundary point, from
their own coefficients.  A level keeps coefficients and neighbour indices
for those irregular rows only, and finds and fills them without computing
any coefficient of the plain rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBoundary,
    EmptyRegion,
    NoConvergence,
    RegionTooSmall,
    SelfIntersectingBoundary,
)
from .geometry import normalize_longitude_array
from .lagrange import LagrangeProjectionSpec, dilatation_array

RESIDUAL_TOL = 1e-8

# a grid node closer than this (in grid spacings) to the boundary is taken
# as a boundary point: its stencil would divide by the distance
_MIN_ARM = 1e-6

_ARM_SHIFTS = ((0, 1), (0, -1), (1, 0), (-1, 0))  # east, west, north, south

# _chart_mesh refuses chart grids of more nodes than this, counted before
# any array is built.  A chebyshev run, with --out or without, peaks at
# about 0.17 KiB of RSS per grid node on top of 34 MiB (the 60 and 75
# degree caps at the default 0.25 degree step, 533 x 533 and 708 x 708
# nodes, took 80.8 and 118.6 MiB), so a run of 533 x 533 nodes stays under
# 90 MiB and a run at the limit near 210 MiB; every cap the CLI takes
# (under 90 degrees) fits at the default step.
CHART_NODE_LIMIT = 1 << 20


@dataclass(frozen=True)
class RegionMesh:
    """Chart grid nodes inside a region, then the boundary points where
    their stencil arms end.

    The unknowns, the first ``interior_count`` points in row order, are
    the nodes of ``mask``: a box of the chart grid whose first row and
    column are at even indices and whose border holds no unknown.  On them
    ``arms`` gives the length in grid spacings of each arm, east, west,
    north and south: 1 for a full arm, which ends at the next node, less
    where it meets the boundary.
    """

    delta: float  # geodesic spacing asked for: the chart spacing is delta / 2
    center: np.ndarray  # unit vector of the chart centre
    latitudes: np.ndarray  # per point
    longitudes: np.ndarray
    mask: np.ndarray  # (rows, cols) the unknowns
    arms: np.ndarray  # (4, rows, cols) in (0, 1] on the unknowns
    origin: tuple[int, int]  # chart-grid row and column of the box's first node

    @property
    def node_count(self) -> int:
        return len(self.latitudes)

    @property
    def interior_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def node_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(latitude, longitude) arrays of all mesh points."""
        return self.latitudes, self.longitudes


# -- region meshing ------------------------------------------------------------


def _close_ring(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Unit vectors of the distinct vertices: a last one within 1e-12
    (chord) of the first is dropped, as is each within 1e-12 of the last kept."""
    cos_lat = np.cos(lat)
    units = np.column_stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)])
    if len(units) > 1 and np.linalg.norm(units[0] - units[-1]) < 1e-12:
        units = units[:-1]
    apart = (np.linalg.norm(np.diff(units, axis=0), axis=1) > 1e-12).tolist()
    keep = [0] if len(units) else []
    for i in range(1, len(units)):  # the step from vertex i - 1 serves if that was kept
        if apart[i - 1] if keep[-1] == i - 1 else np.linalg.norm(units[i] - units[keep[-1]]) > 1e-12:
            keep.append(i)
    if len(keep) < 3:
        raise DegenerateBoundary(f"boundary has {len(keep)} distinct vertices")
    return units[keep]


def _frame(center: np.ndarray) -> np.ndarray:
    """Rows e1, e2, center: an orthonormal frame with the chart axes first."""
    helper = np.array([0.0, 0.0, 1.0]) if abs(center[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(center, helper)
    e1 /= np.linalg.norm(e1)
    return np.array([e1, np.cross(center, e1), center])


def _gnomonic_frame(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(frame, vertices in it) of the tangent-plane chart about the vertex
    centroid; great circles map to straight lines through the chart's
    projection v -> v[:2] / v[2], so polygon edges become segments."""
    center = units.sum(axis=0)
    norm = np.linalg.norm(center)
    if norm < 1e-9:
        raise SelfIntersectingBoundary("boundary vertices have no mean direction")
    frame = _frame(center / norm)
    local = units @ frame.T
    if np.any(local[:, 2] < math.cos(math.radians(89.0))):
        raise SelfIntersectingBoundary("region is not contained in one hemisphere (with margin)")
    return frame, local


# segment pairs tested at once in _check_simple: each temporary array
# holds this many values (1 MB of float64)
_PAIR_BLOCK = 1 << 17


def _check_simple(poly_xy: np.ndarray) -> None:
    """Raise for the first pair (i, j), i < j, of non-adjacent edges that
    cross properly (edge i runs from vertex i to vertex i + 1).

    Edges that cross share a point, so only the pairs whose x- and
    y-ranges overlap are tested.  The plane is cut into horizontal strips
    at least as tall as the edges are on average, and each edge is listed
    in every strip its y-range meets: at most three per edge on average.
    Within a strip, with its edges sorted by their least x, the partners
    of each edge follow it up to the first that starts past its greatest
    x.  Two edges whose y-ranges overlap share the strip of the higher of
    their lowest points, and are tested there only.  All pairs are
    numbered and tested in blocks.
    """
    n = len(poly_xy)
    x, y = poly_xy[:, 0], poly_xy[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)  # far end of each edge
    ex, ey = x2 - x, y2 - y
    # strips no shorter than 1/n of the ring's height: at most n + 1 of them
    height = max(np.abs(ey).mean(), (y.max() - y.min()) / n) or 1.0
    bottom = np.floor((np.minimum(y, y2) - y.min()) / height).astype(int)
    strips = np.floor((np.maximum(y, y2) - y.min()) / height).astype(int) - bottom + 1
    edge = np.repeat(np.arange(n), strips)
    strip = bottom[edge] + np.arange(len(edge)) - np.repeat(np.cumsum(strips) - strips, strips)
    # x-ranges as ranks of their ends, so that (strip, x) is one integer key
    xrank = np.unique(np.concatenate([np.minimum(x, x2), np.maximum(x, x2)]), return_inverse=True)[1]
    lo, hi = (strip * 2 * n + r[edge] for r in (xrank[:n], xrank[n:]))
    order = np.argsort(lo)
    stop = np.searchsorted(lo[order], hi[order], side="right")
    counts = stop - np.arange(len(edge)) - 1  # partners of each sorted entry
    ends = np.cumsum(counts)
    total, first = int(ends[-1]), n * n
    for start in range(0, total, _PAIR_BLOCK):
        pair = np.arange(start, min(start + _PAIR_BLOCK, total))
        rank = np.searchsorted(ends, pair, side="right")
        a, b = order[rank], order[rank + 1 + pair - (ends[rank] - counts[rank])]
        own = strip[a] == np.maximum(bottom[edge[a]], bottom[edge[b]])
        a, b = edge[a[own]], edge[b[own]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        d1 = ex[i] * (y[j] - y[i]) - ey[i] * (x[j] - x[i])
        d2 = ex[i] * (y2[j] - y[i]) - ey[i] * (x2[j] - x[i])
        d3 = ex[j] * (y[i] - y[j]) - ey[j] * (x[i] - x[j])
        d4 = ex[j] * (y2[i] - y[j]) - ey[j] * (x2[i] - x[j])
        adjacent = (j - i == 1) | (j - i == n - 1)
        crossing = (d1 * d2 < 0) & (d3 * d4 < 0) & ~adjacent
        if crossing.any():
            first = min(first, int((i * n + j)[crossing].min()))
    if first < n * n:
        raise SelfIntersectingBoundary(f"boundary edges {first // n} and {first % n} cross")


def _extent(normals, offsets, ends, axes):
    """The least and greatest v of each boundary piece in the chart, as
    ``_crossings`` orders the axes: exact for a circle, for an arc the
    range of its ends widened by how far the arc bulges past its chord."""
    order = [*axes, 2]
    a, b, g = normals[:, order].T
    area = g + offsets  # chart curve: area |z|^2 - 2 a u - 2 b v + offsets - g = 0
    radius_area = np.sqrt(np.maximum(a * a + b * b + g * g - offsets**2, 0.0))
    if ends is None:
        return (b - radius_area) / area, (b + radius_area) / area
    start, stop = (e[:, order] for e in ends)
    (us, vs), (ut, vt) = (e[:, :2].T / (1.0 + e[:, 2]) for e in (start, stop))
    half2 = ((us - ut) ** 2 + (vs - vt) ** 2) / 4
    # sagitta of the chord: how far the arc bulges past its ends
    sag = half2 * np.abs(area) / (
        radius_area + np.sqrt(np.maximum(radius_area**2 - half2 * area**2, 0.0))
    )
    return np.minimum(vs, vt) - sag, np.maximum(vs, vt) + sag


def _crossings(normals, offsets, ends, h, axes, lo, hi):
    """Crossings of the chart lines v = j h (j integer) with the boundary.

    The pieces are the planes n.v = d, in frame coordinates; ``ends`` is
    None for full circles, else the (start, stop) unit vectors of
    great-circle arcs.  ``axes`` orders the chart axes as (u, v): (0, 1)
    for lines of constant y, (1, 0) for lines of constant x, and (lo, hi)
    are the pieces' ``_extent`` in v.  Returns the line numbers j and the
    crossings' u in grid spacings.

    An arc crosses a line an odd number of times exactly when its two ends
    lie on either side of it (an end on the line counts as below), so the
    ends, which neighbouring arcs share, fix the parity and the roots only
    place the crossings.  How far inside the arc each root lies (its
    margin, in radians) picks the root when the parity is odd, and both
    roots or neither when it is even.
    """
    order = [*axes, 2]
    a, b, g = normals[:, order].T
    area = g + offsets
    if ends is not None:
        across = np.cross(normals, ends[0])[:, order]
        total = np.arctan2(np.linalg.norm(np.cross(*ends), axis=1), np.sum(ends[0] * ends[1], 1))
        start, stop = (e[:, order] for e in ends)
        vs, vt = (e[:, 1] / (1.0 + e[:, 2]) for e in (start, stop))
    first = np.ceil(lo / h).astype(int)
    counts = np.maximum(np.floor(hi / h).astype(int) - first + 1, 0)
    piece = np.repeat(np.arange(len(a)), counts)
    line = first[piece] + np.arange(len(piece)) - np.repeat(np.cumsum(counts) - counts, counts)
    v = line * h
    quad, lin = area[piece], -2.0 * a[piece]
    const = quad * v * v - 2.0 * b[piece] * v + (offsets - g)[piece]
    disc = lin * lin - 4.0 * quad * const
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (lin + np.copysign(np.sqrt(np.maximum(disc, 0.0)), lin))
        roots = np.stack([q / quad, const / q])  # no cancellation; a line's q / 0 is dropped
    finite = np.isfinite(roots)
    if ends is None:  # a tangent line (disc = 0) crosses twice or not at all: not at all
        keep = finite & (disc > 0)
    else:

        def dot(e):  # (1 + |z|^2) times the root's unit vector, dotted with e
            e = e[piece]
            return 2.0 * (roots * e[:, 0] + v * e[:, 1]) + (1.0 - roots**2 - v * v) * e[:, 2]

        with np.errstate(invalid="ignore"):
            angle = np.arctan2(dot(across), dot(start))
        margin = np.where(finite, np.minimum(angle, total[piece] - angle), -np.inf)
        odd = (vs[piece] > v) != (vt[piece] > v)
        first_root = margin[0] >= margin[1]
        both = (disc > 0) & (margin.sum(axis=0) > 0)
        keep = finite & np.where(odd, [first_root, ~first_root], both)
    keep = keep.ravel()
    return np.concatenate([line, line])[keep], (roots / h).ravel()[keep]


def _chart_mesh(frame, normals, offsets, ends, delta) -> RegionMesh:
    """Mesh the region bounded by the plane sections n.v = d (in the
    coordinates of ``frame``) on the chart grid of spacing delta / 2.

    A grid of more than ``CHART_NODE_LIMIT`` nodes is refused before
    anything of its size is built."""
    h = delta / 2
    # the grid spans the pieces' extents, from an even index with a node
    # to spare on every side: a span above the limit is refused uncounted
    # (rounding could overflow), as the grid is at least three nodes across
    axes = ((0, 1), (1, 0))
    extents = [_extent(normals, offsets, ends, a) for a in axes]
    spans = [(lo.min() / h, hi.max() / h) for lo, hi in extents]
    if not all(top - bottom <= CHART_NODE_LIMIT for bottom, top in spans):
        raise ConfigError(f"mesh step {delta:g} rad gives over {CHART_NODE_LIMIT} grid nodes")
    rows, cols = (math.ceil(top) + 2 - 2 * ((math.floor(bottom) - 1) // 2) for bottom, top in spans)
    if rows * cols > CHART_NODE_LIMIT:
        raise ConfigError(
            f"chart grid of {rows} x {cols} nodes is over the limit of {CHART_NODE_LIMIT} nodes"
        )
    (row_j, row_x), (col_i, col_y) = (
        _crossings(normals, offsets, ends, h, a, *extent) for a, extent in zip(axes, extents)
    )
    if not len(row_j):
        raise RegionTooSmall(f"no grid nodes inside the region at delta={delta}")
    # the grid spans the crossings with one node to spare on every side and
    # starts at even indices, where the coarse grids of the solve start
    xs, ys = np.concatenate([row_x, col_i]), np.concatenate([row_j, col_y])
    i0, j0 = (2 * ((math.floor(v.min()) - 1) // 2) for v in (xs, ys))
    shape = (math.ceil(ys.max()) + 2 - j0, math.ceil(xs.max()) + 2 - i0)

    arms = np.ones((4,) + shape)  # east, west, north, south
    inside = np.zeros(shape, dtype=bool)
    cell = np.floor(row_x).astype(int)
    r, c, frac = row_j - j0, cell - i0, row_x - cell
    np.logical_xor.at(inside, (r, c + 1), True)  # a crossing flips the nodes east of it
    np.minimum.at(arms[0], (r, c), frac)
    np.minimum.at(arms[1], (r, c + 1), 1.0 - frac)
    cell = np.floor(col_y).astype(int)
    r, c, frac = cell - j0, col_i - i0, col_y - cell
    np.minimum.at(arms[2], (r, c), frac)
    np.minimum.at(arms[3], (r + 1, c), 1.0 - frac)
    np.logical_xor.accumulate(inside, axis=1, out=inside)
    unknown = inside & (arms.min(axis=0) >= _MIN_ARM)

    n = np.count_nonzero(unknown)
    if n < 9:
        raise RegionTooSmall(f"only {n} interior nodes at delta={delta}")
    rows, cols = _mesh_points(unknown, arms)
    x, y = h * (i0 + cols), h * (j0 + rows)
    rho2 = x * x + y * y
    v = frame.T @ (np.stack([2.0 * x, 2.0 * y, 1.0 - rho2]) / (1.0 + rho2))
    return RegionMesh(
        delta=delta,
        center=frame[2],
        latitudes=np.arctan2(v[2], np.hypot(v[0], v[1])),
        longitudes=normalize_longitude_array(np.arctan2(v[1], v[0])),
        mask=unknown,
        arms=arms,
        origin=(j0, i0),
    )


def _mesh_points(unknown, arms) -> tuple[np.ndarray, np.ndarray]:
    """Box row and column of the mesh points: the unknowns in row order,
    the nodes off them where a full arm ends, then the ends of the short
    arms, ordered by unknown and then by arm."""
    edge = np.zeros(unknown.shape, dtype=bool)
    keys, rows, cols = [], [], []
    for arm, (dj, di) in enumerate(_ARM_SHIFTS):
        full = arms[arm] == 1.0
        # a full arm that does not reach an unknown ends at a node on the boundary
        edge |= np.roll(unknown & full, (dj, di), axis=(0, 1))
        jj, ii = np.nonzero(unknown & ~full)
        theta = arms[arm][jj, ii]
        keys.append(4 * (jj * unknown.shape[1] + ii) + arm)
        rows.append(jj + dj * theta)
        cols.append(ii + di * theta)
    order = np.argsort(np.concatenate(keys))
    (jj, ii), (bj, bi) = np.nonzero(unknown), np.nonzero(edge & ~unknown)
    return (np.concatenate([jj, bj, np.concatenate(rows)[order]]),
            np.concatenate([ii, bi, np.concatenate(cols)[order]]))


def build_cap_mesh(radius: float, delta: float) -> RegionMesh:
    """Mesh of the cap of the given geodesic radius about the South pole:
    a disc about the pole in the chart."""
    if not (0.0 < radius < math.pi / 2):
        raise ValueError(f"cap radius {radius} outside (0, pi/2)")
    if not delta > 0:
        raise ValueError("mesh spacing must be positive")
    frame = _frame(np.array([0.0, 0.0, -1.0]))
    circle = np.array([[0.0, 0.0, 1.0]]), np.array([math.cos(radius)])  # n = pole, d = cos R
    return _chart_mesh(frame, *circle, None, delta)


def build_region_mesh(lat: np.ndarray, lon: np.ndarray, delta: float) -> RegionMesh:
    """Mesh the inside of the closed boundary polyline through the vertices
    (lat[i], lon[i]), in radians, at spacing delta: its edges are
    great-circle arcs, and the chart is centred on the vertex centroid."""
    if not delta > 0:
        raise ValueError("mesh spacing must be positive")
    bad = np.flatnonzero(~((np.abs(lat) <= math.pi / 2) & np.isfinite(lon)))
    if bad.size:
        raise ValueError(f"boundary vertex ({lat[bad[0]]}, {lon[bad[0]]}): need a finite lon"
                         " and lat in [-pi/2, pi/2]")
    units = _close_ring(lat, normalize_longitude_array(lon))
    frame, starts = _gnomonic_frame(units)
    _check_simple(starts[:, :2] / starts[:, 2:])
    stops = np.roll(starts, -1, axis=0)
    normals = np.cross(starts, stops)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return _chart_mesh(frame, normals, np.zeros(len(units)), (starts, stops), delta)


# -- the Poisson solve ----------------------------------------------------------

# BiCGSTAB stops at a largest residual of _STOP, and gives up with
# NoConvergence after ITERATION_LIMIT iterations; a solve takes 6 to 8.
# Stopped at RESIDUAL_TOL / 10, u was up to 4e-11 (relative) off a dense
# solve of the same system; at RESIDUAL_TOL / 1000, within 1e-14.
ITERATION_LIMIT = 100
_STOP = RESIDUAL_TOL / 1000

# the multigrid hierarchy stops coarsening at a level of at most this many
# unknowns, which Jacobi sweeps alone smooth
_COARSEST = 16

_JACOBI_WEIGHT = 0.8
_SWEEPS = 3  # smoothing sweeps before and after each coarse correction


@dataclass(frozen=True)
class _Level:
    """One grid of the multigrid hierarchy, in a box of its chart grid whose
    first row and column are at even indices and whose border holds no
    unknown.  An unknown whose four arms are full and end at unknowns has
    the plain stencil: ``scale`` on each arm and -4 ``scale`` on the
    diagonal.  Only the other unknowns, the irregular ones, keep arrays of
    their own: ``neighbours`` holds the flat box index of each, then of its
    east, west, north and south nodes, and ``coeffs`` its diagonal and
    east, west, north and south Shortley-Weller coefficients; ``rim`` the
    nodes off the unknowns next to one."""

    scale: float
    neighbours: np.ndarray  # (5, m) flat box indices
    coeffs: np.ndarray  # (5, m)
    rim: np.ndarray  # flat box indices
    mask: np.ndarray  # the unknowns
    step: np.ndarray  # Jacobi weight / diagonal on the unknowns, 0 elsewhere
    origin: tuple[int, int]  # grid row and column of the box's first node


def _apply(level: _Level, u: np.ndarray) -> np.ndarray:
    """The operator of ``level`` times ``u``, which is 0 off the unknowns,
    on the flattened box: the arms are shifts by one node and by one row,
    and the empty border keeps them from wrapping from one row to the next.

    The plain stencil runs on the whole box; then the irregular rows are
    written over from one gather of their five nodes, in the same order of
    terms, and the rim, the only rows off the unknowns that it made other
    than 0, is zeroed."""
    cols, v = u.shape[1], u.reshape(-1)
    kv = level.scale * v
    out = -4.0 * kv
    out[:-1] += kv[1:]
    out[1:] += kv[:-1]
    out[:-cols] += kv[cols:]
    out[cols:] += kv[:-cols]
    terms = level.coeffs * v[level.neighbours]
    out[level.neighbours[0]] = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    out[level.rim] = 0.0
    return out.reshape(u.shape)


def _level(arms, mask, spacing, origin) -> _Level:
    """The Shortley-Weller level of ``arms``, in steps of ``spacing`` and at least _MIN_ARM."""
    # an unknown is irregular where an arm is short or ends at a node that
    # is no unknown: an arm ending at a boundary point multiplies u = 0 and
    # drops out, so an arm keeps its coefficient where it is full and the
    # next node is unknown
    rim = np.zeros(mask.shape, dtype=bool)  # the nodes next to an unknown
    regular = mask.copy()
    for full, (dj, di) in zip(arms == 1.0, _ARM_SHIFTS):
        ahead = np.roll(mask, (-dj, -di), axis=(0, 1))
        regular &= full & ahead
        rim |= ahead
    k = np.flatnonzero(mask & ~regular)
    cols = mask.shape[1]
    neighbours = k + np.array([0, 1, -1, cols, -cols])[:, None]  # itself, east, west, north, south
    theta = arms.reshape(4, -1)[:, k]
    east, west, north, south = np.maximum(theta, _MIN_ARM)
    scale = 2.0 / spacing**2
    coeffs = scale * np.stack(
        [-(1 / (east * west) + 1 / (north * south)),
         1 / (east * (east + west)), 1 / (west * (east + west)),
         1 / (north * (north + south)), 1 / (south * (north + south))]
    )
    coeffs[1:] *= (theta == 1.0) & mask.reshape(-1)[neighbours[1:]]
    step = np.zeros(mask.shape)
    step[mask] = _JACOBI_WEIGHT / (scale * -2.0)  # the plain diagonal, -(1 / (1 1) + 1 / (1 1))
    step.flat[k] = _JACOBI_WEIGHT / coeffs[0]
    plain = scale * 0.5  # each arm's coefficient where all four are full: 1 / (1 (1 + 1))
    return _Level(plain, neighbours, coeffs, np.flatnonzero(rim & ~mask), mask, step, origin)


def _coarsen(arms, mask, origin):
    """(arms, mask, origin) of the unknowns at even indices, on the grid of
    twice the step: a short arm halves, a full one to an unknown goes on
    along that node's arm, and any other ends half a coarse step away."""
    rows, cols = ((n + 1) // 2 for n in mask.shape)
    ahead = np.zeros((4, rows, cols))  # each arm of the next node, 0 where that is no unknown
    for out, a, (dj, di) in zip(ahead, arms, _ARM_SHIFTS):
        # the next nodes are the fine rows and columns of the shift's
        # parity; for a shift back, the first even node's lies before the box
        parity = tuple(slice(d % 2, None, 2) for d in (dj, di))
        back_j, back_i = int(dj < 0), int(di < 0)
        near = (a[parity] * mask[parity])[: rows - back_j, : cols - back_i]
        out[back_j : back_j + near.shape[0], back_i : back_i + near.shape[1]] = near
    coarse = np.where(arms[:, ::2, ::2] < 1.0, arms[:, ::2, ::2], 1.0 + ahead) / 2
    # a row or column before brings the origin to even indices, and one
    # after keeps the border empty
    offset = tuple(f // 2 % 2 for f in origin)
    pad = [(o, 1) for o in offset]
    origin = tuple(f // 2 - o for f, o in zip(origin, offset))
    return np.pad(coarse, [(0, 0)] + pad), np.pad(mask[::2, ::2], pad), origin


def _full_weight(r: np.ndarray) -> np.ndarray:
    """[1, 2, 1] / 4 along axis 0, at the even rows, with 0 past either end."""
    out = 2.0 * r[::2]
    out[1:] += r[1 : len(r) - 1 : 2]
    out[: len(r) // 2] += r[1::2]
    out /= 4
    return out


def _interpolate(e: np.ndarray, n: int) -> np.ndarray:
    """n rows linear in the rows of e, which sit at the even ones."""
    out = np.empty((n,) + e.shape[1:])
    out[0::2] = e[: (n + 1) // 2]
    out[1::2] = (e[: n // 2] + e[1 : n // 2 + 1]) / 2
    return out


def _vcycle(levels: list[_Level], b: np.ndarray) -> np.ndarray:
    """One V-cycle for A u = b from u = 0: weighted Jacobi sweeps, then,
    if a coarser level exists, its correction to the full-weighted
    residual, prolonged bilinearly, then Jacobi sweeps again."""
    level, coarse = levels[0], levels[1:]
    u = level.step * b  # the first sweep, from u = 0
    for _ in range(_SWEEPS - 1):
        _sweep(level, b, u)
    if coarse:
        # where this box's even nodes start in the coarse box
        oj, oi = (f // 2 - c for f, c in zip(level.origin, coarse[0].origin))
        rc = np.zeros(coarse[0].mask.shape)
        r = _full_weight(_full_weight(b - _apply(level, u)).T).T
        rc[oj : oj + r.shape[0], oi : oi + r.shape[1]] = r
        ec = _vcycle(coarse, rc * coarse[0].mask)[oj:, oi:]
        u += _interpolate(_interpolate(ec, b.shape[0]).T, b.shape[1]).T * level.mask
    for _ in range(_SWEEPS):
        _sweep(level, b, u)
    return u


def _sweep(level: _Level, b: np.ndarray, u: np.ndarray) -> None:
    """One weighted Jacobi sweep on u in place: u += step (b - A u)."""
    r = _apply(level, u)
    np.subtract(b, r, out=r)
    r *= level.step
    u += r


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's pairwise sum: a BLAS dot splits the sum
    among its threads, and the last bits of u would follow the thread
    count."""
    return float(np.sum(a * b))


def _bicgstab(levels: list[_Level], b: np.ndarray) -> np.ndarray:
    """BiCGSTAB (van der Vorst 1992) right-preconditioned by one V-cycle,
    until the largest residual is at most _STOP."""
    x, r, r_hat = np.zeros(b.shape), b.copy(), b.copy()
    p = v = np.zeros(b.shape)
    rho = alpha = omega = 1.0
    for _ in range(ITERATION_LIMIT):
        rho, rho_prev = _dot(r_hat, r), rho
        if rho == 0.0 or omega == 0.0:
            break
        p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
        p_hat = _vcycle(levels, p)
        v = _apply(levels[0], p_hat)
        denominator = _dot(r_hat, v)
        if denominator == 0.0:
            break
        alpha = rho / denominator
        x += alpha * p_hat
        s = r - alpha * v
        if np.abs(s).max() <= _STOP:
            return x
        s_hat = _vcycle(levels, s)
        t = _apply(levels[0], s_hat)
        tt = _dot(t, t)
        if tt == 0.0:
            break
        omega = _dot(t, s) / tt
        x += omega * s_hat
        r = s - omega * t
        if np.abs(r).max() <= _STOP:
            return x
    raise NoConvergence(f"BiCGSTAB stopped above the residual tolerance, at {np.abs(r).max()}")


def solve_log_scale(mesh: RegionMesh) -> np.ndarray:
    """u at the mesh points: the solution of Delta_z u = 4 / (1 + |z|^2)^2
    on the chart grid, with u = 0 on the boundary points.

    The solution is the log-scale of the distortion-minimizing conformal
    map, non-positive everywhere by the maximum principle.  The right-hand
    side is evaluated at the box nodes' chart coordinates.
    """
    n, mask, arms, origin = mesh.interior_count, mesh.mask, mesh.arms, mesh.origin
    h = mesh.delta / 2  # the chart spacing
    y, x = (h * (o + np.arange(k)) for o, k in zip(origin, mask.shape))
    rhs = 4.0 / (1.0 + x * x + (y * y)[:, None]) ** 2 * mask
    # a box over 6 nodes across shrinks, and a 6 x 6 box has at most 16 unknowns
    levels = [_level(arms, mask, h, origin)]
    while np.count_nonzero(mask) > _COARSEST:
        arms, mask, origin = _coarsen(arms, mask, origin)
        levels.append(_level(arms, mask, h * 2 ** len(levels), origin))
    box = _bicgstab(levels, rhs)
    u = np.zeros(mesh.node_count)
    u[:n] = box[mesh.mask]

    residual = np.abs(_apply(levels[0], box) - rhs).max()
    if not np.all(np.isfinite(u)) or residual > RESIDUAL_TOL:
        raise NoConvergence(f"solve residual {residual}")
    return u


def distortion_ratio(u: np.ndarray) -> float:
    """max m / min m of the optimal map of log-scale u: exp(max u - min u)."""
    return float(math.exp(u.max() - u.min()))


def discretization_allowance(mesh: RegionMesh) -> float:
    """Second-order error allowance used in optimality comparisons."""
    return 10.0 * mesh.delta**2


def projection_ratio(mesh: RegionMesh, spec: LagrangeProjectionSpec) -> float:
    """max m / min m of a projection's dilatation sampled on the mesh points.

    Points where the dilatation is singular (for instance the South pole
    under an exponent below 1, where the scale diverges) are dropped,
    which only lowers the ratio; the optimality inequality stays valid.
    """
    m, code = dilatation_array(spec, *mesh.node_points())
    regular = m[code == 0]
    if not regular.size:
        raise EmptyRegion("projection is singular on the whole region")
    return float(regular.max() / regular.min())

