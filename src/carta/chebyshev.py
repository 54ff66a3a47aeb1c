"""Log-scale field of the least-distorted conformal map of a sphere region.

Among conformal maps of a region, the one minimizing the max/min scale
ratio has constant scale on the boundary, and its log-scale u solves the
Poisson problem  Delta_sphere u = 1  with u = 0 on the boundary (the
boundary constant is free, so zero is used).  Solving that problem on a
mesh yields the optimal distortion ratio exp(-min u) directly, without
reconstructing the map itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DegenerateBoundary,
    DisconnectedRegion,
    EmptyRegion,
    NoConvergence,
    RegionTooSmall,
    SelfIntersectingBoundary,
)
from .geometry import SpherePoint, normalize_longitude, normalize_longitude_array
from .lagrange import LagrangeProjectionSpec, dilatation_array

RESIDUAL_TOL = 1e-8

# nodes this close (radians) to a boundary vertex latitude count as on-ring
_CAP_LATITUDE_TOL = 1e-9


@dataclass(frozen=True)
class RegionMesh:
    """Grid discretization of a spherical region for the 5-point stencil.

    Two layouts: ``grid`` is a latitude/longitude grid clipped to a
    polygon; ``cap`` is the 1D radial layout for pole-centred caps, which
    sidesteps the longitude-grid singularity at the pole.
    """

    kind: str  # "grid" | "cap"
    delta: float
    # grid layout
    latitudes: np.ndarray | None = None  # per node
    longitudes: np.ndarray | None = None
    boundary_flag: np.ndarray | None = None  # True on Dirichlet nodes
    neighbors: np.ndarray | None = None  # (n, 4) indices, -1 outside
    # cap layout
    cap_radius: float = 0.0
    cap_pole_latitude: float = 0.0  # -pi/2 (south) or +pi/2 (north)
    radii: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        if self.kind == "grid":
            return len(self.latitudes)
        return sum(self._ring_counts())

    @property
    def interior_count(self) -> int:
        if self.kind == "grid":
            return int(np.sum(~self.boundary_flag))
        return sum(self._ring_counts()[:-1])

    def _ring_counts(self) -> list[int]:
        # one node at the pole, full rings inside, a half-weight ring on the
        # boundary (its cell is clipped by the region edge)
        counts = [1]
        for r in self.radii[1:-1]:
            counts.append(max(1, round(2.0 * math.pi * math.sin(r) / self.delta)))
        counts.append(max(1, round(math.pi * math.sin(self.radii[-1]) / self.delta)))
        return counts

    def node_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(latitude, longitude) arrays of all mesh nodes (rings expanded for caps)."""
        if self.kind == "grid":
            return self.latitudes, self.longitudes
        sign = 1.0 if self.cap_pole_latitude > 0 else -1.0
        counts = self._ring_counts()
        # node j of a ring of `count` nodes sits at longitude 2 pi j / count
        count = np.repeat(counts, counts)
        j = np.arange(len(count)) - np.repeat(np.cumsum(counts) - counts, counts)
        lat = np.repeat(self.cap_pole_latitude - sign * self.radii, counts)
        return lat, normalize_longitude_array(2 * math.pi * j / count)

    def node_values(self, radial_values: np.ndarray) -> np.ndarray:
        """Expand per-ring values to per-node values (caps only)."""
        if self.kind == "grid":
            return radial_values
        return np.repeat(radial_values, self._ring_counts())


@dataclass(frozen=True)
class ScalarField:
    """One value per mesh node (per ring for cap meshes)."""

    mesh: RegionMesh
    values: np.ndarray

    def boundary_values(self) -> np.ndarray:
        if self.mesh.kind == "grid":
            return self.values[self.mesh.boundary_flag]
        return self.values[-1:]

    def interior_values(self) -> np.ndarray:
        if self.mesh.kind == "grid":
            return self.values[~self.mesh.boundary_flag]
        return self.values[:-1]


# -- region meshing ------------------------------------------------------------


def _close_ring(vertices) -> list[SpherePoint]:
    pts = [p if isinstance(p, SpherePoint) else SpherePoint(*p) for p in vertices]
    if len(pts) > 1 and pts[0].chord_distance(pts[-1]) < 1e-12:
        pts = pts[:-1]
    distinct = []
    for p in pts:
        if not distinct or distinct[-1].chord_distance(p) > 1e-12:
            distinct.append(p)
    if len(distinct) < 3:
        raise DegenerateBoundary(f"boundary has {len(distinct)} distinct vertices")
    return distinct


def _gnomonic_frame(vertices: list[SpherePoint]):
    """Tangent-plane chart about the vertex centroid; great circles map to
    straight lines, so polygon edges become segments."""
    vs = np.array([p.unit_vector() for p in vertices])
    center = vs.sum(axis=0)
    norm = np.linalg.norm(center)
    if norm < 1e-9:
        raise SelfIntersectingBoundary("boundary vertices have no mean direction")
    center /= norm
    helper = np.array([0.0, 0.0, 1.0]) if abs(center[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(center, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    cos_margin = math.cos(math.radians(89.0))

    def to_plane(unit_vectors: np.ndarray) -> np.ndarray:
        dots = unit_vectors @ center
        if np.any(dots < cos_margin):
            raise SelfIntersectingBoundary(
                "region is not contained in one hemisphere (with margin)"
            )
        scaled = unit_vectors / dots[:, None]
        return np.column_stack([scaled @ e1, scaled @ e2])

    return to_plane, center


# rows of segment pairs tested at once in _check_simple: each temporary
# array holds about this many values (1 MB of float64)
_PAIR_BLOCK = 1 << 17


def _check_simple(poly_xy: np.ndarray) -> None:
    """Raise for the first pair (i, j), i < j, of non-adjacent edges that
    cross properly (edge i runs from vertex i to vertex i + 1)."""
    n = len(poly_xy)
    x, y = poly_xy[:, 0], poly_xy[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)  # far end of each edge
    ex, ey = x2 - x, y2 - y
    rows = max(1, _PAIR_BLOCK // n)
    for start in range(0, n, rows):
        i = np.arange(start, min(start + rows, n))[:, None]
        j = np.arange(start + 1, n)[None, :]
        d1 = ex[i] * (y[j] - y[i]) - ey[i] * (x[j] - x[i])
        d2 = ex[i] * (y2[j] - y[i]) - ey[i] * (x2[j] - x[i])
        d3 = ex[j] * (y[i] - y[j]) - ey[j] * (x[i] - x[j])
        d4 = ex[j] * (y2[i] - y[j]) - ey[j] * (x2[i] - x[j])
        adjacent = (j - i == 1) | (j - i == n - 1)
        crossing = (d1 * d2 < 0) & (d3 * d4 < 0) & (j > i) & ~adjacent
        if crossing.any():
            a, b = np.unravel_index(np.argmax(crossing), crossing.shape)
            raise SelfIntersectingBoundary(f"boundary edges {i[a, 0]} and {j[0, b]} cross")


def _points_in_polygon(xy: np.ndarray, poly_xy: np.ndarray) -> np.ndarray:
    """Strict even-odd crossing test, vectorized over test points.

    Points within 1e-9 of an edge count as outside, so grid nodes landing
    exactly on the boundary are classified consistently.
    """
    order = np.argsort(xy[:, 1], kind="stable")
    x, y = xy[order, 0], xy[order, 1]
    inside = np.zeros(len(xy), dtype=bool)
    near_edge = np.zeros(len(xy), dtype=bool)
    n = len(poly_xy)
    for i in range(n):
        x1, y1 = poly_xy[i]
        x2, y2 = poly_xy[(i + 1) % n]
        # in y order, the points that may straddle the edge or lie within 1e-9 of it
        lo, hi = np.searchsorted(y, [min(y1, y2) - 2e-9, max(y1, y2) + 2e-9])
        xs, ys = x[lo:hi], y[lo:hi]
        straddles = (y1 > ys) != (y2 > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = x1 + (ys - y1) * (x2 - x1) / (y2 - y1)
        inside[lo:hi] ^= straddles & (xs < np.where(straddles, x_cross, np.inf))
        # squared distance to the segment
        ex, ey = x2 - x1, y2 - y1
        seg2 = ex * ex + ey * ey
        t = np.clip(((xs - x1) * ex + (ys - y1) * ey) / max(seg2, 1e-300), 0.0, 1.0)
        d2 = (xs - (x1 + t * ex)) ** 2 + (ys - (y1 + t * ey)) ** 2
        near_edge[lo:hi] |= d2 < 1e-18
    inside[order] = inside & ~near_edge  # back to the order of xy
    return inside


def _detect_cap(vertices: list[SpherePoint]) -> tuple[float, float] | None:
    """(pole latitude, cap radius) when the ring bounds a polar cap."""
    lats = np.array([p.latitude for p in vertices])
    if np.ptp(lats) > _CAP_LATITUDE_TOL:
        return None
    lat0 = float(lats.mean())
    winding = 0.0
    for i in range(len(vertices)):
        winding += normalize_longitude(
            vertices[(i + 1) % len(vertices)].longitude - vertices[i].longitude
        )
    if abs(abs(winding) - 2 * math.pi) > 1e-6:
        raise DegenerateBoundary("constant-latitude boundary does not encircle a pole")
    if lat0 < 0:
        return -math.pi / 2, math.pi / 2 + lat0
    return math.pi / 2, math.pi / 2 - lat0


def build_cap_mesh(radius: float, delta: float, pole: str = "south") -> RegionMesh:
    """Radial mesh of a pole-centred cap of the given geodesic radius."""
    if not (0.0 < radius < math.pi / 2):
        raise ValueError(f"cap radius {radius} outside (0, pi/2)")
    if delta <= 0:
        raise ValueError("mesh spacing must be positive")
    n = round(radius / delta)
    if n < 3:
        raise RegionTooSmall(f"cap of radius {radius} has {max(n - 1, 0)} interior rings")
    step = radius / n
    mesh = RegionMesh(
        kind="cap",
        delta=step,
        cap_radius=radius,
        cap_pole_latitude=-math.pi / 2 if pole == "south" else math.pi / 2,
        radii=np.arange(n + 1) * step,
    )
    if mesh.interior_count < 9:
        raise RegionTooSmall("fewer than 9 interior nodes")
    return mesh


def build_region_mesh(boundary, delta: float) -> RegionMesh:
    """Mesh the inside of a closed boundary polyline at grid spacing delta.

    Vertices may be SpherePoints or (lat, lon) pairs in radians; edges are
    great-circle arcs.  A constant-latitude ring around a pole is routed to
    the radial cap layout.
    """
    if delta <= 0:
        raise ValueError("mesh spacing must be positive")
    vertices = _close_ring(boundary)

    cap = _detect_cap(vertices)
    if cap is not None:
        pole_lat, radius = cap
        return build_cap_mesh(radius, delta, "south" if pole_lat < 0 else "north")

    to_plane, _ = _gnomonic_frame(vertices)
    poly_xy = to_plane(np.array([p.unit_vector() for p in vertices]))
    _check_simple(poly_xy)

    lats = np.array([p.latitude for p in vertices])
    lons = np.unwrap(np.array([p.longitude for p in vertices]))
    i_lat = np.arange(math.ceil(lats.min() / delta), math.floor(lats.max() / delta) + 1)
    i_lon = np.arange(math.ceil(lons.min() / delta), math.floor(lons.max() / delta) + 1)
    if len(i_lat) == 0 or len(i_lon) == 0:
        raise RegionTooSmall("no grid nodes inside the region")
    lat_grid, lon_grid = np.meshgrid(i_lat * delta, i_lon * delta, indexing="ij")
    shape = lat_grid.shape

    cos_lat = np.cos(lat_grid.ravel())
    units = np.column_stack(
        [
            cos_lat * np.cos(lon_grid.ravel()),
            cos_lat * np.sin(lon_grid.ravel()),
            np.sin(lat_grid.ravel()),
        ]
    )
    inside = _points_in_polygon(to_plane(units), poly_xy).reshape(shape)

    padded = np.zeros((shape[0] + 2, shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = inside
    nbr_inside = (
        padded[:-2, 1:-1].astype(int)
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
    )
    boundary_flag_grid = inside & (nbr_inside < 4)

    index = -np.ones(shape, dtype=int)
    node_ids = np.flatnonzero(inside.ravel())
    index.ravel()[node_ids] = np.arange(len(node_ids))
    ii, jj = np.nonzero(inside)
    neighbors = np.full((len(node_ids), 4), -1, dtype=int)
    for k, (di, dj) in enumerate([(1, 0), (-1, 0), (0, 1), (0, -1)]):
        ni, nj = ii + di, jj + dj
        valid = (ni >= 0) & (ni < shape[0]) & (nj >= 0) & (nj < shape[1])
        neighbors[valid, k] = index[ni[valid], nj[valid]]

    interior = ~boundary_flag_grid[ii, jj]
    if int(interior.sum()) < 9:
        raise RegionTooSmall(f"only {int(interior.sum())} interior nodes at delta={delta}")

    # connectivity over the 4-adjacency graph
    n_nodes = len(node_ids)
    seen = np.zeros(n_nodes, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nb in neighbors[node]:
            if nb >= 0 and not seen[nb]:
                seen[nb] = True
                stack.append(nb)
    if not seen.all():
        raise DisconnectedRegion("region mesh splits into several components")

    return RegionMesh(
        kind="grid",
        delta=delta,
        latitudes=lat_grid[ii, jj],
        longitudes=normalize_longitude_array(lon_grid[ii, jj]),
        boundary_flag=boundary_flag_grid[ii, jj],
        neighbors=neighbors,
    )


# -- the Poisson solve ----------------------------------------------------------


def _solve_grid(mesh: RegionMesh) -> np.ndarray:
    n = mesh.node_count
    interior = np.flatnonzero(~mesh.boundary_flag)
    pos = -np.ones(n, dtype=int)
    pos[interior] = np.arange(len(interior))
    d = mesh.delta
    rows, cols, data = [], [], []
    rhs = np.full(len(interior), 1.0)
    for row, node in enumerate(interior):
        lat = mesh.latitudes[node]
        tan_lat = math.tan(lat)
        sec2 = 1.0 / math.cos(lat) ** 2
        north, south, east, west = mesh.neighbors[node]
        if min(north, south, east, west) < 0:
            raise NoConvergence("interior node lost a neighbor (malformed mesh)")
        stencil = [
            (node, -2.0 / d**2 - 2.0 * sec2 / d**2),
            (north, 1.0 / d**2 - tan_lat / (2.0 * d)),
            (south, 1.0 / d**2 + tan_lat / (2.0 * d)),
            (east, sec2 / d**2),
            (west, sec2 / d**2),
        ]
        for nb, coeff in stencil:
            if pos[nb] >= 0:
                rows.append(row)
                cols.append(pos[nb])
                data.append(coeff)
            # boundary neighbors contribute coeff * 0: nothing to move
    matrix = scipy.sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(interior), len(interior))
    )
    u_int = scipy.sparse.linalg.spsolve(matrix, rhs)
    u = np.zeros(n)
    u[interior] = u_int

    residual = np.abs(matrix @ u_int - rhs).max() if len(interior) else 0.0
    if not np.all(np.isfinite(u)) or residual > RESIDUAL_TOL:
        raise NoConvergence(f"grid solve residual {residual}")
    return u


def _solve_cap(mesh: RegionMesh) -> np.ndarray:
    # radial problem u'' + cot(r) u' = 1, u'(0) = 0, u(R) = 0
    n = len(mesh.radii) - 1
    d = mesh.delta
    main = np.zeros(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    rhs = np.full(n, 1.0)
    main[0] = -4.0 / d**2
    upper[0] = 4.0 / d**2
    for i in range(1, n):
        cot = 1.0 / math.tan(mesh.radii[i])
        main[i] = -2.0 / d**2
        lower[i - 1] = 1.0 / d**2 - cot / (2.0 * d)
        if i < n - 1:
            upper[i] = 1.0 / d**2 + cot / (2.0 * d)
        # at i = n-1 the (i+1) term multiplies u(R) = 0 and drops
    matrix = scipy.sparse.diags([lower, main, upper], [-1, 0, 1], format="csr")
    u_in = scipy.sparse.linalg.spsolve(matrix, rhs)
    u = np.append(u_in, 0.0)
    residual = np.abs(matrix @ u_in - rhs).max()
    if not np.all(np.isfinite(u)) or residual > RESIDUAL_TOL:
        raise NoConvergence(f"cap solve residual {residual}")
    return u


def solve_log_scale(mesh: RegionMesh) -> ScalarField:
    """Solve Delta u = 1 with u = 0 on the boundary nodes.

    The solution is the log-scale of the distortion-minimizing conformal
    map, non-positive everywhere by the maximum principle.
    """
    values = _solve_grid(mesh) if mesh.kind == "grid" else _solve_cap(mesh)
    return ScalarField(mesh, values)


def distortion_ratio(field: ScalarField) -> float:
    """max m / min m of the optimal map: exp(max u - min u)."""
    return float(math.exp(field.values.max() - field.values.min()))


def discretization_allowance(mesh: RegionMesh) -> float:
    """Second-order error allowance used in optimality comparisons."""
    return 10.0 * mesh.delta**2


def projection_ratio(mesh: RegionMesh, spec: LagrangeProjectionSpec) -> float:
    """max m / min m of a projection's dilatation sampled on the mesh nodes.

    Nodes where the dilatation is singular (for instance the South pole
    under an exponent below 1, where the scale diverges) are dropped,
    which only lowers the ratio; the optimality inequality stays valid.
    """
    m, code = dilatation_array(spec, *mesh.node_points())
    regular = m[code == 0]
    if not regular.size:
        raise EmptyRegion("projection is singular on the whole region")
    return float(regular.max() / regular.min())


def chebyshev_vs_projection(
    mesh: RegionMesh, spec: LagrangeProjectionSpec
) -> tuple[float, float]:
    """(optimal ratio, projection ratio) over the same region mesh.

    The optimal ratio comes from the boundary-constant log-scale solve;
    the projection ratio from sampling its dilatation on the mesh nodes.
    Up to discretization error the first can never exceed the second on a
    geodesically convex region.
    """
    return distortion_ratio(solve_log_scale(mesh)), projection_ratio(mesh, spec)
