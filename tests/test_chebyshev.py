"""Region meshes and the boundary-constant log-scale solve.

Closed-form oracle for pole-centred caps: u(r) = ln((1+cos R)/(1+cos r)),
the log-scale of the centred stereographic projection, which satisfies
the unit-curvature Poisson equation exactly.  Its optimal ratio is
1/cos^2(R/2) (Milnor 1969).
"""

import math
import tracemalloc

import numpy as np
import pytest

from carta import (
    LagrangeProjectionSpec,
    build_cap_mesh,
    build_region_mesh,
    centered_stereographic,
    discretization_allowance,
    distortion_ratio,
    solve_log_scale,
)
import carta.chebyshev as chebyshev
from carta.chebyshev import RESIDUAL_TOL, projection_ratio
from carta.errors import (
    ConfigError,
    DegenerateBoundary,
    RegionTooSmall,
    SelfIntersectingBoundary,
)
import oracles
from conftest import offcap_ring, point_columns


def cap_u_exact(cap_radius, r):
    return math.log((1.0 + math.cos(cap_radius)) / (1.0 + math.cos(r)))


def distances_from_south_pole(mesh):
    lat, _ = mesh.node_points()
    return lat + math.pi / 2


def pole_value(mesh, u):
    """u at the pole node of a south cap: the chart centre is a grid node."""
    lat, _ = mesh.node_points()
    return u[np.argmin(lat)]


def worst_cap_error(mesh, u, cap_radius):
    return max(
        abs(value - cap_u_exact(cap_radius, r))
        for value, r in zip(u, distances_from_south_pole(mesh))
    )


def france_boundary():
    """(lat, lon) radians of the rectangle 40-52N, 5W-9E."""
    return np.radians([40, 40, 52, 52]), np.radians([-5, 9, 9, -5])


# -- mesh construction ---------------------------------------------------------


def test_cap_mesh_node_count_matches_area_estimate():
    # grid nodes only: the boundary points where arms end lie on the rim
    mesh = build_cap_mesh(math.radians(20), math.radians(1.0))
    estimate = 2 * math.pi * (1 - math.cos(math.radians(20))) / math.radians(1.0) ** 2
    assert abs(mesh.interior_count - estimate) / estimate < 0.05


def test_cap_boundary_points_lie_on_the_rim():
    # arms end where they meet the cap circle, or at a node within 1e-6
    # grid spacings of it
    cap_radius, delta = math.radians(25), math.radians(0.5)
    mesh = build_cap_mesh(cap_radius, delta)
    n = mesh.interior_count
    rim = distances_from_south_pole(mesh)[n:]
    assert np.all(np.abs(rim - cap_radius) < 1e-6 * delta)
    assert np.all(distances_from_south_pole(mesh)[:n] < cap_radius)


def test_degenerate_boundary_rejected():
    with pytest.raises(DegenerateBoundary):
        build_region_mesh(np.radians([0, 10]), np.radians([0, 10]), math.radians(1))


def reference_close_ring(points):
    """The ring rule one (lat, lon) pair at a time: a last vertex within
    1e-12 (chord) of the first is dropped, and so is every vertex within
    1e-12 of the last one kept."""
    def chord(p, q):
        return np.linalg.norm(oracles.unit_vector(*p) - oracles.unit_vector(*q))

    if len(points) > 1 and chord(points[0], points[-1]) < 1e-12:
        points = points[:-1]
    distinct = []
    for p in points:
        if not distinct or chord(distinct[-1], p) > 1e-12:
            distinct.append(p)
    return distinct


def test_close_ring_keeps_the_vertices_of_the_pairwise_rule():
    # a chain of near-duplicates 0.6e-12 apart: each is compared with the
    # last vertex kept, not with the one before, so every second one stays
    chain = [(0.3 + 0.6e-12 * k, 0.2) for k in range(7)]
    a, b, c = (tuple(map(math.radians, p)) for p in [(10, 20), (15, 30), (5, 35)])
    closing = (a[0], a[1] + 1e-13)
    ring = [a, a, b, *chain, c, c, c, closing]
    expected = reference_close_ring(ring)
    assert expected == [a, b, *chain[::2], c]
    units = chebyshev._close_ring(*point_columns(ring))
    assert np.array_equal(units, [oracles.unit_vector(*p) for p in expected])
    with pytest.raises(DegenerateBoundary, match="^boundary has 2 distinct vertices$"):
        chebyshev._close_ring(*point_columns([a, *chain[:2], closing]))


def test_ring_unit_vectors_are_those_of_sphere_points(rng, monkeypatch):
    # the unit vectors that build_region_mesh makes from its columns, its
    # longitudes normalized, are those of the points (lat, lon) bit for bit:
    # at longitudes of +-pi, 3 pi and -540 degrees and at both poles too
    lat = rng.uniform(-math.pi / 2, math.pi / 2, 500)
    lon = rng.uniform(-4 * math.pi, 4 * math.pi, 500)
    lat[:6] = 0.3, -0.2, 0.7, 1.1, math.pi / 2, -math.pi / 2
    lon[:6] = math.pi, -math.pi, 3 * math.pi, math.radians(-540), 0.4, 2.0
    received = []

    def frame(units):
        received.append(units)
        raise Reached

    monkeypatch.setattr(chebyshev, "_gnomonic_frame", frame)
    with pytest.raises(Reached):
        build_region_mesh(lat, lon, 0.01)
    lon = [oracles.wrap_longitude(b) for b in lon.tolist()]
    expected = [oracles.unit_vector(a, b) for a, b in zip(lat.tolist(), lon)]
    assert received[0].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("lat, lon", [
    (math.nan, 0.2), (0.1, math.inf), (0.1, -math.inf), (0.1, math.nan),
    (math.pi / 2 + 1e-15, 0.2), (-2.0, 0.2), (-math.inf, 0.2),
])
def test_region_vertex_out_of_range_rejected(lat, lon):
    # a library caller's vertex needs a finite longitude and a latitude in
    # [-pi/2, pi/2]: the first that has not is named
    lats, lons = france_boundary()
    lats[2], lons[2] = lat, lon
    message = f"^boundary vertex \\({lat}, {lon}\\): need a finite lon and lat in \\[-pi/2, pi/2\\]$"
    with pytest.raises(ValueError, match=message):
        build_region_mesh(lats, lons, math.radians(0.5))


def test_self_intersecting_boundary_rejected():
    bowtie = np.radians([0, 10, 10, 0]), np.radians([0, 10, 0, 10])
    with pytest.raises(SelfIntersectingBoundary):
        build_region_mesh(*bowtie, math.radians(1))


def test_region_too_small():
    with pytest.raises(RegionTooSmall):
        build_region_mesh(*france_boundary(), math.radians(8))


# the chart-grid steps of the arms east, west, north and south
ARM_SHIFTS = [(0, 1), (0, -1), (1, 0), (-1, 0)]


def chart_node_units(mesh, j, i):
    """Unit vectors of the chart-grid nodes at box row j and column i."""
    h = mesh.delta / 2
    x, y = h * (mesh.origin[1] + i), h * (mesh.origin[0] + j)
    rho2 = x * x + y * y
    return (chebyshev._frame(mesh.center).T @ np.stack([2 * x, 2 * y, 1 - rho2]) / (1 + rho2)).T


def test_france_mesh_interior_fully_connected():
    # every full arm of an unknown ends on an unknown or on a boundary node
    # among the mesh points; the rim of the cap passes through grid nodes
    # 40 spacings from the pole, so some arms end on such nodes
    delta = 0.01
    meshes = (build_region_mesh(*france_boundary(), math.radians(0.25)),
              build_cap_mesh(2 * math.atan(40 * delta / 2), delta))
    ends = 0
    for mesh in meshes:
        assert mesh.interior_count >= 9
        points = unit_vectors(*mesh.node_points())
        jj, ii = np.nonzero(mesh.mask)
        assert np.abs(chart_node_units(mesh, jj, ii) - points[: mesh.interior_count]).max() < 1e-14
        boundary = points[mesh.interior_count :]
        for arm, (dj, di) in enumerate(ARM_SHIFTS):
            full = mesh.arms[arm, jj, ii] == 1.0
            j, i = jj[full] + dj, ii[full] + di
            off = ~mesh.mask[j, i]
            gap = np.linalg.norm(chart_node_units(mesh, j[off], i[off])[:, None] - boundary, axis=2)
            assert np.all(gap.min(axis=1) < 1e-14)
            ends += np.count_nonzero(off)
    assert ends > 0


def test_great_circle_square_below_its_cap():
    # great-circle edges bow inside the parallel through the vertices, so
    # the square is a proper part of the 10-degree cap and does better
    square = np.radians([-80] * 4), np.radians([0, 90, 180, 270])
    delta = math.radians(0.5)
    ratio_square = distortion_ratio(solve_log_scale(build_region_mesh(*square, delta)))
    ratio_cap = distortion_ratio(solve_log_scale(build_cap_mesh(math.radians(10), delta)))
    assert 1.0 < ratio_square < ratio_cap


@pytest.mark.parametrize(
    "spacings, delta", [(5, 0.05), (6, 0.04542372881355933), (7, 0.044661016949152546)]
)
def test_cap_rim_tangent_to_a_grid_line(spacings, delta):
    # the rim touches the grid line `spacings` chart spacings from the pole;
    # a tangent line has a double root and must add no crossing, or every
    # node east of the pole on that line is taken as inside
    cap_radius = 2 * math.atan(spacings * delta / 2)
    mesh = build_cap_mesh(cap_radius, delta)
    ratio = distortion_ratio(solve_log_scale(mesh))
    assert abs(ratio - 1 / math.cos(cap_radius / 2) ** 2) <= discretization_allowance(mesh)
    assert np.all(distances_from_south_pole(mesh) < cap_radius + 1e-12)


def unit_vectors(lat, lon):
    return np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


def reference_inside(points, vertices):
    """Even-odd ray casting, point after point, in a gnomonic chart about
    the vertex centroid, where the great-circle edges are straight."""
    c = vertices.sum(axis=0) / np.linalg.norm(vertices.sum(axis=0))
    e1 = np.cross(c, [0.3, -0.5, 0.8])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    poly = [(v @ e1 / (v @ c), v @ e2 / (v @ c)) for v in vertices]
    inside = []
    for p in points:
        x, y = p @ e1 / (p @ c), p @ e2 / (p @ c)
        crossings = 0
        for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
            if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
                crossings += 1
        inside.append(crossings % 2 == 1)
    return np.array(inside)


def distance_to_boundary(points, vertices):
    """Geodesic distance from each point to the nearest great-circle edge."""
    stops = np.roll(vertices, -1, axis=0)
    normals = np.cross(vertices, stops)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    sin_off = points @ normals.T
    foot = points[:, None, :] - sin_off[..., None] * normals
    on_arc = (np.einsum("pkj,kj->pk", foot, np.cross(normals, vertices)) >= 0) & (
        np.einsum("pkj,kj->pk", foot, np.cross(stops, normals)) >= 0
    )
    to_vertex = np.arccos(np.clip(points @ vertices.T, -1.0, 1.0))
    return np.where(on_arc, np.arcsin(np.abs(sin_off)), to_vertex).min(axis=1)


def test_mesh_points_against_per_point_reference(rng):
    # random star-shaped polygons, and regular ones about a pole with
    # vertices on the chart axes, so that grid lines pass through vertices:
    # every unknown is inside and every boundary point is on the boundary
    # (a point within 1e-6 grid spacings of it counts), so no run of nodes
    # was put on the wrong side of a crossing
    meshed = 0
    for k in range(100):
        n = int(rng.integers(3, 40))
        if k % 4 == 0:
            r = np.full(n, math.radians(8.0))
            lat, lon = math.pi / 2 - r, 2 * math.pi * np.arange(n) / n
        else:
            lat0, lon0 = rng.uniform(-1.5, 1.5), rng.uniform(-math.pi, math.pi)
            bearing = np.sort(rng.uniform(0, 2 * math.pi, n))
            r = np.radians(rng.uniform(2, 15, n))
            lat = np.arcsin(
                math.sin(lat0) * np.cos(r) + math.cos(lat0) * np.sin(r) * np.cos(bearing)
            )
            lon = lon0 + np.arctan2(
                np.sin(bearing) * np.sin(r) * math.cos(lat0),
                np.cos(r) - math.sin(lat0) * np.sin(lat),
            )
        delta = math.radians(float(rng.choice([0.5, 1.0, 2.0])))
        try:
            mesh = build_region_mesh(lat, lon, delta)
        except (RegionTooSmall, SelfIntersectingBoundary):
            continue
        meshed += 1
        vertices = unit_vectors(lat, lon)
        points = unit_vectors(*mesh.node_points())
        assert reference_inside(points[: mesh.interior_count], vertices).all()
        assert np.all(distance_to_boundary(points[mesh.interior_count :], vertices) < 1e-6 * delta)
    assert meshed >= 80


# -- the solve ------------------------------------------------------------------


def test_cap_solution_matches_closed_form():
    cap_radius = math.radians(30)
    mesh = build_cap_mesh(cap_radius, math.radians(0.25))
    u = solve_log_scale(mesh)
    assert pole_value(mesh, u) == pytest.approx(cap_u_exact(cap_radius, 0.0), abs=1e-4)
    assert worst_cap_error(mesh, u, cap_radius) < 1e-4


def test_shrinking_cap_leading_order():
    # u(0) ~ -R^2/4 for small caps
    cap_radius = math.radians(2)
    mesh = build_cap_mesh(cap_radius, math.radians(0.25))
    u = solve_log_scale(mesh)
    assert pole_value(mesh, u) == pytest.approx(-(cap_radius**2) / 4.0, rel=0.05)


def test_boundary_values_exactly_zero():
    mesh = build_cap_mesh(math.radians(25), math.radians(0.5))
    u = solve_log_scale(mesh)
    assert u[mesh.interior_count] == 0.0
    grid = build_region_mesh(*france_boundary(), math.radians(0.5))
    assert np.all(solve_log_scale(grid)[grid.interior_count :] == 0.0)


def test_maximum_principle_interior_strictly_negative():
    for mesh in (
        build_cap_mesh(math.radians(30), math.radians(0.5)),
        build_region_mesh(*france_boundary(), math.radians(0.5)),
    ):
        u = solve_log_scale(mesh)
        assert np.all(u[: mesh.interior_count] < 1e-12)
        assert u.max() <= 0.0


def test_grid_convergence_second_order():
    cap_radius = math.radians(30)
    errors = []
    for delta in (math.radians(1.0), math.radians(0.5)):
        mesh = build_cap_mesh(cap_radius, delta)
        errors.append(worst_cap_error(mesh, solve_log_scale(mesh), cap_radius))
    factor = errors[0] / errors[1]
    assert 3.5 <= factor <= 4.5


def test_cap_ratio_converges_at_second_order():
    cap_radius = math.radians(10)
    exact = 1.0 / math.cos(cap_radius / 2) ** 2
    errors = [
        abs(distortion_ratio(solve_log_scale(build_cap_mesh(cap_radius, math.radians(d)))) - exact)
        for d in (0.4, 0.2, 0.1)
    ]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= 1.8, orders


def test_grid_solution_satisfies_stencil_residual():
    # the Shortley-Weller equations hold to 1e-8 at every interior node
    mesh = build_region_mesh(*france_boundary(), math.radians(0.5))
    values = solve_log_scale(mesh)
    h = mesh.delta / 2  # the chart spacing
    lat, lon = mesh.node_points()
    # u on the box, 0 off the unknowns: a full arm ends at an unknown or at
    # a boundary node, and a short arm's end is on the boundary
    box = np.zeros(mesh.mask.shape)
    box[mesh.mask] = values[: mesh.interior_count]
    worst = 0.0
    for node, (j, i) in enumerate(zip(*np.nonzero(mesh.mask))):
        te, tw, tn, ts = mesh.arms[:, j, i]
        east, west, north, south = (
            box[j + dj, i + di] if t == 1.0 else 0.0
            for t, (dj, di) in zip((te, tw, tn, ts), ARM_SHIFTS)
        )
        u = values[node]
        laplacian = (2 / h**2) * (
            (east / te + west / tw) / (te + tw) - u / (te * tw)
            + (north / tn + south / ts) / (tn + ts) - u / (tn * ts)
        )
        # in the stereographic chart, Delta_z u = 4 / (1 + |z|^2)^2 = (1 + cos angle)^2
        cos_angle = oracles.unit_vector(lat[node], lon[node]) @ mesh.center
        worst = max(worst, abs(laplacian - (1 + cos_angle) ** 2))
    assert worst < 1e-8


def thin_band_mesh():
    """A U of bands one chart node wide: its arms lie on odd chart rows and
    its bottom on an odd column, so no unknown is at even indices and the
    first coarse level of the solve is empty.

    Near the chart centre, at (0, 0), the grid node (row j, column i) sits
    at latitude -j delta and longitude -i delta; the vertices are mirrored
    in the equator and their mean longitude is 0, so the chart is centred
    there."""
    k, m, w, delta = 151, 151, 0.35, 2e-5  # column -k, rows -m and m, half-width w
    end = (5 * k + w) / 4  # where the arms stop, for a mean column of 0
    corners = [(-k - w, -m - w), (end, -m - w), (end, -m + w), (-k + w, -m + w),
               (-k + w, m - w), (end, m - w), (end, m + w), (-k - w, m + w), (-k - w, 0)]
    x, y = np.transpose(corners)
    return build_region_mesh(-y * delta, -x * delta, delta)


def slit_square_mesh(step=1):
    """A square of 21 x 21 chart nodes with a slit, narrower than a grid
    step, cut in from its east side between rows 0 and 1: the nodes on
    either side have short arms that end on the slit, and the node after
    each such arm is an unknown across it.  ``step`` multiplies the mesh
    step, not the square.

    As in ``thin_band_mesh``, node (row j, column i) sits at latitude
    -j delta and longitude -i delta; the slit's tip at column -a / 2 and a
    vertex on the west side at row -2 (s0 + s1) make the vertex mean 0."""
    a, s0, s1, delta = 10.35, 0.3, 0.6, 2e-5  # half-side; the slit's rows
    corners = [(-a, -a), (a, -a), (a, s0), (-a / 2, s0), (-a / 2, s1), (a, s1), (a, a),
               (-a, a), (-a, -2 * (s0 + s1))]
    x, y = np.transpose(corners)
    return build_region_mesh(-y * delta, -x * delta, step * delta)


def tiny_arm_cap_mesh():
    """A cap at 1 degree whose rim is 1.5e-6 chart steps past the even
    node 20 steps from the centre on each chart axis: that node's arm
    halves below _MIN_ARM on the first coarse level."""
    h = math.radians(1) / 2  # the chart step
    return build_cap_mesh(2 * math.atan(h * (20 + 1.5e-6)), 2 * h)


def around_a_pole_mesh(step=1):
    corners = [(70, 0), (75, 90), (70, 180), (75, 270)]
    return build_region_mesh(*np.radians(corners).T, step * math.radians(0.8))


def neighbours(mask):
    """Per arm, the row-order number of the unknown at each unknown's
    neighbouring node, -1 where that node is no unknown."""
    index = np.full(mask.shape, -1)
    index[mask] = np.arange(np.count_nonzero(mask))
    jj, ii = np.nonzero(mask)
    return [index[jj + dj, ii + di] for dj, di in ARM_SHIFTS]


def shortley_weller_matrix(arms, mask, h):
    """The Shortley-Weller matrix of the unknowns ``mask`` with ``arms`` at
    chart spacing h, assembled densely: the weight of an arm is
    2 / (h^2 t (t + t')), t' the opposite arm, and the diagonal is minus
    the sum of the weights; a full arm links unknown k to the unknown at
    its neighbouring node, and any other arm ends on the boundary and
    drops out."""
    n = np.count_nonzero(mask)
    theta = arms[:, mask].T
    weights = 2 / (h**2 * theta * (theta + theta[:, [1, 0, 3, 2]]))
    matrix = np.zeros((n, n))
    matrix[np.arange(n), np.arange(n)] = -weights.sum(axis=1)
    for arm, k in enumerate(neighbours(mask)):
        row = np.flatnonzero((theta[:, arm] == 1.0) & (k >= 0))
        matrix[row, k[row]] = weights[row, arm]
    return matrix


def dense_system(mesh):
    """The Shortley-Weller system of ``mesh``, with the right-hand side at
    its unknowns."""
    n = mesh.interior_count
    matrix = shortley_weller_matrix(mesh.arms, mesh.mask, mesh.delta / 2)
    lat, lon = mesh.latitudes[:n], mesh.longitudes[:n]
    units = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    return matrix, (1 + units @ mesh.center) ** 2


@pytest.mark.parametrize(
    "build, coarsens",
    [
        pytest.param(lambda: build_cap_mesh(math.radians(10), math.radians(0.5)), True, id="cap-10"),
        pytest.param(
            lambda: build_region_mesh(*offcap_ring(720), math.radians(0.5)),
            True,
            id="offcap-720-gon",
        ),
        pytest.param(around_a_pole_mesh, True, id="around-a-pole"),
        pytest.param(thin_band_mesh, True, id="thin-band"),
        pytest.param(slit_square_mesh, True, id="slit"),
        pytest.param(tiny_arm_cap_mesh, True, id="tiny-coarse-arm"),
        # 12 unknowns: the hierarchy is the fine level alone, and the
        # preconditioner Jacobi sweeps alone
        pytest.param(lambda: build_region_mesh(*france_boundary(), math.radians(3)), False, id="one-level"),
    ],
)
def test_solve_matches_dense_reference(build, coarsens):
    mesh = build()
    # the solve coarsens a mesh of more than _COARSEST unknowns at least once
    assert (mesh.interior_count > chebyshev._COARSEST) == coarsens
    assert mesh.interior_count <= 2000  # small enough for the dense reference
    matrix, rhs = dense_system(mesh)
    reference = np.linalg.solve(matrix, rhs)
    u = solve_log_scale(mesh)[: mesh.interior_count]
    assert np.abs(u - reference).max() <= 1e-12 * np.abs(reference).max()
    assert np.abs(matrix @ u - rhs).max() <= RESIDUAL_TOL


def hierarchy(mesh, monkeypatch):
    """The multigrid levels that ``solve_log_scale`` builds for ``mesh``."""
    levels, bicgstab = [], chebyshev._bicgstab

    def capture(built, b):
        levels.extend(built)
        return bicgstab(built, b)

    monkeypatch.setattr(chebyshev, "_bicgstab", capture)
    solve_log_scale(mesh)
    return levels


def level_matrix(level):
    """The operator of a level, as a dense matrix over its unknowns in row
    order, read off ``_apply`` on the unit vector of each box node: no arm
    may link to a node that is no unknown."""
    mask = level.mask
    columns = np.zeros((mask.size, np.count_nonzero(mask)))
    for node in range(mask.size):
        unit = np.zeros(mask.shape)
        unit.flat[node] = 1.0
        columns[node] = chebyshev._apply(level, unit)[mask]
    assert not np.any(columns[~mask.ravel()])
    return columns[mask.ravel()].T


def chart_nodes(mask, origin):
    """Chart-grid row and column of the unknowns, in row order."""
    return np.argwhere(mask) + origin


def test_coarse_arms_follow_the_fine_ones():
    # the even node (2, 2) of a hand-made box: a short arm east halves; a
    # full arm west reaches an unknown whose west arm is 0.3; a full arm
    # north reaches a node that is no unknown, whatever its own arm; a full
    # arm south reaches an unknown with a full arm, and stays full
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:6, 1:6] = True
    mask[3, 2] = False
    arms = np.ones((4, 8, 8))
    arms[0, 2, 2], arms[1, 2, 1] = 0.4, 0.3
    for origin, coarse_origin, node in (((0, 0), (0, 0), (1, 1)), ((2, 6), (0, 2), (2, 2))):
        coarse, coarse_mask, at = chebyshev._coarsen(arms, mask, origin)
        assert at == coarse_origin and coarse_mask[node]
        assert coarse[(slice(None),) + node].tolist() == [0.2, 0.65, 0.5, 1.0]
        assert np.count_nonzero(coarse_mask) == 4  # rows and columns 2 and 4


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda step=1: build_cap_mesh(math.radians(10), step * math.radians(0.5)), id="cap-10"
        ),
        pytest.param(around_a_pole_mesh, id="around-a-pole"),
        pytest.param(slit_square_mesh, id="slit"),
    ],
)
def test_coarse_level_is_the_double_step_problem(build, monkeypatch):
    # level 1 of the hierarchy is the Shortley-Weller problem of the mesh
    # at twice the step, with no crossing computed again
    mesh, double = build(), build(2)
    level = hierarchy(mesh, monkeypatch)[1]
    arms, mask, origin = chebyshev._coarsen(mesh.arms, mesh.mask, mesh.origin)
    assert origin == level.origin and np.array_equal(mask, level.mask)
    assert np.array_equal(chart_nodes(mask, origin), chart_nodes(double.mask, double.origin))
    assert np.abs(arms[:, mask] - double.arms[:, double.mask]).max() <= 1e-15
    reference = shortley_weller_matrix(double.arms, double.mask, double.delta / 2)
    assert np.abs(level_matrix(level) - reference).max() <= 1e-12 * np.abs(reference).max()


def test_tiny_coarse_arm_is_clamped(monkeypatch):
    mesh = tiny_arm_cap_mesh()
    assert chebyshev._MIN_ARM < mesh.arms[:, mesh.mask].min() < 2 * chebyshev._MIN_ARM
    arms, mask, _ = chebyshev._coarsen(mesh.arms, mesh.mask, mesh.origin)
    assert arms[:, mask].min() < chebyshev._MIN_ARM
    matrix = level_matrix(hierarchy(mesh, monkeypatch)[1])
    assert np.all(np.isfinite(np.diag(matrix)))
    # the operator of the coarse arms, each at least _MIN_ARM, at the
    # coarse chart step: twice delta / 2
    reference = shortley_weller_matrix(np.maximum(arms, chebyshev._MIN_ARM), mask, mesh.delta)
    assert np.abs(matrix - reference).max() <= 1e-12 * np.abs(reference).max()


def test_thin_band_empties_the_coarse_level(monkeypatch):
    mesh = thin_band_mesh()
    rows, cols = np.nonzero(mesh.mask) + np.array(mesh.origin)[:, None]
    assert set(rows % 2) == set(cols % 2) == {0, 1}
    assert not np.any((rows % 2 == 0) & (cols % 2 == 0))
    assert not hierarchy(mesh, monkeypatch)[1].mask.any()


# meshes whose hierarchies hold plain and irregular unknowns, short arms,
# arms that end at a boundary node, an empty coarse level and a clamped arm
HIERARCHY_MESHES = {
    "cap-10": lambda: build_cap_mesh(math.radians(10), math.radians(0.5)),
    "offcap-720-gon": lambda: build_region_mesh(*offcap_ring(720), math.radians(0.5)),
    "around-a-pole": around_a_pole_mesh,
    "slit": slit_square_mesh,
    "thin-band": thin_band_mesh,
    "tiny-coarse-arm": tiny_arm_cap_mesh,
}


@pytest.mark.parametrize("build", HIERARCHY_MESHES.values(), ids=HIERARCHY_MESHES.keys())
def test_operator_is_bitwise_the_coefficient_boxes(build, monkeypatch):
    # on every level, the plain stencil with the irregular rows written
    # over gives the bits of the five-coefficient operator, on vectors
    # that vanish off the unknowns
    mesh = build()
    arms, mask, origin = mesh.arms, mesh.mask, mesh.origin
    rng = np.random.default_rng(28)
    for depth, level in enumerate(hierarchy(mesh, monkeypatch)):
        if depth:
            arms, mask, origin = chebyshev._coarsen(arms, mask, origin)
        assert np.array_equal(mask, level.mask)
        spacing = mesh.delta / 2 * 2**depth
        coeffs = oracles.shortley_weller_coefficients(arms, mask, spacing, chebyshev._MIN_ARM)
        # the rows written over are those whose coefficients are not the plain stencil's
        k = 2.0 / spacing**2 * 0.5
        plain = np.all(coeffs == np.array([-4 * k, k, k, k, k])[:, None, None], axis=0)
        assert np.array_equal(level.irregular, np.flatnonzero(mask & ~plain))
        for _ in range(3):
            v = rng.standard_normal(mask.shape) * mask
            assert np.array_equal(chebyshev._apply(level, v), oracles.apply_coefficients(coeffs, v))


@pytest.mark.parametrize("build", HIERARCHY_MESHES.values(), ids=HIERARCHY_MESHES.keys())
def test_solve_is_bitwise_the_coefficient_box_solve(build, monkeypatch):
    mesh = build()
    u = solve_log_scale(mesh)
    boxes, level = {}, chebyshev._level

    def recorded(arms, mask, spacing, origin):
        built = level(arms, mask, spacing, origin)
        boxes[id(built)] = oracles.shortley_weller_coefficients(
            arms, mask, spacing, chebyshev._MIN_ARM
        )
        return built

    monkeypatch.setattr(chebyshev, "_level", recorded)
    monkeypatch.setattr(
        chebyshev, "_apply", lambda level, v: oracles.apply_coefficients(boxes[id(level)], v)
    )
    assert solve_log_scale(mesh).tobytes() == u.tobytes()


@pytest.mark.parametrize(
    "build",
    [
        *HIERARCHY_MESHES.values(),
        lambda: build_region_mesh(*france_boundary(), math.radians(3)),
        lambda: build_region_mesh(*offcap_ring(720), math.radians(0.08)),
        lambda: build_cap_mesh(math.radians(60), math.radians(0.25)),
    ],
    ids=[*HIERARCHY_MESHES, "one-level", "720-gon-bench", "cap-60"],
)
def test_mesh_is_bitwise_the_per_arm_mesh(build, monkeypatch):
    mesh = build()
    monkeypatch.setattr(chebyshev, "_mesh_points", oracles.mesh_points)
    oracle = build()
    for name in ("latitudes", "longitudes", "mask", "arms"):
        assert getattr(mesh, name).tobytes() == getattr(oracle, name).tobytes(), name


def test_cap_mesh_peak_memory():
    # the 60 degree cap at the default step, 533 x 533 nodes, 220,029
    # unknowns: the mesh holds 12.3 MiB and its build peaks at 31.8 MiB;
    # (n, 4) arrays per unknown, as in oracles.mesh_points, reach 53.0 MiB
    tracemalloc.start()
    try:
        build_cap_mesh(math.radians(60), math.radians(0.25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20


@pytest.mark.parametrize(
    "build, bound",
    [
        # a 5-point Laplacian on the coarse levels takes 20, 21, 28 and 4;
        # the first mesh is a 720-gon in a 10-degree cap at the benchmark's step
        pytest.param(
            lambda: build_region_mesh(*offcap_ring(720), math.radians(0.08)),
            13,
            id="720-gon",
        ),
        pytest.param(lambda: build_cap_mesh(math.radians(60), math.radians(0.25)), 14, id="cap-60"),
        pytest.param(
            lambda: build_region_mesh(
                *np.radians([(60, 0), (55, 100), (65, 200), (50, 290)]).T, math.radians(0.1)
            ),
            18,
            id="pole-quadrilateral",
        ),
        pytest.param(thin_band_mesh, 4, id="thin-band"),
    ],
)
def test_vcycles_per_solve(build, bound, monkeypatch):
    # only the top-level calls, which get the whole hierarchy, are the
    # solve's V-cycles; the others are its coarse corrections
    depths, vcycle = [], chebyshev._vcycle

    def counted(levels, b):
        depths.append(len(levels))
        return vcycle(levels, b)

    monkeypatch.setattr(chebyshev, "_vcycle", counted)
    solve_log_scale(build())
    assert depths.count(max(depths)) <= bound


# -- distortion ratios ------------------------------------------------------------


def test_distortion_ratio_cap_closed_form():
    cap_radius = math.radians(30)
    mesh = build_cap_mesh(cap_radius, math.radians(0.25))
    ratio = distortion_ratio(solve_log_scale(mesh))
    assert ratio == pytest.approx(2.0 / (1.0 + math.cos(cap_radius)), abs=1e-4)
    assert ratio == pytest.approx(1.0718, abs=2e-4)


def test_distortion_ratio_monotone_in_cap_radius():
    r30 = distortion_ratio(solve_log_scale(build_cap_mesh(math.radians(30), math.radians(0.25))))
    r15 = distortion_ratio(solve_log_scale(build_cap_mesh(math.radians(15), math.radians(0.25))))
    assert r30 > r15 > 1.0


def test_tiny_region_ratio_near_one():
    mesh = build_cap_mesh(math.radians(1.0), math.radians(0.1))
    assert distortion_ratio(solve_log_scale(mesh)) == pytest.approx(1.0, abs=1e-3)


# -- against projections ------------------------------------------------------------


def test_cap_stereographic_attains_the_optimum():
    # the centred stereographic is the boundary-constant map of a cap
    mesh = build_cap_mesh(math.radians(30), math.radians(0.25))
    ratio_opt = distortion_ratio(solve_log_scale(mesh))
    ratio_proj = projection_ratio(mesh, LagrangeProjectionSpec(1.0))
    assert abs(ratio_proj - ratio_opt) <= discretization_allowance(mesh)


def test_cap_half_exponent_strictly_suboptimal():
    mesh = build_cap_mesh(math.radians(30), math.radians(0.25))
    ratio_opt = distortion_ratio(solve_log_scale(mesh))
    ratio_proj = projection_ratio(mesh, LagrangeProjectionSpec(0.5))
    assert ratio_proj - ratio_opt > discretization_allowance(mesh)


def test_france_rectangle_optimality():
    mesh = build_region_mesh(*france_boundary(), math.radians(0.25))
    spec = centered_stereographic(math.radians(46), math.radians(2))
    ratio_opt = distortion_ratio(solve_log_scale(mesh))
    ratio_proj = projection_ratio(mesh, spec)
    assert ratio_opt <= ratio_proj + discretization_allowance(mesh)


# -- the chart grid budget ---------------------------------------------------------


def test_chart_grid_limit_is_exact(monkeypatch):
    # the disc's crossings lie within tan(R / 2) of the centre, 10.03 grid
    # spacings here, and the grid spares a node on every side
    radius, delta = math.radians(10), math.radians(1)
    side = 2 * math.ceil(math.tan(radius / 2) / (delta / 2)) + 3
    assert side == 25
    monkeypatch.setattr(chebyshev, "CHART_NODE_LIMIT", side * side)
    assert build_cap_mesh(radius, delta).interior_count > 0
    monkeypatch.setattr(chebyshev, "CHART_NODE_LIMIT", side * side - 1)
    message = f"^chart grid of 25 x 25 nodes is over the limit of {side * side - 1} nodes$"
    with pytest.raises(ConfigError, match=message):
        build_cap_mesh(radius, delta)


class Reached(Exception):
    """Raised in place of building the crossings."""


def _unreached(*args):
    raise Reached


def test_chart_grid_limit_admits_the_60_degree_cap(monkeypatch):
    # at the default step: counted at 533 x 533 nodes, within the limit
    monkeypatch.setattr(chebyshev, "_crossings", _unreached)
    radius, delta = math.radians(60), math.radians(0.25)
    with pytest.raises(Reached):
        build_cap_mesh(radius, delta)
    monkeypatch.setattr(chebyshev, "CHART_NODE_LIMIT", 533 * 533 - 1)
    with pytest.raises(ConfigError, match="^chart grid of 533 x 533 nodes is over "):
        build_cap_mesh(radius, delta)


@pytest.mark.parametrize("delta", [1e-300, 1e-14, 1e-7])
def test_chart_grid_refused_before_allocating(monkeypatch, delta):
    monkeypatch.setattr(chebyshev, "_crossings", _unreached)
    limit = chebyshev.CHART_NODE_LIMIT
    with pytest.raises(ConfigError, match=f"^mesh step {delta:g} rad gives over {limit} grid "):
        build_cap_mesh(math.radians(10), delta)
    with pytest.raises(ConfigError, match=f"^mesh step {delta:g} rad gives over {limit} grid "):
        build_region_mesh(*offcap_ring(720), delta)
    # counted: a span within the limit, the grid over it
    with pytest.raises(ConfigError, match="^chart grid of 2009 x 2009 nodes is over "):
        build_cap_mesh(math.radians(10), math.radians(0.01))
