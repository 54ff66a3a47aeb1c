"""Array kernels against the per-point code they replace.

The per-point forward projection, the per-point closed-form dilatation,
the double loop and the all-pairs blocks of the boundary self-intersection
test and the ring loop of the cap sample layout are kept here as oracles;
the batched conformality probes are checked against the per-point
``conformality_defect`` of any projection callable in the oracles, the
columnar GeoJSON writers against ``dumps`` of the same document built as
objects, and the SVG polylines against points formatted line by line.
"""

import cmath
import copy
import itertools
import json
import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carta.chebyshev as chebyshev
import carta.cli as cli
import carta.distortion as distortion
import carta.geojson_io as geojson_io
import carta.lagrange as lagrange
import carta.surfaces as surfaces
from carta import (
    Inversion,
    LagrangeProjectionSpec,
    MobiusTransform,
    centered_stereographic,
    distortion_report,
    project,
)
from carta.chebyshev import _check_simple, build_cap_mesh, build_region_mesh, projection_ratio
from carta.distortion import cap_samples, dilatation_analytic
from carta.errors import (
    BranchOverflow,
    ConfigError,
    DomainEdge,
    GeoJsonError,
    NonFiniteValue,
    OriginSingularity,
    PointAtInfinity,
    PoleSingularity,
    ProjectionPole,
    RegionTooSmall,
    SelfIntersectingBoundary,
)
from carta.geojson_io import (
    dumps,
    format_float,
    map_positions,
    point_feature_collection,
    position_texts,
)
from carta.geometry import POLE_COLATITUDE_EPS
from carta.lagrange import dilatation_array, project_array
from carta.svg_render import svg_text
from carta.surfaces import SPHERE, SurfaceOfRevolution, conformal_latitude

from conftest import point_columns, random_point_for_spec, random_spec
from oracles import conformality_defect, invert_point, parallel_radius, wrap_longitude


def reference_project(spec, lat, lon):
    """The per-point forward projection, step by step."""
    if not spec.surface.is_sphere:
        lat = conformal_latitude(spec.surface.eccentricity, lat)
    if math.pi / 2 - lat < POLE_COLATITUDE_EPS:
        raise ProjectionPole("the projection center has no image")
    omega = spec.exponent * wrap_longitude(lon - spec.central_meridian)
    if abs(omega) > math.pi + 1e-12:
        raise BranchOverflow("branch")
    rho = math.tan(math.pi / 4 + lat / 2)
    w = 0.0j if rho == 0.0 else rho**spec.exponent * cmath.exp(1j * omega)
    post = spec.post_transform
    if isinstance(post, Inversion):
        w = invert_point(post, w)
    elif post is not None:
        w = (post.a * w + post.b) / (post.c * w + post.d)
    return w


def _suite(rng, name):
    if name == "centered_stereographic":
        return centered_stereographic(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi))
    post_kinds = {"inversion": ("inversion",), "mobius": ("mobius",)}.get(name, ("none",))
    spec = random_spec(rng, allow_spheroid=False, post_kinds=post_kinds)
    if name == "spheroid":
        spec = LagrangeProjectionSpec(
            spec.exponent, spec.central_meridian, spec.post_transform,
            SurfaceOfRevolution(float(rng.uniform(0.02, 0.3))),
        )
    return spec


@pytest.mark.parametrize(
    "suite", ["sphere", "spheroid", "inversion", "mobius", "centered_stereographic"]
)
def test_project_array_matches_reference(rng, suite):
    worst = 0.0
    for _ in range(40):
        spec = _suite(rng, suite)
        points = [random_point_for_spec(rng, spec) for _ in range(50)]
        lat, lon = np.array(points).T
        w, code = project_array(spec, lat, lon)
        assert not code.any()
        for p, got in zip(points, w):
            want = reference_project(spec, *p)
            worst = max(worst, abs(got - want) / abs(want))
            scalar = project(spec, *p)
            assert abs(scalar - got) <= 1e-15 * abs(got)  # the wrapper adds no arithmetic
    assert worst <= 1e-13


@pytest.mark.parametrize("kernel", [project_array, dilatation_array])
def test_kernels_refuse_latitudes_off_the_sphere(kernel):
    # the first finite latitude past a pole is named, as the scalar entries
    # name theirs; a NaN keeps its failure code, and the poles pass the check
    spec = LagrangeProjectionSpec(1.0)
    for lat, named in (([0.1, -2.0, 3.0], -2.0), ([math.pi / 2 + 1e-15, 0.1], math.pi / 2 + 1e-15)):
        with pytest.raises(ValueError, match=rf"^latitude {named} outside \[-pi/2, pi/2\]$"):
            kernel(spec, lat, [0.3] * len(lat))
    _, code = kernel(spec, [math.nan, -math.pi / 2, math.pi / 2], [0.3] * 3)
    assert code.tolist() == [5, 0, 1]


def test_conformal_latitude_array_branches():
    # e = 0, lat = +-0 (sign kept) and near and at the poles, elementwise
    lat = np.array([0.0, -0.0, -math.pi / 2, -math.pi / 2 + 1e-9, math.pi / 2, 1e-300, 0.3, -1.2])
    for e in (0.0, 0.08):
        chi = conformal_latitude(e, lat)
        for la, got in zip(lat, chi):
            want = conformal_latitude(e, float(la))
            assert got == pytest.approx(want, abs=1e-15)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert list(chi[:6]) == [conformal_latitude(e, float(la)) for la in lat[:6]]
    spec = LagrangeProjectionSpec(0.8, surface=SurfaceOfRevolution(0.08))
    w, code = project_array(spec, [math.pi / 2 - 1e-9, -math.pi / 2], [0.0, 0.0])
    # 1e-9 from the North pole is not the pole: rho is about
    # cot(1e-9 / 2) ((1 - e) / (1 + e))^(e / 2)
    assert list(code) == [0, 0] and w[1] == 0
    assert w[0] == pytest.approx((2e9 * (0.92 / 1.08) ** 0.04) ** 0.8, rel=1e-6)


# -- error parity -------------------------------------------------------------------
# messages as the per-point code raised them


@pytest.mark.parametrize(
    "coordinates, flags, message",
    [
        ([[0, 10], [10, 90], [20, 89]], [],
         "ProjectionPole: cannot project (10, 90): the projection center has no image"),
        ([[0, 10], [170, 0], [10, 90]], ["--exponent", "2"],
         "BranchOverflow: cannot project (170, 0): longitude 2.9670597283903604 leaves the"
         " single-branch window for c=2.0"),
        ([[5, 5], [0, 0], [10, 90]], ["--inversion-pole", "1,0", "--inversion-power", "1"],
         "PoleSingularity: cannot project (0, 0): point at the inversion pole"),
        ([[5, 5], [1e-9, 0], [10, 90]], ["--inversion-pole", "1,0", "--inversion-power", "1e300"],
         "NonFiniteValue: cannot project (1e-09, 0): non-finite plane point (-inf, inf)"),
    ],
    ids=["north-pole", "branch", "inversion-pole", "overflow"],
)
def test_project_cli_reports_first_failing_position(tmp_path, capsys, coordinates, flags, message):
    region = tmp_path / "line.geojson"
    region.write_text(json.dumps({"type": "LineString", "coordinates": coordinates}))
    out = tmp_path / "out.geojson"
    assert cli.main(["project", "--region", str(region), "--out", str(out), *flags]) == 4
    assert capsys.readouterr().err == f"carta: {message}\n"
    assert not out.exists()


def test_malformed_position_wins_over_unprojectable_one(tmp_path, capsys):
    # every position is validated before any is projected
    region = tmp_path / "line.geojson"
    region.write_text(json.dumps({"type": "LineString", "coordinates": [[10, 90], [0, "x"]]}))
    assert cli.main(["project", "--region", str(region), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize(
    "spec, point, kind, message",
    [
        (LagrangeProjectionSpec(1.0, post_transform=MobiusTransform(1, 0, 1, -1)),
         (0.0, 0.0), PointAtInfinity, "point (0.9999999999999999+0j) maps to infinity"),
        (LagrangeProjectionSpec(1.0, post_transform=Inversion(1 + 0j, 1.0)),
         (0.0, 0.0), PoleSingularity, "point at the inversion pole"),
        (LagrangeProjectionSpec(1.0, surface=SurfaceOfRevolution(0.1),
                                post_transform=Inversion(1 + 0j, 1e300)),
         (0.0, 1e-11), NonFiniteValue, "non-finite plane point (-inf, inf)"),
        (LagrangeProjectionSpec(2.0, central_meridian=1.0), (0.0, -3.0),
         BranchOverflow, "longitude -3.0 leaves the single-branch window for c=2.0"),
        # the projection center comes first, past the branch window too
        (LagrangeProjectionSpec(2.0), (math.pi / 2, 2.0),
         ProjectionPole, "the projection center has no image"),
    ],
    ids=["mobius-pole", "inversion-pole", "overflow", "branch", "center-past-branch"],
)
def test_scalar_project_errors(spec, point, kind, message):
    with pytest.raises(kind) as info:
        project(spec, *point)
    assert type(info.value) is kind and str(info.value) == message


# -- batched conformality defect -------------------------------------------------------


def test_batched_defect_matches_scalar(rng):
    worst = 0.0
    for _ in range(30):
        spec = random_spec(rng)
        points = [random_point_for_spec(rng, spec) for _ in range(40)]
        report = distortion_report(spec, *point_columns(points))
        for p, defect in zip(points, report.conformality_defect):
            scalar = conformality_defect(partial(project, spec), *p, surface=spec.surface)
            worst = max(worst, abs(defect - scalar))
    assert worst <= 1e-9


def test_batched_defect_at_the_pole():
    # the pole and a sample next to it are probed along great circles like any other
    spec = LagrangeProjectionSpec(1.0, post_transform=Inversion(3 + 0j, 2.0))
    points = [(-math.pi / 2, 0.0), (-math.pi / 2 + 5e-8, 1.0)]
    report = distortion_report(spec, *point_columns(points))
    for p, defect in zip(points, report.conformality_defect):
        scalar = conformality_defect(partial(project, spec), *p)
        assert defect == pytest.approx(scalar, abs=1e-9)


def _raised(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def _report_error(spec, points):
    return _raised(distortion_report, spec, *point_columns(points))


SPHEROID = LagrangeProjectionSpec(1.0, surface=SurfaceOfRevolution(0.1))
NEAR_SOUTH = (-math.pi / 2 + 1e-5, 0.0)  # diagonal probes cross the pole
SOUTH = (-math.pi / 2, 0.0)
FINE = (0.3, 0.2)
NORTH = (math.pi / 2, 0.0)
# a sample of exponent 2 just inside the branch window: a diagonal probe leaves it
BRANCH = LagrangeProjectionSpec(2.0, surface=SurfaceOfRevolution(0.1))
BRANCH_EDGE = (0.3, math.pi / 2 - 1e-5)
PROBE_AT_CENTER = (0.4, 0.5)


def _inversion_at_probe(p, surface):
    """Exponent 1 and an inversion centred on the image of p's first
    diagonal probe, which distortion_report projects on the conformal sphere."""
    chi = conformal_latitude(surface.eccentricity, [p[0]])
    lat, lon = distortion._probes(chi, [p[1]], distortion.DEFAULT_STEP, distortion._DIAGONALS)
    w, _ = project_array(LagrangeProjectionSpec(1.0), lat[0], lon[0])
    inversion = Inversion(w[0], 1.0)
    return LagrangeProjectionSpec(1.0, post_transform=inversion, surface=surface)


CENTER = _inversion_at_probe(PROBE_AT_CENTER, SPHERE)
SPHEROID_CENTER = _inversion_at_probe(PROBE_AT_CENTER, SPHEROID.surface)
AT_CENTER = (DomainEdge, "probe left the projection domain: point at the inversion pole")


def test_batched_defect_spheroid_pole_crossing():
    # probes cross the pole on great circles of the conformal sphere, and the
    # pole has the limit of cos(chi) / q for its scale
    points = [FINE, NEAR_SOUTH, SOUTH]
    report = distortion_report(SPHEROID, *point_columns(points))
    for p, defect in zip(points, report.conformality_defect):
        scalar = conformality_defect(partial(project, SPHEROID), *p, surface=SPHEROID.surface)
        assert defect == pytest.approx(scalar, abs=1e-12) and defect < 1e-7
    e = SPHEROID.surface.eccentricity
    limit = math.sqrt(1 - e * e) * ((1 + e) / (1 - e)) ** (e / 2)
    assert report.m[2] == pytest.approx(limit / 2, rel=1e-15)


def test_spheroid_report_inverts_no_conformal_latitude(monkeypatch):
    # the spheroid's map is the sphere's at the conformal latitude, so the
    # report projects its probes there and takes none back to the spheroid
    spec = LagrangeProjectionSpec(
        1.0,
        post_transform=Inversion(1 - 2.8j, 2.0),
        surface=SurfaceOfRevolution(0.0818191908426),
    )
    lat, lon = cap_samples(math.radians(30), math.radians(3))
    expected = [
        conformality_defect(partial(project, spec), a, b, surface=spec.surface)
        for a, b in zip(lat[::10].tolist(), lon[::10].tolist())
    ]

    def refused(*args):
        raise AssertionError("inverse_conformal_latitude called")

    monkeypatch.setattr(surfaces, "inverse_conformal_latitude", refused)
    report = distortion_report(spec, lat, lon)
    assert report.conformality_defect[::10] == pytest.approx(expected, abs=1e-10)
    assert np.array_equal(report.m, dilatation_array(spec, lat, lon)[0])


def test_batched_defect_error_order():
    # within a sample the dilatation fails first; across samples, the first sample
    assert _raised(conformality_defect, partial(project, BRANCH), *NORTH)[0] is DomainEdge
    assert _report_error(BRANCH, [FINE, NORTH])[0] is ProjectionPole
    assert _report_error(BRANCH, [NORTH, BRANCH_EDGE])[0] is ProjectionPole
    error = _report_error(BRANCH, [BRANCH_EDGE, NORTH])
    assert error == _raised(
        conformality_defect, partial(project, BRANCH), *BRANCH_EDGE, surface=BRANCH.surface
    )
    assert error[0] is DomainEdge and "leaves the single-branch window for c=2.0" in error[1]
    error = _report_error(CENTER, [FINE, PROBE_AT_CENTER])
    assert error == _raised(conformality_defect, partial(project, CENTER), *PROBE_AT_CENTER)
    assert error == AT_CENTER
    # every probe image rounds to the inversion's centre: the chords vanish
    collapse = LagrangeProjectionSpec(1.0, post_transform=Inversion(3 + 3j, 1e-300))
    error = _report_error(collapse, [FINE])
    assert error == _raised(conformality_defect, partial(project, collapse), *FINE)
    assert error == (DomainEdge, "degenerate probe image")


def test_scalar_defect_wraps_the_report(rng):
    # the package's one-point defect adds no arithmetic to the report's
    for _ in range(30):
        spec = random_spec(rng)
        points = [random_point_for_spec(rng, spec) for _ in range(10)]
        report = distortion_report(spec, *point_columns(points))
        for p, defect in zip(points, report.conformality_defect.tolist()):
            assert distortion.conformality_defect(spec, *p) == defect


@pytest.mark.parametrize(
    "spec, point",
    [
        (BRANCH, BRANCH_EDGE),
        (CENTER, PROBE_AT_CENTER),
        (LagrangeProjectionSpec(1.0, post_transform=Inversion(3 + 3j, 1e-300)), FINE),
    ],
    ids=["branch-edge", "probe-at-center", "collapse"],
)
def test_scalar_defect_raises_the_report_error(spec, point):
    assert _raised(distortion.conformality_defect, spec, *point) == _report_error(spec, [point])


@pytest.mark.parametrize(
    "spec, failing, expected",
    [
        (SPHEROID_CENTER, {300: PROBE_AT_CENTER, 700: NORTH}, AT_CENTER),
        (SPHEROID_CENTER, {300: NORTH, 700: PROBE_AT_CENTER},
         (ProjectionPole, "dilatation diverges at the projection center")),
        (CENTER, {500: PROBE_AT_CENTER, 800: NORTH}, AT_CENTER),
        (CENTER, {500: NORTH, 800: PROBE_AT_CENTER},
         (ProjectionPole, "dilatation diverges at the projection center")),
        (LagrangeProjectionSpec(1.0, post_transform=Inversion(1 + 0j, 1.0)),
         {600: (0.0, 0.0), 800: SOUTH},
         (PoleSingularity, "point (0.9999999999999999+0j) at the pole of the post-transform")),
    ],
    ids=["defect-first", "dilatation-first", "center-probe-first", "center-first", "inversion"],
)
def test_report_error_mid_array(spec, failing, expected):
    # a failing sample among a thousand fine ones: the first failing sample
    # raises, with the parent's class and message
    rng = np.random.default_rng(7)
    points = [
        (float(a), float(b))
        for a, b in zip(rng.uniform(-1.2, 1.2, 1000), rng.uniform(-3, 3, 1000))
    ]
    for i, p in failing.items():
        points[i] = p
    assert _report_error(spec, points) == expected


# -- blocks: the same arrays, errors and text whatever the block size ----------------

BLOCKS = [1, 7, 64]
CAP_SPEC = LagrangeProjectionSpec(1.0, central_meridian=0.3)


# values the number kernel leaves to format_float, and zeros, which it writes itself
REFERENCE_PATH = [0.0, -0.0, 1e300, 5e-324]


def _point_pieces(lat, lon, report, block):
    """The point text of a report, with the reference-path values put on
    both sides of the first and the third block boundary."""
    m = report.m.copy()
    m[[block - 1, block, 3 * block - 1, 3 * block]] = REFERENCE_PATH
    columns = {"m": m, "conformality_defect": report.conformality_defect}
    return list(point_feature_collection(np.degrees(lon), np.degrees(lat), columns))


@pytest.mark.parametrize("block", BLOCKS)
def test_distortion_path_is_block_invariant(monkeypatch, block):
    lat, lon = cap_samples(math.radians(20), math.radians(1))
    expected = distortion_report(CAP_SPEC, lat, lon)
    text = "".join(_point_pieces(lat, lon, expected, block))
    monkeypatch.setattr(distortion, "_SAMPLE_BLOCK", block)
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", block)
    report = distortion_report(CAP_SPEC, lat, lon)
    assert report.m.tobytes() == expected.m.tobytes()
    assert report.conformality_defect.tobytes() == expected.conformality_defect.tobytes()
    assert (report.m_min, report.m_max, report.ratio) == (
        expected.m_min, expected.m_max, expected.ratio)
    pieces = _point_pieces(lat, lon, report, block)
    assert "".join(pieces) == text
    for value in map(format_float, REFERENCE_PATH):
        assert f'"m": {value}, ' in text
    # the opening, each block, the separators between blocks and the closing
    assert len(pieces) == 2 * -(-lat.size // block) + 1


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize(
    "spec, first, second",
    [(SPHEROID_CENTER, PROBE_AT_CENTER, NORTH), (SPHEROID_CENTER, NORTH, PROBE_AT_CENTER),
     (CENTER, PROBE_AT_CENTER, NORTH)],
    ids=["defect-first", "dilatation-first", "center-probe-first"],
)
def test_report_error_past_a_block_boundary(monkeypatch, block, spec, first, second):
    # the first failing sample opens the second block, and another follows it
    rng = np.random.default_rng(7)
    points = [
        (float(a), float(b))
        for a, b in zip(rng.uniform(-1.2, 1.2, 200), rng.uniform(-3, 3, 200))
    ]
    points[block], points[block + 1] = first, second
    expected = _report_error(spec, points)
    monkeypatch.setattr(distortion, "_SAMPLE_BLOCK", block)
    assert _report_error(spec, points) == expected


def _peak_above_columns(lat, lon):
    """tracemalloc's peak while ``distortion_report`` runs on the samples
    and the point text is drained piece by piece, less the columns that
    stay: the report's two and the two positions in degrees."""
    tracemalloc.start()
    try:
        report = distortion_report(CAP_SPEC, lat, lon)
        columns = {"m": report.m, "conformality_defect": report.conformality_defect}
        for _ in point_feature_collection(np.degrees(lon), np.degrees(lat), columns):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - 4 * lat.nbytes


def test_distortion_path_memory_does_not_grow_with_samples():
    lat, lon = cap_samples(math.radians(30), math.radians(0.1))
    _peak_above_columns(lat[:64], lon[:64])  # numpy's first-call allocations
    small, large = (_peak_above_columns(lat[:n], lon[:n]) for n in (1 << 15, 1 << 17))
    # whole-array temporaries of even 8 bytes a sample would add 0.75 MiB
    assert large <= small + (1 << 18), (small, large)


# -- boundary self-intersection -----------------------------------------------------


def reference_check_simple(poly_xy):
    """The double loop over segment pairs."""
    n = len(poly_xy)
    segs = [(poly_xy[i], poly_xy[(i + 1) % n]) for i in range(n)]

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n == 1 or (i - j) % n == 1:
                continue
            (p1, p2), (q1, q2) = segs[i], segs[j]
            d1 = cross2(p2 - p1, q1 - p1)
            d2 = cross2(p2 - p1, q2 - p1)
            d3 = cross2(q2 - q1, p1 - q1)
            d4 = cross2(q2 - q1, p2 - q1)
            if d1 * d2 < 0 and d3 * d4 < 0:
                raise SelfIntersectingBoundary(f"boundary edges {i} and {j} cross")


def _outcome(check, poly):
    try:
        check(poly)
    except SelfIntersectingBoundary as exc:
        return str(exc)
    return None


def test_check_simple_matches_double_loop(rng, monkeypatch):
    import carta.chebyshev as chebyshev

    monkeypatch.setattr(chebyshev, "_PAIR_BLOCK", 64)  # several row blocks per ring
    outcomes = set()
    for _ in range(150):
        n = int(rng.integers(3, 40))
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
        radii = rng.uniform(0.5, 1.5, n)
        star = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        scrambled = rng.permutation(star)
        for poly in (star, scrambled):
            got = _outcome(_check_simple, poly)
            assert got == _outcome(reference_check_simple, poly)
            outcomes.add(got is None)
    assert outcomes == {True, False}  # both simple and self-intersecting rings were drawn


def all_pairs_check_simple(poly_xy, pair_block):
    """The all-pairs test: every edge against every later edge, in row blocks."""
    n = len(poly_xy)
    x, y = poly_xy[:, 0], poly_xy[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    ex, ey = x2 - x, y2 - y
    rows = max(1, pair_block // n)
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


def _monotone_polygon(columns):
    """A ring of small integers that is simple: an upper chain left to right
    above a lower chain right to left over the same sorted x (repeats give
    vertical edges, equal y collinear ones)."""
    xs, tops, bottoms = zip(*sorted(columns))
    return [*zip(xs, tops), *zip(reversed(xs), reversed(bottoms))]


def _star_ring(spokes):
    """A ring of spokes (bearing in degrees, radius) in the order given:
    simple when the bearings are sorted, often crossing when not."""
    bearings, radii = np.radians([b for b, _ in spokes]), np.array([r for _, r in spokes])
    return np.column_stack([radii * np.cos(bearings), radii * np.sin(bearings)]).tolist()


# small integer coordinates: many collinear, touching and repeated edges, and
# every orientation product exact, so both tests see the same signs; star
# rings, whose edges overlap many others in x but few in y, are in floats,
# where both tests still form each product from the same operands
grid_points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
star_spokes = st.lists(st.tuples(st.integers(0, 359), st.floats(0.1, 0.13)), min_size=4, max_size=60)
test_rings = (
    st.lists(grid_points, min_size=4, max_size=60)
    | st.lists(
        st.tuples(st.integers(-4, 4), st.integers(1, 4), st.integers(-4, 0)), min_size=2, max_size=30
    ).map(_monotone_polygon)
    | star_spokes.map(sorted).map(_star_ring)
    | star_spokes.map(_star_ring)
)


@settings(max_examples=500, deadline=None)
@given(ring=test_rings, transpose=st.booleans(),
       pair_block=st.sampled_from([1, 7, 64, chebyshev._PAIR_BLOCK]))
def test_check_simple_matches_all_pairs(ring, transpose, pair_block):
    poly = np.array(ring, dtype=float)[:, ::-1 if transpose else 1]
    with mock.patch.object(chebyshev, "_PAIR_BLOCK", pair_block):
        got = _outcome(_check_simple, poly)
    assert got == _outcome(lambda p: all_pairs_check_simple(p, pair_block), poly)


# -- cap sample layout ----------------------------------------------------------------


def reference_cap_samples(radius, delta):
    """The ring loop: n rings radius / n apart, one sample after another,
    the South pole first; each ring has one sample per step of its length,
    the rim half as many."""
    n = round(radius / delta)
    step = radius / n
    lat, lon = [], []
    for i in range(n + 1):
        r = np.float64(i) * step
        length = math.pi * math.sin(r) if i == n else 2.0 * math.pi * math.sin(r)
        count = 1 if i == 0 else max(1, round(length / step))
        for j in range(count):
            lat.append(-math.pi / 2 + r)
            lon.append(wrap_longitude(2 * math.pi * j / count))
    return np.array(lat), np.array(lon)


def test_cap_node_points_match_ring_loop():
    radius, delta = math.radians(30), math.radians(0.25)
    lat, lon = cap_samples(radius, delta)
    ref_lat, ref_lon = reference_cap_samples(radius, delta)
    assert lat.tobytes() == ref_lat.tobytes() and lon.tobytes() == ref_lon.tobytes()


def test_cap_samples_need_two_interior_rings():
    # two rings inside hold at least 16 samples, so no other count is checked
    message = "^cap of radius 0.03490658503988659 has 1 interior rings$"
    with pytest.raises(RegionTooSmall, match=message):
        cap_samples(math.radians(2), math.radians(1))


def test_cap_sample_limit_is_exact(monkeypatch):
    radius, delta = math.radians(10), math.radians(1)
    total = cap_samples(radius, delta)[0].size
    monkeypatch.setattr(distortion, "CAP_SAMPLE_LIMIT", total)
    assert cap_samples(radius, delta)[0].size == total
    monkeypatch.setattr(distortion, "CAP_SAMPLE_LIMIT", total - 1)
    message = f"^cap of 10 rings and {total} samples is over the limit of {total - 1} samples$"
    with pytest.raises(ConfigError, match=message):
        cap_samples(radius, delta)


SPACING = "mesh spacing must be positive"
TRIANGLE = np.radians([10.0, 10.0, 20.0]), np.radians([0.0, 10.0, 5.0])


@pytest.mark.parametrize(
    "build, args, message",
    [
        (cap_samples, (0.5, 0.0), SPACING),
        (cap_samples, (0.5, -0.1), SPACING),
        (cap_samples, (0.5, math.nan), SPACING),
        (cap_samples, (4.0, 0.1), "cap radius 4.0 outside (0, pi/2)"),
        (cap_samples, (math.nan, 0.1), "cap radius nan outside (0, pi/2)"),
        (build_cap_mesh, (0.5, math.nan), SPACING),
        (build_cap_mesh, (math.nan, 0.1), "cap radius nan outside (0, pi/2)"),
        (build_region_mesh, (*TRIANGLE, math.nan), SPACING),
    ],
    ids=["samples-zero-step", "samples-negative-step", "samples-nan-step",
         "samples-radius-4", "samples-nan-radius", "cap-mesh-nan-step",
         "cap-mesh-nan-radius", "region-mesh-nan-step"],
)
def test_builders_refuse_a_step_or_radius_out_of_range(build, args, message):
    # refused as the CLI's validate refuses them, before any budget is counted
    with pytest.raises(ValueError) as info:
        build(*args)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("radius_deg", [1, 45, 89.99])
@pytest.mark.parametrize("root", [4, 10, 100, 1448])
def test_cap_refused_by_ring_count_is_over_any_limit_of_that_root(monkeypatch, radius_deg, root):
    # rings just above the root of a limit round to `root` rings; the exact
    # count must still exceed (root + 1)**2, more than any limit of that root,
    # so the refusal without counting turns down no layout that fits
    monkeypatch.setattr(distortion, "CAP_SAMPLE_LIMIT", (root + 1) ** 2)
    radius = math.radians(radius_deg)
    with pytest.raises(ConfigError, match=f"^cap of {root} rings and "):
        cap_samples(radius, radius / (root + 0.49))
    with pytest.raises(ConfigError, match=" rad gives over "):
        cap_samples(radius, radius / (root + 1.01))


# -- the number kernel against format_float ------------------------------------------


def kernel_texts(values, work=None):
    """Each value's text as the bulk writers lay it out, one per row, made in
    ``work`` (by default a workspace of its own); a RuntimeWarning fails
    the test."""
    column = np.asarray(values, dtype=float)
    if work is None:
        work = geojson_io._Workspace(column.size, 1, 4)
    rows = work.rows[:column.size]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows[:, :3] = geojson_io._number_words(column, work).T
    rows[:, 3] = geojson_io._words("\n")
    return geojson_io._text(rows, work).split("\n")[:-1]


def assert_kernel_is_format_float(values):
    values = np.asarray(values, dtype=float)
    texts = kernel_texts(values)
    assert len(texts) == values.size
    wrong = [(v, text) for v, text in zip(values.tolist(), texts) if text != format_float(v)]
    assert wrong[:5] == []


def exact_ties(rng, count):
    """odd * 2**-(k + 1) with 16 significant digits, the last a 5: exactly
    halfway between two 15-digit decimals, for k from 0 to 21."""
    k = rng.integers(0, 22, count)
    low, high = 10.0**15 / 5.0 ** (k + 1), 10.0**16 / 5.0 ** (k + 1)
    odd = 2 * np.floor(rng.uniform(low, high) / 2) + 1
    odd = np.where(odd < low, odd + 2, np.where(odd >= high, odd - 2, odd))
    return np.ldexp(odd, -(k + 1))


def near_halves(limit=1e-14, tries=300):
    """Doubles a whose a * 10**(14 - decade) is within ``limit`` of a half
    and not one: x = a * 2**k = m * 2**-e (53-bit m) and m * 5**k is
    2**(e - 1) + t modulo 2**e for small t, so the rest is 1/2 + t * 2**-e."""
    found = []
    for k in range(21, 46):
        low, high = Fraction(10**14, 5**k), Fraction(10**15, 5**k)  # the range of x
        for e in range(40, 120):
            span = min(int(limit * 2**e), tries)
            if not span or Fraction(2**53, 2**e) <= low or high <= Fraction(2**52, 2**e):
                continue
            inverse = pow(5**k, -1, 2**e)
            for t in [*range(1, span + 1), *range(-span, 0)]:
                m = (2 ** (e - 1) + t) * inverse % 2**e
                if 2**52 <= m < 2**53 and low <= Fraction(m, 2**e) < high:
                    found.append(float(Fraction(m, 2 ** (e + k))))
    return found


def decade_edges():
    """One ulp on each side of 10**j for j from -40 to 20, and both sides of
    the fixed/exponent switches at 1e-4 and 1e15."""
    powers = np.array([float(f"1e{j}") for j in range(-40, 21)])
    switches = np.array([1e-4, 9.99999999999999e-5, 9.999999999999995e-5, 1e15,
                         999999999999999.0, 999999999999999.4, 999999999999999.5])
    edges = np.concatenate([powers, switches])
    return np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])


def test_kernel_text_of_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 1 << 64, 100_000, dtype=np.uint64)
    values = bits.view(float)
    assert_kernel_is_format_float(values[np.isfinite(values)])


def test_kernel_text_across_magnitudes():
    rng = np.random.default_rng(21)
    assert_kernel_is_format_float(rng.choice([-1, 1], 50_000) * 10 ** rng.uniform(-40, 20, 50_000))


def test_kernel_settles_exact_ties_half_even(monkeypatch):
    ties = np.concatenate([[1.000030517578125], exact_ties(np.random.default_rng(22), 20_000)])
    calls = []
    monkeypatch.setattr(geojson_io, "format_float", lambda v: calls.append(v) or format_float(v))
    texts = kernel_texts(ties)
    assert calls == []  # no tie is left to the reference
    assert texts == list(map(format_float, ties.tolist()))
    assert texts[0] == "1.00003051757812"  # the even neighbour, below


def test_kernel_leaves_near_halves_to_the_reference(monkeypatch):
    # within the rest's rounding error of a half the kernel cannot tell the
    # side: 1.064195944169395e-09 * 1e23 is 106419594416939.5 + 4.2e-17, so
    # its text is 1.0641959441694e-09
    values = near_halves()
    assert len(values) > 400 and 1.064195944169395e-09 in values
    calls = []
    monkeypatch.setattr(geojson_io, "format_float", lambda v: calls.append(v) or format_float(v))
    assert kernel_texts(values) == list(map(format_float, values))
    assert calls == values


def test_kernel_text_at_decade_edges_zeros_and_subnormals():
    subnormals = np.random.default_rng(23).integers(1, 1 << 52, 1000).astype(np.uint64).view(float)
    values = np.concatenate([decade_edges(), [0.0, 5e-324, 2.2250738585072014e-308, 1.7e308],
                             subnormals])
    assert_kernel_is_format_float(np.concatenate([values, -values]))
    # rounded up into the next decade; the double nearest 9.999999999999995 is
    # 9.99999999999999467..., below the half, and the next one up is above it
    assert kernel_texts([9.999999999999995, 9.999999999999996, 999999999999999.5]) == [
        "9.99999999999999", "10", "1e+15"]
    assert kernel_texts([0.0, -0.0]) == ["0", "-0"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_kernel_text_is_format_float(values):
    assert kernel_texts(values) == list(map(format_float, values))


def test_kernel_text_is_sign_symmetric():
    # position_texts writes the kernel's text of |v|, after a "-" where v is
    # negative, and the SVG's -y by flipping that sign
    rng = np.random.default_rng(24)
    values = np.concatenate([decade_edges(), exact_ties(rng, 2000), [0.0, 5e-324],
                             10 ** rng.uniform(-40, 20, 5000)])
    assert kernel_texts(-values) == ["-" + text for text in kernel_texts(values)]


@pytest.mark.parametrize("shift", [1, -1])
def test_kernel_text_does_not_trust_the_decade_estimate(monkeypatch, shift):
    rng = np.random.default_rng(25)
    values = np.concatenate([decade_edges(), exact_ties(rng, 500),
                             [0.0, 1e-31, 9.99999999999999e-31],
                             rng.choice([-1, 1], 5000) * 10 ** rng.uniform(-32, 16, 5000)])

    def estimate(a, out):  # the exact decade of each value, one off
        out[:] = [Decimal(x).adjusted() + shift for x in a.tolist()]
        return out

    monkeypatch.setattr(geojson_io, "_decade", estimate)
    assert_kernel_is_format_float(values)


def test_kernel_workspace_reused_for_shorter_blocks():
    # a writer's workspace takes a full block, then a partial last one; each
    # value of a shorter block is the text of its own, whatever the longer
    # one left in the buffers
    rng = np.random.default_rng(33)
    bits = rng.integers(0, 1 << 64, 20_000, dtype=np.uint64).view(float)
    subnormals = rng.integers(1, 1 << 52, 500).astype(np.uint64).view(float)
    sets = {
        "bit patterns": bits[np.isfinite(bits)],
        "ties": exact_ties(rng, 4000),
        "near halves": np.array(near_halves()),
        "decade edges": decade_edges(),
        "zeros": np.array([0.0, -0.0]),
        "subnormals": np.concatenate([subnormals, -subnormals]),
        "from 1e15 up": rng.choice([-1, 1], 2000) * 10 ** rng.uniform(15, 308, 2000),
    }
    size, names = 2048, list(sets)
    work = geojson_io._Workspace(size, 1, 4)
    for k, name in enumerate(names):
        # a full block of one set, a partial one of the next, a value of the third
        following = [sets[names[(k + j) % len(names)]] for j in (1, 2)]
        for block in (np.resize(sets[name], size), np.resize(following[0], 700), following[1][-1:]):
            assert kernel_texts(block, work) == list(map(format_float, block.tolist())), name


# -- columnar point GeoJSON -----------------------------------------------------------


def reference_collection(lon_deg, lat_deg, columns):
    """The collection as objects, for ``dumps``."""
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [x, y]},
                "properties": {name: float(values[i]) for name, values in columns.items()},
            }
            for i, (x, y) in enumerate(zip(lon_deg.tolist(), lat_deg.tolist()))
        ],
    }


# -0, subnormals, the normal minimum, the %g switches to and from exponents
# (1e-5, 1e15, 1e16) and the top of the range
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-5, 9.99999999999999e-5,
    1e-4, 999999999999999.0, 1e15, -1e15, 9999999999999998.0, 1e16, -1e16, 1.5e16,
    123456789012345.67, 1e308, -1.7976931348623157e308,
]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@st.composite
def point_tables(draw):
    names = draw(st.lists(st.text(max_size=4), max_size=3, unique=True))
    rows = draw(st.integers(0, 6))
    values = draw(st.lists(finite_floats, min_size=rows * (2 + len(names)),
                           max_size=rows * (2 + len(names))))
    table = np.array(values, dtype=float).reshape(rows, 2 + len(names))
    return table[:, 0], table[:, 1], {name: table[:, 2 + k] for k, name in enumerate(names)}


@settings(max_examples=300, deadline=None)
@given(table=point_tables())
def test_point_collection_text_is_dumps_of_objects(table):
    lon, lat, columns = table
    assert "".join(point_feature_collection(lon, lat, columns)) == dumps(
        reference_collection(lon, lat, columns)
    )


def test_point_collection_property_names_are_escaped():
    columns = {'m "%s" %%': np.array([1.5]), "\u00e9\n": np.array([-0.0]), "": np.array([2.0])}
    lon, lat = np.array([10.0]), np.array([-20.0])
    text = "".join(point_feature_collection(lon, lat, columns))
    assert text == dumps(reference_collection(lon, lat, columns))
    properties = json.loads(text)["features"][0]["properties"]
    assert properties == {'m "%s" %%': 1.5, "\u00e9\n": 0.0, "": 2.0}


@pytest.mark.parametrize("block", BLOCKS)
def test_point_collection_non_finite_past_a_block_boundary(monkeypatch, block):
    table = np.ones((3 * block, 4))
    table[block, 3], table[block + 1, 0] = math.nan, math.inf
    lon, lat, columns = table[:, 0], table[:, 1], {"m": table[:, 2], "u": table[:, 3]}
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", block)
    error = _raised(point_feature_collection, lon, lat, columns)
    assert error == (NonFiniteValue, "non-finite value nan in output")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", range(4))
def test_point_collection_non_finite_value(bad, column):
    # the first non-finite value in document order raises what dumps raises
    table = np.ones((3, 4))
    table[1, column] = bad
    table[2, 0] = -math.inf if bad == math.inf else math.inf  # later, and another value
    lon, lat, columns = table[:, 0], table[:, 1], {"m": table[:, 2], "u": table[:, 3]}
    error = _raised(point_feature_collection, lon, lat, columns)
    assert error == (NonFiniteValue, f"non-finite value {bad} in output")
    assert error == _raised(dumps, reference_collection(lon, lat, columns))


def test_point_collections_drained_in_alternation(monkeypatch):
    # each call makes its own buffers: two collections of other columns and
    # lengths, drained a piece of each in turn, give the text of each alone
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", 64)
    rng = np.random.default_rng(34)
    tables = [
        (rng.uniform(-180, 180, 300), rng.uniform(-90, 90, 300),
         {"m": 10 ** rng.uniform(-20, 20, 300)}),
        (rng.uniform(-1, 1, 150), rng.uniform(-1e-5, 1e-5, 150),
         {"a": rng.uniform(0, 1, 150), "longer name": -rng.uniform(1e15, 1e17, 150),
          "c": rng.integers(-5, 5, 150).astype(float)}),
    ]
    alone = ["".join(point_feature_collection(*table)) for table in tables]
    drained = [[], []]
    for pieces in itertools.zip_longest(*(point_feature_collection(*table) for table in tables)):
        for piece, text in zip(pieces, drained):
            if piece is not None:
                text.append(piece)
    assert ["".join(text) for text in drained] == alone
    assert alone == [dumps(reference_collection(*table)) for table in tables]


def test_point_text_allocates_only_its_text_per_block():
    # after the first block has made the buffers, each later block of the
    # distortion field's text allocates little more than its own text
    lat, lon = cap_samples(math.radians(30), math.radians(0.2))
    report = distortion_report(CAP_SPEC, lat, lon)
    columns = {"m": report.m, "conformality_defect": report.conformality_defect}
    pieces = point_feature_collection(np.degrees(lon), np.degrees(lat), columns)
    ratios = []
    tracemalloc.start()
    try:
        next(pieces)  # the opening
        text = next(pieces)  # the first block
        while True:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            if next(pieces) == "]}":
                break
            text = next(pieces)
            ratios.append((tracemalloc.get_traced_memory()[1] - before) / len(text))
    finally:
        tracemalloc.stop()
    assert len(ratios) == -(-lat.size // geojson_io._ROW_BLOCK) - 1
    assert max(ratios) <= 2.5, ratios


# -- GeoJSON written from position columns -------------------------------------------

DEPTH = {"Point": 0, "MultiPoint": 1, "LineString": 1, "MultiLineString": 2, "Polygon": 2,
         "MultiPolygon": 3}


def reference_projection(document, images):
    """A deep copy of a parsed GeoJSON document with each position replaced
    by the next of ``images`` as [x, y], and the copy's lines and rings."""
    projected, lines = copy.deepcopy(document), []

    def replaced(coords, depth):
        return list(next(images)) if depth == 0 else [replaced(c, depth - 1) for c in coords]

    def parts(coords, depth):
        return [coords] if depth == 0 else [part for c in coords for part in parts(c, depth - 1)]

    def walk(obj):
        kind = obj["type"]
        if kind == "FeatureCollection":
            for feature in obj["features"]:
                walk(feature)
        elif kind == "Feature":
            if obj["geometry"] is not None:
                walk(obj["geometry"])
        elif kind == "GeometryCollection":
            for geometry in obj["geometries"]:
                walk(geometry)
        else:
            if obj["coordinates"] != []:  # an empty Point has no position
                obj["coordinates"] = replaced(obj["coordinates"], DEPTH[kind])
            if kind not in ("Point", "MultiPoint"):
                lines.extend(parts(obj["coordinates"], DEPTH[kind] - 1))

    walk(projected)
    return projected, lines


# positions as parsed: two numbers or three (an altitude), integers or floats
valid_positions = st.builds(
    lambda lon, lat, altitude: [lon, lat, *altitude],
    st.integers(-180, 180) | st.floats(-1e3, 1e3),
    st.integers(-90, 90) | st.floats(-90, 90),
    st.lists(st.integers(-10, 10) | finite_floats, max_size=1),
)


def _coordinates(depth):
    values = valid_positions
    for _ in range(depth):
        values = st.lists(values, max_size=3)
    return values


def _geometry(kind, coordinates):
    return {"type": kind, "coordinates": coordinates}


geometries = st.recursive(
    st.one_of(
        [st.builds(_geometry, st.just("Point"), st.just([]))]
        + [st.builds(_geometry, st.just(kind), _coordinates(n)) for kind, n in DEPTH.items()]
    ),
    lambda children: st.builds(
        lambda members: {"type": "GeometryCollection", "geometries": members},
        st.lists(children, max_size=3),
    ),
    max_leaves=6,
)
# property text with "%" (a format directive), quotes, escapes and non-ASCII letters
# text with "%" (a format directive), quotes, escapes and non-ASCII letters
awkward_text = (
    st.text(st.sampled_from('%s"\\\né€\U0001f30d a'), max_size=5) | st.text(max_size=3)
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | awkward_text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(awkward_text, children, max_size=3),
    max_leaves=6,
)
features = st.fixed_dictionaries(
    {"type": st.just("Feature"),
     "properties": st.none() | st.dictionaries(awkward_text, json_values, max_size=3),
     "geometry": st.none() | geometries},
    optional={"bbox": st.lists(finite_floats, max_size=4), "id": awkward_text},
)
geojson_documents = (
    geometries
    | features
    | st.builds(lambda members: {"type": "FeatureCollection", "features": members},
                st.lists(features, max_size=4))
)


@settings(max_examples=300, deadline=None)
@given(document=geojson_documents, data=st.data())
def test_projected_text_is_dumps_of_projected_copy(document, data):
    document = json.loads(json.dumps(document))  # as load parses it
    parsed = copy.deepcopy(document)

    def mapper(lon, lat):
        images = data.draw(st.lists(finite_floats, min_size=2 * len(lon), max_size=2 * len(lon)))
        return np.array(images[0::2], dtype=float), np.array(images[1::2], dtype=float)

    positions, lon, lat, lines = map_positions(document)
    x, y = mapper(lon, lat)
    text = dumps(document, positions, position_texts(positions, x, y)[0])
    assert document == parsed  # read, not written to
    projected, reference_lines = reference_projection(document, zip(x.tolist(), y.tolist()))
    assert text == dumps(projected)
    images = [[a, b] for a, b in zip(x.tolist(), y.tolist())]
    assert [images[start:end] for start, end in lines] == reference_lines


def test_projected_text_of_empty_arrays_and_altitudes():
    document = {"type": "GeometryCollection", "geometries": [
        {"type": "MultiPoint", "coordinates": []},
        {"type": "LineString", "coordinates": []},
        {"type": "Polygon", "coordinates": [[[0, 0], [10, 0], [10, 10], [0, 0]], []]},
        {"type": "MultiPolygon", "coordinates": [[], [[[1, 1], [2, 1], [2, 2.5], [1, 1]]]]},
        {"type": "Point", "coordinates": [5, 6, 100]},
        {"type": "LineString", "coordinates": [[1, 2, 3], [4, 5, 6.5]]},
    ]}
    positions, lon, lat, lines = map_positions(document)
    x, y = lon / 3, lat * 0.1 - 1
    assert dumps(document, positions, position_texts(positions, x, y)[0]) == (
        '{"type": "GeometryCollection", "geometries": ['
        '{"type": "MultiPoint", "coordinates": []}, '
        '{"type": "LineString", "coordinates": []}, '
        '{"type": "Polygon", "coordinates": [[[0, -1], [3.33333333333333, -1], '
        "[3.33333333333333, 0], [0, -1]], []]}, "
        '{"type": "MultiPolygon", "coordinates": [[], [[[0.333333333333333, -0.9], '
        "[0.666666666666667, -0.9], [0.666666666666667, -0.75], [0.333333333333333, -0.9]]]]}, "
        '{"type": "Point", "coordinates": [1.66666666666667, -0.4]}, '
        '{"type": "LineString", "coordinates": [[0.333333333333333, -0.8], '
        "[1.33333333333333, -0.5]]}]}"
    )
    assert lines == [(0, 0), (0, 4), (4, 4), (4, 8), (9, 11)]


def _block_document(rng):
    """Points, empty arrays, and lines and rings of up to 150 positions."""
    def line(count):
        return [[float(a), float(b)] for a, b in zip(rng.uniform(-170, 170, count),
                                                     rng.uniform(-80, 80, count))]

    return {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"k": k}, "geometry": geometry}
        for k, geometry in enumerate([
            {"type": "Point", "coordinates": line(1)[0]},
            {"type": "LineString", "coordinates": line(150)},
            {"type": "MultiPoint", "coordinates": []},
            {"type": "Point", "coordinates": line(1)[0]},
            {"type": "Polygon", "coordinates": [line(40), [], line(7)]},
            {"type": "MultiLineString", "coordinates": [line(1), line(2), line(130)]},
            {"type": "Point", "coordinates": line(1)[0]},
        ])
    ]}


def _block_images(block):
    """A mapper whose images take the reference path on both sides of the
    first and the third block boundary, and hold exact ties."""
    def mapper(lon, lat):
        x, y = lon / 7, lat * 1e-3
        x[[block - 1, block, 3 * block - 1, 3 * block]] = REFERENCE_PATH
        y[1::5] = 1.000030517578125
        return x, y

    return mapper


@pytest.mark.parametrize("block", BLOCKS)
def test_position_texts_are_block_invariant(monkeypatch, block):
    document = _block_document(np.random.default_rng(26))
    document["features"][2]["geometry"]["coordinates"] = [[1.5, 2], [-3, 4.25]]  # a MultiPoint
    arrays, lon, lat, lines = map_positions(document)
    x, y = _block_images(block)(lon, lat)
    texts, polylines = position_texts(arrays, x, y, lines)
    text = dumps(document, arrays, texts)
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", block)
    assert position_texts(arrays, x, y, lines) == (texts, polylines)
    assert position_texts(arrays, x, y) == (texts, [])
    assert position_texts((), x, y, lines) == ([], polylines)
    assert dumps(document, arrays, texts) == text
    # each position formatted on its own
    positions = iter(zip(map(format_float, x.tolist()), map(format_float, y.tolist())))
    assert texts == [
        "%s, %s" % next(positions) if count is None
        else ", ".join("[%s, %s]" % next(positions) for _ in range(count))
        for _, count in arrays
    ]
    # a polyline for each line and ring alone
    points = list(zip(x.tolist(), (-y).tolist()))
    assert polylines == [" ".join("%.15g,%.15g" % p for p in points[a:b]) for a, b in lines]


def test_position_texts_short_block_after_long(monkeypatch):
    # the last block's rows are fewer and shorter than the first's: nothing
    # of the first block shows in the last one's text
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", 64)
    rng = np.random.default_rng(35)
    x = np.concatenate([-rng.uniform(1, 9, 64) * 1e-200, [1.0, -2.0, 0.0, 3.0, -0.0]])
    y = np.concatenate([rng.uniform(1, 9, 64) * -1e-150, [0.5, 4.0, -0.0, -1.0, 2.0]])
    arrays, lines = [(None, 64), (None, 3), (None, None), (None, 1)], [(0, 64), (64, 67)]
    texts, polylines = position_texts(arrays, x, y, lines)
    points = list(zip(map(format_float, x.tolist()), map(format_float, y.tolist())))
    assert texts == [", ".join("[%s, %s]" % p for p in points[:64]),
                     ", ".join("[%s, %s]" % p for p in points[64:67]),
                     "%s, %s" % points[67], "[%s, %s]" % points[68]]
    assert polylines == [" ".join("%.15g,%.15g" % (a, -b) for a, b in zip(x[i:j], y[i:j]))
                         for i, j in lines]


def test_multipoint_texts_make_no_polylines():
    # the SVG draws no MultiPoint: its positions take the GeoJSON's text alone,
    # in less memory than the same positions on a line, which take both
    rng = np.random.default_rng(30)
    coordinates = np.column_stack((rng.uniform(-170, 170, 20000), rng.uniform(-80, 80, 20000)))
    peaks = []
    for kind in ("MultiPoint", "LineString"):
        document = {"type": kind, "coordinates": coordinates.tolist()}
        arrays, lon, lat, lines = map_positions(document)
        x, y = lon / 7, lat / 3
        tracemalloc.start()
        try:
            _, polylines = position_texts(arrays, x, y, lines)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(polylines) == len(lines) == (kind == "LineString")
    assert peaks[0] < 0.85 * peaks[1]


def test_svg_polylines_alone_make_no_geojson_rows():
    # without the arrays (no --out) only the polylines are made, the same
    # ones, in less memory
    rng = np.random.default_rng(31)
    document = {"type": "MultiLineString",
                "coordinates": rng.uniform(-80, 80, (2000, 100, 2)).tolist()}
    arrays, lon, lat, lines = map_positions(document)
    x, y = lon / 7, lat / 3
    peaks, results = [], []
    for given in ((), arrays):
        tracemalloc.start()
        try:
            results.append(position_texts(given, x, y, lines))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == ([], results[1][1])
    assert peaks[0] < 0.7 * peaks[1]


@pytest.mark.parametrize("block", BLOCKS)
def test_position_texts_non_finite_past_a_block_boundary(monkeypatch, block):
    x, y = np.ones(3 * block), np.ones(3 * block)
    x[block], y[block + 1] = math.inf, math.nan
    arrays = [(None, 3 * block)]
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", block)
    assert _raised(position_texts, arrays, x, y) == (
        NonFiniteValue, "non-finite value inf in output")


@pytest.mark.parametrize("block", BLOCKS)
def test_project_run_is_block_invariant(monkeypatch, tmp_path, capsys, block):
    region = tmp_path / "region.geojson"
    region.write_text(json.dumps(_block_document(np.random.default_rng(27))))

    def run(tag):
        paths = [tmp_path / f"{tag}.{suffix}" for suffix in ("geojson", "svg", "txt")]
        argv = ["project", "--region", str(region), "--exponent", "0.5", "--out", str(paths[0]),
                "--svg", str(paths[1]), "--report", str(paths[2])]
        assert cli.main(argv) == 0
        return [path.read_bytes() for path in paths]

    expected = run("whole")
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", block)
    assert run("blocks") == expected


@pytest.mark.parametrize("block", BLOCKS)
def test_project_blocks(monkeypatch, tmp_path, capsys, block):
    """``run_project`` projects at most ``_PROJECT_BLOCK`` positions per
    ``project_array`` call, and neither its outputs nor the position its
    error names depend on the block."""
    document = _block_document(np.random.default_rng(29))
    good, bad = tmp_path / "good.geojson", tmp_path / "bad.geojson"
    good.write_text(json.dumps(document))
    # positions block and block + 1 (in its LineString, after one Point) and a
    # later one are at the projection center
    line = document["features"][1]["geometry"]["coordinates"]
    line[block - 1][1] = line[block][1] = line[-1][1] = 90.0
    bad.write_text(json.dumps(document))

    def run(region, tag):
        paths = [tmp_path / f"{tag}.{suffix}" for suffix in ("geojson", "svg", "txt")]
        code = cli.main(["project", "--region", str(region), "--exponent", "0.5",
                         "--out", str(paths[0]), "--svg", str(paths[1]), "--report", str(paths[2])])
        return code, capsys.readouterr().err, [path.read_bytes() for path in paths if path.exists()]

    expected, failure = run(good, "whole"), run(bad, "whole-bad")
    assert failure[1] == (
        "carta: ProjectionPole: cannot project (%s, 90): the projection center has no image\n"
        % format_float(line[block - 1][0]))
    assert failure[0] == ProjectionPole.exit_code and failure[2] == []
    sizes = []
    project = cli.project_array

    def counted(spec, lat, lon):
        sizes.append(len(lat))
        return project(spec, lat, lon)

    monkeypatch.setattr(cli, "project_array", counted)
    monkeypatch.setattr(cli, "_PROJECT_BLOCK", block)
    assert run(good, "blocks") == expected
    assert max(sizes) == block and sum(sizes) == 333
    assert run(bad, "blocks-bad") == failure


@pytest.mark.parametrize("block", BLOCKS)
def test_project_non_finite_past_a_block_boundary(monkeypatch, tmp_path, capsys, block):
    region = tmp_path / "region.geojson"
    region.write_text(json.dumps(_block_document(np.random.default_rng(28))))
    project = cli.project_array

    def overflowing(spec, lat, lon):
        w, code = project(spec, lat, lon)
        w[block], w[block + 1] = complex(1.0, math.inf), complex(math.nan, 0.0)
        return w, code

    monkeypatch.setattr(cli, "project_array", overflowing)
    monkeypatch.setattr(geojson_io, "_ROW_BLOCK", block)
    outputs = [tmp_path / name for name in ("out.geojson", "map.svg", "report.txt")]
    code = cli.main(["project", "--region", str(region), "--out", str(outputs[0]),
                     "--svg", str(outputs[1]), "--report", str(outputs[2])])
    assert code == NonFiniteValue.exit_code
    assert capsys.readouterr().err == "carta: NonFiniteValue: non-finite value inf in output\n"
    assert not any(path.exists() for path in outputs)


def reference_svg(x, y, lines):
    """``svg_text`` without curves, each line's points formatted from (x, -y)."""
    xs = np.concatenate([[], *(x[a:b] for a, b in lines)])
    ys = np.concatenate([[], *(y[a:b] for a, b in lines)])
    if not xs.size:
        xs, ys = np.array([-1.0, 1.0]), np.array([-1.0, 1.0])
    x0, y0, x1, y1 = (float(v) for v in (xs.min(), ys.min(), xs.max(), ys.max()))
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9 * max(1.0, abs(x0), abs(x1), abs(y0), abs(y1)))
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    width, height = x1 - x0, y1 - y0
    stroke = max(width, height) / 400.0
    view = " ".join(map(format_float, (x0, -y1, width, height)))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" '
        f'width="800" height="{format_float(800.0 * height / width)}">',
        f'<g fill="none" stroke="#3366aa" stroke-width="{format_float(stroke)}">',
        "</g>",
    ]
    if lines:
        parts.append(f'<g fill="none" stroke="#aa3322" stroke-width="{format_float(1.5 * stroke)}">')
        for a, b in lines:
            if b - a >= 2:
                rows = zip(x[a:b].tolist(), (-y[a:b]).tolist())
                parts.append('<polyline points="%s"/>' % " ".join("%.15g,%.15g" % row for row in rows))
        parts.append("</g>")
    return "\n".join([*parts, "</svg>", ""])


# zeros of both signs, a subnormal and the %g switches to exponents
svg_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-05, -1e-300, 1e16]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(svg_floats, svg_floats), max_size=4), max_size=4))
@example([[(1.0, 0.0), (0.5, -0.0), (-2.0, -3.5), (1e16, 1e-05)], [(-1e-300, 5e-324)], []])
def test_svg_polylines_are_the_position_texts_with_y_negated(point_lines):
    x = np.array([px for line in point_lines for px, _ in line], dtype=float)
    y = np.array([py for line in point_lines for _, py in line], dtype=float)
    ends = np.cumsum([0, *map(len, point_lines)]).tolist()
    lines = list(zip(ends[:-1], ends[1:]))
    _, polylines = position_texts([(line, len(line)) for line in point_lines], x, y, lines)
    try:
        expected = reference_svg(x, y, lines)
    except NonFiniteValue as exc:  # the view spans beyond the floating-point range
        assert _raised(svg_text, (), x, y, lines, polylines) == (NonFiniteValue, str(exc))
    else:
        assert svg_text((), x, y, lines, polylines) == expected


# what a position may hold in place of a valid one: each is checked in bulk, and
# _position names the first bad one (or reads it: altitudes, tuples, float subclasses)
POSITION_DEFECTS = {
    "bool": lambda pos: [True, pos[1]],
    "str": lambda pos: [pos[0], "1"],
    "None": lambda pos: [None, pos[1]],
    "nested list": lambda pos: [pos[0], [pos[1]]],
    "huge int": lambda pos: [10**400, pos[1]],
    "nan": lambda pos: [math.nan, pos[1]],
    "inf": lambda pos: [-math.inf, pos[1]],
    "lat above 90": lambda pos: [pos[0], 90.0000001],
    "lat below -90": lambda pos: [pos[0], -90.0000001],
    "length 1": lambda pos: pos[:1],
    "length 3": lambda pos: [*pos, 7],
    "tuple": tuple,
    "dict": lambda pos: {1: 2, 3: 4},  # iterates to two ints
    "float subclass": lambda pos: [np.float64(pos[0]), pos[1]],
}
two_number_positions = st.builds(
    lambda lon, lat: [lon, lat],
    st.integers(-(10**20), 10**20) | finite_floats,
    st.integers(-90, 90) | st.floats(-90, 90),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.lists(two_number_positions, max_size=5), min_size=1, max_size=4),
    defect=st.none() | st.sampled_from(sorted(POSITION_DEFECTS)),
    data=st.data(),
)
def test_bulk_position_check_matches_position_by_position(lines, defect, data):
    if defect is not None and any(lines):
        line = data.draw(st.sampled_from([line for line in lines if line]))
        i = data.draw(st.integers(0, len(line) - 1))
        line[i] = POSITION_DEFECTS[defect](line[i])
    positions = [pos for line in lines for pos in line]
    document = {"type": "MultiLineString", "coordinates": lines}
    try:
        expected = [repr(v) for pos in positions for v in geojson_io._position(pos)]
    except GeoJsonError as exc:
        assert _raised(map_positions, document) == (GeoJsonError, str(exc))
    else:
        lon, lat = map_positions(document)[1:3]
        assert [repr(v) for pair in zip(lon.tolist(), lat.tolist()) for v in pair] == expected


# region rings as load parses them, and the message each is refused with:
# ``_position``'s for the first bad position, or ``_array``'s
REGION_REFUSALS = {
    "boolean": ('[[[0, 40], [true, 40], [10, 50], [0, 40]]]',
                "non-numeric value in position [True, 40]"),
    "1e400": ('[[[0, 40], [1e400, 40], [10, 50], [0, 40]]]',
              "position [inf, 40]: need a finite lon and lat in [-90, 90]"),
    "latitude 95": ('[[[0, 40], [10, 95], [10, 50], [0, 40]]]',
                    "position [10, 95]: need a finite lon and lat in [-90, 90]"),
    "one number": ('[[[0, 40], [5], [10, 50], [0, 40]]]', "malformed position [5]"),
    "ring not an array": ('[5]', "coordinates is not an array"),
}


@pytest.mark.parametrize("case", REGION_REFUSALS)
def test_region_ring_refusals_keep_their_messages(case):
    coordinates, message = REGION_REFUSALS[case]
    document = json.loads('{"type": "Polygon", "coordinates": %s}' % coordinates)
    assert _raised(geojson_io.region_polyline, document) == (GeoJsonError, message)


def test_region_ring_with_altitudes_reads_its_latitudes_and_longitudes():
    ring = [[0, 40, 5], [10, 40, 7.5], [10, 50], [0, 40, -3]]
    lat, lon = geojson_io.region_polyline({"type": "Polygon", "coordinates": [ring]})
    assert lat.tobytes() == np.radians([40.0, 40.0, 50.0, 40.0]).tobytes()
    assert lon.tobytes() == np.radians([0.0, 10.0, 10.0, 0.0]).tobytes()


def test_nesting_beyond_the_recursion_limit_is_a_geojson_error():
    # the json parser of Python 3.12 and later accepts documents this deep
    document = {"type": "Point", "coordinates": [1, 2]}
    for _ in range(5000):
        document = {"type": "GeometryCollection", "geometries": [document]}
    assert _raised(map_positions, document) == (GeoJsonError, "input nested too deeply")
    properties = []
    for _ in range(5000):
        properties = [properties]
    feature = {"type": "Feature", "geometry": None, "properties": properties}
    assert _raised(dumps, feature) == (GeoJsonError, "input nested too deeply")


# -- closed-form dilatation ---------------------------------------------------------


def reference_dilatation(spec, lat, lon):
    """The per-point closed form: the product of the step scale factors."""
    surface_factor = 1.0
    if not spec.surface.is_sphere:
        chi = conformal_latitude(spec.surface.eccentricity, lat)
        surface_factor = math.cos(chi) / parallel_radius(spec.surface.eccentricity, lat)
        lat = chi
    colat = math.pi / 2 - lat
    stereo_factor = 1.0 / (2.0 * math.sin(colat / 2.0) ** 2)
    c = spec.exponent
    rho = math.tan(math.pi / 4 + lat / 2)
    power_factor = c if c == 1.0 else c * rho ** (c - 1.0)
    post = spec.post_transform
    post_factor = 1.0
    if post is not None:
        dlon = wrap_longitude(lon - spec.central_meridian)
        w = rho**c * complex(math.cos(c * dlon), math.sin(c * dlon))
        if isinstance(post, Inversion):
            post_factor = abs(post.power) / abs(w - post.pole) ** 2
        else:  # Mobius with det = 1
            post_factor = 1.0 / abs(post.c * w + post.d) ** 2
    return surface_factor * stereo_factor * power_factor * post_factor


@pytest.mark.parametrize(
    "suite", ["sphere", "spheroid", "inversion", "mobius", "centered_stereographic"]
)
def test_dilatation_array_matches_reference(rng, suite):
    worst = 0.0
    for _ in range(40):
        spec = _suite(rng, suite)
        points = [random_point_for_spec(rng, spec) for _ in range(50)]
        lat, lon = np.array(points).T
        m, code = dilatation_array(spec, lat, lon)
        assert not code.any()
        for p, got in zip(points, m.tolist()):
            want = reference_dilatation(spec, *p)
            worst = max(worst, abs(got - want) / want)
            assert dilatation_analytic(spec, *p) == got  # the wrapper adds no arithmetic
    assert worst <= 1e-13


# messages as the per-point closed form raised them
@pytest.mark.parametrize(
    "spec, point, kind, message",
    [
        (LagrangeProjectionSpec(0.7), (math.pi / 2, 0.3),
         ProjectionPole, "dilatation diverges at the projection center"),
        (LagrangeProjectionSpec(0.5), (-math.pi / 2, 0.0),
         OriginSingularity, "power-map scale is singular at the South pole"),
        (LagrangeProjectionSpec(0.5, surface=SurfaceOfRevolution(0.1)),
         (-math.pi / 2, 0.0),
         OriginSingularity, "power-map scale is singular at the South pole"),
        (LagrangeProjectionSpec(1.0, post_transform=Inversion(1 + 0j, 1.0)),
         (0.0, 0.0),
         PoleSingularity, "point (0.9999999999999999+0j) at the pole of the post-transform"),
        (LagrangeProjectionSpec(1.0, post_transform=MobiusTransform(1, 0, 1, -1)),
         (0.0, 0.0),
         PointAtInfinity, "point (0.9999999999999999+0j) at the pole of the post-transform"),
        (LagrangeProjectionSpec(1.0, post_transform=Inversion(1 + 0j, 1e300)),
         (0.0, 1e-11),
         NonFiniteValue, "dilatation inf outside the floating-point range"),
        # the South pole's power-map scale comes before the inversion's pole there
        (LagrangeProjectionSpec(0.5, post_transform=Inversion(0j, 1.0)),
         (-math.pi / 2, 0.0),
         OriginSingularity, "power-map scale is singular at the South pole"),
    ],
    ids=["center", "south-pole", "spheroid-pole", "inversion-pole", "mobius-pole", "overflow",
         "south-pole-at-inversion-pole"],
)
def test_dilatation_errors(spec, point, kind, message):
    with pytest.raises(kind) as info:
        dilatation_analytic(spec, *point)
    assert type(info.value) is kind and str(info.value) == message
    # the report raises the same error for its first failing sample
    assert _report_error(spec, [FINE, point]) == (kind, message)


@pytest.mark.parametrize("eccentricity", [0.0, 0.08])
def test_projection_ratio_drops_singular_nodes(eccentricity):
    # the South-pole node of the cap has no finite scale under exponent 0.5
    radius, delta = math.radians(30), math.radians(1.0)
    mesh = build_cap_mesh(radius, delta)
    spec = LagrangeProjectionSpec(0.5, surface=SurfaceOfRevolution(eccentricity))
    with pytest.raises(OriginSingularity):
        dilatation_analytic(spec, -math.pi / 2, 0.0)
    # m(lat) falls away from the pole: the largest regular value is on the
    # four nodes one chart spacing delta / 2 from it, at the geodesic
    # distance 2 atan(delta / 2); the smallest is on the rim
    nearest = -math.pi / 2 + 2 * math.atan(delta / 2), 0.0
    rim = -math.pi / 2 + radius, 0.0
    ratio = reference_dilatation(spec, *nearest) / reference_dilatation(spec, *rim)
    assert projection_ratio(mesh, spec) == pytest.approx(ratio, rel=1e-12)
