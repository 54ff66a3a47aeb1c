"""Projection family: power map, forward/inverse, graticule circle images."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from carta import (
    Inversion,
    LagrangeProjectionSpec,
    MobiusTransform,
    centered_stereographic,
    circle_fit,
    graticule_image,
    project,
)
from carta import lagrange
from carta.errors import (
    BranchOverflow,
    ConfigError,
    OriginSingularity,
    PointAtInfinity,
    ProjectionPole,
)
from carta.geometry import normalize_longitude_array
from carta.lagrange import (
    GraticuleCurveFit,
    dilatation_array,
    dilatation_error,
    project_array,
)
from carta.surfaces import SurfaceOfRevolution

from conftest import random_point_for_spec, random_spec
from oracles import OutsideImage, dilatation_fd, unit_vector, unproject, wrap_longitude


# -- power map -------------------------------------------------------------------


# plane points, and the latitudes and longitudes of their stereographic
# preimages, through which the power-map tests reach the projection kernel
POWER_MAP_POINTS = np.array([0.5 + 0.2j, -1 + 3j, -2j, 4 + 0j])
PREIMAGE = (2.0 * np.arctan(np.abs(POWER_MAP_POINTS)) - math.pi / 2, np.angle(POWER_MAP_POINTS))


def test_lambert_power_identity():
    # exponent 1 leaves the stereographic image unchanged
    w, code = project_array(LagrangeProjectionSpec(1.0), *PREIMAGE)
    assert not code.any()
    assert np.allclose(w, POWER_MAP_POINTS, rtol=1e-14, atol=0)


def test_lambert_power_square_root():
    w, code = project_array(LagrangeProjectionSpec(0.5), *PREIMAGE)
    assert not code.any()
    assert np.allclose(np.abs(w), np.sqrt(np.abs(POWER_MAP_POINTS)), rtol=1e-14, atol=0)


def test_lambert_power_rotates_angle():
    w, _ = project_array(LagrangeProjectionSpec(0.5), *PREIMAGE)
    assert np.allclose(np.angle(w), np.angle(POWER_MAP_POINTS) / 2, rtol=0, atol=1e-15)


def test_lambert_power_origin_singularity():
    # the South pole goes to the origin, where the power map's scale is
    # singular for c != 1 and finite for c = 1
    south = ([-math.pi / 2], [0.3])
    for c in (0.5, 1.0):
        w, code = project_array(LagrangeProjectionSpec(c), *south)
        assert (code[0], w[0]) == (0, 0)
    m, code = dilatation_array(LagrangeProjectionSpec(1.0), *south)
    assert code[0] == 0 and m[0] == pytest.approx(0.5, abs=1e-15)
    spec = LagrangeProjectionSpec(0.5)
    m, code = dilatation_array(spec, *south)
    assert code[0] == 2
    with pytest.raises(OriginSingularity):
        raise dilatation_error(spec, code[0], south[0][0], south[1][0], m[0])


# -- forward projection -------------------------------------------------------------


def test_exponent_one_is_stereographic(rng):
    spec = LagrangeProjectionSpec(exponent=1.0)
    for _ in range(500):
        lat = rng.uniform(-math.pi / 2, math.pi / 2 - 1e-3)
        lon = rng.uniform(-math.pi, math.pi)
        got = project(spec, lat, lon)
        rho = 1.0 / math.tan((math.pi / 2 - lat) / 2)  # the image radius cot(theta / 2)
        want = complex(rho * math.cos(lon), rho * math.sin(lon))
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_half_exponent_maps_into_half_plane(rng):
    # c = 1/2 squeezes the full longitude range into polar angles (-pi/2, pi/2]
    spec = LagrangeProjectionSpec(exponent=0.5)
    for _ in range(10_000):
        q = project(
            spec, rng.uniform(-math.pi / 2, math.pi / 2 - 1e-3), rng.uniform(-math.pi, math.pi)
        )
        if q == 0:
            continue
        angle = math.atan2(q.imag, q.real)
        assert -math.pi / 2 <= angle <= math.pi / 2 + 1e-12


def test_central_meridian_maps_to_positive_x_axis():
    spec = LagrangeProjectionSpec(exponent=0.5, central_meridian=0.7)
    images = [
        project(spec, lat, 0.7)
        for lat in np.linspace(-math.pi / 2, math.pi / 2 - 1e-3, 64)
    ]
    [(fitted, residual)] = circle_fit(
        [q.real for q in images], [q.imag for q in images], [len(images)]
    )
    assert fitted.kind == "line"
    assert residual < 1e-12
    assert all(q.real >= 0 and abs(q.imag) < 1e-12 * max(1.0, q.real) for q in images)


def test_project_pole_raises():
    spec = LagrangeProjectionSpec(exponent=0.8)
    with pytest.raises(ProjectionPole):
        project(spec, math.pi / 2, 0.0)


def test_branch_overflow_for_large_exponent():
    spec = LagrangeProjectionSpec(exponent=2.0, central_meridian=0.0)
    with pytest.raises(BranchOverflow):
        project(spec, 0.0, math.radians(170))


# -- inverse projection --------------------------------------------------------------


def test_unproject_origin_is_south_pole():
    spec = LagrangeProjectionSpec(exponent=1.0)
    lat, _ = unproject(spec, 0j)
    assert lat == pytest.approx(-math.pi / 2, abs=1e-15)


def test_unproject_outside_branch_window():
    spec = LagrangeProjectionSpec(exponent=0.5)
    with pytest.raises(OutsideImage):
        unproject(spec, -1.0 + 1e-3j)  # polar angle ~ pi > pi/2


def test_unproject_inverts_the_mobius_post_transform(rng):
    # project(unproject(q)) = q over centred aspects and random Mobius specs;
    # q = a / c, the post-transform's image of infinity, has no preimage
    specs = [centered_stereographic(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3))
             for _ in range(2000)]
    specs += [random_spec(rng, post_kinds=("mobius",)) for _ in range(500)]
    worst = 0.0
    for spec in specs:
        q = project(spec, *random_point_for_spec(rng, spec))
        back = project(spec, *unproject(spec, q))
        worst = max(worst, abs(q - back) / max(1.0, abs(q)))
        post = spec.post_transform
        with pytest.raises(PointAtInfinity):
            unproject(spec, post.a / post.c)
    assert worst < 1e-14


def test_round_trip_over_random_specs(rng):
    worst = 0.0
    for c in (0.5, 0.75, 1.0):
        for _ in range(3000):
            angle = rng.uniform(0, 2 * math.pi)
            post = Inversion(
                complex(2.5 * math.cos(angle), 2.5 * math.sin(angle)),
                float(rng.uniform(0.5, 2.0)),
            )
            spec = LagrangeProjectionSpec(
                exponent=c,
                central_meridian=float(rng.uniform(-math.pi, math.pi)),
                post_transform=post,
            )
            lat = rng.uniform(math.radians(-88), math.radians(88))
            dlon = rng.uniform(-math.pi + 1e-6, math.pi)
            p = lat, spec.central_meridian + dlon
            try:
                q = project(spec, *p)
            except Exception:
                continue
            back = unproject(spec, q)
            worst = max(worst, np.linalg.norm(unit_vector(*back) - unit_vector(*p)))
    assert worst < 1e-10


def test_round_trip_spheroid():
    spec = LagrangeProjectionSpec(
        exponent=0.8,
        central_meridian=0.3,
        surface=SurfaceOfRevolution(0.0818191908),
    )
    for lat_deg in (-70, -10, 0, 33, 71):
        for lon_deg in (-150, -20, 0, 45, 179):
            p = math.radians(lat_deg), math.radians(lon_deg)
            back = unproject(spec, project(spec, *p))
            assert np.linalg.norm(unit_vector(*back) - unit_vector(*p)) < 1e-10


def test_project_unproject_round_trip_high_eccentricity():
    spec = LagrangeProjectionSpec(1.0, surface=SurfaceOfRevolution(0.99))
    for r in np.geomspace(0.1, 10, 21):
        for angle in np.linspace(-3, 3, 7):
            q = complex(r * math.cos(angle), r * math.sin(angle))
            back = project(spec, *unproject(spec, q))
            assert abs(back - q) <= 1e-13 * r


# -- centered stereographic -----------------------------------------------------------


def test_centered_stereographic_sends_center_to_origin(rng):
    for _ in range(20):
        center = (
            rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05),
            rng.uniform(-math.pi, math.pi),
        )
        spec = centered_stereographic(*center)
        assert abs(project(spec, *center)) < 1e-12


def test_centered_stereographic_is_rotation_composed(rng):
    # the dilatation of the re-centred spec at its center equals the polar
    # stereographic value at the pole (1/2), since rotations are isometries
    center = math.radians(46.0), math.radians(2.0)
    spec = centered_stereographic(*center)
    m = dilatation_fd(partial(project, spec), *center, h=1e-4)
    assert m == pytest.approx(0.5, rel=1e-7)


def _rotated_image(center, p):
    """Stereographic image of R p, with R the minimal rotation taking
    ``center`` to the South pole by Rodrigues' formula; at the North pole
    itself, where no rotation is minimal, the half turn about the x axis."""
    v, south = unit_vector(*center), np.array([0.0, 0.0, -1.0])
    if center[0] == math.pi / 2:
        rot = np.diag([1.0, -1.0, -1.0])
    elif center[0] == -math.pi / 2:
        rot = np.eye(3)
    else:
        axis = np.cross(v, south)
        s = float(np.linalg.norm(axis))
        k = axis / s
        kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        angle = math.atan2(s, float(v @ south))
        rot = np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)
    x, y, z = rot @ unit_vector(*p)
    return complex(x, y) / (1.0 - z)


def test_centered_stereographic_is_the_minimal_rotation(rng):
    # the orientation as well as the centre: every point lands where the
    # rotation taking the centre to the South pole puts it
    def near(pole_lat):
        return [(pole_lat - math.copysign(d, pole_lat), rng.uniform(-math.pi, math.pi))
                for d in (1e-6, *10 ** rng.uniform(-11, -6, 9))]

    centers = [(math.asin(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))
               for _ in range(50)]
    centers += near(math.pi / 2) + near(-math.pi / 2)
    centers += [(math.pi / 2, 0.7), (-math.pi / 2, 0.7)]
    for center in centers:
        spec = centered_stereographic(*center)
        for _ in range(20):
            p = math.asin(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi)
            expected = _rotated_image(center, p)
            if abs(expected) > 20.0:
                continue  # near the centre's antipode, the map's pole
            got = project(spec, *p)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), (center, p)


def test_centered_stereographic_normalizes_the_longitude(rng):
    # the centre's longitude is wrapped before its cosine and sine are taken:
    # a turn more gives the same spec wherever both wrap to one longitude
    lat = rng.uniform(-math.pi / 2, math.pi / 2, 2000)
    lon = rng.uniform(-4 * math.pi, 4 * math.pi, 2000)
    lon[:4] = math.pi, -math.pi, 3 * math.pi, -0.0
    same = normalize_longitude_array(lon + 2 * math.pi) == normalize_longitude_array(lon)
    assert same[:4].all() and same.mean() > 0.9
    for a, b in zip(lat[same].tolist(), lon[same].tolist()):
        assert centered_stereographic(a, b + 2 * math.pi) == centered_stereographic(a, b)


def test_centered_stereographic_south_pole_is_plain():
    spec = centered_stereographic(-math.pi / 2, 0.0)
    assert spec.post_transform is None
    assert spec.exponent == 1.0


# -- graticule images -----------------------------------------------------------------


def test_stereographic_parallels_are_concentric_circles():
    spec = LagrangeProjectionSpec(exponent=1.0)
    curves = graticule_image(spec, math.radians(30), math.radians(30), 64)
    for fit in curves:
        if fit.curve_id.startswith("parallel"):
            assert fit.image.kind == "circle"
            assert abs(fit.image.center) < 1e-10


def test_stereographic_meridians_are_lines_through_origin():
    spec = LagrangeProjectionSpec(exponent=1.0)
    curves = graticule_image(spec, math.radians(30), math.radians(30), 64)
    meridians = [f for f in curves if f.curve_id.startswith("meridian")]
    assert len(meridians) >= 2
    for fit in meridians:
        assert fit.image.kind == "line"
        # line through the origin: zero offset
        assert abs(fit.image.offset) < 1e-9 * max(1.0, fit.diameter)


def test_lagrange_graticule_circles_with_inversion():
    spec = LagrangeProjectionSpec(
        exponent=0.5, post_transform=Inversion(2 + 0j, 1.0)
    )
    curves = graticule_image(spec, math.radians(15), math.radians(30), 64)
    assert len(curves) >= 20
    for fit in curves:
        assert fit.relative_residual < 1e-9


def test_graticule_family_closure_randomized(rng):
    # every meridian and parallel of every valid spec fits a circle or line
    for _ in range(12):
        spec = random_spec(rng)
        curves = graticule_image(spec, math.radians(20), math.radians(30), 48)
        assert len(curves) >= 4
        for fit in curves:
            assert fit.relative_residual < 1e-9, (spec, fit.curve_id)


def test_graticule_validation():
    spec = LagrangeProjectionSpec(exponent=1.0)
    with pytest.raises(ValueError):
        graticule_image(spec, math.radians(30), math.radians(30), samples_per_curve=4)
    with pytest.raises(ValueError):
        graticule_image(spec, math.radians(89), math.radians(300), 64)


def _graticule_per_curve(spec, lat_step, lon_step, samples):
    """graticule_image one curve at a time: a clearance test on the curve's
    images before the post-transform, one project_array call and one
    circle_fit call per curve, in the same order.  Every meridian of the
    step is projected, and those with fewer than 8 projected samples are
    skipped."""
    post = spec.post_transform
    curves = []
    half_window = min(math.pi, (math.pi - lagrange.SAMPLE_CLEARANCE) / spec.exponent)
    n_half = int(math.floor((math.pi / 2 - 1e-9) / lat_step))
    for k in range(-n_half, n_half + 1):
        lons = np.linspace(-half_window, half_window, samples) + spec.central_meridian
        curves.append((f"parallel lat={math.degrees(k * lat_step):+.1f}", k * lat_step, lons))
    lats = np.linspace(-math.pi / 2, math.pi / 2 - lagrange.SAMPLE_CLEARANCE, samples)
    for k in range(int(math.floor(-math.pi / lon_step)) + 1, int(math.floor(math.pi / lon_step)) + 1):
        lon = k * lon_step
        label = math.degrees(wrap_longitude(lon))
        curves.append((f"meridian lon={label:+.1f}", lats, lon))
    fits = []
    for curve_id, lat, lon in curves:
        lat, lon = np.broadcast_arrays(lat, normalize_longitude_array(lon))
        # the kernel's distance from the image before the post-transform to its pole
        bare, _ = project_array(replace(spec, post_transform=None), lat, lon)
        clear = lat <= math.pi / 2 - lagrange.SAMPLE_CLEARANCE
        if isinstance(post, Inversion):
            clear &= np.abs(bare - post.pole) >= lagrange.SAMPLE_CLEARANCE
        elif isinstance(post, MobiusTransform) and abs(post.c) > 1e-14:
            clear &= np.abs(post.c * bare + post.d) >= lagrange.SAMPLE_CLEARANCE
        w, code = project_array(spec, lat[clear], lon[clear])
        w = w[code == 0]
        if len(w) >= 8:
            diameter = math.hypot(np.ptp(w.real), np.ptp(w.imag))
            [(image, rms)] = circle_fit(w.real, w.imag, [len(w)])
            fits.append(GraticuleCurveFit(curve_id, image, rms, diameter, len(w)))
    return fits


# the latitudes of a meridian's 65 samples
LAT_ROW_65 = np.linspace(-math.pi / 2, math.pi / 2 - lagrange.SAMPLE_CLEARANCE, 65)

# (spec, lat step, lon step, samples per curve)
GRATICULE_CASES = {
    # the pole is the image of (0, 0): the equator and the Greenwich meridian are clipped
    "inversion-pole-on-curves": (
        LagrangeProjectionSpec(1.0, post_transform=Inversion(1 + 0j, 1.0)), 15, 15, 65
    ),
    # c > 1: meridians outside the branch window are skipped, parallels clipped to it
    "exponent-above-1": (
        LagrangeProjectionSpec(1.6, central_meridian=math.radians(100)), 10, 7, 50
    ),
    "spheroid": (
        LagrangeProjectionSpec(
            0.5,
            post_transform=Inversion(2 + 0j, 1.0),
            surface=SurfaceOfRevolution(0.0818191908426),
        ),
        3, 3, 256,
    ),
    "mobius": (centered_stereographic(math.radians(40), math.radians(20)), 10, 12, 40),
    # the inversion's pole lies outside the image of c = 0.5: nothing is clipped around it
    "inversion-pole-outside-image": (
        LagrangeProjectionSpec(0.5, post_transform=Inversion(-1 + 0.5j, 1.0)), 15, 15, 40
    ),
    # the pole is the image of a point 0.7e-3 north of meridian 0's sample 43,
    # which lies 1.4e-3 from it in the plane before the inversion: the sample is kept
    "inversion-pole-near-a-sample": (
        LagrangeProjectionSpec(
            1.0,
            post_transform=Inversion(
                project(LagrangeProjectionSpec(1.0), LAT_ROW_65[43] + 0.0007, 0.0),
                1.0,
            ),
        ),
        15, 15, 65,
    ),
    # a Mobius map with c = 0 sends no point to infinity
    "mobius-without-pole": (
        LagrangeProjectionSpec(1.0, post_transform=MobiusTransform(2, 0, 0, 0.5)), 15, 15, 40
    ),
    # ... nor one with c = 1e-322, where |c| SAMPLE_CLEARANCE would underflow to 0
    "mobius-with-subnormal-c": (
        LagrangeProjectionSpec(1.0, post_transform=MobiusTransform(2, 0, 1e-322, 0.5)), 15, 15, 40
    ),
}


@pytest.mark.parametrize("case", GRATICULE_CASES.values(), ids=GRATICULE_CASES)
def test_graticule_matches_per_curve_reference(case):
    spec, lat_step, lon_step, samples = case
    steps = math.radians(lat_step), math.radians(lon_step)
    fits = graticule_image(spec, *steps, samples)
    assert fits == _graticule_per_curve(spec, *steps, samples)
    assert len(fits) >= 20


def test_graticule_reference_cases_clip_and_skip():
    # the cases above reach the clipping and skipping they are named for
    spec, lat_step, lon_step, samples = GRATICULE_CASES["inversion-pole-on-curves"]
    fits = graticule_image(spec, math.radians(lat_step), math.radians(lon_step), samples)
    # the meridians keep their top sample, SAMPLE_CLEARANCE from the projection center
    clipped = {f.curve_id for f in fits if f.samples_used < samples}
    assert clipped == {"parallel lat=+0.0", "meridian lon=+0.0"}
    spec, lat_step, lon_step, samples = GRATICULE_CASES["inversion-pole-near-a-sample"]
    fits = graticule_image(spec, math.radians(lat_step), math.radians(lon_step), samples)
    assert {f.curve_id: f.samples_used for f in fits}["meridian lon=+0.0"] == 65
    spec, lat_step, lon_step, samples = GRATICULE_CASES["exponent-above-1"]
    fits = graticule_image(spec, math.radians(lat_step), math.radians(lon_step), samples)
    assert sum(f.curve_id.startswith("meridian") for f in fits) < 360 // lon_step


@pytest.mark.parametrize("block", [1, 100, 1000])
def test_graticule_blocks_do_not_change_the_fits(monkeypatch, block):
    spec, lat_step, lon_step, samples = GRATICULE_CASES["inversion-pole-on-curves"]
    steps = math.radians(lat_step), math.radians(lon_step)
    expected = graticule_image(spec, *steps, samples)
    calls = []
    project_with_distance = lagrange._project

    def counted(*args):
        calls.append(np.size(args[1]))
        return project_with_distance(*args)

    monkeypatch.setattr(lagrange, "_GRATICULE_BLOCK", block)
    monkeypatch.setattr(lagrange, "_project", counted)
    assert graticule_image(spec, *steps, samples) == expected
    # 11 parallels and 24 meridians, whole curves in each block
    rows = max(1, block // samples)
    assert len(calls) == -(-35 // rows) > 1
    assert max(calls) <= rows * samples


def test_graticule_sample_limit_refused_before_allocating(monkeypatch):
    spec = LagrangeProjectionSpec(exponent=1.5)
    monkeypatch.setattr(lagrange, "_project", None)  # never reached
    limit = lagrange.GRATICULE_SAMPLE_LIMIT
    with pytest.raises(ConfigError, match=f"35 curves x {10**11} samples"):
        graticule_image(spec, math.radians(15), math.radians(15), 10**11)
    # just over the limit: 11 parallels and all 24 meridians of the step, as
    # the budget counts the 7 outside the branch window too (an upper bound
    # for c > 1, counted without projecting anything)
    with pytest.raises(ConfigError, match=f"35 curves x {limit // 35 + 1} samples"):
        graticule_image(spec, math.radians(15), math.radians(15), limit // 35 + 1)
    for step in (1e-300, 5e-324, math.pi / limit / 2):
        with pytest.raises(ConfigError, match="gives over"):
            graticule_image(spec, step, 0.1, 8)
        with pytest.raises(ConfigError, match="gives over"):
            graticule_image(spec, 0.1, step, 8)


def test_graticule_draws_the_meridians_the_kernel_projects(rng):
    # round values put meridians on the window's edges, where rounding decides
    for _ in range(500):
        spec = LagrangeProjectionSpec(
            exponent=float(rng.choice([rng.uniform(0.3, 2.0), 2.0, 1.5, 1.25, 1.0, 1 + 1e-9])),
            central_meridian=math.radians(float(rng.choice([rng.uniform(-180, 180), 0, 90, 120, 180]))),
        )
        lon_step = math.radians(
            float(rng.choice([rng.uniform(0.5, 180), 1, 3, 7.5, 10, 15, 30, 90, 180]))
        )
        k_min, k_max = int(math.floor(-math.pi / lon_step)) + 1, int(math.floor(math.pi / lon_step))
        lons = np.arange(k_min, k_max + 1) * lon_step
        _, code = project_array(spec, np.zeros(lons.size), lons)
        expected = [f"meridian lon={math.degrees(wrap_longitude(lon)):+.1f}"
                    for lon in lons[code != 2].tolist()]
        fits = graticule_image(spec, math.radians(45), lon_step, 8)
        assert [f.curve_id for f in fits if f.curve_id.startswith("meridian")] == expected, spec
