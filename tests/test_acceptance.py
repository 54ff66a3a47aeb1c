"""Acceptance criteria, one test per criterion with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import math
import time
from functools import partial

import numpy as np
import pytest

import carta.cli as cli
from carta import (
    Inversion,
    LagrangeProjectionSpec,
    Triangle,
    build_cap_mesh,
    build_region_mesh,
    centered_stereographic,
    dilatation_analytic,
    distortion_ratio,
    graticule_image,
    image_triangle_sides,
    inversions_for_sides,
    project,
    solve_log_scale,
)
from carta.chebyshev import projection_ratio

from conftest import mobius_map, random_mobius, random_point_for_spec, random_spec
from oracles import (
    CriticalPoint,
    derivative,
    dilatation_fd,
    gauss_scale,
    invert_point,
    mobius_deviation,
    schwarzian,
    schwarzian_cocycle_residual,
    spherical_polygon_area,
    unproject,
)
from test_geometry import band_area_excess, band_area_oracle


def verdict(number, name, passed, detail):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {state} [{detail}]")
    assert passed, f"criterion {number} ({name}): {detail}"


# -- criteria 1 and 2 share the randomized graticule suite ---------------------------


@pytest.fixture(scope="module")
def graticule_suite():
    rng = np.random.default_rng(1712)
    suite = []
    started = time.perf_counter()
    for _ in range(50):
        spec = random_spec(rng)
        fits = graticule_image(spec, math.radians(20), math.radians(30), 48)
        assert len(fits) >= 4
        suite.append((spec, fits))
    return suite, time.perf_counter() - started


def test_criterion_1_circle_image_theorem(graticule_suite):
    suite, elapsed = graticule_suite
    worst = 0.0
    curves = 0
    for _, fits in suite:
        for fit in fits:
            worst = max(worst, fit.relative_residual)
            curves += 1
    verdict(
        1,
        "graticule curves fit circles",
        worst < 1e-9 and elapsed < 30.0,
        f"{len(suite)} specs, {curves} curves, worst relative residual "
        f"{worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_second_family_redundancy(graticule_suite):
    suite, _ = graticule_suite
    mixed = 0
    for _, fits in suite:
        meridians_ok = all(
            f.relative_residual < 1e-9 for f in fits if f.curve_id.startswith("meridian")
        )
        parallels_ok = all(
            f.relative_residual < 1e-9 for f in fits if f.curve_id.startswith("parallel")
        )
        if meridians_ok != parallels_ok:
            mixed += 1
    verdict(
        2,
        "one circular family implies the other",
        mixed == 0,
        f"{mixed} specs with families disagreeing (both pass or both fail required)",
    )


def test_criterion_3_dilatation_formula():
    rng = np.random.default_rng(2303)
    worst_plain = 0.0
    worst_extrapolated = 0.0
    for _ in range(1000):
        spec = random_spec(rng)
        p = random_point_for_spec(rng, spec)
        analytic = dilatation_analytic(spec, *p)
        proj = partial(project, spec)
        m_h = dilatation_fd(proj, *p, 1e-4, surface=spec.surface)
        m_h2 = dilatation_fd(proj, *p, 5e-5, surface=spec.surface)
        worst_plain = max(worst_plain, abs(m_h - analytic) / analytic)
        improved = (4.0 * m_h2 - m_h) / 3.0
        worst_extrapolated = max(worst_extrapolated, abs(improved - analytic) / analytic)
    verdict(
        3,
        "analytic vs finite-difference dilatation",
        worst_plain < 1e-6 and worst_extrapolated < worst_plain,
        f"1000 pairs, worst relative {worst_plain:.2e}, "
        f"Richardson-improved {worst_extrapolated:.2e}",
    )


def test_criterion_4_chebyshev_theorem():
    started = time.perf_counter()
    delta = math.radians(0.25)
    allowance = 10.0 * delta**2

    # (a) cap closed-form oracle
    cap_errors = []
    for degrees in (10, 20, 30):
        radius = math.radians(degrees)
        mesh = build_cap_mesh(radius, delta)
        u = solve_log_scale(mesh)
        exact = math.log((1.0 + math.cos(radius)) / 2.0)
        pole = np.argmin(mesh.latitudes)  # the chart centre, a grid node
        cap_errors.append(abs(u[pole] - exact))
    part_a = max(cap_errors) < 1e-4

    # (b) optimality over geodesically convex regions
    cap_mesh = build_cap_mesh(math.radians(30), delta)
    france = build_region_mesh(np.radians([40, 40, 52, 52]), np.radians([-5, 9, 9, -5]), delta)
    cap_specs = [
        LagrangeProjectionSpec(1.0),
        LagrangeProjectionSpec(0.5),
        LagrangeProjectionSpec(0.75),
        LagrangeProjectionSpec(1.3),
        LagrangeProjectionSpec(1.0, post_transform=Inversion(2.0 + 0.5j, 1.2)),
    ]
    france_specs = [
        centered_stereographic(*np.radians([46, 2])),
        LagrangeProjectionSpec(1.0),
        LagrangeProjectionSpec(0.8, post_transform=Inversion(1.5 - 0.5j, 1.0)),
    ]
    part_b = True
    worst_violation = -math.inf
    cap_opt = distortion_ratio(solve_log_scale(cap_mesh))
    france_opt = distortion_ratio(solve_log_scale(france))
    for mesh, ratio_opt, specs in (
        (cap_mesh, cap_opt, cap_specs),
        (france, france_opt, france_specs),
    ):
        for spec in specs:
            violation = ratio_opt - projection_ratio(mesh, spec) - allowance
            worst_violation = max(worst_violation, violation)
            if violation > 0:
                part_b = False

    # (c) the centred stereographic attains the cap optimum
    ratio_proj = projection_ratio(cap_mesh, LagrangeProjectionSpec(1.0))
    part_c = abs(ratio_proj - cap_opt) <= allowance

    elapsed = time.perf_counter() - started
    verdict(
        4,
        "boundary-constant optimum",
        part_a and part_b and part_c and elapsed < 120.0,
        f"cap u(0) errors {[f'{e:.1e}' for e in cap_errors]}, "
        f"worst optimality slack {worst_violation:.2e} (<= 0 required), "
        f"stereographic-vs-optimal gap {abs(ratio_proj - cap_opt):.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_5_gauss_scale_order_of_magnitude():
    deviation = max(
        abs(gauss_scale(0.0818, math.radians(46.75), lat) - 1.0)
        for lat in np.radians(np.linspace(42.0, 51.5, 2001))
    )
    verdict(
        5,
        "spheroid-to-sphere scale variation",
        2.5e-7 <= deviation <= 2.5e-5,
        f"max |scale - 1| = {deviation:.3e}, required within [2.5e-7, 2.5e-5]",
    )


def test_criterion_6_triangle_inversion_solver():
    rng = np.random.default_rng(606)
    false_negatives = 0
    worst = 0.0
    solved = 0
    for _ in range(1000):
        while True:
            pts = [complex(*rng.uniform(-3, 3, 2)) for _ in range(3)]
            try:
                source = Triangle(*pts)
            except Exception:
                continue
            a, b, c = pts
            if 0.5 * abs(((b - a).conjugate() * (c - a)).imag) >= 0.1:
                break
        while True:
            pole = complex(*rng.uniform(-4, 4, 2))
            if min(abs(pole - v) for v in source.vertices()) >= 0.3:
                break
        synth = Inversion(pole, float(rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0])))
        target = Triangle(*[invert_point(synth, v) for v in source.vertices()])
        solutions = inversions_for_sides(source, target.sides())
        if not solutions:
            false_negatives += 1
            continue
        solved += 1
        best = min(
            max(abs(x - y) / y for x, y in zip(image_triangle_sides(s, source), target.sides()))
            for s in solutions
        )
        worst = max(worst, best)
    verdict(
        6,
        "triangle inversion round trip",
        false_negatives == 0 and worst < 1e-12,
        f"{solved}/1000 solved, {false_negatives} false no-solution verdicts, "
        f"worst side error {worst:.2e}",
    )


def test_criterion_7_schwarzian_criterion():
    rng = np.random.default_rng(707)

    # Mobius kernel over 1000 randomized transforms
    kernel_worst = 0.0
    for _ in range(1000):
        m = random_mobius(rng, min_det=1e-2)
        pole = None if abs(m.c) < 1e-12 else -m.d / m.c
        while True:
            z = complex(*rng.normal(size=2))
            if pole is None or abs(z - pole) >= 1.0:
                break
        kernel_worst = max(kernel_worst, abs(schwarzian(mobius_map(m), z)[0]))

    # cocycle residual over smooth pairs
    import cmath

    cocycle_worst = 0.0
    pairs = [
        (cmath.exp, lambda z: z * z + 0.3),
        (lambda z: 1.0 / (z + 3.0), cmath.exp),
        (cmath.sin, lambda z: 0.5 * z + 0.2 * z * z),
        (cmath.exp, cmath.sin),
    ]
    for f, g in pairs:
        for _ in range(25):
            z = 0.4 * complex(*rng.normal(size=2))
            if abs(derivative(g, z)) < 0.3:
                continue  # near-critical chaining point: S(g) blows up
            try:
                cocycle_worst = max(
                    cocycle_worst, schwarzian_cocycle_residual(f, g, z, h=2e-3)
                )
            except CriticalPoint:
                continue

    # transition-map classification over 50 pairs
    def transition(spec_from, spec_to):
        def t(z):
            return project(spec_to, *unproject(spec_from, z))

        return t

    def sample_points(spec_from, spec_to, count=6):
        # the estimator probes the horizontal segment z +/- 0.13, so the
        # transition must be evaluable AND continuous on that whole reach
        # (a probe straddling the branch cut evaluates fine on both sides
        # but jumps in between)
        t = transition(spec_from, spec_to)
        offsets = np.linspace(-0.13, 0.13, 9)
        points = []
        while len(points) < count:
            lat = rng.uniform(math.radians(-75), math.radians(45))
            dlon = rng.uniform(-2.0, 2.0)
            z = project(spec_from, lat, spec_from.central_meridian + dlon)
            if not (0.5 < abs(z) < 4.0):
                continue
            try:
                trace = [t(z + o) for o in offsets]
            except Exception:
                continue
            jumps = [abs(b - a) for a, b in zip(trace, trace[1:])]
            if max(jumps) > 10.0 * (min(jumps) + 1e-9):
                continue
            points.append(z)
        return points

    def random_pole_inversion():
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(1.2, 2.5)
        return Inversion(
            complex(radius * math.cos(angle), radius * math.sin(angle)),
            float(rng.uniform(0.5, 1.5)),
        )

    misclassified = 0
    for index in range(50):
        same_family = index % 2 == 0
        c1 = float(rng.uniform(0.4, 1.6))
        c2 = c1 if same_family else float(rng.uniform(0.4, 1.6) * 0.5)
        if not same_family and abs(c2 - c1) < 0.1:
            c2 = c1 * 0.5
        spec1 = LagrangeProjectionSpec(c1, post_transform=random_pole_inversion())
        spec2 = LagrangeProjectionSpec(c2, post_transform=random_pole_inversion())
        deviation = mobius_deviation(
            transition(spec1, spec2), sample_points(spec1, spec2)
        )
        if same_family and deviation >= 1e-6:
            misclassified += 1
        if not same_family and deviation < 1e-6:
            misclassified += 1

    verdict(
        7,
        "equal-Schwarzian circle criterion",
        kernel_worst < 1e-7 and cocycle_worst < 1e-6 and misclassified == 0,
        f"kernel worst {kernel_worst:.2e}, cocycle worst {cocycle_worst:.2e}, "
        f"misclassified transitions {misclassified}/50",
    )


def test_criterion_8_spherical_polygon_area():
    octant = spherical_polygon_area([(0, 0), (0, math.pi / 2), (math.pi / 2, 0)])
    octant_ok = abs(octant - math.pi / 2) < 1e-12

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        lat1 = rng.uniform(math.radians(-80), math.radians(60))
        lat2 = min(lat1 + rng.uniform(math.radians(5), math.radians(25)), math.radians(85))
        lon1 = rng.uniform(-2.0, 1.0)
        lon2 = lon1 + rng.uniform(math.radians(10), math.radians(90))
        err = abs(
            band_area_excess(lat1, lat2, lon1, lon2)
            - band_area_oracle(lat1, lat2, lon1, lon2)
        )
        worst = max(worst, err)
    verdict(
        8,
        "quadrilateral decomposition of polygon area",
        octant_ok and worst < 1e-10,
        f"octant error {abs(octant - math.pi / 2):.1e}, "
        f"worst band error {worst:.2e} over 100 bands",
    )


def test_criterion_9_cli_determinism(tmp_path):
    region = tmp_path / "region.geojson"
    region.write_text(
        json.dumps(
            {
                "type": "Feature",
                "properties": {},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[-5, 40], [9, 40], [9, 52], [-5, 52], [-5, 40]]],
                },
            }
        )
    )
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.geojson"
        svg = tmp_path / f"{tag}.svg"
        rep = tmp_path / f"{tag}.txt"
        cheb = tmp_path / f"{tag}-cheb.txt"
        field = tmp_path / f"{tag}-field.geojson"
        assert (
            cli.main(
                [
                    "project",
                    "--region", str(region),
                    "--exponent", "0.5",
                    "--inversion-pole", "2,0",
                    "--inversion-power", "1",
                    "--out", str(out),
                    "--svg", str(svg),
                    "--report", str(rep),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "chebyshev",
                    "--region", str(region),
                    "--delta-deg", "0.5",
                    "--centered-on", "46,2",
                    "--report", str(cheb),
                    "--out", str(field),
                ]
            )
            == 0
        )
        outputs.append(
            (
                out.read_bytes(),
                svg.read_bytes(),
                rep.read_bytes(),
                cheb.read_bytes(),
                field.read_bytes(),
            )
        )
    verdict(
        9,
        "byte-identical reruns",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} artifacts compared (GeoJSON, SVG, reports)",
    )
