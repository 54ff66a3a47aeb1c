"""The benchmark's workloads: seeded input generators, CLI arguments and
output checks.

Every size is fixed per scale ("full" for measurement, "tiny" for the
self-test); the seed only moves things around.  The program receives
nothing but the generated files and the flags built here.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

import numpy as np

CAP_RADIUS_DEG = 10.0
CAP_CENTER_LAT_DEG = 20.0


@dataclass(frozen=True)
class Case:
    """One generated instance of a workload."""

    argv: list[str]  # carta CLI arguments
    outputs: dict[str, str]  # role ("report", "out", "svg") -> path
    expect: dict  # size-dependent expectations used by the checks


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, str, str], Case]  # (seed, workdir, scale) -> Case
    check: Callable[[Case], dict]  # -> {check name: (passed, detail)}
    # distance of a run's result from its closed-form value, where one exists
    oracle_err: Callable[[Case], float] | None = None


def report_fields(path: str) -> dict[str, str]:
    fields = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            key, sep, value = line.rstrip("\n").partition(": ")
            if sep:
                fields[key] = value
    return fields


def _field_float(fields: dict, key: str) -> float:
    return float(fields.get(key, "nan"))


def _guarded(check: Callable[[Case], dict]) -> Callable[[Case], dict]:
    """An unreadable output fails the run instead of crashing the bench."""

    def run(case: Case) -> dict:
        try:
            return check(case)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return {"outputs-readable": (False, f"{type(exc).__name__}: {exc}")}

    return run


# -- project-world ----------------------------------------------------------

PROJECT_SIZES = {
    "full": dict(rings=2000, points=100, lat_step=3, lon_step=3, samples=256),
    "tiny": dict(rings=20, points=10, lat_step=30, lon_step=30, samples=16),
}


def _make_project(seed: int, workdir: str, scale: str) -> Case:
    size = PROJECT_SIZES[scale]
    rng = np.random.default_rng(seed)
    n, k = size["rings"], size["points"]
    # ring centres well inside the single-branch window and off the poles;
    # each ring is a jittered circle of 0.5-4 degrees, closed explicitly
    lat0 = rng.uniform(-70.0, 70.0, n)
    lon0 = rng.uniform(-170.0, 170.0, n)
    radius = rng.uniform(0.5, 4.0, n)
    theta = np.linspace(0.0, 2.0 * math.pi, k - 1, endpoint=False)
    wobble = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, (n, k - 1))
    lat = lat0[:, None] + radius[:, None] * wobble * np.sin(theta)
    lon = lon0[:, None] + radius[:, None] * wobble * np.cos(theta) / np.cos(
        np.radians(lat0[:, None])
    )
    features = []
    for i in range(n):
        ring = [[round(float(x), 6), round(float(y), 6)] for x, y in zip(lon[i], lat[i])]
        ring.append(list(ring[0]))
        features.append(
            {
                "type": "Feature",
                "properties": {"id": i},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    region = os.path.join(workdir, "world.geojson")
    with open(region, "w", encoding="utf-8") as handle:
        json.dump({"type": "FeatureCollection", "features": features}, handle)
    outputs = {
        "report": os.path.join(workdir, "project.txt"),
        "out": os.path.join(workdir, "projected.geojson"),
        "svg": os.path.join(workdir, "map.svg"),
    }
    argv = [
        "project", "--region", region,
        "--exponent", "0.5", "--inversion-pole", "2,0", "--inversion-power", "1",
        "--eccentricity", "0.0818191908426",
        "--lat-step", str(size["lat_step"]), "--lon-step", str(size["lon_step"]),
        "--samples", str(size["samples"]),
        "--out", outputs["out"], "--svg", outputs["svg"], "--report", outputs["report"],
    ]
    return Case(argv, outputs, {"coordinates": n * k})


def _coordinates(coords):
    if coords and isinstance(coords[0], (int, float)):
        yield coords
    else:
        for item in coords:
            yield from _coordinates(item)


def _check_project(case: Case) -> dict:
    fields = report_fields(case.outputs["report"])
    expected = case.expect["coordinates"]
    with open(case.outputs["out"], encoding="utf-8") as handle:
        projected = json.load(handle)
    positions = [
        pos
        for feature in projected["features"]
        for pos in _coordinates(feature["geometry"]["coordinates"])
    ]
    finite = all(len(p) == 2 and all(math.isfinite(v) for v in p) for p in positions)
    residual = _field_float(fields, "worst-relative-residual")
    try:
        ET.parse(case.outputs["svg"])
        svg_parses = True
    except ET.ParseError:
        svg_parses = False
    return {
        "coordinates-projected": (
            fields.get("coordinates-projected") == str(expected),
            fields.get("coordinates-projected"),
        ),
        "output-coordinates": (len(positions) == expected, len(positions)),
        "coordinates-finite": (finite, None),
        "svg-parses": (svg_parses, None),
        "circle-residual": (residual < 1e-9, residual),
    }


# -- chebyshev-offcap ---------------------------------------------------------

CHEBYSHEV_SIZES = {
    "full": dict(vertices=720, delta_deg=0.08),
    "tiny": dict(vertices=72, delta_deg=1.0),
}


def _cap_ring(lat0_deg: float, lon0_deg: float, radius_deg: float, bearings: np.ndarray):
    """[lon, lat] points at a fixed geodesic distance from a centre."""
    lat0, lon0, r = (math.radians(v) for v in (lat0_deg, lon0_deg, radius_deg))
    lat = np.arcsin(
        math.sin(lat0) * math.cos(r) + math.cos(lat0) * math.sin(r) * np.cos(bearings)
    )
    lon = lon0 + np.arctan2(
        np.sin(bearings) * math.sin(r) * math.cos(lat0),
        math.cos(r) - math.sin(lat0) * np.sin(lat),
    )
    return np.degrees(lon), np.degrees(lat)


def _make_chebyshev(seed: int, workdir: str, scale: str) -> Case:
    size = CHEBYSHEV_SIZES[scale]
    rng = np.random.default_rng(seed)
    lon0 = float(rng.uniform(-150.0, 150.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi / size["vertices"]))
    bearings = phase + np.linspace(0.0, 2.0 * math.pi, size["vertices"], endpoint=False)
    lon, lat = _cap_ring(CAP_CENTER_LAT_DEG, lon0, CAP_RADIUS_DEG, bearings)
    ring = [[float(x), float(y)] for x, y in zip(lon, lat)]
    ring.append(list(ring[0]))
    region = os.path.join(workdir, "offcap.geojson")
    with open(region, "w", encoding="utf-8") as handle:
        json.dump(
            {"type": "Feature", "properties": {},
             "geometry": {"type": "Polygon", "coordinates": [ring]}},
            handle,
        )
    outputs = {
        "report": os.path.join(workdir, "chebyshev.txt"),
        "out": os.path.join(workdir, "field.geojson"),
    }
    argv = [
        "chebyshev", "--region", region,
        "--centered-on", f"{CAP_CENTER_LAT_DEG:g},{lon0!r}",
        "--delta-deg", str(size["delta_deg"]),
        "--out", outputs["out"], "--report", outputs["report"],
    ]
    return Case(argv, outputs, {})


def _check_chebyshev(case: Case) -> dict:
    fields = report_fields(case.outputs["report"])
    with open(case.outputs["out"], encoding="utf-8") as handle:
        features = json.load(handle)["features"]
    u_min = _field_float(fields, "u-min")
    verdict = fields.get("verdict")
    return {
        "u-min-negative": (u_min < 0.0, u_min),
        "features-equal-nodes": (
            str(len(features)) == fields.get("nodes"),
            f"{len(features)} vs {fields.get('nodes')}",
        ),
        "verdict-not-violated": (
            verdict is not None and verdict != "optimality-violated",
            verdict,
        ),
    }


def _cap_oracle_err(case: Case) -> float:
    """|ratio-optimal - 1/cos^2(R/2)|: the exact optimum of a cap (Milnor 1969)."""
    ratio = _field_float(report_fields(case.outputs["report"]), "ratio-optimal")
    return abs(ratio - 1.0 / math.cos(math.radians(CAP_RADIUS_DEG) / 2.0) ** 2)


# -- distortion-cap -----------------------------------------------------------

DISTORTION_SIZES = {
    "full": dict(cap_deg=30, delta_deg=0.2, samples=69086),
    "tiny": dict(cap_deg=30, delta_deg=2.0, samples=693),
}


def _make_distortion(seed: int, workdir: str, scale: str) -> Case:
    size = DISTORTION_SIZES[scale]
    rng = np.random.default_rng(seed)
    # the 30-degree south cap images inside radius tan(15 deg) ~ 0.27, so
    # an inversion pole at radius 3 stays clear of every probe; the "="
    # form keeps argparse from reading a negative x as a flag
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    pole = f"{3.0 * math.cos(angle)!r},{3.0 * math.sin(angle)!r}"
    outputs = {
        "report": os.path.join(workdir, "distortion.txt"),
        "out": os.path.join(workdir, "dilatation.geojson"),
    }
    argv = [
        "distortion", "--cap-deg", str(size["cap_deg"]),
        "--delta-deg", str(size["delta_deg"]),
        f"--inversion-pole={pole}", "--inversion-power", "2",
        "--out", outputs["out"], "--report", outputs["report"],
    ]
    return Case(argv, outputs, {"samples": size["samples"]})


def _check_distortion(case: Case) -> dict:
    fields = report_fields(case.outputs["report"])
    m_min = _field_float(fields, "m-min")
    defect = _field_float(fields, "worst-conformality-defect")
    return {
        "samples": (fields.get("samples") == str(case.expect["samples"]), fields.get("samples")),
        "m-min-positive": (m_min > 0.0, m_min),
        "conformality-defect": (defect < 1e-3, defect),
    }


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("project-world", _make_project, _guarded(_check_project)),
        Workload(
            "chebyshev-offcap", _make_chebyshev, _guarded(_check_chebyshev), _cap_oracle_err
        ),
        Workload("distortion-cap", _make_distortion, _guarded(_check_distortion)),
    )
}
