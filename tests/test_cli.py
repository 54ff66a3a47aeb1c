"""Command-line behaviour: outputs, exit codes, determinism, fail-fast."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import carta.chebyshev as chebyshev
import carta.cli as cli
import carta.errors as errors
from conftest import offcap_ring


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def band_geojson(tmp_path):
    path = tmp_path / "band.geojson"
    coords = [[lon, lat] for lon in range(-180, 181, 10) for lat in (-20.0,)]
    data = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"name": "equatorial band"},
                "geometry": {"type": "LineString", "coordinates": coords},
            }
        ],
    }
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def france_geojson(tmp_path):
    path = tmp_path / "france.geojson"
    ring = [[-5, 40], [9, 40], [9, 52], [-5, 52], [-5, 40]]
    data = {
        "type": "Feature",
        "properties": {},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }
    path.write_text(json.dumps(data))
    return str(path)


# -- project ---------------------------------------------------------------------


def test_project_stereographic_band_svg(band_geojson, tmp_path, capsys):
    svg = tmp_path / "map.svg"
    out = tmp_path / "out.geojson"
    code = run_cli(
        "project",
        "--region", band_geojson,
        "--exponent", "1",
        "--out", str(out),
        "--svg", str(svg),
    )
    assert code == 0
    text = svg.read_text()
    # stereographic parallels are concentric circles centred at the origin
    assert "<circle" in text
    for line in text.splitlines():
        if "parallel" in line and "<circle" in line:
            cx = float(line.split('cx="')[1].split('"')[0])
            cy = float(line.split('cy="')[1].split('"')[0])
            assert math.hypot(cx, cy) < 1e-10
    projected = json.loads(out.read_text())
    coords = projected["features"][0]["geometry"]["coordinates"]
    # the -20 deg parallel lands on a circle of radius tan(pi/4 - 10deg)
    radius = math.tan(math.pi / 4 + math.radians(-20) / 2)
    for x, y in coords:
        assert math.hypot(x, y) == pytest.approx(radius, rel=1e-12)


def test_project_half_exponent_graticule_residuals(band_geojson, tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = run_cli(
        "project",
        "--region", band_geojson,
        "--exponent", "0.5",
        "--inversion-pole", "2,0",
        "--inversion-power", "1",
        "--svg", str(tmp_path / "m.svg"),
        "--report", str(report),
    )
    assert code == 0
    content = report.read_text()
    worst = float(content.split("worst-relative-residual: ")[1].split()[0])
    assert worst < 1e-9
    svg_text = (tmp_path / "m.svg").read_text()
    assert "<circle" in svg_text or "<line" in svg_text
    assert "rms residual" in svg_text  # annotations present


def test_project_malformed_geojson_exit_3_no_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.geojson"
    bad.write_text("{ not json")
    out = tmp_path / "never.geojson"
    code = run_cli("project", "--region", str(bad), "--out", str(out))
    assert code == 3
    assert not out.exists()


def test_project_pole_coordinate_exit_4(tmp_path, capsys):
    geo = tmp_path / "pole.geojson"
    geo.write_text(
        json.dumps(
            {
                "type": "Feature",
                "properties": {},
                "geometry": {"type": "Point", "coordinates": [10.0, 90.0]},
            }
        )
    )
    out = tmp_path / "never.geojson"
    code = run_cli("project", "--region", str(geo), "--out", str(out))
    assert code == 4
    err = capsys.readouterr().err
    assert "90" in err  # offending coordinate reported
    assert not out.exists()


def test_project_spheroid_near_the_south_pole(tmp_path, capsys):
    # 1e-7 degrees from the South pole is not the pole: x is 8.651923741e-10
    # to 50 digits, and the sphere kernel's tan(pi/4 + lat/2) gives 8.651923438e-10
    geo = tmp_path / "south.geojson"
    geo.write_text(json.dumps({"type": "LineString", "coordinates": [
        [10, -89.9999999], [10, -89.999999], [10, -89.99999]]}))
    out = tmp_path / "south-out.geojson"
    code = run_cli("project", "--region", str(geo), "--eccentricity", "0.0818191908426",
                   "--out", str(out))
    assert code == 0
    (x, y), *rest = json.loads(out.read_text())["coordinates"]
    assert x == pytest.approx(8.651923741e-10, rel=1e-7) and y > 0
    assert [math.hypot(*p) / math.hypot(x, y) for p in rest] == pytest.approx([10, 100], rel=1e-6)


def test_svg_failure_writes_no_output(band_geojson, tmp_path, monkeypatch, capsys):
    # every output is computed before the first one is written
    def fail(*args, **kwargs):
        raise errors.NonFiniteValue("non-finite value inf in output")

    monkeypatch.setattr(cli, "svg_text", fail)
    out, report = tmp_path / "out.geojson", tmp_path / "report.txt"
    code = run_cli(
        "project", "--region", band_geojson, "--out", str(out),
        "--svg", str(tmp_path / "map.svg"), "--report", str(report),
    )
    assert code == 4
    assert not out.exists() and not report.exists()


def test_config_validation_exit_2(band_geojson, tmp_path, capsys):
    out = tmp_path / "never.geojson"
    code = run_cli(
        "project", "--region", band_geojson, "--exponent", "3", "--out", str(out)
    )
    assert code == 2
    assert not out.exists()


# -- graticule --------------------------------------------------------------------


def test_graticule_centered_on_north_pole(capsys):
    # the half turn z -> 1 / z keeps every meridian and parallel a circle or line
    assert run_cli("graticule", "--centered-on", "90,0") == 0
    curves = [line for line in capsys.readouterr().out.splitlines() if " | " in line]
    assert curves
    for line in curves:
        assert float(line.split("relative=")[1]) < 1e-12, line


def test_graticule_exponent_two_draws_the_window_edges(capsys):
    # at c = 2 the meridians at +-90 degrees lie on the branch window's edge,
    # where the projection kernel projects them, whatever the step
    for step in ("1", "3", "7.5", "15"):
        assert run_cli("graticule", "--exponent", "2", "--lat-step", "30", "--lon-step", step) == 0
        ids = {line.split(" | ")[0] for line in capsys.readouterr().out.splitlines()}
        assert {"meridian lon=+90.0", "meridian lon=-90.0"} <= ids, step


# -- chebyshev --------------------------------------------------------------------


# SHA-256 of the report of the 10-degree cap compared with the plain
# stereographic projection, which --centered-on=-90,0 selects
STEREOGRAPHIC_REPORT_SHA256 = "a91f38258857e5880e89625cfa29026612393324bc47cc1ab139ae271a97ca85"


def test_chebyshev_south_centered_report_pinned(capsys):
    code = run_cli("chebyshev", "--cap-deg", "10", "--delta-deg", "0.5", "--centered-on=-90,0")
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: optimal-matches-projection" in out
    assert hashlib.sha256(out.encode()).hexdigest() == STEREOGRAPHIC_REPORT_SHA256


def test_chebyshev_cap_stereographic_match(tmp_path, capsys):
    report = tmp_path / "cheb.txt"
    code = run_cli(
        "chebyshev",
        "--cap-deg", "30",
        "--delta-deg", "0.25",
        "--centered-on=-90,0",
        "--report", str(report),
        "--out", str(tmp_path / "field.geojson"),
    )
    assert code == 0
    content = report.read_text()
    assert "verdict: optimal-matches-projection" in content
    ratio_opt = float(content.split("ratio-optimal: ")[1].split()[0])
    ratio_proj = float(content.split("ratio-projection: ")[1].split()[0])
    expected = 2.0 / (1.0 + math.cos(math.radians(30)))
    assert ratio_opt == pytest.approx(expected, abs=2e-4)
    assert ratio_proj == pytest.approx(expected, abs=2e-4)
    field = json.loads((tmp_path / "field.geojson").read_text())
    assert field["type"] == "FeatureCollection"
    u_values = [f["properties"]["u"] for f in field["features"]]
    assert min(u_values) == pytest.approx(math.log((1 + math.cos(math.radians(30))) / 2), abs=1e-4)
    assert max(u_values) == 0.0


def test_chebyshev_half_exponent_suboptimal(capsys, tmp_path):
    report = tmp_path / "cheb2.txt"
    code = run_cli(
        "chebyshev",
        "--cap-deg", "30",
        "--delta-deg", "0.5",
        "--exponent", "0.5",
        "--report", str(report),
    )
    assert code == 0
    content = report.read_text()
    assert "verdict: projection-suboptimal" in content
    gap = float(content.split("gap: ")[1].split()[0])
    assert gap > 0


def test_chebyshev_lone_central_meridian_compares_the_projection(capsys):
    # a central meridian alone selects a projection: the stereographic map
    # turned about the pole, which the cap's optimum matches
    code = run_cli("chebyshev", "--cap-deg", "10", "--delta-deg", "1", "--central-meridian", "40")
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("verdict: ") == 1 and "verdict: optimal-matches-projection" in out
    gap = float(out.split("gap: ")[1].split()[0])
    allowance = float(out.split("allowance: ")[1].split()[0])
    assert "ratio-projection: " in out and abs(gap) < 1e-3 * allowance


def test_chebyshev_region_too_small_exit_6(france_geojson, capsys):
    code = run_cli(
        "chebyshev", "--region", france_geojson, "--delta-deg", "8",
    )
    assert code == 6
    assert "RegionTooSmall" in capsys.readouterr().err


SQUARE = [[0, 40], [10, 40], [10, 50], [0, 50], [0, 40]]
HOLE = [[3, 43], [3, 47], [7, 47], [7, 43], [3, 43]]
EAST_SQUARE = [[20, 40], [30, 40], [30, 50], [20, 50], [20, 40]]


def _feature(geometry_type, coordinates):
    geometry = {"type": geometry_type, "coordinates": coordinates}
    return {"type": "Feature", "properties": {}, "geometry": geometry}


@pytest.mark.parametrize("command", ["chebyshev", "distortion"])
@pytest.mark.parametrize(
    "document, line",
    [
        ({"type": "Polygon", "coordinates": [SQUARE, HOLE]},
         "polygon of 2 rings: holes are not supported"),
        ({"type": "MultiPolygon", "coordinates": [[SQUARE, HOLE]]},
         "polygon of 2 rings: holes are not supported"),
        ({"type": "MultiPolygon", "coordinates": [[SQUARE], [EAST_SQUARE]]},
         "MultiPolygon of 2 polygons: only one is supported"),
        ({"type": "FeatureCollection",
          "features": [_feature("Polygon", [SQUARE]), _feature("Polygon", [EAST_SQUARE])]},
         "2 region geometries: only one is supported"),
        ({"type": "GeometryCollection",
          "geometries": [{"type": "LineString", "coordinates": SQUARE},
                         {"type": "MultiPolygon", "coordinates": [[EAST_SQUARE]]}]},
         "2 region geometries: only one is supported"),
    ],
    ids=["hole", "multipolygon-hole", "multipolygon", "features", "line-and-polygon"],
)
def test_region_refuses_what_the_mesh_would_drop(tmp_path, capsys, command, document, line):
    region = tmp_path / "region.geojson"
    region.write_text(json.dumps(document))
    assert run_cli(command, "--region", str(region), "--delta-deg", "0.5") == 3
    assert capsys.readouterr().err == f"carta: GeoJsonError: {line}\n"


@pytest.mark.parametrize(
    "document",
    [
        {"type": "MultiPolygon", "coordinates": [[], [SQUARE]]},
        {"type": "FeatureCollection",
         "features": [_feature("Point", [1, 1]), _feature("Polygon", [SQUARE]),
                      _feature("Polygon", []), _feature("MultiPolygon", [])]},
    ],
    ids=["multipolygon-of-one", "one-region-among-others"],
)
def test_region_of_one_ring_in_any_spelling(tmp_path, capsys, document):
    # geometries without a ring and geometries of other types are skipped
    reports = []
    for name, doc in (("square", {"type": "Polygon", "coordinates": [SQUARE]}), ("doc", document)):
        region = tmp_path / f"{name}.geojson"
        region.write_text(json.dumps(doc))
        assert run_cli("chebyshev", "--region", str(region), "--centered-on", "45,5",
                       "--delta-deg", "0.5") == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "nodes: 363\n" in reports[0]


def test_region_moved_by_whole_turns_gives_the_same_bytes(tmp_path, capsys):
    # the 0-10E x 40-50N square, and again at 360-370E and at -720...-710E:
    # longitudes reduced in degrees, exactly, give the same radians
    outputs = []
    for shift in (0, 360, -720):
        region = tmp_path / f"region{shift}.geojson"
        square = [[lon + shift, lat] for lon, lat in SQUARE]
        region.write_text(json.dumps({"type": "Polygon", "coordinates": [square]}))
        out = tmp_path / f"field{shift}.geojson"
        assert run_cli("chebyshev", "--region", str(region), "--centered-on", "45,5",
                       "--delta-deg", "0.5", "--out", str(out)) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def _write_ring(path, lat_lon_deg):
    ring = [[lon, lat] for lat, lon in lat_lon_deg]
    path.write_text(json.dumps({"type": "Polygon", "coordinates": [ring + ring[:1]]}))
    return str(path)


@pytest.mark.parametrize("delta_deg", ["0.8", "0.4", "0.2", "0.1"])
def test_chebyshev_offcap_polygon_matches_stereographic(tmp_path, capsys, delta_deg):
    # a 720-gon on the 10-degree cap about (20N, 37E): the stereographic
    # centred there is optimal (Milnor 1969) at every resolution
    lat, lon = offcap_ring(720)
    region = _write_ring(tmp_path / "offcap.geojson", zip(np.degrees(lat), np.degrees(lon)))
    report = tmp_path / "report.txt"
    code = run_cli(
        "chebyshev", "--region", region, "--centered-on", "20,37",
        "--delta-deg", delta_deg, "--report", str(report),
    )
    assert code == 0
    assert "verdict: optimal-matches-projection" in report.read_text()


def test_chebyshev_region_around_a_pole(tmp_path, capsys):
    region = _write_ring(
        tmp_path / "polar.geojson", [(70, 0), (75, 90), (70, 180), (75, 270)]
    )
    assert run_cli("chebyshev", "--region", region, "--delta-deg", "0.5") == 0
    assert "ratio-optimal: 1.0" in capsys.readouterr().out


def test_chebyshev_no_convergence_exit_5(monkeypatch, capsys):
    from carta.errors import NoConvergence

    def fail(mesh):
        raise NoConvergence("stub")

    monkeypatch.setattr(cli, "solve_log_scale", fail)
    code = run_cli("chebyshev", "--cap-deg", "30", "--delta-deg", "0.5")
    assert code == 5


def test_chebyshev_iteration_limit_exit_5(monkeypatch, capsys, recwarn):
    # one BiCGSTAB iteration leaves the residual of 11,700 unknowns far above the tolerance
    monkeypatch.setattr(chebyshev, "ITERATION_LIMIT", 1)
    assert run_cli("chebyshev", "--cap-deg", "30", "--delta-deg", "0.5") == 5
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("carta: NoConvergence: "), err


def test_chebyshev_bytes_do_not_follow_the_blas_thread_count():
    # a threaded BLAS dot splits its sums among the threads, and the last
    # digits of u followed their count; the solve's inner products are
    # numpy pairwise sums for that reason
    root = Path(__file__).resolve().parent.parent
    reports = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "carta.cli", "chebyshev", "--cap-deg", "30", "--delta-deg", "0.5"],
            capture_output=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        reports.add(result.stdout)
    assert len(reports) == 1


# SHA-256 of the report and the --out GeoJSON of two chebyshev runs: a
# polygon with a verdict, and a cap
CHEBYSHEV_SHA256 = {
    "region": {
        "report": "af6a18db5acf8d9ff8873fc40c8e65fdf25e43b3f1daa6a6912a539d0924e63a",
        "out": "d795151844a69dee197f3254d2c1d30b772dd65c6df7e49b313ab99729d285c4",
    },
    "cap": {
        "report": "b4afdb629e6941541915543e80165747b21d71d1005a9268a623a742d30e1644",
        "out": "9fd7c0548d69773a27fe8ca31ea0df9da0fa3b7494278bda9f95d09359264d2c",
    },
}


@pytest.mark.parametrize(
    "case, argv",
    [
        ("region", ["--region", "region.geojson", "--centered-on", "45,5", "--delta-deg", "0.5"]),
        ("cap", ["--cap-deg", "10", "--delta-deg", "0.5"]),
    ],
)
def test_chebyshev_outputs_pinned(tmp_path, capsys, case, argv):
    region = tmp_path / "region.geojson"
    region.write_text(json.dumps(
        {"type": "Polygon", "coordinates": [[[0, 40], [10, 40], [10, 50], [0, 50], [0, 40]]]}
    ))
    argv = [str(region) if arg == region.name else arg for arg in argv]
    paths = {name: tmp_path / name for name in CHEBYSHEV_SHA256[case]}
    code = run_cli(
        "chebyshev", *argv, "--out", str(paths["out"]), "--report", str(paths["report"])
    )
    assert code == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == CHEBYSHEV_SHA256[case]


def test_cli_imports_no_scipy():
    script = (
        "import sys, carta.cli\n"
        "assert carta.cli.main(['chebyshev', '--cap-deg', '10', '--delta-deg', '1']) == 0\n"
        "sys.exit(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or None)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


# -- distortion ---------------------------------------------------------------------


def test_distortion_report_cap(tmp_path, capsys):
    report = tmp_path / "dist.txt"
    code = run_cli(
        "distortion",
        "--cap-deg", "30",
        "--delta-deg", "2",
        "--report", str(report),
        "--out", str(tmp_path / "samples.geojson"),
    )
    assert code == 0
    content = report.read_text()
    ratio = float(content.split("ratio: ")[1].split()[0])
    assert ratio == pytest.approx(1.0 / math.sin(math.radians(75)) ** 2, rel=1e-6)
    samples = json.loads((tmp_path / "samples.geojson").read_text())
    assert all("m" in f["properties"] for f in samples["features"])


# -- darboux -----------------------------------------------------------------------


def test_darboux_forward_synthesized(capsys):
    code = run_cli(
        "darboux",
        "--source", "0,0,2,0.3,0.7,1.8",
        "--target", "0.937,0.845,1.188,0.693,1.1,0.271",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "solutions: 2" in out
    for token in out.split("side-errors=(")[1:]:
        errors = [float(v) for v in token.split(")")[0].split(", ")]
        assert max(errors) < 1e-9


def test_darboux_near_own_shape_target_keeps_the_near_pole(capsys):
    # the source's own sides with a 1e-10 longer: |PA| / |PB| = 1 + 5e-11,
    # so one pole lies near the triangle and the other ~1.7e10 away
    code = run_cli(
        "darboux", "--source", "0,0,2,0.3,0.7,1.8",
        "--target-sides", "1.9849433243264152,1.9313207915827966,2.0223748416156684",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "solutions: 2" in out.splitlines()
    poles = [token.split(")")[0].split(", ") for token in out.split("pole=(")[1:]]
    near = (0.920796460234849, 0.678023598870202)
    assert min(math.dist(near, [float(v) for v in pole]) for pole in poles) < 1e-9


def test_darboux_solves_alike_at_every_scale(capsys):
    # the same shape 2e-7 and 1e-6 across: both triangles are refused or solved by their shape
    poles = []
    for scale in (2e-7, 1e-6):
        source = ",".join(repr(v * scale) for v in (0, 0, 2, 0.3, 0.7, 1.8))
        assert run_cli("darboux", "--source", source, "--target-sides", "1,1,1") == 0
        out = capsys.readouterr().out
        assert "solutions: 2" in out.splitlines()
        poles.append([[float(v) / scale for v in token.split(")")[0].split(", ")]
                      for token in out.split("pole=(")[1:]])
    assert np.allclose(*poles, rtol=1e-12, atol=0)


def test_darboux_collinear_exit_6(capsys):
    code = run_cli("darboux", "--source", "0,0,1,0,2,0")
    assert code == 6


def test_darboux_no_solution_is_exit_0(capsys):
    code = run_cli(
        "darboux", "--source", "0,0,2,0.3,0.7,1.8", "--target-sides", "5,1,1"
    )
    assert code == 0
    assert "no inversion exists" in capsys.readouterr().out


# -- determinism --------------------------------------------------------------------


def test_byte_identical_reruns(band_geojson, france_geojson, tmp_path, capsys):
    pairs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.geojson"
        svg = tmp_path / f"{tag}.svg"
        rep = tmp_path / f"{tag}.txt"
        code = run_cli(
            "project",
            "--region", band_geojson,
            "--exponent", "0.5",
            "--inversion-pole", "2,0",
            "--inversion-power", "1",
            "--out", str(out),
            "--svg", str(svg),
            "--report", str(rep),
        )
        assert code == 0
        pairs.append((out.read_bytes(), svg.read_bytes(), rep.read_bytes()))
    assert pairs[0] == pairs[1]

    cheb = []
    for tag in ("one", "two"):
        rep = tmp_path / f"cheb-{tag}.txt"
        field = tmp_path / f"field-{tag}.geojson"
        code = run_cli(
            "chebyshev",
            "--region", france_geojson,
            "--delta-deg", "1",
            "--centered-on", "46,2",
            "--report", str(rep),
            "--out", str(field),
        )
        assert code == 0
        cheb.append((rep.read_bytes(), field.read_bytes()))
    assert cheb[0] == cheb[1]


# every kind of geometry, with altitudes, empty geometries, a hole and
# property text with "%", quotes and non-ASCII letters; the one-position
# line sets the SVG's view, and the MultiPoint's far image stays outside it
PINNED_DOCUMENT = {
    "type": "FeatureCollection",
    "features": [
        {"type": "Feature", "properties": {"name": 'café "50%"', "%s": [1, 2.5, None]},
         "geometry": {"type": "Point", "coordinates": [2.35, 48.85, 35]}},
        {"type": "Feature", "properties": None,
         "geometry": {"type": "MultiPoint", "coordinates": [[-70.5, -33.4], [0.5, 61.8, 3.5]]}},
        {"type": "Feature", "properties": {},
         "geometry": {"type": "LineString", "coordinates": [[1, 61.5]]}},
        {"type": "Feature", "properties": {"holes": 1},
         "geometry": {"type": "Polygon", "coordinates": [
             [[0, 0], [20, 0], [20, 20], [0, 20], [0, 0]],
             [[5, 5], [5, 10, 100], [10, 10], [10, 5], [5, 5]]]}},
        {"type": "Feature", "properties": {},
         "geometry": {"type": "MultiPolygon", "coordinates": [
             [[[-30, -10], [-20, -10], [-25, 0], [-30, -10]]],
             [[[40, 50], [45, 55], [50, 50], [40, 50]]]]}},
        {"type": "Feature", "properties": {"empty": True},
         "geometry": {"type": "MultiLineString", "coordinates": []}},
        {"type": "Feature", "properties": {}, "geometry": None},
        {"type": "Feature", "properties": {},
         "geometry": {"type": "GeometryCollection", "geometries": [
             {"type": "Point", "coordinates": []},
             {"type": "GeometryCollection", "geometries": [
                 {"type": "LineString", "coordinates": [[-60, 30], [-50, 35], [-40, 30]]}]},
             {"type": "MultiLineString", "coordinates": [[[100, -20], [110, -25]], []]}]}},
    ],
}

# SHA-256 of the report, GeoJSON and SVG; the GeoJSON's recorded before its
# writer read position columns, the report's and the SVG's since every curve is
# fitted in one batch, whose sums round differently: the worst relative residual,
# the rms titles and the near-zero centre coordinates moved in round-off digits
PINNED_SHA256 = {
    "report": "3a6c41202c8ead9f7e881a21db4c7e2f10661262c99b21935cff3790d9288a73",
    "out": "ead8a3a02670ac89d40ec4b8e79748c6643ca9de989b18aaac040c1add18f0c9",
    "svg": "bce9c5eb5759479c4b190aab5df7856c50dd74e09c73a04e20ef49dd3336dd30",
}


def test_project_outputs_pinned(tmp_path, capsys):
    region = tmp_path / "pinned.geojson"
    region.write_text(json.dumps(PINNED_DOCUMENT))
    paths = {name: tmp_path / name for name in PINNED_SHA256}
    code = run_cli(
        "project", "--region", str(region),
        "--exponent", "0.5", "--inversion-pole", "2,0", "--inversion-power", "1",
        "--lat-step", "30", "--lon-step", "45", "--samples", "16",
        "--out", str(paths["out"]), "--svg", str(paths["svg"]), "--report", str(paths["report"]),
    )
    assert code == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == PINNED_SHA256


def test_project_svg_alone_is_the_pinned_svg(tmp_path, capsys):
    # without --out the position texts are made for the SVG alone
    region = tmp_path / "pinned.geojson"
    region.write_text(json.dumps(PINNED_DOCUMENT))
    svg = tmp_path / "alone.svg"
    code = run_cli(
        "project", "--region", str(region),
        "--exponent", "0.5", "--inversion-pole", "2,0", "--inversion-power", "1",
        "--lat-step", "30", "--lon-step", "45", "--samples", "16", "--svg", str(svg),
    )
    assert code == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == PINNED_SHA256["svg"]


# SHA-256 of a small cap's point GeoJSON, as ``dumps`` writes the document
# built as objects (format_float per value), not the number kernel: it holds
# defects in exponent form, negative latitudes and a zero longitude
DISTORTION_OUT_SHA256 = "a662ce005ac25abc7683e8706699de4de8a493d67c18894a6880d71c28e92deb"


def test_distortion_out_pinned(tmp_path, capsys):
    out = tmp_path / "dilatation.geojson"
    code = run_cli(
        "distortion", "--cap-deg", "30", "--delta-deg", "2",
        "--inversion-pole", "1,-2.8", "--inversion-power", "2", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert '"coordinates": [0, -88]}' in text
    assert '"conformality_defect": 4.17220258341899e-10}' in text
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DISTORTION_OUT_SHA256


def test_installed_entry_point(band_geojson, tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "carta.cli",
            "graticule", "--exponent", "0.5", "--lat-step", "30", "--lon-step", "45",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "graticule report" in result.stdout


def test_bench_tracer_installs_on_current_package(tmp_path):
    """The benchmark's tracer patches functions by name; a rename must fail here."""
    root = Path(__file__).resolve().parent.parent
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def traced(*argv):
        result = subprocess.run(
            [sys.executable, str(root / "bench" / "child.py"), str(record), "1", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(record.read_text())["trace"]

    trace = traced("chebyshev", "--cap-deg", "30", "--delta-deg", "5", "--centered-on=-90,0")
    spans = {span["name"] for span in trace["spans"]}
    assert {"cli.main", "chebyshev.build_cap_mesh", "chebyshev.solve_log_scale"} <= spans
    trace = traced("graticule", "--lat-step", "30", "--lon-step", "45")
    assert "geometry.circle_fit" in {agg["name"] for agg in trace["aggregates"]}


# -- exit-code contract -----------------------------------------------------------


ALLOWED_EXITS = {0, 2, 3, 4, 5, 6}


def test_every_error_class_has_exactly_one_category():
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.CartaError)]
    # a category is a class that defines exit_code itself
    categories = [kind for kind in classes if "exit_code" in vars(kind)]
    assert sorted(kind.exit_code for kind in categories) == [2, 3, 4, 5, 6]
    for kind in classes:
        if kind is errors.CartaError:
            continue
        defining = [c for c in kind.__mro__ if "exit_code" in vars(c)]
        assert len(defining) == 1, f"{kind.__name__}: {defining}"


def _polygon(coordinates_json):
    return '{"type": "Polygon", "coordinates": %s}' % coordinates_json


def _feature(member_json):
    return ('{"type": "Feature", %s, "geometry": {"type": "LineString", "coordinates": '
            '[[0, 0], [1, 1]]}}' % member_json)


# loads as JSON; project writes the parsed document itself, whose writer
# takes one frame a level, so these properties project (exit 0)
DEEP = 600


@pytest.mark.parametrize(
    "command, document, extra, expected",
    [
        ("chebyshev", _polygon("5"), [], 3),
        ("project", _polygon("5"), [], 3),
        ("project", _polygon('[[[0, 0], ["1", 1], [1, 0], [0, 0]]]'), [], 3),
        ("project", _polygon("[[[0, 0], [NaN, 1], [1, 0], [0, 0]]]"), [], 3),
        ("chebyshev", _polygon("[[[0, 0], [0, NaN], [1, 0], [0, 0]]]"), [], 3),
        ("project", _polygon("[[[0, 0], [1e400, 1], [1, 0], [0, 0]]]"), [], 3),
        ("project", _polygon("[[[0, 0], [true, false], [1, 0], [0, 0]]]"), [], 3),
        ("chebyshev", _polygon("[[[0, 0], [1], [1, 0], [0, 0]]]"), [], 3),
        ("project", '{"type": "Feature", "geometry": null, "properties": %s}'
         % ("[" * DEEP + "]" * DEEP), [], 0),
        ("project", _polygon("[" * 5000 + "]" * 5000), [], 3),
        # a non-finite number outside the positions, which project --out writes
        ("project", _feature('"properties": {"v": NaN}'), [], 3),
        ("project", _feature('"properties": {"v": 1e400}'), [], 3),
        ("project", _feature('"bbox": [Infinity, 0, 1, 1]'), [], 3),
        ("chebyshev", _polygon("[[[0, 0], [0, 1], [1, 0], [0, 0]]]"), ["--delta-deg", "nan"], 2),
        ("chebyshev", _polygon("[[[0, 0], [0, 5], [5, 0], [0, 0]]]"), ["--centered-on", "95,0"], 2),
        # the solve has the sphere's metric, so a spheroid's scale cannot be compared with it
        ("chebyshev", _polygon("[[[0, 0], [0, 5], [5, 0], [0, 0]]]"),
         ["--eccentricity", "0.08", "--centered-on=-90,0"], 2),
        ("project", _polygon("[]"), ["--lat-step", "89.99999999"], 2),
        # a zero-length line far out: the SVG padding must not round away
        ("project", '{"type": "LineString", "coordinates": [[0, 0], [0, 0]]}',
         ["--inversion-pole", "0,0", "--inversion-power", "1e10", "--lat-step", "89",
          "--lon-step", "180"], 0),
    ],
    ids=[
        "coordinates-5-chebyshev", "coordinates-5-project", "string", "nan-project",
        "nan-chebyshev", "1e400", "bools", "short-position", "deep-properties", "deep-json",
        "nan-property", "1e400-property", "infinity-bbox",
        "delta-nan", "centered-on-95", "chebyshev-eccentricity", "lat-step-edge", "zero-extent-svg",
    ],
)
def test_pinned_inputs_exit_codes(tmp_path, capsys, command, document, extra, expected):
    region = tmp_path / "in.geojson"
    region.write_text(document)
    argv = [command, "--region", str(region), *extra]
    if command == "project":
        argv += ["--out", str(tmp_path / "out.geojson"), "--svg", str(tmp_path / "out.svg")]
    assert run_cli(*argv) == expected
    if expected:
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("carta: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["in.geojson"]


EXTREME_FLAG_VALUES = [
    (["graticule", "--inversion-pole", "1,0", "--inversion-power", "1e300"], 4),
    (["graticule", "--exponent", "0.01", "--inversion-pole", "1e4,0", "--inversion-power", "1"],
     0),
    (["distortion", "--cap-deg", "10", "--inversion-pole", "1e200,0", "--inversion-power", "1"],
     2),
    (["distortion", "--cap-deg", "10", "--inversion-pole", "0,0", "--inversion-power", "1"], 4),
    (["chebyshev", "--cap-deg", "10", "--delta-deg", "1", "--inversion-pole", "0,0",
      "--inversion-power", "1"], 0),
    (["chebyshev", "--cap-deg", "10", "--inversion-pole", "x", "--inversion-power", "1"], 2),
    (["distortion", "--cap-deg", "5e-324"], 2),
    (["darboux", "--source", "0,0,1e300,0,0,1e300", "--target", "0,0,2,0.3,0.7,1.8"], 4),
    (["darboux", "--source", "0,0,2,0.3,0.7,1.8",
      "--target-sides", "2.368395386452327e-151,9.328371860139446e+172,1e300"], 4),
    (["darboux", "--source", "3,-1.3,-1e-10,0,1.3e-150,-1e-300", "--target-sides", "1,5e-324,2"],
     4),
    (["darboux", "--source", "1.3e-150,0,5e-324,1e-10,3.9,-5e-324",
      "--target-sides", "5e-324,2,1e-300"], 4),
    (["darboux", "--source", "1.3e150,1e-300,-5e-324,3.9,5e-324,1e150",
      "--target", "1.3e10,1e-150,1e-150,-0.0,-2.0,1.3e10"], 4),
]


@pytest.mark.parametrize("argv, expected", EXTREME_FLAG_VALUES)
def test_extreme_flag_values_exit_codes(capsys, argv, expected):
    assert run_cli(*argv) == expected


@pytest.mark.parametrize(
    "argv, expected", [case for case in EXTREME_FLAG_VALUES if case[1] != 0]
)
def test_extreme_flag_values_print_one_error_line(capsys, recwarn, argv, expected):
    # numpy's overflow warnings would precede the error line
    assert run_cli(*argv) == expected
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("carta: "), err


# argv (split on spaces; {region} is a small polygon file, {tmp} a scratch
# directory), exit code and the one stderr line after "carta: "
SOURCE = "0,0,2,0.3,0.7,1.8"
GOLDEN_ERRORS = [
    # the exit-2 cases of EXTREME_FLAG_VALUES and test_pinned_inputs_exit_codes
    ("distortion --cap-deg 10 --inversion-pole 1e200,0 --inversion-power 1", 2,
     "ConfigError: --inversion-pole beyond 1e150: squared distances would overflow"),
    ("chebyshev --cap-deg 10 --inversion-pole x --inversion-power 1", 2,
     "ConfigError: --inversion-pole expects comma-separated numbers"),
    ("distortion --cap-deg 5e-324", 2, "ConfigError: --cap-deg 5e-324 outside (0, 90)"),
    ("chebyshev --region {region} --delta-deg nan", 2,
     "ConfigError: non-finite value for delta_deg: nan"),
    ("chebyshev --region {region} --centered-on 95,0", 2,
     "ConfigError: --centered-on latitude 95.0 outside [-90, 90]"),
    ("chebyshev --region {region} --eccentricity 0.08 --centered-on=-90,0", 2,
     "ConfigError: chebyshev solves with the sphere's metric: --eccentricity must be 0"),
    ("project --region {region} --lat-step 89.99999999 --out {tmp}/out.geojson"
     " --svg {tmp}/out.svg", 2, "ConfigError: --lat-step outside (0, 90)"),
    # comma lists
    ("graticule --centered-on 10", 2, "ConfigError: --centered-on expects 2 numbers, got 1"),
    ("graticule --centered-on=", 2, "ConfigError: --centered-on expects comma-separated numbers"),
    ("graticule --inversion-pole 1,2,3 --inversion-power 1", 2,
     "ConfigError: --inversion-pole expects 2 numbers, got 3"),
    ("darboux --source 0,0,1,0,0", 2, "ConfigError: --source expects 6 numbers, got 5"),
    ("darboux --source 0;0;1;0;0;1", 2, "ConfigError: --source expects comma-separated numbers"),
    (f"darboux --source {SOURCE} --target 1,2,x,4,5,6", 2,
     "ConfigError: --target expects comma-separated numbers"),
    (f"darboux --source {SOURCE} --target-sides 1,2", 2,
     "ConfigError: --target-sides expects 3 numbers, got 2"),
    (f"darboux --source {SOURCE} --target-sides 1,,2", 2,
     "ConfigError: --target-sides expects comma-separated numbers"),
    # non-finite values, named as the run's parameters
    ("graticule --exponent nan", 2, "ConfigError: non-finite value for exponent: nan"),
    ("graticule --central-meridian inf", 2,
     "ConfigError: non-finite value for central_meridian_deg: inf"),
    ("graticule --inversion-pole nan,0 --inversion-power 1", 2,
     "ConfigError: non-finite value for inversion_pole: (nan, 0.0)"),
    ("graticule --inversion-pole 1,0 --inversion-power=-inf", 2,
     "ConfigError: non-finite value for inversion_power: -inf"),
    ("graticule --centered-on 0,inf", 2,
     "ConfigError: non-finite value for centered_on: (0.0, inf)"),
    ("graticule --eccentricity nan", 2, "ConfigError: non-finite value for eccentricity: nan"),
    ("distortion --cap-deg nan", 2, "ConfigError: non-finite value for cap_deg: nan"),
    ("chebyshev --cap-deg 10 --tolerance nan", 2,
     "ConfigError: non-finite value for tolerance: nan"),
    ("graticule --lat-step inf", 2, "ConfigError: non-finite value for lat_step_deg: inf"),
    ("project --region {region} --lon-step nan", 2,
     "ConfigError: non-finite value for lon_step_deg: nan"),
    ("darboux --source 0,0,1,0,0,nan --target-sides 1,1,1", 2,
     "ConfigError: non-finite value for source: (0.0, 0.0, 1.0, 0.0, 0.0, nan)"),
    (f"darboux --source {SOURCE} --target 0,0,1,0,0,1e400", 2,
     "ConfigError: non-finite value for target: (0.0, 0.0, 1.0, 0.0, 0.0, inf)"),
    (f"darboux --source {SOURCE} --target-sides nan,1,1", 2,
     "ConfigError: non-finite value for target_sides: (nan, 1.0, 1.0)"),
    # each range and combination check
    ("graticule --exponent 0", 2, "ConfigError: --exponent 0.0 outside (0, 2]"),
    ("graticule --exponent 2.5", 2, "ConfigError: --exponent 2.5 outside (0, 2]"),
    ("graticule --central-meridian 181", 2,
     "ConfigError: --central-meridian outside [-180, 180]"),
    ("graticule --eccentricity 1", 2, "ConfigError: --eccentricity 1.0 outside [0, 1)"),
    ("chebyshev --cap-deg 10 --eccentricity 0.1", 2,
     "ConfigError: chebyshev solves with the sphere's metric: --eccentricity must be 0"),
    ("graticule --inversion-pole 1,0", 2,
     "ConfigError: --inversion-pole and --inversion-power go together"),
    ("graticule --inversion-power 2", 2,
     "ConfigError: --inversion-pole and --inversion-power go together"),
    ("graticule --inversion-pole 1,0 --inversion-power 0", 2,
     "ConfigError: --inversion-power must be non-zero"),
    ("graticule --centered-on 10,10 --exponent 0.5", 2,
     "ConfigError: --centered-on implies exponent 1 and no inversion flags"),
    ("graticule --centered-on 10,10 --inversion-pole 1,0 --inversion-power 1", 2,
     "ConfigError: --centered-on implies exponent 1 and no inversion flags"),
    ("graticule --centered-on=-91,0", 2,
     "ConfigError: --centered-on latitude -91.0 outside [-90, 90]"),
    ("distortion --cap-deg 10 --delta-deg 0", 2, "ConfigError: --delta-deg must be positive"),
    ("distortion --cap-deg 10 --delta-deg 5e-324", 2,
     "ConfigError: --delta-deg must be positive"),
    ("distortion --cap-deg 90", 2, "ConfigError: --cap-deg 90.0 outside (0, 90)"),
    ("chebyshev --cap-deg -5", 2, "ConfigError: --cap-deg -5.0 outside (0, 90)"),
    ("chebyshev --cap-deg 10 --tolerance 0", 2, "ConfigError: --tolerance must be positive"),
    ("graticule --lat-step 0", 2, "ConfigError: --lat-step outside (0, 90)"),
    ("graticule --lat-step 90", 2, "ConfigError: --lat-step outside (0, 90)"),
    ("graticule --lon-step 181", 2, "ConfigError: --lon-step outside (0, 180]"),
    ("graticule --lon-step -1", 2, "ConfigError: --lon-step outside (0, 180]"),
    ("graticule --samples 7", 2, "ConfigError: --samples must be at least 8"),
    # checks made by the subcommands, and paths
    ("project --region {region}", 2, "ConfigError: project needs --out and/or --svg"),
    ("distortion", 2, "ConfigError: need --region or --cap-deg"),
    ("chebyshev --delta-deg 2", 2, "ConfigError: need --region or --cap-deg"),
    (f"darboux --source {SOURCE}", 2, "ConfigError: darboux needs --target or --target-sides"),
    (f"darboux --source {SOURCE} --target-sides 1,0,2", 2,
     "ConfigError: --target-sides must be positive"),
    ("darboux --source 0,0,1,0,2,0", 6,
     "DegenerateTriangle: triangle area below 1e-12 of its longest side squared"),
    # a needle triangle with |BC| = 7.8e-15 and longest side 121: its area, 1.4e-12,
    # is 9.4e-17 of the longest side squared
    ("darboux --source 84.71574665855255,-86.07081451038472,-6.081570723336719e-09,"
     "-6.194360155731415e-09,-6.081573245945656e-09,-6.1943675501819736e-09 --target-sides 1,1,1",
     6, "DegenerateTriangle: triangle area below 1e-12 of its longest side squared"),
    # the well-shaped SOURCE scaled by 1e-300, whose area underflows to 0: refused
    # for its size, as at 1e-141, and not as degenerate
    ("darboux --source 0,0,2e-300,3e-301,7e-301,1.8e-300 --target-sides 1,1,1", 4,
     "NonFiniteValue: triangle sides below 1e-140: products of two distances underflow"),
    ("distortion --region {tmp}/missing.geojson", 2,
     "ConfigError: cannot read {tmp}/missing.geojson: No such file or directory"),
    ("project --region {tmp}/missing.geojson --out {tmp}/out.geojson", 2,
     "ConfigError: cannot read {tmp}/missing.geojson: No such file or directory"),
    ("graticule --svg {tmp}", 2, "ConfigError: cannot write {tmp}: Is a directory"),
    # two bad flags: the order of the checks decides which one is reported
    ("graticule --exponent 3 --central-meridian 200", 2,
     "ConfigError: --exponent 3.0 outside (0, 2]"),
    ("graticule --central-meridian 200 --eccentricity 2", 2,
     "ConfigError: --central-meridian outside [-180, 180]"),
    ("graticule --exponent nan --central-meridian inf", 2,
     "ConfigError: non-finite value for exponent: nan"),
    ("graticule --lat-step nan --exponent 5", 2,
     "ConfigError: non-finite value for lat_step_deg: nan"),
    ("graticule --centered-on x --exponent nan", 2,
     "ConfigError: --centered-on expects comma-separated numbers"),
    ("graticule --inversion-pole 1 --centered-on x", 2,
     "ConfigError: --inversion-pole expects 2 numbers, got 1"),
    ("darboux --source 1,2 --target x", 2, "ConfigError: --source expects 6 numbers, got 2"),
    (f"darboux --source {SOURCE} --target 1 --target-sides x", 2,
     "ConfigError: --target expects 6 numbers, got 1"),
    ("chebyshev --cap-deg 100 --delta-deg 0", 2, "ConfigError: --delta-deg must be positive"),
    ("chebyshev --cap-deg 100 --tolerance -1", 2,
     "ConfigError: --cap-deg 100.0 outside (0, 90)"),
    ("graticule --lat-step 0 --lon-step 0", 2, "ConfigError: --lat-step outside (0, 90)"),
    ("graticule --lon-step 0 --samples 2", 2, "ConfigError: --lon-step outside (0, 180]"),
    ("graticule --eccentricity 1.5 --inversion-pole 1,0", 2,
     "ConfigError: --eccentricity 1.5 outside [0, 1)"),
    ("chebyshev --cap-deg 10 --eccentricity 0.5 --inversion-power 1", 2,
     "ConfigError: chebyshev solves with the sphere's metric: --eccentricity must be 0"),
    ("graticule --centered-on 95,0 --exponent 0.5", 2,
     "ConfigError: --centered-on implies exponent 1 and no inversion flags"),
    ("distortion --centered-on 95,0 --cap-deg 100", 2,
     "ConfigError: --centered-on latitude 95.0 outside [-90, 90]"),
    ("graticule --inversion-power 0 --inversion-pole 1e200,0", 2,
     "ConfigError: --inversion-power must be non-zero"),
    ("project --region {tmp}/missing.geojson --exponent 3", 2,
     "ConfigError: --exponent 3.0 outside (0, 2]"),
    ("project --region {tmp}/missing.geojson", 2,
     "ConfigError: project needs --out and/or --svg"),
    ("darboux --source 0,0,1,0,2,0 --target-sides=-1,1,1", 6,
     "DegenerateTriangle: triangle area below 1e-12 of its longest side squared"),
    # flags that the run would ignore are refused before any work
    ("graticule --centered-on 20,5 --eccentricity 0.08 --central-meridian 40", 2,
     "ConfigError: --centered-on implies eccentricity 0 and central meridian 0"),
    ("distortion --cap-deg 10 --centered-on 80,0 --central-meridian 40", 2,
     "ConfigError: --centered-on implies eccentricity 0 and central meridian 0"),
    ("distortion --cap-deg 10 --region {tmp}/missing.geojson", 2,
     "ConfigError: give --cap-deg or --region, not both"),
    ("chebyshev --cap-deg 10 --region {region} --out {tmp}/field.geojson", 2,
     "ConfigError: give --cap-deg or --region, not both"),
    (f"darboux --source {SOURCE} --target {SOURCE} --target-sides 1,1,1", 2,
     "ConfigError: give --target or --target-sides, not both"),
    # graticules too large to build are refused before anything is allocated
    ("graticule --lon-step 1e-300", 2,
     "ConfigError: graticule step 1.74533e-302 rad gives over 2097152 samples"),
    ("graticule --samples 100000000000", 2,
     "ConfigError: graticule of 35 curves x 100000000000 samples is over the limit of"
     " 2097152 samples"),
    # and so are cap sample layouts
    ("distortion --cap-deg 10 --delta-deg 1e-300", 2,
     "ConfigError: cap sample step 1.74533e-302 rad gives over 2097152 samples"),
    ("distortion --cap-deg 10 --delta-deg 1e-5", 2,
     "ConfigError: cap sample step 1.74533e-07 rad gives over 2097152 samples"),
    ("distortion --cap-deg 89 --delta-deg 0.09", 2,
     "ConfigError: cap of 989 rings and 2502599 samples is over the limit of 2097152 samples"),
    # and so are chart grids, caps and regions alike
    ("chebyshev --cap-deg 10 --delta-deg 1e-12", 2,
     "ConfigError: mesh step 1.74533e-14 rad gives over 1048576 grid nodes"),
    ("chebyshev --cap-deg 10 --delta-deg 1e-300", 2,
     "ConfigError: mesh step 1.74533e-302 rad gives over 1048576 grid nodes"),
    ("chebyshev --cap-deg 10 --delta-deg 0.01", 2,
     "ConfigError: chart grid of 2009 x 2009 nodes is over the limit of 1048576 nodes"),
    ("chebyshev --region {region} --delta-deg 1e-12 --centered-on=-90,0", 2,
     "ConfigError: mesh step 1.74533e-14 rad gives over 1048576 grid nodes"),
    ("chebyshev --region {region} --delta-deg 0.01 --out {tmp}/field.geojson", 2,
     "ConfigError: chart grid of 1205 x 1081 nodes is over the limit of 1048576 nodes"),
    # every image is (1e150, 0): each curve's points coincide, which the
    # centroid's rounding does not hide
    ("graticule --inversion-pole 1e150,0 --inversion-power 1e-300", 6,
     "InsufficientPoints: all points coincide"),
]


@pytest.mark.parametrize("argv, expected, line", GOLDEN_ERRORS)
def test_golden_error_transcript(tmp_path, capsys, argv, expected, line):
    region = tmp_path / "region.geojson"
    region.write_text(json.dumps({"type": "Polygon", "coordinates": [GOOD_RING]}))
    names = {"tmp": tmp_path, "region": region}
    assert run_cli(*argv.format(**names).split(" ")) == expected
    assert capsys.readouterr().err == f"carta: {line.format(**names)}\n"


# -- the cyclic garbage collector ------------------------------------------------


def _write_lines(path, positions):
    """A FeatureCollection of LineStrings of 100 positions, away from the poles."""
    k = np.arange(positions)
    coords = np.column_stack([k * 0.37 % 360 - 180, k * 0.11 % 140 - 70]).tolist()
    features = [
        {"type": "Feature", "properties": {"n": i},
         "geometry": {"type": "LineString", "coordinates": coords[i:i + 100]}}
        for i in range(0, positions, 100)
    ]
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return str(path)


def _project(tmp_path, region):
    return run_cli("project", "--region", region, "--out", str(tmp_path / "out.geojson"),
                   "--svg", str(tmp_path / "out.svg"))


@pytest.fixture
def collector():
    """Gives the collector's setting back after a test that changes it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_project_runs_no_collection(tmp_path, capsys, collector):
    region = _write_lines(tmp_path / "lines.geojson", 20_000)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(count)
    try:
        code = _project(tmp_path, region)
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    assert starts == []


def _stub_no_convergence(mesh):
    raise errors.NoConvergence("stub")


def _raise_runtime_error(args, outputs):
    raise RuntimeError("stub")


# one command line per way out of main: its exit code, or the exception it raises
COLLECTOR_EXITS = [
    ("graticule --lat-step 30 --lon-step 45", 0),
    next((argv, code) for argv, code, _ in GOLDEN_ERRORS if code == 2),
    ("project --region {tmp}/bad.geojson --out {tmp}/out.geojson", 3),
    ("distortion --cap-deg 10 --inversion-pole 0,0 --inversion-power 1", 4),
    ("chebyshev --cap-deg 30 --delta-deg 0.5", 5),  # solve_log_scale stubbed
    next((argv, code) for argv, code, _ in GOLDEN_ERRORS if code == 6),
    ("graticule --no-such-flag", SystemExit),
    (f"darboux --source {SOURCE} --target-sides 1,1,1", RuntimeError),  # stubbed runner
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, outcome", COLLECTOR_EXITS)
def test_main_gives_the_collector_setting_back(
    tmp_path, capsys, monkeypatch, collector, enabled, argv, outcome
):
    region = tmp_path / "region.geojson"
    region.write_text(json.dumps({"type": "Polygon", "coordinates": [GOOD_RING]}))
    (tmp_path / "bad.geojson").write_text("{ not json")
    monkeypatch.setattr(cli, "solve_log_scale", _stub_no_convergence)
    if outcome is RuntimeError:
        monkeypatch.setitem(cli._RUNNERS, "darboux", _raise_runtime_error)
    args = argv.format(tmp=tmp_path, region=region).split(" ")
    (gc.enable if enabled else gc.disable)()
    if isinstance(outcome, int):
        assert run_cli(*args) == outcome
    else:
        with pytest.raises(outcome):
            run_cli(*args)
    assert gc.isenabled() is enabled


def test_project_leaves_no_garbage_that_grows_with_the_input(tmp_path, capsys, collector):
    # the pause is safe only while a run builds no reference cycles: what a
    # collection after the run finds must not depend on the document's size
    gc.disable()
    # a first run does the lazy imports and fills the caches
    assert _project(tmp_path, _write_lines(tmp_path / "warm-up.geojson", 100)) == 0
    found = []
    for positions in (5_000, 20_000):
        region = _write_lines(tmp_path / f"lines-{positions}.geojson", positions)
        gc.collect()
        assert _project(tmp_path, region) == 0
        found.append(gc.collect())
    assert found[0] == found[1]


@pytest.mark.parametrize(
    "argv",
    [
        "graticule --out {tmp}/g.geojson",
        f"darboux --source {SOURCE} --target-sides 1,1,1 --out {{tmp}}/d.geojson",
    ],
    ids=["graticule", "darboux"],
)
def test_out_refused_where_nothing_is_written(tmp_path, capsys, argv):
    # argparse refuses the flag: these subcommands write no GeoJSON
    with pytest.raises(SystemExit) as raised:
        run_cli(*argv.format(tmp=tmp_path).split(" "))
    assert raised.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--region", "--out", "--svg", "--report"])
def test_unusable_paths_exit_2(band_geojson, tmp_path, capsys, flag):
    out = tmp_path / "out.geojson"
    paths = {"--region": band_geojson, "--out": str(out)}
    paths[flag] = str(tmp_path)  # a directory can be neither read nor written as a file
    argv = ["project", "--lat-step", "30", "--lon-step", "45", "--samples", "8"]
    for name, path in paths.items():
        argv += [name, path]
    assert run_cli(*argv) == 2
    assert "ConfigError" in capsys.readouterr().err
    if flag != "--out":
        # no partial outputs: --out is not created, and an existing one keeps its bytes
        assert not out.exists()
        out.write_bytes(b"earlier run")
        assert run_cli(*argv) == 2
        assert out.read_bytes() == b"earlier run"


def test_failed_write_removes_temporary_files(band_geojson, tmp_path, capsys):
    # --out and --svg are staged before --report fails to open
    code = run_cli(
        "project", "--region", band_geojson, "--lat-step", "30", "--lon-step", "45",
        "--out", str(tmp_path / "out.geojson"), "--svg", str(tmp_path / "map.svg"),
        "--report", str(tmp_path / "missing" / "report.txt"),
    )
    assert code == 2
    assert "cannot write" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.geojson"]


def test_interrupted_write_removes_temporary_files(band_geojson, tmp_path, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_cli(
            "project", "--region", band_geojson, "--lat-step", "30", "--lon-step", "45",
            "--out", str(tmp_path / "out.geojson"), "--svg", str(tmp_path / "map.svg"),
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.geojson"]


def test_outputs_through_symlinks_and_devices(band_geojson, tmp_path, capsys):
    real = tmp_path / "real.geojson"
    real.write_bytes(b"earlier run")
    real.chmod(0o640)
    link = tmp_path / "link.geojson"
    link.symlink_to(real)
    code = run_cli(
        "project", "--region", band_geojson, "--lat-step", "30", "--lon-step", "45",
        "--out", str(link), "--svg", os.devnull,
    )
    assert code == 0
    # the write went through the link, and the device is still a device
    assert link.is_symlink() and json.loads(real.read_text())["type"] == "FeatureCollection"
    assert real.stat().st_mode & 0o777 == 0o640
    assert Path(os.devnull).is_char_device()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.geojson", "link.geojson", "real.geojson"]


def test_two_spellings_of_one_output_path(band_geojson, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = run_cli(
        "project", "--region", band_geojson, "--lat-step", "30", "--lon-step", "45",
        "--svg", str(out), "--report", str(tmp_path / "." / "out.txt"),
    )
    assert code == 0
    assert out.read_text().startswith("project report")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.geojson", "out.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("flag", ["--out", "--svg", "--report"])
@pytest.mark.parametrize("sink, expected", [("file", 2), ("pipe", 2), ("devnull", 0)])
def test_output_naming_standard_output(band_geojson, tmp_path, flag, sink, expected):
    # the report goes to standard output: an output naming its file or pipe
    # is refused before anything is written; a device such as /dev/null is not
    root = Path(__file__).resolve().parent.parent
    paths = {"--out": tmp_path / "out.geojson", "--svg": tmp_path / "map.svg", flag: "/dev/stdout"}
    argv = [sys.executable, "-m", "carta.cli", "project", "--region", band_geojson,
            "--lat-step", "30", "--lon-step", "45"]
    for name, path in paths.items():
        argv += [name, str(path)]
    stdout_path = tmp_path / "stdout.txt"
    with open(stdout_path, "wb") as handle:
        sinks = {"file": handle, "pipe": subprocess.PIPE, "devnull": subprocess.DEVNULL}
        result = subprocess.run(argv, stdout=sinks[sink], stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert result.returncode == expected, result.stderr
    if expected == 2:
        message = b"carta: ConfigError: cannot write /dev/stdout: it is the standard output"
        assert message in result.stderr
        assert stdout_path.read_bytes() == b"" and not result.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["band.geojson", "stdout.txt"]


# JSON values of every kind, GeoJSON-shaped documents built from them, and
# documents with one defect where every subcommand reads
NAN, INF = float("nan"), float("inf")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.just(10**400),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "coordinates", "x"]), inner, max_size=2),
    max_leaves=8,
)
positions = st.one_of(
    st.lists(st.floats(-180, 180) | st.integers(-90, 90), min_size=2, max_size=3),
    st.lists(json_values, max_size=3),
    json_values,
)
_DEPTHS = {"Point": 0, "MultiPoint": 1, "LineString": 1, "MultiLineString": 2,
           "Polygon": 2, "MultiPolygon": 3}


def _nested(depth):
    if depth == 0:
        return positions
    return st.lists(_nested(depth - 1), max_size=5) | json_values


geometries = st.sampled_from(sorted(_DEPTHS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"type": st.just(kind), "coordinates": _nested(_DEPTHS[kind])}
    )
)
features = st.fixed_dictionaries(
    {"type": st.just("Feature"), "geometry": st.none() | geometries | json_values,
     "properties": st.none() | json_values}
)
documents = st.one_of(
    geometries,
    features,
    st.fixed_dictionaries(
        {"type": st.just("FeatureCollection"),
         "features": st.lists(features | json_values, max_size=3) | json_values}
    ),
    st.fixed_dictionaries(
        {"type": st.just("GeometryCollection"),
         "geometries": st.lists(geometries | json_values, max_size=3) | json_values}
    ),
    json_values,
)

GOOD_RING = [[-5, 40], [9, 40], [9, 52], [-5, 52], [-5, 40]]
bad_positions = st.one_of(
    st.lists(st.floats(-10, 10), max_size=1),
    st.tuples(st.floats(-10, 10), st.floats(min_value=90, exclude_min=True)).map(list),
    st.tuples(st.floats(-10, 10), st.floats(max_value=-90, exclude_max=True)).map(list),
    st.tuples(st.sampled_from([NAN, INF, -INF, 10**400, True, "1", None, [1]]),
              st.just(45)).map(list),
    st.tuples(st.just(0), st.sampled_from([NAN, 10**400, False, "1", {}])).map(list),
    st.sampled_from([5, "x", None, {}, True, 1.5]),
)


@st.composite
def malformed_documents(draw):
    kind = draw(st.sampled_from(["position", "coordinates", "features", "geometries", "top"]))
    if kind == "position":
        ring = list(GOOD_RING)
        ring[draw(st.integers(0, len(ring) - 1))] = draw(bad_positions)
        geometry = {"type": "Polygon", "coordinates": [ring]}
    elif kind == "coordinates":
        geometry = {"type": draw(st.sampled_from(["Polygon", "MultiPolygon", "LineString"])),
                    "coordinates": draw(st.sampled_from([5, "x", {}, True, [5], [[5]]]))}
    elif kind == "features":
        return {"type": "FeatureCollection",
                "features": draw(st.sampled_from([5, "x", {}, None, [5], ["x"]]))}
    elif kind == "geometries":
        return {"type": "GeometryCollection",
                "geometries": draw(st.sampled_from([5, "x", {}, [5], [{"type": "Nope"}]]))}
    else:
        return draw(st.sampled_from([[], 5, "x", None, {}, {"type": "Nope"}, {"type": []}]))
    wrap = draw(st.sampled_from(["geometry", "feature", "collection"]))
    if wrap == "geometry":
        return geometry
    feature = {"type": "Feature", "properties": {}, "geometry": geometry}
    return feature if wrap == "feature" else {"type": "FeatureCollection", "features": [feature]}


REGION_ARGS = {
    "project": ["--lat-step", "45", "--lon-step", "90", "--samples", "8"],
    "chebyshev": ["--delta-deg", "5", "--centered-on=-90,0"],
    "distortion": ["--delta-deg", "5"],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run_region(fuzz_dir, command, document):
    region = fuzz_dir / "region.geojson"
    region.write_text(json.dumps(document))
    argv = [command, "--region", str(region), *REGION_ARGS[command]]
    if command == "project":
        argv += ["--out", str(fuzz_dir / "out.geojson")]
    return run_cli(*argv)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(REGION_ARGS)), document=documents)
def test_any_region_document_exits_with_a_category(fuzz_dir, command, document):
    assert _run_region(fuzz_dir, command, document) in ALLOWED_EXITS


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(REGION_ARGS)), document=malformed_documents())
def test_malformed_geojson_exits_3(fuzz_dir, command, document):
    assert _run_region(fuzz_dir, command, document) == 3


# numeric flag values: any float, or, for the flags that size the work, a
# value that is either invalid or at least the floor (so no test meshes finely)
any_number = st.floats() | st.floats(-2, 2) | st.sampled_from([1e300, -1e300, 1e-300, 5e-324])


def _sized(floor):
    return st.floats(min_value=floor, max_value=1e300) | st.floats(max_value=0) | st.sampled_from(
        [NAN, INF, -INF]
    )


def _numbers(count):
    return st.lists(any_number, min_size=count, max_size=count).map(
        lambda values: ",".join(repr(v) for v in values)
    )


PROJECTION_FLAGS = {
    "--exponent": any_number,
    "--central-meridian": any_number,
    "--inversion-pole": _numbers(2),
    "--inversion-power": any_number,
    "--centered-on": _numbers(2),
    "--eccentricity": any_number,
}
GRATICULE_FLAGS = {
    "--lat-step": _sized(5.0),
    "--lon-step": _sized(5.0),
    "--samples": st.integers(-2, 32),
}
MESH_FLAGS = {"--cap-deg": any_number, "--delta-deg": _sized(1.0)}
FLAGS = {
    "project": {**PROJECTION_FLAGS, **GRATICULE_FLAGS},
    "graticule": {**PROJECTION_FLAGS, **GRATICULE_FLAGS},
    "distortion": {**PROJECTION_FLAGS, **MESH_FLAGS},
    "chebyshev": {**PROJECTION_FLAGS, **MESH_FLAGS, "--tolerance": any_number},
    "darboux": {"--source": _numbers(6), "--target": _numbers(6), "--target-sides": _numbers(3)},
}


@st.composite
def flag_sets(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = []
    for flag, values in FLAGS[command].items():
        if draw(st.sampled_from([False, False, True])):
            flags.append(f"{flag}={draw(values)}")
    return command, flags


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flag_set=flag_sets())
def test_any_flag_values_exit_with_a_category(fuzz_dir, flag_set):
    command, flags = flag_set
    argv = [command, *flags]
    if command in ("project", "distortion", "chebyshev"):
        region = fuzz_dir / "small.geojson"
        region.write_text(json.dumps({"type": "Polygon", "coordinates": [GOOD_RING]}))
        argv += ["--region", str(region)]
    if command == "project":
        argv += ["--out", str(fuzz_dir / "flags.geojson"), "--svg", str(fuzz_dir / "flags.svg")]
    if command == "darboux" and not any(f.startswith("--source=") for f in flags):
        argv += ["--source", "0,0,2,0.3,0.7,1.8"]
    assert run_cli(*argv) in ALLOWED_EXITS
