"""Command line: project GeoJSON, trace graticules, report distortion,
solve the optimal-scale field, and find triangle inversions.

Angles in flags and files are degrees; everything internal is radians.
The exit code is 0 on success (including valid negative answers);
otherwise it is the ``exit_code`` of the error's category, 2 to 6 (see
``carta.errors``, and README for which inputs give which).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import stat
import sys
from collections.abc import Iterable
from itertools import chain

import numpy as np

from . import geojson_io
from .chebyshev import (
    build_cap_mesh,
    build_region_mesh,
    discretization_allowance,
    distortion_ratio,
    projection_ratio,
    solve_log_scale,
)
from .distortion import cap_samples, distortion_report
from .darboux import Triangle, image_triangle_sides, inversions_for_sides
from .errors import CartaError, ConfigError, GeoJsonError, NonFiniteValue
from .geojson_io import format_float as fmt
from .geometry import Inversion, PlanePoint, SpherePoint
from .lagrange import (
    LagrangeProjectionSpec,
    centered_stereographic,
    graticule_image,
    project_array,
    projection_error,
)
from .surfaces import SurfaceOfRevolution
from .svg_render import svg_text

# the comma-list flags and how many numbers each takes
_FLOAT_LISTS = {"inversion_pole": 2, "centered_on": 2, "source": 6, "target": 6, "target_sides": 3}
# positions that project takes per project_array call, to bound its temporaries
_PROJECT_BLOCK = 1 << 13


def _parse_floats(text: str, count: int, flag: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers")
    if len(parts) != count:
        raise ConfigError(f"{flag} expects {count} numbers, got {len(parts)}")
    return parts


def validate(args: argparse.Namespace) -> None:
    """Fail fast on bad flag values; flags a subcommand lacks are skipped."""
    for name, value in vars(args).items():
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"non-finite value for {name}: {value}")
    if "exponent" in args:  # the projection flags: every subcommand but darboux
        if not (0.0 < args.exponent <= 2.0):
            raise ConfigError(f"--exponent {args.exponent} outside (0, 2]")
        if not (-180.0 <= args.central_meridian_deg <= 180.0):
            raise ConfigError("--central-meridian outside [-180, 180]")
        if not (0.0 <= args.eccentricity < 1.0):
            raise ConfigError(f"--eccentricity {args.eccentricity} outside [0, 1)")
        if args.subcommand == "chebyshev" and args.eccentricity != 0.0:
            raise ConfigError("chebyshev solves with the sphere's metric: --eccentricity must be 0")
        if (args.inversion_pole is None) != (args.inversion_power is None):
            raise ConfigError("--inversion-pole and --inversion-power go together")
        if args.inversion_power == 0.0:
            raise ConfigError("--inversion-power must be non-zero")
        if args.inversion_pole is not None and max(map(abs, args.inversion_pole)) > 1e150:
            raise ConfigError("--inversion-pole beyond 1e150: squared distances would overflow")
        if args.centered_on is not None and (
            args.inversion_pole is not None or args.exponent != 1.0
        ):
            raise ConfigError("--centered-on implies exponent 1 and no inversion flags")
        if args.centered_on is not None and not (-90.0 <= args.centered_on[0] <= 90.0):
            raise ConfigError(f"--centered-on latitude {args.centered_on[0]} outside [-90, 90]")
    # angles are checked after conversion, as the library receives them
    if "delta_deg" in args:  # distortion and chebyshev
        if not math.radians(args.delta_deg) > 0.0:
            raise ConfigError("--delta-deg must be positive")
        if args.cap_deg is not None and not (0.0 < math.radians(args.cap_deg) < math.pi / 2):
            raise ConfigError(f"--cap-deg {args.cap_deg} outside (0, 90)")
    if getattr(args, "tolerance", None) is not None and args.tolerance <= 0:
        raise ConfigError("--tolerance must be positive")
    if "lat_step_deg" in args:  # project and graticule
        # graticule_image keeps its parallels 1e-9 radians off the poles
        if not (0.0 < math.radians(args.lat_step_deg) <= math.pi / 2 - 1e-9):
            raise ConfigError("--lat-step outside (0, 90)")
        if not (0.0 < math.radians(args.lon_step_deg) <= math.pi):
            raise ConfigError("--lon-step outside (0, 180]")
        if args.samples < 8:
            raise ConfigError("--samples must be at least 8")
    # flags that the run would otherwise ignore
    if getattr(args, "centered_on", None) is not None and (
        args.eccentricity != 0.0 or args.central_meridian_deg != 0.0
    ):
        raise ConfigError("--centered-on implies eccentricity 0 and central meridian 0")
    if getattr(args, "cap_deg", None) is not None and args.region_path is not None:
        raise ConfigError("give --cap-deg or --region, not both")
    if getattr(args, "target", None) is not None and args.target_sides is not None:
        raise ConfigError("give --target or --target-sides, not both")


def projection_spec(args: argparse.Namespace) -> LagrangeProjectionSpec:
    if args.centered_on is not None:
        return centered_stereographic(SpherePoint.from_degrees(*args.centered_on))
    post = None
    if args.inversion_pole is not None:
        post = Inversion(PlanePoint(*args.inversion_pole), args.inversion_power)
    return LagrangeProjectionSpec(
        exponent=args.exponent,
        central_meridian=math.radians(args.central_meridian_deg),
        post_transform=post,
        surface=SurfaceOfRevolution(args.eccentricity),
    )


def _region_mesh(args: argparse.Namespace):
    delta = math.radians(args.delta_deg)
    if args.cap_deg is not None:
        return build_cap_mesh(math.radians(args.cap_deg), delta)
    if args.region_path is None:
        raise ConfigError("need --region or --cap-deg")
    return build_region_mesh(*geojson_io.region_polyline(geojson_io.load(args.region_path)), delta)


def _flush_outputs(outputs: dict[str, Iterable[str]]) -> None:
    """All file writing happens here, after every output has been checked.

    Each output is an iterable of text pieces, written in turn: a piece
    may be formatted only as it is written, but every check that can fail
    ran before the runner returned, so no error but a failed write can
    arise here.

    A regular file, or one not there yet, is written to a temporary file
    beside it (beside the file a symlink points to), and the temporary
    files replace their targets once all were written: a failed write
    leaves every such target as it was.  Devices and pipes (``/dev/null``,
    a terminal, ``/dev/fd/N`` naming a pipe) are written directly
    afterwards; standard output's file or pipe, which gets the report, is refused.
    Spellings of one path are written once, with the last content given.
    """
    try:  # the report goes to standard output; a terminal can take both
        stdout = os.fstat(1)
        shared = stat.S_ISREG(stdout.st_mode) or stat.S_ISFIFO(stdout.st_mode)
    except OSError:  # standard output is closed
        shared = False
    staged, direct = {}, {}
    for path, content in outputs.items():
        try:
            st = os.stat(path)
        except FileNotFoundError:
            st = None
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        if st is not None and stat.S_ISDIR(st.st_mode):
            raise ConfigError(f"cannot write {path}: Is a directory")
        if shared and st is not None and os.path.samestat(st, stdout):
            raise ConfigError(f"cannot write {path}: it is the standard output")
        group = direct if st is not None and not stat.S_ISREG(st.st_mode) else staged
        group[os.path.realpath(path)] = (path, content, st)
    written = []
    try:
        for target, (path, content, st) in staged.items():
            temporary = f"{target}.{os.getpid()}.tmp"
            with open(temporary, "x", encoding="utf-8") as handle:
                written.append(temporary)
                handle.writelines(content)
            if st is not None:  # the replaced file's permissions carry over
                os.chmod(temporary, stat.S_IMODE(st.st_mode))
        for temporary, (target, (path, _, _)) in zip(written, staged.items()):
            os.replace(temporary, target)
        for path, content, _ in direct.values():
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(content)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for temporary in written:
            if os.path.exists(temporary):
                os.remove(temporary)


# -- subcommands ---------------------------------------------------------------


def _graticule(
    args: argparse.Namespace, outputs: dict[str, Iterable[str]], spec: LagrangeProjectionSpec,
    *features,
) -> list:
    """The fitted graticule curves; with ``--svg``, the map drawn over them
    and over the ``features`` lines (``svg_text``'s x, y, lines and polylines)."""
    curves = graticule_image(
        spec, math.radians(args.lat_step_deg), math.radians(args.lon_step_deg), args.samples
    )
    if args.svg_path:
        outputs[args.svg_path] = (svg_text(curves, *features),)
    return curves


def _project_columns(spec: LagrangeProjectionSpec, lon_deg: np.ndarray, lat_deg: np.ndarray):
    """Images x, y of the positions (lon_deg[i], lat_deg[i]), projected
    ``_PROJECT_BLOCK`` at a time: the first that fails names the error."""
    x, y = np.empty(len(lon_deg)), np.empty(len(lon_deg))
    for start in range(0, len(lon_deg), _PROJECT_BLOCK):
        block = slice(start, start + _PROJECT_BLOCK)
        lon, lat = lon_deg[block], lat_deg[block]
        w, code = project_array(spec, np.radians(lat), np.radians(lon))
        failed = np.flatnonzero(code)
        if failed.size:
            i = failed[0]
            exc = projection_error(spec, code[i], np.radians(lon[i]), w[i])
            where = f"({fmt(lon[i])}, {fmt(lat[i])})"
            raise type(exc)(f"cannot project {where}: {exc}") from exc
        x[block], y[block] = w.real, w.imag
    return x, y


def run_project(args: argparse.Namespace, outputs: dict[str, Iterable[str]]) -> list[str]:
    """Project every position of ``--region`` (``_project_columns``).  Each
    image is formatted once, into the GeoJSON's text with ``--out`` and, on
    a line with ``--svg``, the SVG's polyline alike
    (``geojson_io.position_texts``), and the document's position arrays are
    emptied once read."""
    spec = projection_spec(args)
    if args.out_path is None and args.svg_path is None:
        raise ConfigError("project needs --out and/or --svg")

    document = geojson_io.load(args.region_path)
    arrays, lon_deg, lat_deg, lines = geojson_io.map_positions(document)
    x, y = _project_columns(spec, lon_deg, lat_deg)
    # dumps finds each array's text by the array's id: neither its positions
    # nor their columns are kept alive while the texts are made
    del lon_deg, lat_deg
    for array, _ in arrays:
        array.clear()
    # only the GeoJSON needs the arrays' texts; the SVG draws the lines alone,
    # and only an SVG needs their polylines
    texts, polylines = geojson_io.position_texts(
        arrays if args.out_path else (), x, y, lines if args.svg_path else ())
    if args.out_path:
        try:
            outputs[args.out_path] = (geojson_io.dumps(document, arrays, texts), "\n")
        except NonFiniteValue as exc:  # the positions are texts: a non-finite number of another member
            raise GeoJsonError(f"{exc} from {args.region_path}") from None
    del document, arrays, texts  # not kept alive while the SVG text is built
    curves = _graticule(args, outputs, spec, x, y, lines, polylines)
    worst = max((c.relative_residual for c in curves), default=0.0)
    return [
        "project report",
        f"exponent: {fmt(args.exponent)}",
        f"central-meridian-deg: {fmt(args.central_meridian_deg)}",
        f"coordinates-projected: {len(x)}",
        f"graticule-curves: {len(curves)}",
        f"worst-relative-residual: {fmt(worst)}",
    ]


def run_graticule(args: argparse.Namespace, outputs: dict[str, Iterable[str]]) -> list[str]:
    curves = _graticule(args, outputs, projection_spec(args))
    lines = [
        "graticule report",
        f"exponent: {fmt(args.exponent)}",
        f"curves: {len(curves)}",
    ]
    for fit in curves:
        if fit.image.kind == "circle":
            shape = (
                f"circle center=({fmt(fit.image.center.x)}, {fmt(fit.image.center.y)})"
                f" radius={fmt(fit.image.radius)}"
            )
        else:
            shape = (
                f"line normal=({fmt(fit.image.normal[0])}, {fmt(fit.image.normal[1])})"
                f" offset={fmt(fit.image.offset)}"
            )
        lines.append(
            f"{fit.curve_id} | {shape} | rms={fmt(fit.rms_residual)}"
            f" diameter={fmt(fit.diameter)} relative={fmt(fit.relative_residual)}"
        )
    return lines


def run_distortion(args: argparse.Namespace, outputs: dict[str, Iterable[str]]) -> list[str]:
    spec = projection_spec(args)
    if args.cap_deg is not None:  # a cap is sampled on rings, without a mesh
        lat, lon = cap_samples(math.radians(args.cap_deg), math.radians(args.delta_deg))
    else:
        lat, lon = _region_mesh(args).node_points()
    report = distortion_report(spec, lat, lon)
    if args.out_path:
        outputs[args.out_path] = chain(geojson_io.point_feature_collection(
            np.degrees(lon), np.degrees(lat),
            {"m": report.m, "conformality_defect": report.conformality_defect},
        ), ("\n",))
    return [
        "distortion report",
        f"exponent: {fmt(args.exponent)}",
        f"samples: {len(report.m)}",
        f"m-min: {fmt(report.m_min)}",
        f"m-max: {fmt(report.m_max)}",
        f"ratio: {fmt(report.ratio)}",
        f"worst-conformality-defect: {fmt(report.conformality_defect.max())}",
    ]


def run_chebyshev(args: argparse.Namespace, outputs: dict[str, Iterable[str]]) -> list[str]:
    mesh = _region_mesh(args)
    u = solve_log_scale(mesh)
    ratio_optimal = distortion_ratio(u)
    allowance = args.tolerance if args.tolerance is not None else discretization_allowance(mesh)
    lines = [
        "chebyshev report",
        f"delta-deg: {fmt(math.degrees(mesh.delta))}",
        f"nodes: {mesh.node_count}",
        f"interior-nodes: {mesh.interior_count}",
        f"u-min: {fmt(float(u.min()))}",
        f"ratio-optimal: {fmt(ratio_optimal)}",
        f"allowance: {fmt(allowance)}",
    ]
    wants_projection = (
        args.centered_on is not None or args.inversion_pole is not None or args.exponent != 1.0
    )
    if wants_projection:
        ratio_projection = projection_ratio(mesh, projection_spec(args))
        gap = ratio_projection - ratio_optimal
        if gap > allowance:
            verdict = "projection-suboptimal"
        elif gap >= -allowance:
            verdict = "optimal-matches-projection"
        else:
            verdict = "optimality-violated"
        lines += [
            f"ratio-projection: {fmt(ratio_projection)}",
            f"gap: {fmt(gap)}",
            f"verdict: {verdict}",
        ]
    if args.out_path:
        lat, lon = mesh.node_points()
        m = np.fromiter(map(math.exp, u.tolist()), float, len(u))  # np.exp may round differently
        outputs[args.out_path] = chain(geojson_io.point_feature_collection(
            np.degrees(lon), np.degrees(lat), {"u": u, "m": m}
        ), ("\n",))
    return lines


def _triangle(xy: tuple[float, ...]) -> Triangle:
    return Triangle(*(PlanePoint(xy[i], xy[i + 1]) for i in (0, 2, 4)))


def run_darboux(args: argparse.Namespace, outputs: dict[str, Iterable[str]]) -> list[str]:
    source = _triangle(args.source)
    if args.target is not None:
        target_sides = _triangle(args.target).sides()
    elif args.target_sides is not None:
        target_sides = args.target_sides
        if min(target_sides) <= 0:
            raise ConfigError("--target-sides must be positive")
    else:
        raise ConfigError("darboux needs --target or --target-sides")
    solutions = inversions_for_sides(source, target_sides)

    lines = ["darboux report", f"solutions: {len(solutions)}"]
    if not solutions:
        lines.append("no inversion exists (the pole loci do not intersect)")
    for inv in solutions:
        achieved = image_triangle_sides(inv, source)
        errs = tuple(abs(x - y) / y for x, y in zip(achieved, target_sides))
        lines.append(
            f"inversion pole=({fmt(inv.pole.x)}, {fmt(inv.pole.y)})"
            f" power={fmt(inv.power)}"
            f" side-errors=({fmt(errs[0])}, {fmt(errs[1])}, {fmt(errs[2])})"
        )
    return lines


# -- argument wiring ------------------------------------------------------------


def _add_projection_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--exponent", type=float, default=1.0)
    sub.add_argument(
        "--central-meridian", type=float, default=0.0, metavar="DEG", dest="central_meridian_deg"
    )
    sub.add_argument("--inversion-pole", metavar="X,Y")
    sub.add_argument("--inversion-power", type=float)
    sub.add_argument("--centered-on", metavar="LAT,LON")
    sub.add_argument("--eccentricity", type=float, default=0.0)


def _add_graticule_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lat-step", type=float, default=15.0, metavar="DEG", dest="lat_step_deg")
    sub.add_argument("--lon-step", type=float, default=15.0, metavar="DEG", dest="lon_step_deg")
    sub.add_argument("--samples", type=int, default=64)


def _add_output_flags(sub: argparse.ArgumentParser, *written: str) -> None:
    """``--report``, and those of ``--out`` and ``--svg`` the subcommand writes."""
    for name in (*written, "report"):
        sub.add_argument(f"--{name}", metavar="PATH", dest=f"{name}_path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carta",
        description="Conformal projections with circular graticules and distortion tools",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("project", help="project GeoJSON and draw the graticule")
    _add_projection_flags(p)
    p.add_argument("--region", required=True, metavar="PATH", dest="region_path")
    _add_graticule_flags(p)
    _add_output_flags(p, "out", "svg")

    p = subs.add_parser("graticule", help="fit circles to all graticule images")
    _add_projection_flags(p)
    _add_graticule_flags(p)
    _add_output_flags(p, "svg")

    p = subs.add_parser("distortion", help="dilatation extrema over a region")
    _add_projection_flags(p)
    p.add_argument("--region", metavar="PATH", dest="region_path")
    p.add_argument("--cap-deg", type=float)
    p.add_argument("--delta-deg", type=float, default=1.0)
    _add_output_flags(p, "out")

    p = subs.add_parser("chebyshev", help="optimal-distortion field of a region")
    _add_projection_flags(p)
    p.add_argument("--region", metavar="PATH", dest="region_path")
    p.add_argument("--cap-deg", type=float)
    p.add_argument("--delta-deg", type=float, default=0.25)
    p.add_argument("--tolerance", type=float)
    _add_output_flags(p, "out")

    p = subs.add_parser("darboux", help="inversion carrying one triangle to another")
    p.add_argument("--source", required=True, metavar="X1,Y1,X2,Y2,X3,Y3")
    p.add_argument("--target", metavar="X1,Y1,X2,Y2,X3,Y3")
    p.add_argument("--target-sides", metavar="A,B,C")
    _add_output_flags(p)

    return parser


_RUNNERS = {
    "project": run_project,
    "graticule": run_graticule,
    "distortion": run_distortion,
    "chebyshev": run_chebyshev,
    "darboux": run_darboux,
}


def main(argv: list[str] | None = None) -> int:
    # the run's data holds no reference cycles, so the cyclic collector
    # would only walk the document's position lists again and again; the
    # caller's setting comes back on every exit
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # every result is checked for finiteness, so numpy's own warnings
        # would only precede the one error line
        with np.errstate(all="ignore"):
            for name, count in _FLOAT_LISTS.items():
                if getattr(args, name, None) is not None:
                    flag = "--" + name.replace("_", "-")
                    setattr(args, name, _parse_floats(getattr(args, name), count, flag))
            validate(args)
            outputs: dict[str, Iterable[str]] = {}
            text = "\n".join(_RUNNERS[args.subcommand](args, outputs)) + "\n"
            if args.report_path:
                outputs[args.report_path] = (text,)
            _flush_outputs(outputs)
        sys.stdout.write(text)
        return 0
    except CartaError as exc:
        print(f"carta: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
