"""Command line: project GeoJSON, trace graticules, report distortion,
solve the optimal-scale field, and find triangle inversions.

Angles in flags and files are degrees; everything internal is radians.
The exit code is 0 on success (including valid negative answers);
otherwise it is fixed by the category of the error (see ``carta.errors``):

* 2 ``ConfigError``: invalid or non-finite flag values, ``chebyshev
  --eccentricity`` other than 0 (the solve has the sphere's metric),
  unreadable or unwritable paths, and an output naming the regular file
  or pipe of standard output, which takes the report;
* 3 ``InputError``: ``GeoJsonError``, input that is not valid GeoJSON;
* 4 ``DomainError``: ``ProjectionPole``, ``PoleSingularity``,
  ``PointAtInfinity``, ``BranchOverflow``, ``OutsideImage``,
  ``OriginSingularity``, ``DomainEdge``, ``PoleDegenerate``,
  ``EmptyRegion``, ``CriticalPoint``, and ``NonFiniteValue`` for results
  beyond the floating-point range;
* 5 ``SolverError``: ``NoConvergence``;
* 6 ``DegenerateInput``: ``DegenerateBoundary``,
  ``SelfIntersectingBoundary``, ``RegionTooSmall``, ``DegeneratePolygon``,
  ``DegenerateTriangle``, ``CoincidentPoints``, ``InfeasibleAngles``,
  ``PoleOnVertex``, ``InsufficientPoints``, ``DegenerateTransform``.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from dataclasses import dataclass, field

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
from .darboux import Triangle, find_inversion, image_triangle_sides, inversions_for_sides
from .errors import (
    CartaError,
    ConfigError,
    DegenerateInput,
    DomainError,
    InputError,
    SolverError,
)
from .geojson_io import format_float as fmt
from .geometry import Inversion, PlanePoint, SpherePoint
from .lagrange import (
    LagrangeProjectionSpec,
    centered_stereographic,
    graticule_image,
    project_array,
    projection_error,
)
from .surfaces import SPHERE, SurfaceOfRevolution
from .svg_render import svg_text

EXIT_CODES = {ConfigError: 2, InputError: 3, DomainError: 4, SolverError: 5, DegenerateInput: 6}


@dataclass
class JobConfig:
    """Validated run parameters; construction fails fast on bad values."""

    subcommand: str
    exponent: float = 1.0
    central_meridian_deg: float = 0.0
    inversion_pole: tuple[float, float] | None = None
    inversion_power: float | None = None
    centered_on: tuple[float, float] | None = None
    eccentricity: float = 0.0
    region_path: str | None = None
    cap_deg: float | None = None
    delta_deg: float | None = None
    lat_step_deg: float = 15.0
    lon_step_deg: float = 15.0
    samples: int = 64
    tolerance: float | None = None
    out_path: str | None = None
    svg_path: str | None = None
    report_path: str | None = None
    svg_timestamp: bool = False
    source: tuple[float, ...] | None = None
    target: tuple[float, ...] | None = None
    target_sides: tuple[float, float, float] | None = None
    projection_requested: bool = False
    outputs: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name, value in vars(self).items():
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"non-finite value for {name}: {value}")
        if not (0.0 < self.exponent <= 2.0):
            raise ConfigError(f"--exponent {self.exponent} outside (0, 2]")
        if not (-180.0 <= self.central_meridian_deg <= 180.0):
            raise ConfigError("--central-meridian outside [-180, 180]")
        if not (0.0 <= self.eccentricity < 1.0):
            raise ConfigError(f"--eccentricity {self.eccentricity} outside [0, 1)")
        if self.subcommand == "chebyshev" and self.eccentricity != 0.0:
            raise ConfigError("chebyshev solves with the sphere's metric: --eccentricity must be 0")
        if (self.inversion_pole is None) != (self.inversion_power is None):
            raise ConfigError("--inversion-pole and --inversion-power go together")
        if self.inversion_power is not None and self.inversion_power == 0.0:
            raise ConfigError("--inversion-power must be non-zero")
        if self.inversion_pole is not None and max(map(abs, self.inversion_pole)) > 1e150:
            raise ConfigError("--inversion-pole beyond 1e150: squared distances would overflow")
        if self.centered_on is not None and (
            self.inversion_pole is not None or self.exponent != 1.0
        ):
            raise ConfigError("--centered-on implies exponent 1 and no inversion flags")
        if self.centered_on is not None and not (-90.0 <= self.centered_on[0] <= 90.0):
            raise ConfigError(f"--centered-on latitude {self.centered_on[0]} outside [-90, 90]")
        # angles are checked after conversion, as the library receives them
        if self.delta_deg is not None and not math.radians(self.delta_deg) > 0.0:
            raise ConfigError("--delta-deg must be positive")
        if self.cap_deg is not None and not (0.0 < math.radians(self.cap_deg) < math.pi / 2):
            raise ConfigError(f"--cap-deg {self.cap_deg} outside (0, 90)")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ConfigError("--tolerance must be positive")
        # graticule_image keeps its parallels 1e-9 radians off the poles
        if not (0.0 < math.radians(self.lat_step_deg) <= math.pi / 2 - 1e-9):
            raise ConfigError("--lat-step outside (0, 90)")
        if not (0.0 < math.radians(self.lon_step_deg) <= math.pi):
            raise ConfigError("--lon-step outside (0, 180]")
        if self.samples < 8:
            raise ConfigError("--samples must be at least 8")

    def spec(self) -> LagrangeProjectionSpec:
        if self.centered_on is not None:
            return centered_stereographic(
                SpherePoint.from_degrees(self.centered_on[0], self.centered_on[1])
            )
        post = None
        if self.inversion_pole is not None:
            post = Inversion(
                PlanePoint(self.inversion_pole[0], self.inversion_pole[1]),
                self.inversion_power,
            )
        surface = SPHERE if self.eccentricity == 0.0 else SurfaceOfRevolution(self.eccentricity)
        return LagrangeProjectionSpec(
            exponent=self.exponent,
            central_meridian=math.radians(self.central_meridian_deg),
            post_transform=post,
            surface=surface,
        )


def _parse_floats(text: str, count: int, flag: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers")
    if len(parts) != count:
        raise ConfigError(f"{flag} expects {count} numbers, got {len(parts)}")
    return parts


def _region_mesh(config: JobConfig):
    delta = math.radians(config.delta_deg if config.delta_deg is not None else 1.0)
    if config.cap_deg is not None:
        return build_cap_mesh(math.radians(config.cap_deg), delta)
    if config.region_path is None:
        raise ConfigError("need --region or --cap-deg")
    boundary = geojson_io.region_polyline(geojson_io.load(config.region_path))
    return build_region_mesh(boundary, delta)


def _write_report(config: JobConfig, lines: list[str]) -> str:
    text = "\n".join(lines) + "\n"
    if config.report_path:
        config.outputs[config.report_path] = text
    return text


def _flush_outputs(config: JobConfig) -> None:
    """All file writing happens here, after every output has been computed.

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
    for path, content in config.outputs.items():
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
                handle.write(content)
            if st is not None:  # the replaced file's permissions carry over
                os.chmod(temporary, stat.S_IMODE(st.st_mode))
        for temporary, (target, (path, _, _)) in zip(written, staged.items()):
            os.replace(temporary, target)
        for path, content, _ in direct.values():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for temporary in written:
            if os.path.exists(temporary):
                os.remove(temporary)


# -- subcommands ---------------------------------------------------------------


def run_project(config: JobConfig) -> str:
    spec = config.spec()
    if config.out_path is None and config.svg_path is None:
        raise ConfigError("project needs --out and/or --svg")

    def mapper(lon_deg: np.ndarray, lat_deg: np.ndarray):
        w, code = project_array(spec, np.radians(lat_deg), np.radians(lon_deg))
        failed = np.flatnonzero(code)
        if failed.size:
            i = failed[0]
            exc = projection_error(spec, code[i], np.radians(lon_deg[i]), w[i])
            where = f"({fmt(lon_deg[i])}, {fmt(lat_deg[i])})"
            raise type(exc)(f"cannot project {where}: {exc}") from exc
        return w.real, w.imag

    projected, count = geojson_io.map_positions(geojson_io.load(config.region_path), mapper)
    if config.out_path:
        config.outputs[config.out_path] = geojson_io.dumps(projected) + "\n"
    feature_lines = geojson_io.polylines(projected) if config.svg_path else ()
    del projected  # not kept alive while the SVG text is built

    curves = graticule_image(
        spec,
        math.radians(config.lat_step_deg),
        math.radians(config.lon_step_deg),
        config.samples,
    )
    if config.svg_path:
        config.outputs[config.svg_path] = svg_text(
            curves, feature_lines, timestamp=config.svg_timestamp
        )

    lines = [
        "project report",
        f"exponent: {fmt(config.exponent)}",
        f"central-meridian-deg: {fmt(config.central_meridian_deg)}",
        f"coordinates-projected: {count}",
        f"graticule-curves: {len(curves)}",
    ]
    worst = max((c.relative_residual for c in curves), default=0.0)
    lines.append(f"worst-relative-residual: {fmt(worst)}")
    return _write_report(config, lines)


def run_graticule(config: JobConfig) -> str:
    spec = config.spec()
    curves = graticule_image(
        spec,
        math.radians(config.lat_step_deg),
        math.radians(config.lon_step_deg),
        config.samples,
    )
    if config.svg_path:
        config.outputs[config.svg_path] = svg_text(curves, timestamp=config.svg_timestamp)
    lines = [
        "graticule report",
        f"exponent: {fmt(config.exponent)}",
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
    return _write_report(config, lines)


def run_distortion(config: JobConfig) -> str:
    spec = config.spec()
    if config.cap_deg is not None:  # a cap is sampled on rings, without a mesh
        lat, lon = cap_samples(math.radians(config.cap_deg), math.radians(config.delta_deg))
    else:
        lat, lon = _region_mesh(config).node_points()
    report = distortion_report(spec, lat, lon)
    if config.out_path:
        config.outputs[config.out_path] = geojson_io.point_feature_collection(
            np.degrees(lon), np.degrees(lat),
            {"m": report.m, "conformality_defect": report.conformality_defect},
        ) + "\n"
    lines = [
        "distortion report",
        f"exponent: {fmt(config.exponent)}",
        f"samples: {len(report.m)}",
        f"m-min: {fmt(report.m_min)}",
        f"m-max: {fmt(report.m_max)}",
        f"ratio: {fmt(report.ratio)}",
        f"worst-conformality-defect: {fmt(report.conformality_defect.max())}",
    ]
    return _write_report(config, lines)


def run_chebyshev(config: JobConfig) -> str:
    mesh = _region_mesh(config)
    field = solve_log_scale(mesh)
    ratio_optimal = distortion_ratio(field)
    allowance = (
        config.tolerance if config.tolerance is not None else discretization_allowance(mesh)
    )
    lines = [
        "chebyshev report",
        f"delta-deg: {fmt(math.degrees(mesh.delta))}",
        f"nodes: {mesh.node_count}",
        f"interior-nodes: {mesh.interior_count}",
        f"u-min: {fmt(float(field.values.min()))}",
        f"ratio-optimal: {fmt(ratio_optimal)}",
        f"allowance: {fmt(allowance)}",
    ]
    wants_projection = (
        config.centered_on is not None
        or config.inversion_pole is not None
        or config.exponent != 1.0
        or config.projection_requested
    )
    if wants_projection:
        ratio_projection = projection_ratio(mesh, config.spec())
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
    if config.out_path:
        lat, lon = mesh.node_points()
        u = field.values
        m = np.fromiter(map(math.exp, u.tolist()), float, len(u))  # np.exp may round differently
        config.outputs[config.out_path] = geojson_io.point_feature_collection(
            np.degrees(lon), np.degrees(lat), {"u": u, "m": m}
        ) + "\n"
    return _write_report(config, lines)


def run_darboux(config: JobConfig) -> str:
    sx = config.source
    source = Triangle(
        PlanePoint(sx[0], sx[1]), PlanePoint(sx[2], sx[3]), PlanePoint(sx[4], sx[5])
    )
    if config.target is not None:
        tx = config.target
        target = Triangle(
            PlanePoint(tx[0], tx[1]), PlanePoint(tx[2], tx[3]), PlanePoint(tx[4], tx[5])
        )
        target_sides = target.sides()
        solutions = find_inversion(source, target)
    elif config.target_sides is not None:
        target_sides = config.target_sides
        if min(target_sides) <= 0:
            raise ConfigError("--target-sides must be positive")
        solutions = inversions_for_sides(source, target_sides)
    else:
        raise ConfigError("darboux needs --target or --target-sides")

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
    return _write_report(config, lines)


# -- argument wiring ------------------------------------------------------------


def _add_projection_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--exponent", type=float, default=1.0)
    sub.add_argument("--central-meridian", type=float, default=0.0, metavar="DEG")
    sub.add_argument("--inversion-pole", metavar="X,Y")
    sub.add_argument("--inversion-power", type=float)
    sub.add_argument("--centered-on", metavar="LAT,LON")
    sub.add_argument("--eccentricity", type=float, default=0.0)


def _add_output_flags(sub: argparse.ArgumentParser, svg: bool = True) -> None:
    sub.add_argument("--out", metavar="PATH")
    sub.add_argument("--report", metavar="PATH")
    if svg:
        sub.add_argument("--svg", metavar="PATH")
        sub.add_argument("--svg-timestamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carta",
        description="Conformal projections with circular graticules and distortion tools",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("project", help="project GeoJSON and draw the graticule")
    _add_projection_flags(p)
    p.add_argument("--region", required=True, metavar="PATH")
    p.add_argument("--lat-step", type=float, default=15.0, metavar="DEG")
    p.add_argument("--lon-step", type=float, default=15.0, metavar="DEG")
    p.add_argument("--samples", type=int, default=64)
    _add_output_flags(p)

    p = subs.add_parser("graticule", help="fit circles to all graticule images")
    _add_projection_flags(p)
    p.add_argument("--lat-step", type=float, default=15.0, metavar="DEG")
    p.add_argument("--lon-step", type=float, default=15.0, metavar="DEG")
    p.add_argument("--samples", type=int, default=64)
    _add_output_flags(p)

    p = subs.add_parser("distortion", help="dilatation extrema over a region")
    _add_projection_flags(p)
    p.add_argument("--region", metavar="PATH")
    p.add_argument("--cap-deg", type=float)
    p.add_argument("--delta-deg", type=float, default=1.0)
    _add_output_flags(p, svg=False)

    p = subs.add_parser("chebyshev", help="optimal-distortion field of a region")
    _add_projection_flags(p)
    p.add_argument("--region", metavar="PATH")
    p.add_argument("--cap-deg", type=float)
    p.add_argument("--delta-deg", type=float, default=0.25)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--compare-projection", action="store_true")
    _add_output_flags(p, svg=False)

    p = subs.add_parser("darboux", help="inversion carrying one triangle to another")
    p.add_argument("--source", required=True, metavar="X1,Y1,X2,Y2,X3,Y3")
    p.add_argument("--target", metavar="X1,Y1,X2,Y2,X3,Y3")
    p.add_argument("--target-sides", metavar="A,B,C")
    _add_output_flags(p, svg=False)

    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    config = JobConfig(subcommand=args.subcommand)
    for name in (
        "exponent",
        "eccentricity",
        "delta_deg",
        "cap_deg",
        "tolerance",
        "samples",
        "svg_timestamp",
        "inversion_power",
    ):
        if hasattr(args, name):
            value = getattr(args, name)
            if value is not None:
                setattr(config, name, value)
    if getattr(args, "central_meridian", None) is not None:
        config.central_meridian_deg = args.central_meridian
    if getattr(args, "lat_step", None) is not None:
        config.lat_step_deg = args.lat_step
    if getattr(args, "lon_step", None) is not None:
        config.lon_step_deg = args.lon_step
    if getattr(args, "inversion_pole", None) is not None:
        config.inversion_pole = _parse_floats(args.inversion_pole, 2, "--inversion-pole")
    if getattr(args, "centered_on", None) is not None:
        config.centered_on = _parse_floats(args.centered_on, 2, "--centered-on")
    config.region_path = getattr(args, "region", None)
    config.out_path = getattr(args, "out", None)
    config.svg_path = getattr(args, "svg", None)
    config.report_path = getattr(args, "report", None)
    if getattr(args, "source", None) is not None:
        config.source = _parse_floats(args.source, 6, "--source")
    if getattr(args, "target", None) is not None:
        config.target = _parse_floats(args.target, 6, "--target")
    if getattr(args, "target_sides", None) is not None:
        config.target_sides = _parse_floats(args.target_sides, 3, "--target-sides")
    config.projection_requested = bool(getattr(args, "compare_projection", False))
    return config


_RUNNERS = {
    "project": run_project,
    "graticule": run_graticule,
    "distortion": run_distortion,
    "chebyshev": run_chebyshev,
    "darboux": run_darboux,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every result is checked for finiteness, so numpy's own warnings
        # would only precede the one error line
        with np.errstate(all="ignore"):
            config = _config_from_args(args)
            config.validate()
            text = _RUNNERS[config.subcommand](config)
            _flush_outputs(config)
    except CartaError as exc:
        print(f"carta: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
