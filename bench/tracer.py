"""Spans and per-call aggregates recorded around carta's public functions.

The wrappers are installed from outside the package, in the child process
and before ``main`` runs; nothing under ``src/`` knows about them.  A
function is patched in every carta module namespace that binds it, since
that is where callers look it up.  Functions called once per point are
aggregated (count, total time, time in children, exceptions) under their
enclosing span instead of producing one span each.  Everything stays in
memory until ``records`` is read at the end of the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple, list] = {}  # (span id, name) -> [calls, s, child_s, errors]
        # open frames: [enclosing span id, name, time spent in children]
        self._stack: list[list] = []

    def _close(self, elapsed: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += elapsed

    def span(self, name, fn, measure=None, outermost=False):
        """Record one span per call; ``measure(args, result)`` adds attributes.

        With ``outermost``, calls made while a span of the same name is open
        (recursion) run untimed.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and any(f[1] == name for f in self._stack):
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            record = {"id": span_id, "name": name,
                      "parent": self._stack[-1][0] if self._stack else None}
            self.spans.append(record)
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._close(end - start)
                record.update(start=start, end=end, child_s=frame[2])
            if measure is not None:
                record["attrs"] = measure(args, result)
            return result

        return wrapper

    def aggregate(self, name, fn):
        """Count and time every call under the enclosing span."""
        stack, aggregates = self._stack, self.aggregates

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [parent, name, 0.0]
            stack.append(frame)
            failed = 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                elapsed = _clock() - start
                self._close(elapsed)
                entry = aggregates.get((parent, name))
                if entry is None:
                    entry = aggregates[(parent, name)] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[2]
                entry[3] += failed

        return wrapper

    def records(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                {"parent": parent, "name": name, "calls": calls, "s": total,
                 "child_s": child, "errors": errors}
                for (parent, name), (calls, total, child, errors) in self.aggregates.items()
            ],
        }


def _rebind(original, wrapper) -> None:
    """Replace ``original`` wherever a carta module binds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "carta" or module_name.startswith("carta."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of geojson_io, lagrange, geometry,
    distortion, chebyshev, svg_render and cli."""
    import scipy.sparse.linalg

    from carta import chebyshev, cli, distortion, geojson_io, geometry, lagrange, svg_render

    def size_of(key):
        return lambda args, result: {key: len(result)}

    spans = [
        (geojson_io.load, "geojson_io.load", None, False),
        (geojson_io.map_positions, "geojson_io.map_positions", None, True),
        (geojson_io.dumps, "geojson_io.dumps", size_of("bytes"), False),
        (geojson_io.point_feature_collection, "geojson_io.point_feature_collection", None, False),
        (lagrange.graticule_image, "lagrange.graticule_image", size_of("curves"), False),
        (svg_render.render_svg, "svg_render.render_svg",
         lambda args, result: {"bytes": os.path.getsize(args[0])}, False),
        (chebyshev.build_region_mesh, "chebyshev.build_region_mesh",
         lambda args, result: {"nodes": result.node_count}, False),
        (chebyshev.build_cap_mesh, "chebyshev.build_cap_mesh",
         lambda args, result: {"nodes": result.node_count}, False),
        (chebyshev.solve_log_scale, "chebyshev.solve_log_scale", None, False),
        (distortion.distortion_report, "distortion.distortion_report", None, False),
        (cli._flush_outputs, "cli.flush_outputs", None, False),
        (cli.main, "cli.main", None, False),
    ]
    for fn, name, measure, outermost in spans:
        _rebind(fn, tracer.span(name, fn, measure, outermost))

    for fn, name in [
        (lagrange.project, "lagrange.project"),
        (geometry.circle_fit, "geometry.circle_fit"),
        (distortion.conformality_defect, "distortion.conformality_defect"),
        (distortion.dilatation_analytic, "distortion.dilatation_analytic"),
    ]:
        _rebind(fn, tracer.aggregate(name, fn))

    # looked up on the class and on the scipy module, not in carta namespaces
    chebyshev.RegionMesh.node_points = tracer.span(
        "chebyshev.node_points", chebyshev.RegionMesh.node_points
    )
    scipy.sparse.linalg.spsolve = tracer.span(
        "chebyshev.spsolve", scipy.sparse.linalg.spsolve,
        lambda args, result: {"nnz": int(args[0].nnz)},
    )


# metric -> (unit, statistic, traced names); "self_s" is time minus the
# time of child spans and aggregated child calls
LAYER_METRICS = {
    "lagrange.project_calls": ("count", "calls", ("lagrange.project",)),
    "lagrange.project_s": ("s", "s", ("lagrange.project",)),
    "lagrange.graticule_image_self_s": ("s", "self_s", ("lagrange.graticule_image",)),
    "lagrange.graticule_curves": ("count", "curves", ("lagrange.graticule_image",)),
    "geometry.circle_fit_calls": ("count", "calls", ("geometry.circle_fit",)),
    "geometry.circle_fit_s": ("s", "s", ("geometry.circle_fit",)),
    "geojson_io.load_s": ("s", "s", ("geojson_io.load",)),
    "geojson_io.map_positions_self_s": ("s", "self_s", ("geojson_io.map_positions",)),
    "geojson_io.dumps_s": ("s", "s", ("geojson_io.dumps",)),
    "geojson_io.dumps_bytes": ("bytes", "bytes", ("geojson_io.dumps",)),
    "geojson_io.point_feature_collection_s": (
        "s", "s", ("geojson_io.point_feature_collection",)),
    "svg_render.render_svg_s": ("s", "s", ("svg_render.render_svg",)),
    "svg_render.svg_bytes": ("bytes", "bytes", ("svg_render.render_svg",)),
    "chebyshev.build_region_mesh_s": ("s", "s", ("chebyshev.build_region_mesh",)),
    "chebyshev.build_cap_mesh_s": ("s", "s", ("chebyshev.build_cap_mesh",)),
    "chebyshev.mesh_nodes": (
        "count", "nodes", ("chebyshev.build_region_mesh", "chebyshev.build_cap_mesh")),
    "chebyshev.node_points_calls": ("count", "calls", ("chebyshev.node_points",)),
    "chebyshev.node_points_s": ("s", "s", ("chebyshev.node_points",)),
    "chebyshev.solve_log_scale_self_s": ("s", "self_s", ("chebyshev.solve_log_scale",)),
    "chebyshev.spsolve_s": ("s", "s", ("chebyshev.spsolve",)),
    "chebyshev.spsolve_nnz": ("count", "nnz", ("chebyshev.spsolve",)),
    "distortion.distortion_report_self_s": (
        "s", "self_s", ("distortion.distortion_report",)),
    "distortion.conformality_defect_calls": (
        "count", "calls", ("distortion.conformality_defect",)),
    "distortion.conformality_defect_self_s": (
        "s", "self_s", ("distortion.conformality_defect",)),
    "distortion.dilatation_analytic_calls": (
        "count", "calls", ("distortion.dilatation_analytic",)),
    "distortion.dilatation_analytic_s": ("s", "s", ("distortion.dilatation_analytic",)),
    "distortion.dilatation_analytic_errors": (
        "count", "errors", ("distortion.dilatation_analytic",)),
    "cli.main_self_s": ("s", "self_s", ("cli.main",)),
    "cli.flush_outputs_self_s": ("s", "self_s", ("cli.flush_outputs",)),
}


def layer_metrics(records: dict) -> dict[str, float]:
    """Per-layer values of one traced run.

    An attribute (bytes, curves, nodes, nnz) is summed over the spans not
    nested in another span of the same metric, so a cap mesh built inside
    a region mesh counts once.
    """
    spans = records["spans"]
    names = {span["id"]: span["name"] for span in spans}
    values = {}
    for metric, (_unit, stat, sources) in LAYER_METRICS.items():
        total = 0
        for span in spans:
            if span["name"] not in sources:
                continue
            duration = span["end"] - span["start"]
            if stat == "calls":
                total += 1
            elif stat == "s":
                total += duration
            elif stat == "self_s":
                total += duration - span["child_s"]
            elif names.get(span["parent"]) not in sources:
                total += span.get("attrs", {}).get(stat, 0)
        for agg in records["aggregates"]:
            if agg["name"] in sources:
                total += {"calls": agg["calls"], "s": agg["s"],
                          "self_s": agg["s"] - agg["child_s"],
                          "errors": agg["errors"]}[stat]
        values[metric] = total
    return values
