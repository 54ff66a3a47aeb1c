"""Conformal map projections with circular graticules, distortion
analysis, an optimal-distortion field solver, and inversive-geometry
tools, plus a GeoJSON/SVG command line."""

from .chebyshev import (
    RegionMesh,
    build_cap_mesh,
    build_region_mesh,
    discretization_allowance,
    distortion_ratio,
    solve_log_scale,
)
from .darboux import Triangle, image_triangle_sides, inversions_for_sides
from .distortion import (
    DistortionReport,
    conformality_defect,
    dilatation_analytic,
    distortion_report,
)
from .geometry import (
    GeneralizedCircle,
    Inversion,
    MobiusTransform,
    PlanePoint,
    SpherePoint,
    circle_fit,
    normalize_longitude,
)
from .lagrange import (
    GraticuleCurveFit,
    LagrangeProjectionSpec,
    centered_stereographic,
    dilatation_array,
    graticule_image,
    project,
    project_array,
)
from .surfaces import (
    SPHERE,
    SurfaceOfRevolution,
    conformal_latitude,
    isometric_coordinate,
)

__version__ = "0.1.0"
