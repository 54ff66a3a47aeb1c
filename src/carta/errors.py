"""Exception types shared across the toolkit.

Every error derives from exactly one of five categories, and the
category's ``exit_code`` is the command line's exit code for it.
"""


class CartaError(Exception):
    """Base class for all errors raised by this package."""


# -- ConfigError: invalid run parameters (exit 2) -------------------------------

class ConfigError(CartaError, ValueError):
    """Invalid or non-finite flag value, or an unreadable or unwritable path."""

    exit_code = 2


# -- InputError: malformed input data (exit 3) ----------------------------------

class InputError(CartaError, ValueError):
    """Malformed input data."""

    exit_code = 3


class GeoJsonError(InputError):
    """Structurally invalid GeoJSON input."""


# -- DomainError: evaluation outside a map's domain (exit 4) ----------------------

class DomainError(CartaError):
    """Evaluation outside the domain of a map or formula."""

    exit_code = 4


class NonFiniteValue(DomainError, ValueError):
    """A computed value overflowed or is not a number."""


class PoleSingularity(DomainError):
    """A point coincides with the pole of an inversion."""


class PointAtInfinity(DomainError):
    """A Mobius transform was evaluated at (or too close to) its pole."""


class ProjectionPole(DomainError):
    """Stereographic projection evaluated at its center (the North pole)."""


class OriginSingularity(DomainError):
    """Power map z -> z^c evaluated at the origin with c != 1."""


class BranchOverflow(DomainError):
    """Recentred longitude leaves the single-branch window of the power map."""


class DomainEdge(DomainError):
    """Finite-difference probe left the projection domain."""


class EmptyRegion(DomainError):
    """An operation over a region received no sample points."""


# -- SolverError: a numerical solve failed (exit 5) -------------------------------

class SolverError(CartaError):
    """A numerical solve failed."""

    exit_code = 5


class NoConvergence(SolverError):
    """Field solve failed to reach the residual tolerance."""


# -- DegenerateInput: degenerate geometry (exit 6) --------------------------------

class DegenerateInput(CartaError):
    """Degenerate geometry: coincident, collinear or too small."""

    exit_code = 6


class DegenerateTransform(DegenerateInput):
    """Mobius coefficients with a vanishing determinant."""


class InsufficientPoints(DegenerateInput):
    """Too few (or coincident) points for a circle fit."""


class DegenerateBoundary(DegenerateInput):
    """Region boundary with fewer than three distinct vertices."""


class SelfIntersectingBoundary(DegenerateInput):
    """Region boundary polyline crosses itself."""


class RegionTooSmall(DegenerateInput):
    """Mesh spacing too coarse for the region (fewer than 9 interior nodes)."""


class PoleOnVertex(DegenerateInput):
    """Inversion pole coincides with a triangle vertex."""


class DegenerateTriangle(DegenerateInput):
    """Collinear or zero-area triangle."""
