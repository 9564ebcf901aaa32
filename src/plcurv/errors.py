"""Exception types shared across the package."""


class PLCurvError(Exception):
    """Base class for all errors raised by plcurv."""


# --- mesh construction / parsing ---

class ParseError(PLCurvError):
    """Input file could not be parsed."""


class NonTriangularFace(ParseError):
    """A face record does not have exactly three vertices."""


class ZeroLengthEdge(ParseError):
    """An edge length is zero or negative."""


class NonFiniteValue(PLCurvError):
    """An input length or coordinate is infinite or NaN."""


class NonManifold(PLCurvError):
    """An edge without exactly two incident faces, or a pinched vertex link."""


class Disconnected(PLCurvError):
    """The face complex is not connected."""


class OrientationConflict(PLCurvError):
    """Face orientations cannot be matched into a consistently oriented surface."""


class FlipDegeneratesComplex(PLCurvError):
    """The edge to flip has both sides on one face, so it bounds no quad."""


# --- geometry ---

class NonPositiveLength(PLCurvError):
    """A metric assigns a non-positive length to an edge."""


class DegenerateFace(PLCurvError):
    """Operation requires a face satisfying the strict triangle inequality."""


class NonConvexQuad(PLCurvError):
    """The two faces of an edge do not form a strictly convex quadrilateral."""


class FlipLimitExceeded(PLCurvError):
    """Delaunay flipping did not terminate within the flip budget."""


class LogFactorOverflow(PLCurvError):
    """A log conformal factor is too large to exponentiate safely."""


# --- flows ---

class StepSizeUnderflow(PLCurvError):
    """Adaptive step halving drove the step size below the safe minimum."""


class InsufficientTail(PLCurvError):
    """Flow history does not contain enough usable rows for a rate fit."""


# --- solver ---

class UnsupportedTarget(PLCurvError):
    """Prescribed curvature target is outside the convexity regime."""


class LineSearchStalled(PLCurvError):
    """Backtracking line search could not find an acceptable step."""


class MaxIterations(PLCurvError):
    """Iteration budget exhausted before reaching the requested tolerance."""
