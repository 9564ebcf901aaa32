"""Combinatorial alpha-curvature on piecewise-linear surfaces.

Tools to find constant alpha-curvature metrics three ways: a Yamabe-type
flow, a Calabi-type flow (both with Delaunay flip surgery), and direct
minimization of a convex energy.
"""

from . import errors
from .flows import (
    FlowConfig,
    FlowHistory,
    FlowState,
    curvature_evolution_residual,
    exponential_rate_probe,
    run_flow,
)
from .geometry import (
    CurvatureReport,
    alpha_curvature,
    alpha_laplacian_apply,
    curvature,
    curvature_jacobian,
    delaunay_surgery,
    flip_length,
    is_delaunay,
    make_delaunay,
    scale_metric,
)
from .mesh import Triangulation, build_triangulation, load_mesh
from .solver import (
    NewtonResult,
    Target,
    energy_W_alpha,
    lobachevsky,
    newton_solve,
    rigidity_check,
    triangle_energy,
)

__all__ = [
    "errors",
    "Triangulation",
    "build_triangulation",
    "load_mesh",
    "CurvatureReport",
    "alpha_curvature",
    "alpha_laplacian_apply",
    "curvature",
    "curvature_jacobian",
    "delaunay_surgery",
    "flip_length",
    "is_delaunay",
    "make_delaunay",
    "scale_metric",
    "FlowConfig",
    "FlowHistory",
    "FlowState",
    "curvature_evolution_residual",
    "exponential_rate_probe",
    "run_flow",
    "NewtonResult",
    "Target",
    "energy_W_alpha",
    "lobachevsky",
    "newton_solve",
    "rigidity_check",
    "triangle_energy",
]

__version__ = "0.1.0"
