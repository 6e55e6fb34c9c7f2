"""fold3d: single-fold operations in 3D space.

Reflection of points, lines, and planes across a fold plane; the twelve
incidence constraint kinds with their residuals, solvers, and solution
families; envelope quadrics of the tangency families; enumeration and
solving of the 47 elementary fold operations; and a brute-force grid oracle
for independent solution counting.
"""

from .constraints import (
    Constraint,
    FoldSolution,
    IncidenceKind,
    Outcome,
    codimension,
    residual,
    residual_grid,
    solve_I1,
    solve_I2,
    solve_I4,
    solve_I12,
    stacked_residual,
)
from .envelopes import (
    EnvelopeReport,
    FamilyParam,
    PlaneFamily,
    Quadric,
    envelope_I3,
    envelope_I5,
    envelope_I6,
    envelope_I7,
    family,
    family_I3,
    family_I5,
    family_I6,
    family_I7,
    verify_envelope_conditions,
)
from .errors import (
    AllRealLine,
    DegenerateInput,
    FoldError,
    IllPosed,
    InvalidConstraint,
    InvalidOperation,
    NoEnvelope,
    ParseError,
    ValidationError,
    VerificationFailed,
)
from .geometry import (
    TOL_ALGEBRAIC,
    TOL_INCIDENCE,
    Line3,
    LinePlaneRelation,
    Plane3,
    Point3,
    RigidFrame,
    canonical_frame_line_plane_crossing,
    canonical_frame_line_plane_parallel,
    canonical_frame_parallel_lines,
    canonical_frame_point_line,
    canonical_frame_point_plane,
    canonical_frame_skew_lines,
    classify_line_plane,
    lines_setwise_equal,
    perpendicular_bisector_plane,
    plane_gap,
    planes_setwise_equal,
    points_equal,
    reflect_line,
    reflect_plane,
    reflect_point,
)
from .numerics import (
    OracleResult,
    RealRoots,
    grid_oracle,
    newton_multistart,
    real_roots_cubic,
    real_roots_quadratic,
)
from .operations import (
    OperationSpec,
    enumerate_operations,
    solve_3I6,
    solve_I5_I6,
    solve_I5_I9,
    solve_I6_I8_I11,
    solve_exact,
    solve_generic,
    solve_operation,
    solver_route,
)
from .scene import ResultDocument, Scene, load_scene, scene_to_dict, write_scene

__version__ = "0.1.0"
