"""Crossing limit cycles of planar piecewise Hamiltonian systems.

The package pairs an exact symbolic pipeline (level-curve matching equations,
resultant elimination, Sturm real-root isolation) with an independent
numerical oracle (event-driven integration, boundary return maps, shooting),
and accepts every algebraic candidate only when the two agree.
"""

from .algebra import (
    MultiPoly,
    RootInterval,
    UniPoly,
    real_roots,
    refine_root,
    resultant,
    squarefree,
    sturm_isolate,
)
from .dynamics import (
    FlowMachine,
    IntegratorConfig,
    Trajectory,
    integrate_arc,
)
from .matcher import (
    MatchingSystem,
    build_three_zone,
    build_two_zone,
    to_sum_diff,
)
from .solver import (
    BoundInfo,
    CandidateCycle,
    SolveReport,
    annulus_check,
    back_substitute,
    eliminate,
    solve,
    theorem_bound,
)
from .specfile import SystemSpecFile, load_spec, parse_spec
from .systems import (
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    PiecewiseSystem,
    Zone,
    is_continuous,
    mirror,
    piecewise_system,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInfo", "CandidateCycle", "CubicCenter", "DoubleCenter",
    "FlowMachine", "GlobalCenter", "IntegratorConfig", "LinearSaddle",
    "MatchingSystem", "MultiPoly", "PiecewiseSystem", "RootInterval",
    "SolveReport", "SystemSpecFile", "Trajectory", "UniPoly", "Zone",
    "annulus_check", "back_substitute", "build_three_zone", "build_two_zone",
    "eliminate", "integrate_arc", "is_continuous", "load_spec", "mirror",
    "parse_spec", "piecewise_system", "real_roots", "refine_root", "resultant",
    "solve", "squarefree", "sturm_isolate", "theorem_bound", "to_sum_diff",
]
