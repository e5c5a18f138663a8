"""Structure-preserving solvers for the EPDiff equation on the periodic square.

The package evolves the momentum form of the equation on a uniform periodic
grid with three conservative time steppers (one implicit via a
predictor-corrector, one explicit two-step, one linearly implicit two-step)
plus an RK4 reference, and ships the diagnostics and experiment harness used
to check conservation, convergence, reversibility, and per-step cost.
"""

from .core import (
    State,
    energy_half_scheme2,
    energy_half_scheme3,
    energy_scheme1,
    linear_momenta,
)
from .diagnostics import (
    convergence_study,
    invariant_stats,
    relative_l2_error,
    reversibility_test,
)
from .errors import (
    ConfigError,
    EpdiffError,
    GridMismatchError,
    NonConvergenceError,
    NumericalFailureError,
)
from .grid import (
    FieldPair,
    GridSpec,
    ScalarField,
    apply_q,
    inner,
    norm,
)
from .profiles import (
    Arc,
    FrontKind,
    Segment,
    WaveFrontSpec,
    default_spec,
    sine_profile,
    wavefront_profile,
)
from .steppers import (
    BootstrapKind,
    FixedCount,
    RunRecord,
    SchemeConfig,
    SchemeKind,
    SeriesRow,
    StepResult,
    integrate,
    solvability_dt_bound,
    step_rk4,
    step_scheme1_pc,
    step_scheme2,
    step_scheme3,
)

__version__ = "0.1.0"
