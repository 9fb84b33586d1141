"""Model-order reduction for LTI systems with nonzero initial conditions.

Balanced truncation, augmented BT, IRKA, and a split reduction that
handles the input-to-output and initial-condition-to-output maps
independently, with computable output error bounds and an exact-in-scheme
simulation engine.
"""

from .bounds import ErrorBudget, abt_bound, bt_bound, split_bound
from .gramians import (
    GramianFactors,
    HankelSpectrum,
    gramian_factors,
    hankel_spectrum,
)
from .linalg import matrix_exponential, solve_lyapunov, solve_sylvester
from .model import (
    InitialConditionBasis,
    StateSpaceModel,
    build_msd,
    coordinates_of,
    load_model,
    save_model,
    unit_vector_basis,
)
from .reduction import (
    OrderSelection,
    ReducedModel,
    SplitReducedModel,
    abt_reduce,
    bt_reduce,
    irka_reduce,
    order_from_tolerance,
    split_reduce,
)
from .simulation import (
    InputSignal,
    SimulationTrace,
    l2_norm,
    linf_norm,
    online_phase,
    simulate,
    suggest_grid,
)

__version__ = "0.1.0"
