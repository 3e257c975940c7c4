"""Structure-preserving balanced truncation for second-order systems.

Classical, frequency-limited and time-limited balancing with eight
second-order projection formulas, factored sign-function Lyapunov solvers,
and a benchmark/error-analysis toolkit.
"""

from . import errors
from .balancing import (
    FORMULAS,
    BalancingResult,
    FirstOrderRom,
    apply_projection,
    first_order_bt,
    second_order_projectors,
    select_order,
    so_reconstruct,
)
from .gramians import (
    GramianPair,
    PartitionedFactors,
    frequency_limited_gramians,
    infinite_gramians,
    modified_gramians,
    partition,
    time_limited_gramians,
)
from .lyapunov import (
    GramianFactor,
    IndefiniteRhs,
    ldl_compress,
    solve_lyap_pencil,
    solve_lyap_projection_dual,
    solve_lyap_sign_dual,
)
from .matfun import (
    FrequencyBand,
    TimeWindow,
    expm,
    freq_limited_rhs,
    logm_principal,
    time_limited_rhs,
)
from .mmio import load_bundle, save_bundle
from .pipeline import (
    ErrorReport,
    ReducedModel,
    ReductionConfig,
    alpha_backsubstitute,
    alpha_shift,
    frequency_error_report,
    hybrid_prereduce,
    reduce,
    time_error_report,
    trajectory_errors,
)
from .system import (
    CustomSignal,
    FirstOrderRealization,
    SecondOrderSystem,
    SineSignal,
    StabilityReport,
    StepSignal,
    Trajectory,
    check_stability,
    dissipativity_shift_bound,
    eval_transfer,
    first_companion,
    generate_chain,
    gramian_backtransform,
    make_second_order,
    simulate,
    strictly_dissipative,
)

__version__ = "0.1.0"
