"""Linear-subpacketization coded caching: placement, delivery, verification.

A shared library of N files serves K cache-equipped users over a broadcast
link.  Each file is split into K subpackets and every user stores the same
cyclic window of i of them, so one cache holds i/K of the library.  The
delivery schedule answers any demand with XOR codewords that each user can
decode instantly from its own cache, using far fewer transmissions than
uncoded unicast while keeping the subpacketization linear in K.
"""

from .delivery import (
    Codeword,
    SchemeConstants,
    TransmissionSchedule,
    closed_form_pairs,
    generate_schedule,
    initial_codeword_terms,
    mn_rate,
    mn_subpacketization,
    rate,
    scheme_constants,
)
from .errors import (
    CacheCodeError,
    InstanceError,
    RegimeError,
    ScheduleError,
    SimulationMismatch,
    UnsupportedMemoryPoint,
)
from .model import (
    CacheLayout,
    DemandVector,
    SubpacketId,
    SystemParams,
    build_cache_layout,
    build_demand_list,
    identity_demand,
    random_demand,
    validate_demand,
    wrap,
)
from .multiaccess import (
    CcdnParams,
    OptimalityRow,
    RateBoundCurve,
    ccdn_cache_contents,
    ccdn_rate_at_supported_points,
    ccdn_rate_bound_curve,
    ccdn_schedule,
    ccdn_upper_bound,
    ccdn_user_view,
    effective_cache_run,
    f_subfiles,
    optimality_table,
)
from .verify import (
    FileStore,
    VerificationReport,
    Violation,
    min_pair_transmissions,
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)

__version__ = "0.1.0"

__all__ = [
    "CacheCodeError",
    "CacheLayout",
    "CcdnParams",
    "Codeword",
    "DemandVector",
    "FileStore",
    "InstanceError",
    "OptimalityRow",
    "RateBoundCurve",
    "RegimeError",
    "ScheduleError",
    "SchemeConstants",
    "SimulationMismatch",
    "SubpacketId",
    "SystemParams",
    "TransmissionSchedule",
    "UnsupportedMemoryPoint",
    "VerificationReport",
    "Violation",
    "build_cache_layout",
    "build_demand_list",
    "ccdn_cache_contents",
    "ccdn_rate_at_supported_points",
    "ccdn_rate_bound_curve",
    "ccdn_schedule",
    "ccdn_upper_bound",
    "ccdn_user_view",
    "closed_form_pairs",
    "effective_cache_run",
    "f_subfiles",
    "generate_schedule",
    "identity_demand",
    "initial_codeword_terms",
    "min_pair_transmissions",
    "mn_rate",
    "mn_subpacketization",
    "optimality_table",
    "random_demand",
    "random_file_store",
    "rate",
    "scheme_constants",
    "simulate_end_to_end",
    "validate_demand",
    "verify_instantaneous_decodability",
    "wrap",
    "__version__",
]
