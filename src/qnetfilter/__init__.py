"""Hidden non-n-locality in linear networks of filtered two-qubit links."""

import types

from .core import (
    BlochForm,
    NotHermitian,
    NotPositive,
    NotUnitTrace,
    bloch_decompose,
    canonical_frame,
    correlation_singular_values,
    from_bloch,
    matrix_from_pairs,
    matrix_to_pairs,
    rotation_to_unitary,
    validate_density,
)
from .states import grud_state, pure_theta_state, product_state, werner_state, x_state
from .filtering import (
    FilterAnnihilatesState,
    NetworkFilterSpec,
    apply_link_filter,
    filter_network,
    filtered_bell_diagonal,
)
from .channels import (
    KrausChannel,
    amplitude_damping,
    apply_channel,
    bit_flip,
)
from .nlocal import (
    ConjectureReport,
    DimensionTooLarge,
    EvalResult,
    MeasurementSettings,
    NetworkSpec,
    OracleResult,
    b_lin,
    b_seq,
    born_distribution,
    born_oracle,
    conjecture_search,
    evaluate,
    lhs_at_settings,
    maximize_lhs,
)
from .solvers import bisect
from .config import (
    ConfigError,
    ScanAxis,
    build_network,
    build_settings,
    build_states,
    get_path,
    load_config,
    scan_axes,
)

__version__ = "0.1.0"

# Every name imported above, in import order; the submodules bound by those imports are not exported.
__all__ = [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, types.ModuleType)]
