"""symlie: an exact engine for symmetric functions in the power-sum basis,
with plethysm, plethystic inversion, the Lie characteristics, and a registry
of machine-checked identities."""

from .partitions import (
    Partition,
    conjugate,
    format_partition,
    mobius,
    parse_partition,
    partitions_of,
    staircase,
    z_of,
)
from .plethysm import ConstantTermError, LeadingTermError, pleth, pleth_inverse
from .series import (
    GradedSeries,
    NonUnitConstantError,
    arctan_series,
    arctanh_series,
    compose_scalar,
    exp_series,
    log1p_series,
    omega_series,
    parity_split,
    series_div,
    series_inverse,
    tan_series,
    tanh_series,
)
from .symfunc import (
    Coefficient,
    HomogeneityError,
    SymFunc,
    dimension,
    e,
    expand_in_basis,
    h,
    inner,
    omega,
    p,
    render,
    schur,
    schur_expand,
    to_records,
)
from .lie import (
    NamedSeries,
    SERIES_REGISTRY,
    compose_named,
    e_series,
    h_series,
    hk,
    hk_alt_series,
    hook_series,
    jordan_series,
    lie,
    lie_series,
    named_series,
    staircase_skew,
)
from .oracle import (
    alternating_count,
    lie_character,
    monomial_pleth_collected,
    specialize,
    specialize_collected,
    syt_count,
)
from .verify import CheckReport, build_pairs, check_names, run_all, run_check

__version__ = "0.1.0"
