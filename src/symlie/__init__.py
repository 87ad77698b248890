"""symlie: an exact engine for symmetric functions in the power-sum basis,
with plethysm, plethystic inversion, the Lie characteristics, and a registry
of machine-checked identities.

The package keeps 13 memo tables (functools.lru_cache with no size limit):
lie.hk, lie.staircase_skew and lie.named_series; oracle._perm_count,
oracle._collected_mul_term, oracle._power_product and
oracle.alternating_count; partitions.partitions_of; symfunc._key,
symfunc._partition, symfunc._character and symfunc._h_form; and
verify._quotient.  They are unbounded for library callers, since every
distinct argument stays cached for the life of the process; call
cache_clear() on the functions a long sweep drives.  Through the CLI they
are bounded, because it runs one command per process and refuses a
--max-degree above symlie.cli.MAX_DEGREE = 40.
"""

from .partitions import (
    Partition,
    format_partition,
    mobius,
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
    HomogeneityError,
    SymFunc,
    dimension,
    e,
    expand_in_basis,
    h,
    omega,
    p,
    render,
    schur,
    schur_expand,
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
    foulkes_staircase,
    lie_character,
    monomial_pleth_collected,
    specialize_collected,
    syt_count,
)
from .verify import CheckReport, build_pairs, check_names, run_all, run_check

__version__ = "0.1.0"
