"""Splitting densities of closed geodesics under congruence covers of the
modular surface: exact conjugacy censuses, closed-form density tables,
geodesic-class enumeration via indefinite binary quadratic forms, and
numerical checks of the associated zeta identities."""

from .core import (
    CapExceeded,
    ConsistencyError,
    Family,
    IntegerMatrix,
    SubgroupSpec,
    enumerate_xi,
    xi_order,
)
from .cosets import (
    CosetTable,
    act,
    build_coset_table,
    cycle_type_of,
    dual_type_report,
    induced_trace,
    moebius_type_from_perm,
    splitting_type_cycles,
    splitting_type_moebius,
)
from .census import (
    ConjugacyClassRecord,
    DensityTable,
    conjugacy_classes,
    density_table,
    density_table_closed_form,
    density_table_composite,
    power_relation_check,
    rectangle_density_table,
    tensor_partitions,
)
from .geodesics import (
    EmpiricalTally,
    anomalous_type_scan,
    empirical_tally,
    enumerate_primitive_classes,
)
from .zeta import (
    ClassData,
    ZetaTruncation,
    ratio_identity_check,
    venkov_zograf_check,
    zeta_gamma_log,
    zeta_lambda_log,
)

__version__ = "0.1.0"
