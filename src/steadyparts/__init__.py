"""Exact bipartite partition counts with steadily decreasing parts,
crank tables, cubic partitions, and their uniform asymptotics."""

from .asymptotics import (
    C,
    KAPPA,
    asym_D,
    asym_M,
    asym_c,
    asym_p,
    asym_pi,
    f_saddle,
)
from .bipartite import (
    alpha_row,
    d_value,
    d_value_by_crank,
    enumerate_steady,
    gf_table,
    is_steady,
    pi_value,
    pi_value_by_alpha,
    steady_partitions,
)
from .crank import (
    build_crank_table,
    build_crank_table_lambert,
    crank_column,
    crank_counts_by_enumeration,
    crank_of,
    crank_value_direct,
    partitions_of,
)
from .formatting import ratio_string, sci_from_int, sci_from_log
from .partitions import (
    build_c_table,
    build_g_table,
    build_p_table,
    c_values_via_inversion,
    g_values_via_chain,
)
from .series import (
    CoefficientTable,
    divide_by_euler,
    divide_by_phi,
    euler_product,
    invert,
    mul,
    theta_coefficient,
)

__version__ = "0.1.0"
