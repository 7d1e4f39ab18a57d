"""Exact-arithmetic toolkit for the PBW deformations of S(V) x| G, where G is
the order-p cyclic transvection group acting on F_p^2."""

from .action import Quad2GroupElement, Vector, act, sym_mul, v1, v2
from .chains import (
    BarGroupChain,
    PeriodicChain,
    bar_differential,
    iota_chain,
    periodic_differential,
    pi_group,
    rep_to_params,
    transfer_cochain,
    verify_chain_maps,
)
from .group_algebra import (
    Factorization,
    GroupAlgebraElement,
    NotAUnit,
    TooLarge,
    check_prime,
    gminus1_power,
)
from .params import (
    CoboundaryData,
    DeformationParams,
    add_coboundary,
    build_candidate,
    closed_form,
    coboundary,
    implied_a,
    params_to_ab,
)
from .pbw import ConditionReport, check_all
from .rewriting import (
    RuleSet,
    check_associativity,
    check_dimension,
    check_overlaps,
    rules_from_params,
)
from .solver import (
    SolutionRecord,
    a_from_c,
    c_from_ab,
    census,
    enumerate_solutions,
    kernel_basis,
    phi_b,
    system_residual,
)

__version__ = "0.1.0"
