"""Numerical verification engine for the elliptic algebra of modified
screening currents of the two-parameter deformed W-algebra.

The package builds the level-1 free-field realization over a simply-laced
Cartan matrix and machine-checks every defining relation of the algebra
through two independent routes: fully summed q-product contraction
functions against the closed theta-quotient expressions, and exact mode
matrices on a truncated Fock space.
"""

from .algebra import CartanMatrix, DeformationParams, make_cartan, make_params
from .currents import (
    CurrentSpec,
    OpeResult,
    closed_form,
    contract,
    current_spec,
    zero_modes,
)
from .fock import FockSpace, sector_dimension
from .heisenberg import (
    ModeBracketTable,
    contraction_log_coeff,
    osc_coeff,
    zero_mode_reorder,
)
from .qlaurent import (
    DeltaComb,
    LaurentSeries,
    delta_extract,
    qpochhammer,
    series_exp,
    theta,
)
from .verifier import (
    CATALOGUE_NAMES,
    ERRATA,
    G_TABLE,
    RelationResult,
    VerificationReport,
    VerifierContext,
    build_catalogue,
    run_suite,
    serre_coefficient,
    theta_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOGUE_NAMES",
    "CartanMatrix",
    "CurrentSpec",
    "DeformationParams",
    "DeltaComb",
    "ERRATA",
    "FockSpace",
    "G_TABLE",
    "LaurentSeries",
    "ModeBracketTable",
    "OpeResult",
    "RelationResult",
    "VerificationReport",
    "VerifierContext",
    "build_catalogue",
    "closed_form",
    "contract",
    "contraction_log_coeff",
    "current_spec",
    "delta_extract",
    "make_cartan",
    "make_params",
    "osc_coeff",
    "qpochhammer",
    "run_suite",
    "sector_dimension",
    "serre_coefficient",
    "series_exp",
    "theta",
    "theta_quotient",
    "zero_mode_reorder",
    "zero_modes",
]
