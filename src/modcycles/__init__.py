"""Exact-arithmetic cycle calculus with modulus on A^r x cube^n.

Admissibility checking and boundary calculus for cycles with modulus, the
residue invariant on codimension-1 cycles, constructive vanishing witnesses,
and the Milnor K-theory bridge (tame symbols, norms, witness curves)."""

__version__ = "0.1.0"

from .fields import (
    FieldElement,
    FieldSpec,
    Factorization,
    ModcyclesError,
    UniPoly,
    factor_univariate,
    make_field,
    norm_k1_finite,
    standard_extension,
)
from .polyring import MultiPoly, RatFunc, VarSet, parse_poly, parse_ratfunc, parse_unipoly
from .cycles import (
    ClosedPoint,
    CoordModel,
    HypersurfaceCycle,
    ModulusDatum,
    ModulusVerdict,
    ParamCurve,
    ZeroCycle,
    boundary,
    check_face_condition,
    check_modulus_codim1,
    check_modulus_zerocycle,
    curve_boundary,
    face_restrict,
    is_degenerate,
    pushforward_closed_immersion,
    psi_convert,
)
from .milnor import (
    FunctionField,
    MilnorElement,
    MilnorSymbol,
    Valuation,
    k2_presentation_oracle,
    phi_map,
    psi_map,
    symbol_reduce,
    tame_symbol,
    theta_map,
    total_delta,
    totaro_mult_curve,
    totaro_steinberg_curve,
    xi_curve,
)
from .witnesses import (
    WitnessCertificate,
    bounding_surface,
    generator_cycle,
    rho,
    verify_certificate,
    verify_rho_reciprocity,
    zero_cycle_vanishing_witness,
)
