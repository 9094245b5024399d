"""Exact wavefront polynomials for strictly hyperbolic constant-coefficient
operators with quasihomogeneous algebraic initial fronts.

The pipeline: validate the front and operator, expand the phase into a
weighted deformation, build the associated complete-intersection mapping,
compute its Gauss-Manin system on the Brieskorn lattice, and pull the
system discriminant back to (x, t, s) to obtain the front polynomial.
"""

__version__ = "0.1.0"

from .poly import MultiPoly, poly_substitute, weighted_graded_parts
from .linalg import RationalMatrix
from .detpoly import det_poly_matrix
from .forms import DiffForm, contract_euler, exterior_d, wedge
from .groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MonomialOrder,
    eliminate,
    groebner,
    normal_form,
    standard_monomials,
)
from .phase import (
    HyperbolicSymbol,
    IcisMap,
    PhaseExpansion,
    WeightSystem,
    build_mapping,
    build_phase,
    check_c3,
    check_strict_hyperbolicity,
    discover_weights,
    expand_phase,
    make_icis,
)
from .brieskorn import (
    FBasis,
    LatticeCertificate,
    PhiBasis,
    f_basis,
    gm_matrices,
    phi_basis,
    reduce_in_lattice,
)
from .gaussmanin import (
    GaussManinData,
    assemble_system,
    discriminant,
    flatness_check,
    residue_exponents_K1,
)
from .wavefront import FrontResult, front_polynomial, t_zero_check
from .oracle import (
    LevelSet,
    RaySample,
    compare_discriminants,
    critical_locus_eliminant,
    eval_front_on_samples,
    sample_front,
)
from .parser import parse_poly, poly_to_text
