"""Exact tropical differential algebra over valued power-series rings."""

from .semiring import (
    NatValuation,
    T_INF,
    T2_INF,
    TropNum,
    Trop2,
    tropically_vanishes,
    v_p,
    v_p_factorial,
)
from .fields import (
    FieldBackend,
    FieldElem,
    ResidueElem,
    angular_component,
    residue,
    section_phi,
)
from .series import (
    PowerSeries,
    TropSeries,
    psi,
    psi_inverse,
    psi_trop,
    psi_trop_inverse,
    rank2_val,
    sigma0,
    sigma_to_grigoriev,
    tropicalize_series,
)
from .diffpoly import (
    DiffPoly,
    EvalReport,
    ExponentMatrix,
    Poly,
    derived_system,
    derived_tropical_system,
    eval_classical,
    evaluate,
    eval_tropical,
    f_lr,
    is_tropical_solution,
    tropicalize_poly,
)
from .initial import (
    initial_form,
    initial_system_monomial_check,
    is_monomial,
)
from .radius import (
    RadiusEstimate,
    RadiusRule,
    base_change,
    classical_radius,
    fit_rule,
    radius_from_rule,
    radius_window_estimate,
)
from .verify import (
    FTReport,
    LinearODE,
    check_easy_inclusion,
    check_truncation_vectors,
    exp_equation,
    exp_tropical_closed_form,
    reproduce_exponential_example,
    solve_linear,
    verify_ft,
)
from .parser import parse_poly, print_poly

__version__ = "0.1.0"
