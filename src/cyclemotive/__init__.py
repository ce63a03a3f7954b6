"""Exact additive invariants of algebraic-variety classes.

Computes Hodge polynomials and their quotient-ring images, Euler numbers,
counting polynomials, closed forms and recursions for cycle-space
invariants, toric orbit censuses, infinite-product generating series, and
finite-field counts with their congruence checks.  Everything is exact
integer arithmetic, and every headline formula has an independent
brute-force or dual-route verification in the test suite.

The runtime verification suites live in `cyclemotive.verify`, which this
import does not load; `cyclemotive.verify.run_suites` runs them.
"""

__version__ = "0.1.0"

from .chow import (
    ChowIndex,
    chow_congruence_targets,
    chow_htilde,
    chow_invariant_closed,
    chow_invariant_recursive,
    chow_series,
    coordinate_subspace_count,
    euler_chow_product_formula,
    euler_chow_product_recursive,
    irreducible_invariant,
    irreducible_invariant_product,
)
from .errors import (
    BudgetError,
    DomainError,
    FanError,
    NotCountableError,
    ParseError,
    UnsupportedError,
)
from .ffcount import (
    KERNEL,
    CongruenceReport,
    PrimePower,
    gaussian_binomial,
    gaussian_binomial_poly,
    grassmannian_count_brute,
    rref_cell_census,
    toric_count,
)
from .motive import (
    ELLIPTIC,
    AffineSpace,
    Cellular,
    Cone,
    Difference,
    DisjointUnion,
    Grassmannian,
    Measure,
    Point,
    ProjSpace,
    Product,
    SmoothProjectiveLeaf,
    ToricFan,
    Torus,
    eval_count_poly,
    eval_E,
    eval_measure,
    expr_from_json,
    expr_to_json,
    hodge_constraints_check,
    measure_from_string,
)
from .ring import (
    Laurent1,
    LPoly,
    MultiSeries,
    Poly2,
    antidiagonal_sums,
    expand_inverse_product,
    parse_poly2,
    quotient_uv,
    quotient_uv_minus1,
    specialize,
)
from .toric import (
    Fan,
    affine_fan,
    euler_series,
    fan_from_json,
    fan_to_json,
    fan_validate,
    invariant_subvarieties,
    product_fan,
    projective_fan,
    toric_E_poly,
    toric_lambda,
)
