"""splitsurf: minimal timelike surfaces in Lorentz-Minkowski 3-space.

Surfaces are generated from holomorphic functions over the split-complex
numbers via Weierstrass-type integral formulas, reparametrized to canonical
coordinates, verified against the curvature PDE and coefficient shapes, and
classified when given as cubic polynomial parametrizations.
"""

from .algebra import (
    E_MINUS,
    E_PLUS,
    J,
    NoSquareRoot,
    SplitComplex,
    ZeroDivisor,
    exp,
    from_null,
    splitc,
    sqrt,
    sqrt_all,
)
from .holofn import (
    DomainError,
    ExprSyntaxError,
    HoloExpr,
    parse,
)
from .weierstrass import (
    GeneratingData,
    Part,
    SurfacePatch,
    evaluate_surface,
)
from .geometry import (
    forms_grid,
    lorentz_cross,
    minkowski_inner,
)
from .canonical import (
    BranchError,
    CanonicalGauge,
    InconclusiveOverlap,
    SampledField,
    canonical_curvature_field,
    canonical_pde_residual,
    canonicalize,
    compare_curvature_fields,
    verify_canonical_coefficients,
)
from .equivalence import (
    InvalidParams,
    MoebiusForm,
    MoebiusParams,
    MotionWitness,
    fit_moebius,
    moebius_transform,
    motion_witness,
    reparametrize_pair,
    surfaces_coincide,
    witness_discrepancy,
)
from .classify import (
    ClassificationVerdict,
    CubicParametrization,
    DegenerateError,
    NotMinimalError,
    Verdict,
    classify_cubic,
    extract_pair,
    lift_to_curve,
)

__version__ = "0.1.0"
