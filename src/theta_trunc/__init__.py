"""Exact and asymptotic computation of truncated theta series coefficients.

Layers:
  series       exact truncated integer power series and q-products
  families     the C / Cprime / D / Dprime generating functions and the
               classical identities used as oracles
  asymptotics  Bernoulli polynomials, scaled Bessel functions and every
               closed-form main term, evaluated in log space
  analytic     complex-plane evaluation, saddle expansions and circle-method
               quadrature with arc diagnostics
  cli          the ``theta-trunc`` command line front end
"""

from .series import (
    NonUnitConstantTerm,
    PowerSeries,
    ProductSpec,
    ThetaParams,
    euler_product,
    pochhammer,
    pochhammer_inv,
    ps_div_pochhammer,
    ps_inv,
    ps_mul,
    qbinomial,
    theta_partial,
)
from .families import (
    FamilySpec,
    decompose_family,
    default_grid,
    family_denominator,
    genfun_B,
    genfun_Bprime,
    genfun_family,
    genfun_family_via_decomposition,
    pentagonal_sides,
    quintuple_product_sides,
    scan_signs,
    truncated_pentagonal_sides,
)
from .asymptotics import (
    LogValue,
    UnsupportedOrder,
    bernoulli_poly,
    bessel_I_scaled,
    logvalue_ratio,
    mainterm_block,
    mainterm_family,
)
from .analytic import (
    BandwidthTooSmall,
    MainArcViolation,
    QuadratureSpec,
    RangeViolation,
    SectorViolation,
    TauPoint,
    arc_split_diagnostic,
    bound_check_away,
    eval_G,
    eval_L,
    eval_Lprime,
    eval_product_inv,
    F_direct,
    F_expansion,
    mainarc_L_expansion,
    min_samples,
    transformed_pair_product,
    wright_coefficient,
)

__version__ = "0.1.0"
