"""Exact-arithmetic experiments in simultaneous p-adic Diophantine approximation.

The package provides exact p-adic integer arithmetic, clopen subsets of Z_p^n
with exact Haar measure and box counts, approximation layers and their volume
series, a constructive pigeonhole solver for p-adic linear-form systems, a
Dirichlet-style solver on polynomial map graphs, and exact evaluators for the
associated dimension formulas. See the README for the experiment catalogue.
"""

from .core import (
    ExactnessError,
    HypothesisError,
    PAdicInt,
    Params,
    embed_rational,
    euler_phi,
    is_prime,
    norm,
    shift_map,
    totient_sieve,
    valuation,
)
from .clopen import BallSpec, ClopenSet, product_set
from .approx import (
    ApproxTuple,
    PowerLaw,
    ScaledPower,
    TableFunction,
    build_layer,
    claim_c_max_ratio,
    divergence_curve,
    duffin_schaeffer_sum,
    intersection_measure,
    khintchine_sum,
    layer_measure,
    layer_reference_sum,
    measure_claims_check,
    partial_limsup,
    reference_measure,
    step_exponent,
    ubiquity_fraction,
)
from .minkowski import (
    BelowThresholdError,
    LinearFormSystem,
    MinkowskiSolution,
    SolverError,
    brute_force,
    bucket_exponents,
    pigeonhole_surplus,
    solve,
    solve_structured,
)
from .manifold import (
    DirichletInstance,
    DirichletSolution,
    DQEConstants,
    PolyMap,
    RationalPoint,
    cover_preimage,
    dirichlet_h0,
    dirichlet_solve,
    dqe_constants,
    enumerate_S_tau,
)
from .dimension import (
    BoxDimFit,
    boxdim_estimate,
    jb_dimension,
    limit_exponents,
    manifold_lower_bound,
    rynne_dimension,
    waterfill_alpha,
    waterfill_level,
    waterfill_v,
    ww_exponent,
)

__version__ = "0.1.0"
