"""Exact-arithmetic experiments in simultaneous p-adic Diophantine approximation.

The package provides exact p-adic integer arithmetic, clopen subsets of Z_p^n
with exact Haar measure and box counts, approximation layers and their volume
series, a constructive pigeonhole solver for p-adic linear-form systems, a
Dirichlet-style solver on polynomial map graphs, and exact evaluators for the
associated dimension formulas. See the README for the experiment catalogue.

Submodules load on first use: importing the package registers each of them in
sys.modules and as a package attribute, and runs its body at its first attribute
access, so a command pays only for the modules it reads. The public names below
are served from their submodules through the module __getattr__ (PEP 562). The
entry point cli is not registered, so `python -m padicapprox.cli` runs it once,
as __main__, and runpy finds no stale padicapprox.cli to warn about.
"""

import importlib.util
import sys

_PUBLIC = {
    "core": """ExactnessError HypothesisError PAdicInt Params embed_rational euler_phi is_prime
        norm shift_map totient_sieve valuation""",
    "clopen": "BallSpec ClopenSet product_set",
    "approx": """ApproxTuple PowerLaw ScaledPower TableFunction build_layer claim_c_max_ratio
        divergence_curve duffin_schaeffer_sum intersection_measure khintchine_sum layer_measure
        layer_reference_sum measure_claims_check partial_limsup reference_measure step_exponent
        ubiquity_fraction""",
    "minkowski": """BelowThresholdError LinearFormSystem MinkowskiSolution SolverError brute_force
        bucket_exponents pigeonhole_surplus solve solve_structured""",
    "manifold": """DirichletInstance DirichletSolution PolyMap RationalPoint cover_preimage
        dirichlet_h0 dirichlet_solve enumerate_S_tau""",
    "dimension": """BoxDimFit boxdim_estimate jb_dimension manifold_lower_bound rynne_dimension
        waterfill_alpha waterfill_level waterfill_v ww_exponent""",
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


core, exactcmp, clopen, approx, minkowski, manifold, dimension = map(
    _lazy, ("core", "exactcmp", "clopen", "approx", "minkowski", "manifold", "dimension")
)


def __getattr__(name):
    # runs only for a name missing from the package dict, so keeping the value
    # there makes every later access a plain lookup
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
