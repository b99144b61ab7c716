"""The package's public names and its lazily loaded submodules.

Importing padicapprox registers its submodules without running them; a body
runs at the first attribute access. Every tier-1 test module imports the
submodules it tests during collection, so a failure of the lazy path is only
visible in a fresh interpreter: the tests below that need one start it with
PYTHONPATH on this checkout's src.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicapprox
from test_cli import README_TOUR, TOUR_FILES

SRC = Path(__file__).resolve().parent.parent / "src"

# the public API: every name below is the object its submodule defines
PUBLIC = {
    "core": ["ExactnessError", "HypothesisError", "PAdicInt", "Params", "embed_rational", "euler_phi",
             "is_prime", "norm", "shift_map", "totient_sieve", "valuation"],
    "clopen": ["BallSpec", "ClopenSet", "product_set"],
    "approx": ["ApproxTuple", "PowerLaw", "ScaledPower", "TableFunction", "build_layer", "claim_c_max_ratio",
               "divergence_curve", "duffin_schaeffer_sum", "intersection_measure", "khintchine_sum",
               "layer_measure", "layer_reference_sum", "measure_claims_check", "partial_limsup",
               "reference_measure", "step_exponent", "ubiquity_fraction"],
    "minkowski": ["BelowThresholdError", "LinearFormSystem", "MinkowskiSolution", "SolverError", "brute_force",
                  "bucket_exponents", "pigeonhole_surplus", "solve", "solve_structured"],
    "manifold": ["DirichletInstance", "DirichletSolution", "PolyMap", "RationalPoint", "cover_preimage",
                 "dirichlet_h0", "dirichlet_solve", "enumerate_S_tau"],
    "dimension": ["BoxDimFit", "boxdim_estimate", "jb_dimension", "manifold_lower_bound", "rynne_dimension",
                  "waterfill_alpha", "waterfill_level", "waterfill_v", "ww_exponent"],
}
OWNER = {name: module for module, names in PUBLIC.items() for name in names}


def fresh(args, cwd=None) -> subprocess.CompletedProcess:
    """Run the interpreter on args with only this checkout's src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, check=True)


def test_public_names_are_the_submodule_objects():
    assert len(OWNER) == 57
    assert sorted(padicapprox.__all__) == sorted(OWNER)
    assert set(OWNER) <= set(dir(padicapprox))
    for module in [*PUBLIC, "exactcmp"]:
        assert getattr(padicapprox, module) is importlib.import_module(f"padicapprox.{module}")
    for name, module in OWNER.items():
        owner = getattr(padicapprox, module)
        assert getattr(padicapprox, name) is getattr(owner, name), name
        namespace = {}
        exec(f"from padicapprox import {name}", namespace)
        assert namespace[name] is getattr(owner, name), name
    namespace = {}
    exec("from padicapprox import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(OWNER)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        padicapprox.no_such_name
    with pytest.raises(ImportError):
        exec("from padicapprox import no_such_name", {})


# counts each submodule's names that are not dunders, read without an attribute
# access: a registered module that has not run holds only its import metadata
EXECUTED = """
import contextlib, io, json, sys
from padicapprox import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[2:]) == 0
print(json.dumps({name: sum(not key.startswith("__") for key in object.__getattribute__(
    sys.modules[f"padicapprox.{name}"], "__dict__")) for name in sys.argv[1].split(",")}))
"""


def test_a_layer_command_runs_no_manifold_minkowski_or_dimension():
    argv = ["partial-limsup", "--p", "3", "--n", "1", "--psi", "q^-5/2", "--from", "100", "--to", "120",
            "--boxes", "3", "4", "5"]
    names = "core,clopen,approx,manifold,minkowski,dimension"
    counts = json.loads(fresh(["-c", EXECUTED, names, *argv]).stdout)
    assert counts["manifold"] == counts["minkowski"] == counts["dimension"] == 0
    assert min(counts["core"], counts["clopen"], counts["approx"]) > 0


@pytest.mark.parametrize("argv", [
    ["dim", "jb", "--tau", "3", "2"],
    ["boxdim", "--p", "3", "--counts", "1:3,2:9,3:27,4:81,5:200"],
], ids=["dim jb", "boxdim --counts"])
def test_a_dimension_command_runs_no_approx_manifold_or_minkowski(argv):
    names = "core,exactcmp,approx,manifold,minkowski,dimension"
    counts = json.loads(fresh(["-c", EXECUTED, names, *argv]).stdout)
    assert counts["exactcmp"] == counts["approx"] == counts["manifold"] == counts["minkowski"] == 0
    assert min(counts["core"], counts["dimension"]) > 0


def test_one_tour_command_per_family_in_its_own_process(tmp_path):
    # the first README tour line of each command, each in a fresh `python -m` process
    first = {}
    for argv, digest in README_TOUR:
        first.setdefault(argv[0], (argv, digest))
    for command in ["partial-limsup", "boxdim", "minkowski", "dirichlet-solve", "dim"]:
        argv, digest = first[command]
        proc = fresh(["-m", "padicapprox.cli", *argv], cwd=tmp_path)
        assert (command, proc.stderr, hashlib.sha256(proc.stdout.encode()).hexdigest()) == (command, "", digest)
    for name, digest in TOUR_FILES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
