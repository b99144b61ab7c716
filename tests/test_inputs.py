"""Fuzz properties of the input parsers: every rejection is a ValueError.

The CLI maps ValueError to exit status 2 with a JSON error, so any other
exception escaping `parse_psi` or `PolyMap.from_json_dict` would surface as a
traceback and exit status 1. The last fuzz test draws whole command lines
from the parser's own actions. A table then pins the type and text of the
library refusals that no command line reaches.
"""

import argparse
import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox import approx, clopen, core, dimension, exactcmp, manifold, minkowski
from padicapprox.cli import build_parser, main, parse_psi
from padicapprox.manifold import PolyMap

# Characters of the psi grammar ('q^-5/2', '3*q^-2', '1/(2q)', '3/q',
# 'table:2=1/4,3=1/9') plus a few that it never uses.
PSI_ALPHABET = "0123456789q^-/*()=,.:table +e_x"
PSI_PIECES = ["q^", "*q^", "1/(", "q)", "/q", "table:", "=", ",", "/", "-", "0", "1/0", "2", "5/2", " "]

psi_texts = st.one_of(
    st.text(PSI_ALPHABET, max_size=24),
    st.lists(st.sampled_from(PSI_PIECES), max_size=8).map("".join),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(psi_texts)
def test_parse_psi_rejects_only_with_value_error(text):
    try:
        parse_psi(text)
    except ValueError:
        pass


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(allow_nan=True),
    st.sampled_from(["1", "-3/4", "1/0", "2.5", "x", "", "7", "1e3", "nan"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)


@st.composite
def map_dicts(draw):
    """Valid maps with one field or one monomial part replaced by an arbitrary JSON value."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    polys = [
        [[draw(st.sampled_from(["1", "-2/3", "5", 4])), [draw(st.integers(0, 3)) for _ in range(d)]]
         for _ in range(draw(st.integers(0, 2)))]
        for _ in range(m)
    ]
    data = {"p": p, "d": d, "m": m, "polys": polys}
    where = draw(st.sampled_from(["none", "p", "d", "m", "polys", "drop", "poly", "term", "coeff", "exps", "exp"]))
    junk = draw(json_values)
    if where in ("p", "d", "m", "polys"):
        data[where] = junk
    elif where == "drop":
        del data[draw(st.sampled_from(["p", "d", "m", "polys"]))]
    elif where == "poly":
        polys[0] = junk
    elif polys[0] and where != "none":
        term = polys[0][0]
        if where == "term":
            polys[0][0] = junk
        elif where == "coeff":
            term[0] = junk
        elif where == "exps":
            term[1] = junk
        else:
            term[1][0] = junk
    return data


@settings(max_examples=300, deadline=None)
@given(st.one_of(map_dicts(), json_values))
def test_map_json_rejects_only_with_value_error(data):
    try:
        f = PolyMap.from_json_dict(data)
    except ValueError:
        return
    assert PolyMap.from_json_dict(json.loads(json.dumps(f.to_json_dict()))) == f


@settings(max_examples=100, deadline=None)
@given(psi_texts)
def test_cli_psi_errors_exit_two(text):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["khintchine", "--p", "3", "--n", "1", f"--psi={text}", "--terms", "3"])
    out = json.loads(buf.getvalue())
    assert code == 0 or (code == 2 and out["error"]["kind"] in ("invalid-input", "hypothesis"))


def test_deeply_nested_map_json_exits_two():
    # json.loads raises RecursionError on deep nesting; it used to escape as a traceback
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["enumerate-s-tau", "--map-json", "[" * 100_000 + "]" * 100_000, "--tau", "7/5", "--hmax", "4"])
    out = json.loads(buf.getvalue())
    assert code == 2 and out["error"] == {"kind": "invalid-input", "message": "map JSON nests too deeply"}


# ---------------------------------------------------------------------------
# Whole command lines
# ---------------------------------------------------------------------------

SQUARE = '{"p": 3, "d": 1, "m": 1, "polys": [[["1", [2]]]]}'
FUZZ_VALUES = ["-1", "0", "1", "2", "4", "7", "1/0", "x", "--"]
# one small valid value per flag; any other flag takes "2"
VALID = {"p": "3", "psi": "q^-2", "form": "1,2", "tau": "2", "sigma": "1", "x": "1", "delta": "1",
         "map_json": SQUARE, "counts": "1:2,2:4,3:7,4:9,5:11"}
# --n is the exponent of every node width p^n: Z_7^4 and beyond would be slow
SIZE_CAPS = {"n": 2}


def _commands():
    """(argv prefix, parser) for every subcommand, the four dim formulas included."""
    out = []
    stack = [([], build_parser())]
    while stack:
        prefix, parser = stack.pop()
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            out.append((prefix, parser))
        for action in subs:
            stack.extend((prefix + [name], sp) for name, sp in action.choices.items())
    return sorted(out, key=lambda c: c[0])


COMMANDS = _commands()


def _file_values(tmp_path):
    """Paths for the file flags, all inside tmp_path: the valid path first, then junk,
    a missing directory and a directory."""
    good_set, junk_set = tmp_path / "good.clopen", tmp_path / "junk.clopen"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["partial-limsup", "--p", "3", "--psi", "q^-2", "--from", "1", "--to", "4",
                     "--save-set", str(good_set)]) == 0
    junk_set.write_text(good_set.read_text()[:-3])
    good_map, junk_map = tmp_path / "good.json", tmp_path / "junk.json"
    good_map.write_text(SQUARE)
    junk_map.write_text("x")
    broken = [str(tmp_path / "missing" / "f"), str(tmp_path)]
    return {
        "set": [str(good_set), str(junk_set)] + broken,
        "map": [str(good_map), str(junk_map)] + broken,
        "csv": [str(tmp_path / "out.csv")] + broken,
        "save_set": [str(tmp_path / "out.clopen")] + broken,
    }


def _mostly(valid, junk):
    """The valid value three times in four, else a draw from junk."""
    return st.integers(0, 3).flatmap(lambda k: junk if k == 0 else st.just(valid))


@st.composite
def _argvs(draw, files):
    """A command line of one subcommand: a required flag is present seven times in eight,
    any other flag one time in two."""
    prefix, parser = draw(st.sampled_from(COMMANDS))
    argv = list(prefix)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or draw(st.integers(0, 7 if action.required else 1)) == 0:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.dest in files:
            values = _mostly(files[action.dest][0], st.sampled_from(files[action.dest][1:]))
        else:
            cap = SIZE_CAPS.get(action.dest)
            pool = [v for v in FUZZ_VALUES if cap is None or not v.isdigit() or int(v) <= cap]
            values = _mostly(VALID.get(action.dest, "2"), st.sampled_from(pool + list(action.choices or [])))
        if action.nargs in ("*", "+"):
            argv += [flag, *draw(st.lists(values, max_size=3))]
            continue
        for _ in range(draw(st.integers(1, 2)) if isinstance(action, argparse._AppendAction) else 1):
            value = draw(values)
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


def test_cli_fuzz_exits_zero_or_two_with_one_json_object(tmp_path):
    files = _file_values(tmp_path)

    @settings(max_examples=300, deadline=None, database=None)
    @given(_argvs(files))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = out.getvalue().splitlines()
        assert code in (0, 2) and len(lines) == 1 and isinstance(json.loads(lines[0]), dict), argv
        assert "Traceback" not in err.getvalue(), argv

    run()


def _setattr_depth(s):
    s.depth = 3


def _system(p=3, n=1, coeffs=None, tau=None):
    """A LinearFormSystem over coefficients in Z_3 with one field replaced."""
    row = (core.PAdicInt(3, 4, 1),) * (n + 1)
    coeffs = (row,) * n if coeffs is None else coeffs
    tau = (Fraction(n + 1, n),) * n if tau is None else tau
    return minkowski.LinearFormSystem(p, n, coeffs, (1,) * (n + 1), tau, (1,) * n)


SQUARE_MAP = PolyMap.from_json_dict(json.loads(SQUARE))
POWER_LAW = approx.PowerLaw(Fraction(2))

# (callable, exception type, exact message), one row per refusal; the raises the
# proofs make unreachable (waterfill_v's v_i > 1, the "no solution found" ones) are left out
REFUSALS = {
    "step_exponent a0 < 1": (lambda: approx.step_exponent(POWER_LAW, 0, 3), ValueError,
                             "a0 must be a positive integer"),
    "ApproxTuple(())": (lambda: approx.ApproxTuple(()), ValueError, "need at least one component"),
    "layer_numerators a0 < 1": (lambda: approx.layer_numerators(0, True), ValueError,
                                "a0 must be a positive integer"),
    "psi against params.n": (lambda: approx.layer_measure(core.Params(3, 2), approx.ApproxTuple((POWER_LAW,)), 1,
                                                          True), ValueError, "psi has 1 components, params.n = 2"),
    "ubiquity_fraction alpha": (lambda: approx.ubiquity_fraction(core.Params(3, 2), [Fraction(2)], 3, 1, 5),
                                ValueError, "alpha must have n components"),
    "BallSpec lengths": (lambda: clopen.BallSpec((Fraction(0),), (1, 2)), ValueError,
                         "center and exponents must have equal length"),
    "BallSpec exponent": (lambda: clopen.BallSpec((Fraction(0),), (-1,)), ValueError,
                          "radius exponents must be nonnegative"),
    "ClopenSet immutable": (lambda: _setattr_depth(clopen.ClopenSet.empty(3, 1, 2)), AttributeError,
                            "ClopenSet is immutable"),
    "product_set no factor": (lambda: clopen.product_set([]), ValueError, "need at least one factor"),
    "product_set primes": (lambda: clopen.product_set([clopen.ClopenSet.empty(3, 1, 2),
                                                       clopen.ClopenSet.empty(5, 1, 2)]), ValueError,
                           "factors must be one-dimensional sets over a common prime"),
    "product_set n = 2 factor": (lambda: clopen.product_set([clopen.ClopenSet.empty(3, 2, 2)]), ValueError,
                                 "factors must be one-dimensional sets over a common prime"),
    "euler_phi(0)": (lambda: core.euler_phi(0), ValueError, "euler_phi needs q >= 1"),
    "Params(3, 0)": (lambda: core.Params(3, 0), ValueError, "n >= 1 required"),
    "truncate upward": (lambda: core.PAdicInt(3, 2, 1).truncate(3), ValueError,
                        "cannot raise precision by truncation"),
    "shift_map precision 1": (lambda: core.shift_map(core.PAdicInt(3, 1, 1)), ValueError,
                              "shift_map needs precision >= 2"),
    "waterfill_level target": (lambda: dimension.waterfill_level([1, 1], 3), ValueError,
                               "target exceeds sum(tau)"),
    "waterfill_v split": (lambda: dimension.waterfill_v([2, 2], 2, 1), ValueError,
                          "need d >= 1, m >= 1, d + m = n"),
    "ww_exponent variant": (lambda: dimension.ww_exponent([1], [1], "K4-sum"), ValueError,
                            "variant must be 'K2-sum' or 'K3-sum'"),
    "manifold_lower_bound d + m": (lambda: dimension.manifold_lower_bound([2, 2], 1, 2, "thm2.9"), ValueError,
                                   "d + m must equal n"),
    "thm2.8 split": (lambda: dimension.manifold_lower_bound([2, 2, 2], 2, 1, "thm2.8"), ValueError,
                     "the curve case needs d = 1, m = n - 1"),
    "thm2.8 tau_1 bound": (lambda: dimension.manifold_lower_bound([1, Fraction(3, 2)], 1, 1, "thm2.8"),
                           core.HypothesisError,
                           "hypothesis violated: tau_1 >= max(tau_i, n+1-sum_{j>=2} tau_j) (got 1 < 3/2)"),
    "unknown selector": (lambda: dimension.manifold_lower_bound([2], 1, 0, "thm3.1"), ValueError,
                         "unknown formula selector 'thm3.1'"),
    "frac_pow base <= 0": (lambda: exactcmp.frac_pow(-4, Fraction(1, 2)), ValueError,
                           "fractional power 1/2 of the non-positive base -4"),
    "PolyMap d = 0": (lambda: PolyMap(3, 0, 1, ((),)), ValueError, "d >= 1 and m >= 1 required"),
    "PolyMap m = 0": (lambda: PolyMap(3, 1, 0, ()), ValueError, "d >= 1 and m >= 1 required"),
    "RationalPoint a0 = 0": (lambda: manifold.RationalPoint((0, 1)), ValueError, "a_0 must be nonzero"),
    "DirichletInstance prime": (lambda: manifold.DirichletInstance(SQUARE_MAP, (core.PAdicInt(5, 4, 1),),
                                                                   (Fraction(3, 2),), (Fraction(3, 2),), 10),
                                ValueError, "x coordinates must live over the map's prime"),
    "enumerate_S_tau tau": (lambda: manifold.enumerate_S_tau(SQUARE_MAP, [2, 2], 3), ValueError,
                            "need one dependent exponent per component"),
    "cover_preimage delta": (lambda: manifold.cover_preimage(SQUARE_MAP, [2, 2], 1, 3, 10, lipschitz_bound=2),
                             ValueError, "delta too large for the Lipschitz bound"),
    "LinearFormSystem coeffs": (lambda: _system(coeffs=()), ValueError, "need n forms with n+1 coefficients each"),
    "LinearFormSystem tau": (lambda: _system(tau=()), ValueError, "tau and sigma must have n entries"),
    "LinearFormSystem tau > 0": (lambda: _system(n=2, tau=(4, -1)), ValueError, "tau entries must be positive"),
    "LinearFormSystem prime": (lambda: _system(p=5), ValueError, "coefficient prime differs from system prime"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusals(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(Exception) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (kind, message)
