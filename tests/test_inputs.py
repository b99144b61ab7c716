"""Fuzz properties of the input parsers: every rejection is a ValueError.

The CLI maps ValueError to exit status 2 with a JSON error, so any other
exception escaping `parse_psi` or `PolyMap.from_json_dict` would surface as a
traceback and exit status 1. The last test fuzzes whole command lines drawn
from the parser's own actions.
"""

import argparse
import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

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
