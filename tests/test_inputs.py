"""Fuzz properties of the input parsers: every rejection is a ValueError.

The CLI maps ValueError to exit status 2 with a JSON error, so any other
exception escaping `parse_psi` or `PolyMap.from_json_dict` would surface as a
traceback and exit status 1.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox.cli import main, parse_psi
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
