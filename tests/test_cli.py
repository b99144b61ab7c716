import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import old_emit_text, old_fmt
from padicapprox import cli
from padicapprox.cli import main, parse_psi
from padicapprox.approx import PowerLaw, ScaledPower, TableFunction
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_psi_grammar():
    assert parse_psi("q^-2") == PowerLaw(Fraction(2))
    assert parse_psi("q^-5/2") == PowerLaw(Fraction(5, 2))
    assert parse_psi("3*q^-2") == ScaledPower(Fraction(3), Fraction(2))
    assert parse_psi("1/(2q)") == ScaledPower(Fraction(1, 2), Fraction(1))
    assert parse_psi("3/q") == ScaledPower(Fraction(3), Fraction(1))
    assert parse_psi("table:2=1/4,3=1/9") == TableFunction(((2, Fraction(1, 4)), (3, Fraction(1, 9))))
    with pytest.raises(ValueError):
        parse_psi("sin(q)")


def test_dim_jb_example(capsys):
    code, out = run_cli(capsys, "dim", "jb", "--tau", "3", "2")
    assert code == 0
    assert out["value"] == "4/3"


def test_dim_hypothesis_violation_is_structured(capsys):
    code, out = run_cli(capsys, "dim", "jb", "--tau", "3/2", "3/2")
    assert code == 2
    assert out["error"]["kind"] == "hypothesis"
    assert "sum(tau_i) > n+1" in out["error"]["failed"]


def test_measure_layer_example(capsys):
    code, out = run_cli(
        capsys, "measure-layer", "--p", "3", "--n", "1", "--psi", "1/(2q)", "--a0", "4", "--reduced"
    )
    assert code == 0
    assert out["measure"] == "2/9"
    assert out["equal"] is True


def test_claims_check_cli(capsys):
    code, out = run_cli(
        capsys, "claims-check", "--p", "3", "--n", "1", "--psi", "1/(2q)", "--a0", "4", "--b0", "5"
    )
    assert code == 0
    assert out["equal_a"] and out["equal_b"]


def test_khintchine_cli(capsys):
    code, out = run_cli(capsys, "khintchine", "--p", "3", "--n", "1", "--psi", "1/(2q)", "--terms", "4")
    assert code == 0 and out["partial_sum"] == "2"


def test_partial_limsup_cli_with_artifacts(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    set_path = tmp_path / "set.clopen"
    code, out = run_cli(
        capsys,
        "partial-limsup", "--p", "3", "--n", "1", "--psi", "1/(2q)",
        "--from", "1", "--to", "10", "--reduced",
        "--csv", str(csv_path), "--save-set", str(set_path), "--boxes", "2", "3",
    )
    assert code == 0
    assert "box_counts" in out and out["box_counts"]["2"] >= 1
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("a0,layer_measure")
    assert len(lines) == 11
    from padicapprox.clopen import ClopenSet

    S = ClopenSet.from_text(set_path.read_text())
    assert str(S.measure().numerator) in out["measure"] or out["measure"] == str(S.measure())


def test_minkowski_cli(capsys):
    code, out = run_cli(
        capsys,
        "minkowski", "--p", "3", "--precision", "12",
        "--form", "7,−1".replace("−", "-"),
        "--height", "8", "8", "--tau", "2", "--sigma", "1",
    )
    assert code == 0
    assert out["verified"] is True
    assert len(out["solution"]) == 2


def test_minkowski_cli_at_a_box_of_10_to_the_18_points(capsys):
    # the old dictionary walk would have bucketed up to 10^18 box points
    code, out = run_cli(
        capsys,
        "minkowski", "--p", "3", "--precision", "30",
        "--form=1/2,7,-3", "--form=5/4,-2/5,1",
        "--height", "1000000", "1000000", "1000000", "--tau", "3/2", "3/2", "--sigma", "1", "1",
    )
    assert code == 0
    assert out["verified"] is True and out["method"] == "bucket"
    assert out["bucket_exponents"] == [18, 18]
    assert any(out["solution"]) and all(abs(v) <= 10**6 for v in out["solution"])


def test_minkowski_random_sweep_deterministic(capsys):
    code1, out1 = run_cli(capsys, "minkowski", "--p", "3", "--random", "5", "--seed", "7")
    code2, out2 = run_cli(capsys, "minkowski", "--p", "3", "--random", "5", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


SQUARE = '{"p": 3, "d": 1, "m": 1, "polys": [[["1", [2]]]]}'


def test_dirichlet_solve_cli(capsys):
    code, out = run_cli(
        capsys,
        "dirichlet-solve", "--map-json", SQUARE, "--x", "12345678901234567890",
        "--precision", "60", "--tau", "7/5", "--v", "8/5", "--H", "64",
    )
    assert code == 0
    assert out["verified"] is True
    assert out["h0"] == 38
    assert len(out["point"]) == 3


def test_dirichlet_solve_far_feasible_height_exits_two_at_once(capsys):
    # the least feasible height, about 1.5 * 10^8, is computed in closed form
    cubic = '{"p":1009,"d":1,"m":3,"polys":[[["1",[2]]],[["1",[3]]],[["1",[1]]]]}'
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "dirichlet-solve", "--map-json", cubic, "--x", "5", "--precision", "30",
        "--tau", "13/10", "13/10", "13/10", "--v", "11/10", "--H", "50",
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out["error"]["kind"] == "hypothesis" and out["error"]["failed"] == "H > H_0"


def test_dirichlet_solve_threshold_past_the_float_range_exits_two(capsys):
    # beta = 3^2000: its float is out of range, and H = 50 is far below it
    code, out = run_cli(
        capsys, "dirichlet-solve", "--map-json", SQUARE, "--x", "5", "--precision", "30",
        "--tau", "1999/1000", "--v", "1001/1000", "--H", "50",
    )
    assert code == 2 and out["error"]["failed"] == "H > H_0"
    assert f"H_0={3**2000}" in out["error"]["message"]


def test_dirichlet_solve_threshold_past_the_digit_limit_names_its_case(capsys):
    # beta = 3^20000 has more digits than int-to-str conversion allows, so H_0 is named, not printed
    code, out = run_cli(
        capsys, "dirichlet-solve", "--map-json", SQUARE, "--x", "5", "--precision", "30",
        "--tau", "19999/10000", "--v", "10001/10000", "--H", "50",
    )
    assert code == 2 and out["error"]["kind"] == "hypothesis" and out["error"]["failed"] == "H > H_0"
    assert out["error"]["message"] == "hypothesis violated: H > H_0 (H=50, H_0=floor(3^(20000)))"


def test_dirichlet_solve_base_point_below_the_bucket_precision(capsys):
    argv = ["dirichlet-solve", "--map-json", SQUARE, "--x", "1", "--tau", "7/5", "--v", "8/5", "--H", "111"]
    # 5 digits are too few for the scan (bucket exponent 7) but enough for the search
    code, out = run_cli(capsys, *argv, "--precision", "5")
    assert code == 0
    assert (out["point"], out["k"], out["method"], out["verified"]) == ([1, 1, 1], 0, "exhaustive", True)
    # 4 digits are too few for the search as well
    code, out = run_cli(capsys, *argv, "--precision", "4")
    assert code == 2
    assert out["error"] == {
        "kind": "invalid-input", "message": "needed congruence level exceeds the base point precision"
    }


def test_enumerate_s_tau_cli(capsys):
    code, out = run_cli(
        capsys, "enumerate-s-tau", "--map-json", SQUARE, "--tau", "7/5", "--hmax", "20"
    )
    assert code == 0
    assert out["count"] >= 1
    assert [1, 2, 4] in out["points"]


def test_cover_preimage_cli(capsys):
    code, out = run_cli(
        capsys,
        "cover-preimage", "--map-json", SQUARE, "--tau", "12/5", "7/5",
        "--hmax", "20", "--depth", "12", "--boxes", "3", "4",
    )
    assert code == 0
    assert Fraction(out["measure"]) > 0


def test_zero_denominator_psi_is_invalid_input(capsys):
    code, out = run_cli(
        capsys, "claims-check", "--p", "3", "--n", "1", "--psi", "1/0*q^-2", "--a0", "4", "--b0", "6"
    )
    assert code == 2
    assert out["error"]["kind"] == "invalid-input"
    assert "zero denominator" in out["error"]["message"]


def test_map_json_without_polys_is_invalid_input(capsys):
    code, out = run_cli(
        capsys, "enumerate-s-tau", "--map-json", '{"p":3,"d":1,"m":1}', "--tau", "7/5", "--hmax", "5"
    )
    assert code == 2
    assert out["error"]["kind"] == "invalid-input"
    assert "polys" in out["error"]["message"]


def _zero_denominator_case(subcommand, flag, argv):
    return pytest.param(argv, id=f"{subcommand} {flag}")


@pytest.mark.parametrize(
    "argv",
    [
        _zero_denominator_case("enumerate-s-tau", "--tau", [
            "enumerate-s-tau", "--map-json", SQUARE, "--tau", "1/0", "--hmax", "5"]),
        _zero_denominator_case("cover-preimage", "--tau", [
            "cover-preimage", "--map-json", SQUARE, "--tau", "12/5", "1/0", "--hmax", "5", "--depth", "4"]),
        _zero_denominator_case("cover-preimage", "--delta", [
            "cover-preimage", "--map-json", SQUARE, "--tau", "12/5", "7/5", "--delta", "1/0",
            "--hmax", "5", "--depth", "4"]),
        _zero_denominator_case("dirichlet-solve", "--tau", [
            "dirichlet-solve", "--map-json", SQUARE, "--x", "5", "--tau", "1/0", "--v", "8/5", "--H", "64"]),
        _zero_denominator_case("dirichlet-solve", "--v", [
            "dirichlet-solve", "--map-json", SQUARE, "--x", "5", "--tau", "7/5", "--v", "1/0", "--H", "64"]),
        _zero_denominator_case("minkowski", "--form", [
            "minkowski", "--p", "3", "--form", "1/0,2", "--height", "5", "5", "--tau", "2", "--sigma", "1"]),
        _zero_denominator_case("minkowski", "--tau", [
            "minkowski", "--p", "3", "--form", "7,-1", "--height", "5", "5", "--tau", "2/0", "--sigma", "1"]),
        _zero_denominator_case("minkowski", "--sigma", [
            "minkowski", "--p", "3", "--form", "7,-1", "--height", "5", "5", "--tau", "2", "--sigma", "1/0"]),
        _zero_denominator_case("dim jb", "--tau", ["dim", "jb", "--tau", "3/0", "2"]),
        _zero_denominator_case("dim rynne", "--tau", ["dim", "rynne", "--tau", "3", "2/0"]),
        _zero_denominator_case("dim ww", "--a", ["dim", "ww", "--a", "1/0", "3/2", "--t", "3/2", "1/2"]),
        _zero_denominator_case("dim ww", "--t", ["dim", "ww", "--a", "3/2", "3/2", "--t", "3/2", "1/0"]),
        _zero_denominator_case("dim manifold", "--tau", [
            "dim", "manifold", "--which", "thm2.9", "--tau", "12/5", "7/0", "--d", "1", "--m", "1"]),
    ],
)
def test_rational_flag_with_zero_denominator_is_invalid_input(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out["error"]["kind"] == "invalid-input"
    assert "zero denominator" in out["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "manifold", "--which", "thm2.9", "--tau", "2", "2", "2", "--d", "-1", "--m", "4"],
        ["dim", "manifold", "--which", "thm2.9", "--tau", "2", "2", "--d", "3", "--m", "-1"],
    ],
)
def test_thm29_rejects_empty_independent_or_negative_dependent_block(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out["error"] == {"kind": "invalid-input", "message": "thm2.9 needs d >= 1 and m >= 0"}


def _run_any(capsys, argv):
    """(exit status, stdout, stderr) of one call, argparse usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_REUSE_ARGVS = {
    # --form is an append action with a [] default: a shared default must not grow
    "minkowski two forms": ["minkowski", "--p", "3", "--precision", "12", "--form", "7,-1,2",
                            "--form", "3,1,-4", "--height", "6", "6", "6", "--tau", "3/2", "3/2",
                            "--sigma", "1", "1"],
    "minkowski one form": ["minkowski", "--p", "3", "--precision", "12", "--form", "7,-1",
                           "--height", "8", "8", "--tau", "2", "--sigma", "1"],
    "dim": ["dim", "manifold", "--which", "thm2.7", "--tau", "8/5", "8/5", "--d", "1", "--m", "1"],
    "json error": ["dim", "manifold", "--which", "thm2.9", "--tau", "2", "2", "--d", "3", "--m", "-1"],
    "usage error": ["dim", "jb"],
}


def test_parser_reuse_is_stateless(capsys):
    fresh = {}
    for name, argv in PARSER_REUSE_ARGVS.items():
        cli._parser.cache_clear()
        fresh[name] = _run_any(capsys, argv)
    assert [code for code, _, _ in fresh.values()] == [0, 0, 0, 2, 2]
    names = list(PARSER_REUSE_ARGVS)
    orders = [names, names[::-1], names[1::2] + names[::2], [names[0], names[-1], names[1]] * 2]
    cli._parser.cache_clear()
    parser = cli._parser()
    for order in orders:
        for name in order:
            assert _run_any(capsys, PARSER_REUSE_ARGVS[name]) == fresh[name], name
    assert cli._parser() is parser


def test_boxdim_cli_rejects_too_wide_set_header(tmp_path, capsys):
    path = tmp_path / "wide.clopen"
    path.write_text("clopen 1 3 40 4\nF")
    code, out = run_cli(capsys, "boxdim", "--p", "3", "--set", str(path))
    assert code == 2
    assert out["error"]["kind"] == "invalid-input"
    assert "MAX_WIDTH" in out["error"]["message"]


def test_boxdim_cli_from_counts(capsys):
    counts = ",".join(f"{k}:{3**k}" for k in range(1, 9))
    code, out = run_cli(capsys, "boxdim", "--p", "3", "--counts", counts)
    assert code == 0
    assert out["slope"] == "1.000000"


def test_boxdim_cli_from_saved_set(tmp_path, capsys):
    from padicapprox.clopen import ClopenSet

    path = tmp_path / "full.clopen"
    path.write_text(ClopenSet.full(2, 1, 8).to_text())
    code, out = run_cli(capsys, "boxdim", "--p", "2", "--set", str(path))
    assert code == 0
    assert out["slope"] == "1.000000"


def test_byte_identical_output_for_fixed_config():
    cmd = [
        sys.executable, "-m", "padicapprox.cli",
        "claims-check", "--p", "3", "--n", "2", "--psi", "1/(2q)", "--psi", "q^-2",
        "--a0", "4", "--b0", "25",
    ]
    # module invocation needs the package importable; run via python -m with cwd on src
    import padicapprox, os, pathlib

    env = dict(os.environ)
    src = str(pathlib.Path(padicapprox.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out1 = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    out2 = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    assert out1 == out2 and out1


# The README "CLI tour", in order, with the sha256 of each stdout. Stdout is byte-identical
# for a fixed command line, so these digests change only with a documented output change;
# TOUR_FILES are the two files the partial-limsup line writes.
TOUR_MAP = '{"p":3,"d":1,"m":1,"polys":[[["1",[2]]]]}'
README_TOUR = [
    (["measure-layer", "--p", "3", "--n", "1", "--psi", "1/(2q)", "--a0", "4", "--reduced"],
     "f2b8e3d0689586960800007e547c30dc36bb010641032a6ef32a0dc2fb7735ec"),
    (["claims-check", "--p", "3", "--n", "2", "--psi", "1/(2q)", "--psi", "q^-2", "--a0", "4", "--b0", "25"],
     "1310cea65a3b3c9b0f3e22b6afc3a957e0d32ecd53492ec52378ec39dfca9792"),
    (["khintchine", "--p", "3", "--n", "1", "--psi", "1/(2q)", "--terms", "100"],
     "bea7030ca626502e64ecff1d5be8ff3efa18180c9c48fba8f89a148d25bfb4d3"),
    (["duffin-schaeffer", "--p", "3", "--n", "1", "--psi", "1/(2q)", "--terms", "100"],
     "13acf44260bfd42ae697663522b58f01f8da91957c78765157e31b5e15e7b61c"),
    (["partial-limsup", "--p", "3", "--n", "1", "--psi", "q^-5/2", "--from", "100", "--to", "200",
      "--boxes", "3", "4", "5", "6", "7", "8", "9", "10", "--csv", "sweep.csv", "--save-set", "tail.clopen"],
     "b01248f3164ffcd5ba322708995aec203229f8f1f40ba2caaff6b5979f252c6a"),
    (["boxdim", "--p", "3", "--set", "tail.clopen", "--levels", "3", "4", "5", "6", "7", "8", "9", "10",
      "--drop-coarsest", "0"],
     "61b282d7517fdf8086e10e876cdfd33cbe8e7b69cc76248ebe317a7653582ba0"),
    (["minkowski", "--p", "3", "--precision", "12", "--form", "7,-1", "--height", "8", "8", "--tau", "2",
      "--sigma", "1"],
     "94e1f115c6ba6432e32d0b3cf5f114c5d42af48cb56d70867aa17c2f2d5bc8ee"),
    (["minkowski", "--p", "3", "--random", "100", "--seed", "7"],
     "469cc8887d166270d7781791dd0f4265db276e7c5772bbf67cc22851cebb2144"),
    (["dirichlet-solve", "--map-json", TOUR_MAP, "--x", "12345678901234567890", "--precision", "60",
      "--tau", "7/5", "--v", "8/5", "--H", "64"],
     "8728bee962f85a001ecf64e25a850cf5121c82fcb2d8702ddc1e0348e52fbaf5"),
    (["enumerate-s-tau", "--map-json", TOUR_MAP, "--tau", "7/5", "--hmax", "100"],
     "a06fd73b2c9630de06deb927198960334bf25f5692db885021cd43bd3fe3c8b8"),
    (["cover-preimage", "--map-json", TOUR_MAP, "--tau", "12/5", "7/5", "--hmax", "100", "--depth", "12",
      "--boxes", "2", "3", "4", "5", "6", "7", "8"],
     "c004e53ced5e66d9bc97c29ff122810a7f8ed0b6cc09f55d672bf0e1e5c1e60b"),
    (["dim", "jb", "--tau", "3", "2"], "5a19b0fcc04d0233a2fc87b8895e72ae311850ff78d82156396581c909cecb94"),
    (["dim", "rynne", "--tau", "3", "2"], "6556d4cf4977980bada14f4d5e71ec7e9cf1e2fa1d465f77cdce4faf4c382cb5"),
    (["dim", "ww", "--a", "3/2", "3/2", "--t", "3/2", "1/2", "--variant", "K2-sum"],
     "73da28c28d11543c329a01d99fa674b1099d3fdbb0ba45939906bd962c2af8b5"),
    (["dim", "manifold", "--which", "thm2.8", "--tau", "12/5", "7/5", "--d", "1", "--m", "1"],
     "a21c19b4767cba77436ac9bbd837aa874e15963bc0155bdab0480acff85ad557"),
]
TOUR_FILES = {
    "sweep.csv": "fb94ce2b3640c7e4befc3cd189fa9543f18f6e4e73e61664abbcb7c59a24841a",
    "tail.clopen": "66b3e1ee06e8ff7ca245aaafedd86e8d64bfc06a564f3030647fc479ecda8181",
}


def test_readme_tour_bytes_are_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for argv, digest in README_TOUR:
        code = main(argv)
        out = capsys.readouterr().out
        assert (argv[0], code, hashlib.sha256(out.encode()).hexdigest()) == (argv[0], 0, digest)
    for name, digest in TOUR_FILES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_dirichlet_solve_computes_h0_once(capsys, monkeypatch):
    from padicapprox import manifold

    calls = []
    real = manifold.dirichlet_h0

    def counting(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(manifold, "dirichlet_h0", counting)
    argv = ["dirichlet-solve", "--map-json", SQUARE, "--x", "12345678901234567890",
            "--precision", "60", "--tau", "7/5", "--v", "8/5", "--H", "64"]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1
    assert out["h0"] == real(calls[0]).h0 == 38
    assert out["h0_cases"] == json.loads(json.dumps(old_fmt(real(calls[0]).cases)))


EXACT = st.one_of(
    st.builds(Fraction, st.integers(-(10**40), 10**40)),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**200), 2**200), st.floats(), st.text(), EXACT)
PAYLOADS = st.dictionaries(st.text(max_size=8), st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=20,
), max_size=5)


@settings(max_examples=100, deadline=None)
@given(PAYLOADS)
def test_emit_writes_the_bytes_of_the_recursive_json_dump(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(payload)
    assert out.getvalue() == old_emit_text(payload)


def test_emit_renders_only_fractions_and_fmt_only_scalars():
    assert [cli.fmt(v) for v in (Fraction(6, 3), Fraction(-1, 2), 7, None)] == ["2", "-1/2", 7, None]
    assert cli.fmt([Fraction(1, 2)]) == [Fraction(1, 2)]  # containers are the encoder's job
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(TypeError, match="Object of type set is not JSON"):
        cli.emit({"x": {1}})
    assert out.getvalue() == ""


def _dyadic_blocks_by_scan(points, hmax):
    """The per-block rescan the single-pass count replaced."""
    blocks = {}
    h = 1
    while h <= hmax:
        hi = min(2 * h - 1, hmax)
        blocks[f"[{h},{hi}]"] = sum(1 for pt in points if h <= pt.height <= hi)
        h *= 2
    return blocks


@pytest.mark.parametrize("hmax, hmin", [(50, 1), (50, 20), (64, 1), (64, 33), (13, 3), (5, 9), (1, 1)])
def test_enumerate_dyadic_counts_match_per_block_scan(capsys, hmax, hmin):
    from padicapprox import manifold

    code, out = run_cli(capsys, "enumerate-s-tau", "--map-json", SQUARE, "--tau", "7/5",
                        "--hmax", str(hmax), "--hmin", str(hmin))
    assert code == 0
    points = manifold.enumerate_S_tau(
        manifold.PolyMap.from_json_dict(json.loads(SQUARE)), [Fraction(7, 5)], hmax, h_min=hmin
    )
    want = _dyadic_blocks_by_scan(points, hmax)
    assert out["dyadic_counts"] == want and out["count"] == len(points)
    assert list(want) == sorted(want, key=lambda k: int(k[1:].split(",")[0]))
    if hmin > hmax:
        assert out["count"] == 0 and set(want.values()) == {0}


@pytest.mark.parametrize("argv, needle", [
    (["dim", "jb"], "the following arguments are required: --tau"),
    (["dim", "ww", "--a", "1", "--t", "1", "--variant", "K9-sum"], "argument --variant: invalid choice"),
    (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
])
def test_usage_errors_print_json(capsys, argv, needle):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    out = json.loads(captured.out)
    assert out["error"]["kind"] == "usage" and needle in out["error"]["message"]
    # argparse's own usage text and message stay on stderr
    assert captured.err.startswith("usage: padicapprox")
    assert f"error: {out['error']['message']}\n" in captured.err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--help"])
    assert exc.value.code == 0
    assert "usage: padicapprox dim" in capsys.readouterr().out


def test_valid_call_after_usage_errors_matches_fresh_parser(capsys):
    valid = ["dim", "manifold", "--which", "thm2.7", "--tau", "8/5", "8/5", "--d", "1", "--m", "1"]
    cli._parser.cache_clear()
    fresh = _run_any(capsys, valid)
    cli._parser.cache_clear()
    parser = cli._parser()
    for bad in (["dim", "jb"], ["dim", "ww", "--a", "1", "--t", "1", "--variant", "x"], ["nope"]):
        assert _run_any(capsys, bad)[0] == 2
    assert _run_any(capsys, valid) == fresh
    assert cli._parser() is parser and fresh[0] == 0


def test_negative_limit_is_a_usage_error(capsys):
    # a negative --limit used to slice points[:-2] and echo all but the last two
    code, out = run_cli(
        capsys, "enumerate-s-tau", "--map-json", SQUARE, "--tau", "7/5", "--hmax", "4", "--limit", "-2"
    )
    assert code == 2
    assert out["error"]["kind"] == "usage" and "--limit" in out["error"]["message"]
    code, out = run_cli(
        capsys, "enumerate-s-tau", "--map-json", SQUARE, "--tau", "7/5", "--hmax", "4", "--limit", "0"
    )
    assert code == 0 and out["points"] == [] and out["count"] == 33


def test_save_set_over_the_text_budget_is_invalid_input(tmp_path, capsys, monkeypatch):
    from padicapprox import clopen

    argv = ["cover-preimage", "--map-json", SQUARE, "--tau", "12/5", "7/5",
            "--hmax", "20", "--depth", "12", "--save-set"]
    code, out = run_cli(capsys, *argv, str(tmp_path / "fits.clopen"))
    assert code == 0
    length = len((tmp_path / "fits.clopen").read_text().partition("\n")[2])
    monkeypatch.setattr(clopen, "TEXT_BUDGET", length - 1)
    code, out = run_cli(capsys, *argv, str(tmp_path / "over.clopen"))
    assert code == 2 and out["error"]["kind"] == "invalid-input"
    assert f"clopen text of {length} characters" in out["error"]["message"]
    assert f"TEXT_BUDGET={length - 1}" in out["error"]["message"]
    assert not (tmp_path / "over.clopen").exists()


@pytest.mark.parametrize("argv, kind", [
    (["khintchine", "--p", "3", "--n", "1", "--psi=--", "--terms", "3"], "invalid-input"),
    (["khintchine", "--p=--", "--n", "1", "--psi", "q^-2", "--terms", "3"], "usage"),
    (["enumerate-s-tau", "--map-json=--", "--tau", "7/5", "--hmax", "4"], "invalid-input"),
    (["dim", "ww", "--a", "1", "--t", "1", "--variant=--"], "usage"),
])
def test_flag_value_of_two_dashes_exits_two(capsys, argv, kind):
    # the argparse of Python 3.11 turned `--flag=--` into the value [], which escaped
    # as AttributeError or TypeError
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"]["kind"] == kind


@pytest.mark.parametrize("argv", [
    ["dirichlet-solve", "--x", "5", "--tau", "7/5", "--v", "8/5", "--H", "64"],
    ["enumerate-s-tau", "--tau", "7/5", "--hmax", "4"],
    ["cover-preimage", "--tau", "12/5", "7/5", "--hmax", "4", "--depth", "4"],
], ids=lambda argv: argv[0])
def test_missing_map_is_a_usage_error(capsys, argv):
    # with neither --map nor --map-json, open(None) used to raise TypeError (exit 1)
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out["error"] == {
        "kind": "usage", "message": "one of the arguments --map --map-json is required"
    }


@pytest.mark.parametrize("hmax", ["-3", "0"])
@pytest.mark.parametrize("argv", [
    ["enumerate-s-tau", "--map-json", SQUARE, "--tau", "7/5"],
    ["cover-preimage", "--map-json", SQUARE, "--tau", "12/5", "7/5", "--depth", "4"],
], ids=lambda argv: argv[0])
def test_hmax_below_one_is_a_usage_error(capsys, argv, hmax):
    # enumerate-s-tau used to exit 0 with count 0, cover-preimage to blame a power product
    code, out = run_cli(capsys, *argv, "--hmax", hmax)
    assert code == 2 and out["error"] == {
        "kind": "usage", "message": f"argument --hmax: must be an integer >= 1, got {hmax}"
    }
    code, out = run_cli(capsys, *argv, "--hmax", "x")
    assert code == 2 and out["error"]["message"] == "argument --hmax: invalid int value: 'x'"


def test_partial_limsup_decides_each_threshold_once(tmp_path, capsys, monkeypatch):
    # 101 one-coordinate layers: one step-exponent list gives the depth, every
    # layer and, with --csv, the reference column
    from padicapprox import approx

    calls = []

    real = approx.ball_exponent

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(approx, "ball_exponent", counting)
    argv = ["partial-limsup", "--p", "3", "--n", "1", "--psi", "q^-5/2",
            "--from", "100", "--to", "200", "--boxes", "3", "4"]
    code, plain = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 101 and plain["depth"] == 13
    calls.clear()
    code, swept = run_cli(capsys, *argv, "--csv", str(tmp_path / "sweep.csv"))
    assert code == 0 and len(calls) == 101 and swept == plain


def test_partial_limsup_depth_zero_is_checked(capsys):
    # `--depth 0` used to be read as no depth at all, and exited 0 with "depth": 3
    code, out = run_cli(capsys, "partial-limsup", "--p", "3", "--psi", "q^-2", "--from", "1", "--to", "3",
                        "--depth", "0")
    assert code == 2 and out["error"] == {
        "kind": "invalid-input", "message": "insufficient depth: range needs level 3, depth is 0"
    }


def violated(failed, detail):
    """The error payload of a failed hypothesis with the given detail."""
    return {"kind": "hypothesis", "failed": failed, "message": f"hypothesis violated: {failed} (got {detail})"}


@pytest.mark.parametrize("argv, error", [
    # neither source used to raise AttributeError on args.counts
    (["boxdim", "--p", "3"], {"kind": "usage", "message": "one of the arguments --counts --set is required"}),
    # one distinct level used to reach the slope fit and raise ZeroDivisionError
    (["boxdim", "--p", "3", "--counts", "3:2,3:4,3:7", "--drop-coarsest", "0"],
     {"kind": "invalid-input", "message": "need at least 3 levels with nonzero counts"}),
    # the random sweep draws its own primes and used to ignore --p
    (["minkowski", "--p", "4", "--random", "3"], {"kind": "invalid-input", "message": "p must be prime, got 4"}),
    (["minkowski", "--p", "0", "--random", "1"], {"kind": "invalid-input", "message": "p must be prime, got 0"}),
    # p**-3 is a float, and pow(den, -1, p**-3) raised TypeError
    (["minkowski", "--p", "3", "--form", "1,2", "--height", "5", "5", "--tau", "2", "--sigma", "1",
      "--precision", "-3"], {"kind": "invalid-input", "message": "precision must be >= 1"}),
    # no terms used to print a partial sum of 0
    (["khintchine", "--p", "3", "--psi", "q^-2", "--terms", "-1"],
     {"kind": "usage", "message": "argument --terms: must be an integer >= 1, got -1"}),
    (["duffin-schaeffer", "--p", "3", "--psi", "q^-2", "--terms", "-1"],
     {"kind": "usage", "message": "argument --terms: must be an integer >= 1, got -1"}),
    (["khintchine", "--p", "3", "--psi", "q^-2", "--terms", "0"],
     {"kind": "usage", "message": "argument --terms: must be an integer >= 1, got 0"}),
    # a negative count used to exit 0 with "systems": 0, and 0 fell through to the form path
    (["minkowski", "--p", "3", "--random", "-2"],
     {"kind": "usage", "message": "argument --random: must be an integer >= 1, got -2"}),
    (["minkowski", "--p", "3", "--random", "0"],
     {"kind": "usage", "message": "argument --random: must be an integer >= 1, got 0"}),
    # log 1 = 0 used to end in ZeroDivisionError, and p = 4 fitted a slope
    (["boxdim", "--p", "1", "--counts", "1:2,2:4,3:7,4:9,5:11"],
     {"kind": "invalid-input", "message": "p must be prime, got 1"}),
    (["boxdim", "--p", "4", "--counts", "1:2,2:4,3:7,4:9,5:11"],
     {"kind": "invalid-input", "message": "p must be prime, got 4"}),
    # the form was reduced mod p^precision first: ZeroDivisionError at p = 0, a divisibility message at p = 1
    (["minkowski", "--p", "0", "--form", "1,2", "--height", "5", "5", "--tau", "2", "--sigma", "1"],
     {"kind": "invalid-input", "message": "prime must be prime, got 0"}),
    (["minkowski", "--p", "1", "--form", "1,2", "--height", "5", "5", "--tau", "2", "--sigma", "1"],
     {"kind": "invalid-input", "message": "prime must be prime, got 1"}),
    (["minkowski", "--p", "4", "--form", "1,2", "--height", "5", "5", "--tau", "2", "--sigma", "1"],
     {"kind": "invalid-input", "message": "prime must be prime, got 4"}),
    # a negative drop used to slice off all but the finest levels and fit [3, 4, 5]
    (["boxdim", "--p", "3", "--counts", "0:1,1:3,2:9,3:27,4:81,5:200", "--drop-coarsest", "-3"],
     {"kind": "invalid-input", "message": "need drop_coarsest >= 0, got -3"}),
    # --levels used to be ignored next to --counts, which fitted [2, 3, 4, 5]
    (["boxdim", "--p", "3", "--counts", "0:1,1:3,2:9,3:27,4:81,5:200", "--levels", "1", "2"],
     {"kind": "invalid-input", "message": "--levels needs --set"}),
    # 501^2 * 250 candidates exceed the enumeration budget of 3 * 10^7
    (["enumerate-s-tau", "--map-json", '{"p": 3, "d": 2, "m": 1, "polys": [[["1", [2, 0]]]]}', "--tau", "7/5",
      "--hmax", "250"], {"kind": "invalid-input", "message": "enumeration budget exceeded"}),
    # the drop sliced entries, not levels, and fitted [1, 2, 3, 4] where distinct levels fit [2, 3, 4]
    (["boxdim", "--p", "3", "--set", "full.clopen", "--levels", "0", "0", "1", "2", "3", "4",
      "--drop-coarsest", "2"], {"kind": "invalid-input", "message": "level 0 given twice"}),
    # two counts for level 1 used to be fitted together (r^2 0.04)
    (["boxdim", "--p", "3", "--counts", "1:2,1:50,2:4,3:9,4:20", "--drop-coarsest", "0"],
     {"kind": "invalid-input", "message": "level 1 given twice"}),
    # the later of two values for one q used to win silently (step exponent 3 here, 2 swapped)
    (["measure-layer", "--p", "3", "--psi", "table:2=1/4,2=1/9", "--a0", "2"],
     {"kind": "invalid-input", "message": "table gives q=2 twice"}),
    (["measure-layer", "--p", "3", "--psi", "table:2=1/9,2=1/4", "--a0", "2"],
     {"kind": "invalid-input", "message": "table gives q=2 twice"}),
    # q = -2 used to be accepted and fail at lookup with "table has no value at q=2"
    (["measure-layer", "--p", "3", "--psi", "table:-2=1/4", "--a0", "2"],
     {"kind": "invalid-input", "message": "table has q=-2; q must be >= 1"}),
    # an entry without one "=" used to print Python's unpacking message
    (["measure-layer", "--p", "3", "--psi", "table:", "--a0", "2"],
     {"kind": "invalid-input", "message": "table entry '' is not q=value"}),
    (["measure-layer", "--p", "3", "--psi", "table:2=1/4,", "--a0", "2"],
     {"kind": "invalid-input", "message": "table entry '' is not q=value"}),
    (["measure-layer", "--p", "3", "--psi", "table:2", "--a0", "2"],
     {"kind": "invalid-input", "message": "table entry '2' is not q=value"}),
    (["measure-layer", "--p", "3", "--psi", "table:2=1/4=3", "--a0", "2"],
     {"kind": "invalid-input", "message": "table entry '2=1/4=3' is not q=value"}),
    # a bad q or value used to print Python's conversion message, which did not name the entry
    (["measure-layer", "--p", "3", "--psi", "table:=1/4", "--a0", "2"],
     {"kind": "invalid-input", "message": "table entry '=1/4' is not q=value"}),
    (["measure-layer", "--p", "3", "--psi", "table:x=1/4", "--a0", "2"],
     {"kind": "invalid-input", "message": "table entry 'x=1/4' is not q=value"}),
    (["measure-layer", "--p", "3", "--psi", "table:2=", "--a0", "2"],
     {"kind": "invalid-input", "message": "table entry '2=' is not q=value"}),
    # level -1 used to be fitted, and negative counts at dropped levels were ignored
    (["boxdim", "--p", "3", "--counts=-1:3,0:1,2:9,3:27", "--drop-coarsest", "0"],
     {"kind": "invalid-input", "message": "counts have level -1; k must be >= 0"}),
    (["boxdim", "--p", "3", "--counts", "1:-3,2:-9,3:27,4:81,5:243"],
     {"kind": "invalid-input", "message": "counts have N=-3 at level 1; N must be >= 0"}),
    # an entry without one ":" used to print Python's unpacking message
    (["boxdim", "--p", "3", "--counts", "1:3,2:9:4,3:27"],
     {"kind": "invalid-input", "message": "counts entry '2:9:4' is not k:N"}),
    (["boxdim", "--p", "3", "--counts", ""], {"kind": "invalid-input", "message": "counts entry '' is not k:N"}),
    (["boxdim", "--p", "3", "--counts", "1:3,x:9,3:27,4:81"],
     {"kind": "invalid-input", "message": "counts entry 'x:9' is not k:N"}),
    # m = -1 used to exit 0 with "value": "5/2" and a checked hypothesis report
    (["dim", "manifold", "--tau", "2", "2", "--d", "3", "--m", "-1", "--which", "thm2.7"],
     {"kind": "invalid-input", "message": "thm2.7 needs d >= 1 and m >= 0"}),
    # the details of a tuple of rationals used to print Fraction reprs, e.g. (Fraction(1, 1), Fraction(3, 1))
    (["dim", "jb", "--tau", "1", "3"], violated("tau_i > 1", "(1, 3)")),
    (["dim", "rynne", "--tau", "0", "0", "1"], violated("tau_i > 0", "(0, 0, 1)")),
    (["dim", "ww", "--a", "0", "1", "--t", "1", "1"], violated("a_i > 0 and t_i >= 0", "a=(0, 1), t=(1, 1)")),
    (["dim", "manifold", "--tau", "2", "3", "--d", "1", "--m", "1", "--which", "thm2.7"],
     violated("equal weights", "(2, 3)")),
    (["dim", "manifold", "--tau", "3", "1/2", "--d", "1", "--m", "1", "--which", "thm2.8"],
     violated("tau_i > 1 for i >= 2", "(3, 1/2)")),
    (["dim", "manifold", "--tau", "5/4", "2", "3/2", "--d", "2", "--m", "1", "--which", "thm2.9"],
     violated("min indep tau >= max dep tau", "(5/4, 2, 3/2)")),
    (["dirichlet-solve", "--map-json", '{"p": 3, "d": 1, "m": 1, "polys": [[["1", [2]]]]}', "--x", "5",
      "--tau", "1", "--v", "2", "--H", "64"], violated("tau_j > 1", "(1)")),
    (["dirichlet-solve", "--map-json", '{"p": 3, "d": 2, "m": 1, "polys": [[["1", [2, 0]]]]}', "--x", "5,7",
      "--tau", "7/5", "--v", "1", "8/5", "--H", "64"], violated("v_i > 1", "(1, 8/5)")),
    # the random sweep used to ignore a system given next to it, solve its own and exit 0
    (["minkowski", "--p", "3", "--form", "1,2", "--height", "5", "5", "--tau", "2", "--sigma", "1", "--random", "2"],
     {"kind": "invalid-input", "message": "--random draws its own systems; drop --form, --height, --tau, --sigma"}),
    (["minkowski", "--p", "3", "--random", "2", "--height", "5", "5"],
     {"kind": "invalid-input", "message": "--random draws its own systems; drop --height"}),
    (["minkowski", "--p", "3", "--random", "2", "--tau"],
     {"kind": "invalid-input", "message": "--random draws its own systems; drop --tau"}),
    # the sweep used to ignore --precision, and the form path --seed, and exit 0
    (["minkowski", "--p", "3", "--random", "2", "--precision", "-4"],
     {"kind": "invalid-input", "message": "--random draws its own systems; drop --precision"}),
    (["minkowski", "--p", "3", "--random", "2", "--precision", "20"],
     {"kind": "invalid-input", "message": "--random draws its own systems; drop --precision"}),
    (["minkowski", "--p", "3", "--precision", "12", "--form", "7,-1", "--height", "8", "8", "--tau", "2",
      "--sigma", "1", "--seed", "99"],
     {"kind": "invalid-input", "message": "--seed seeds only the --random sweep; drop --seed"}),
    (["minkowski", "--p", "3", "--form", "7,-1", "--height", "8", "8", "--tau", "2", "--sigma", "1", "--seed", "0"],
     {"kind": "invalid-input", "message": "--seed seeds only the --random sweep; drop --seed"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_command_lines_exit_two(capsys, monkeypatch, tmp_path, argv, error):
    from padicapprox.clopen import ClopenSet

    monkeypatch.chdir(tmp_path)
    (tmp_path / "full.clopen").write_text(ClopenSet.full(3, 1, 6).to_text())
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out["error"] == error
    assert "Fraction(" not in out["error"]["message"]


def test_boxdim_set_refuses_another_prime(tmp_path, capsys):
    # the counts of a set over Z_3 used to be fitted against log 5 (slope 0.682606)
    path = tmp_path / "full.clopen"
    assert main(["partial-limsup", "--p", "3", "--psi", "3/q", "--from", "1", "--to", "1", "--depth", "4",
                 "--save-set", str(path)]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "boxdim", "--p", "3", "--set", str(path), "--drop-coarsest", "0")
    assert code == 0 and out["slope"] == "1.000000"
    code, out = run_cli(capsys, "boxdim", "--p", "5", "--set", str(path))
    assert code == 2 and out["error"] == {
        "kind": "invalid-input", "message": "--p 5 differs from the prime 3 of the set"
    }


@pytest.mark.parametrize("bounds, message", [
    # --csv used to write five rows, then fail with "layer a0=6 needs level 4"
    (["--from", "1", "--to", "10", "--depth", "3"], "insufficient depth: range needs level 5, depth is 3"),
    # --csv used to leave a header-only file
    (["--from", "5", "--to", "3"], "need 1 <= lo <= hi"),
    # --csv used to say "a0 must be a positive integer"
    (["--from", "0", "--to", "3"], "need 1 <= lo <= hi"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_partial_limsup_bad_range_fails_before_the_csv_exists(tmp_path, capsys, bounds, message):
    argv = ["partial-limsup", "--p", "3", "--psi", "q^-2", *bounds]
    error = {"kind": "invalid-input", "message": message}
    assert run_cli(capsys, *argv) == (2, {"error": error, "schema_version": "1"})
    path = tmp_path / "s.csv"
    assert run_cli(capsys, *argv, "--csv", str(path)) == (2, {"error": error, "schema_version": "1"})
    assert not path.exists()


@pytest.mark.parametrize("n", [1, 2])
def test_partial_limsup_bad_boxes_level_leaves_no_file(tmp_path, capsys, n):
    # --boxes 99 used to fail after the CSV was written
    paths = [tmp_path / "x.csv", tmp_path / "s.clopen"]
    argv = ["partial-limsup", "--p", "3", "--n", str(n), "--psi", "q^-2", "--from", "1", "--to", "5",
            "--csv", str(paths[0]), "--save-set", str(paths[1]), "--boxes", "2", "99"]
    error = {"kind": "invalid-input", "message": "level 99 outside [0, depth=3]"}
    assert run_cli(capsys, *argv) == (2, {"error": error, "schema_version": "1"})
    assert not any(path.exists() for path in paths)


@pytest.mark.parametrize("files", [[], ["--csv", "sweep.csv"]], ids=["plain", "--csv"])
def test_partial_limsup_n1_builds_a_trie_only_for_save_set(tmp_path, capsys, monkeypatch, files):
    # the measure and box counts are read off the maximal balls of the union; the
    # (3, 1) space used to hold the union's trie, and with --csv one trie per row
    from padicapprox import clopen

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(clopen, "_SPACES", {})
    argv = ["partial-limsup", "--p", "3", "--n", "1", "--psi", "q^-5/2", "--from", "100", "--to", "200",
            "--boxes", "3", "4", "5", "6", *files]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out["measure"] == "2899/59049"
    assert clopen._SPACES == {}
    assert run_cli(capsys, *argv, "--save-set", "tail.clopen") == (0, out)
    assert list(clopen._SPACES) == [(3, 1)] and len(clopen._SPACES[(3, 1)]._children) > 2
