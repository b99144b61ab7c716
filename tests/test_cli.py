import json
import subprocess
import sys
import time

import pytest

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
    assert out["h0_cases"] == json.loads(json.dumps(cli.fmt(real(calls[0]).cases)))


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


def test_negative_limit_is_invalid_input(capsys):
    # a negative --limit used to slice points[:-2] and echo all but the last two
    code, out = run_cli(
        capsys, "enumerate-s-tau", "--map-json", SQUARE, "--tau", "7/5", "--hmax", "4", "--limit", "-2"
    )
    assert code == 2
    assert out["error"]["kind"] == "invalid-input" and "--limit" in out["error"]["message"]
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
