"""Command-line entry point: deterministic experiments with JSON/CSV output.

Every exact rational is printed in lowest terms as "num/den" (or a bare
integer). Floats appear only as box-dimension slopes, fixed to six decimals,
and as the "float" reading of each dirichlet-solve h0_cases entry. Hypothesis
violations exit with status 2 and a structured report naming the failed inequality.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction

from . import approx, dimension, manifold, minkowski
from .clopen import ClopenSet
from .core import HypothesisError, PAdicInt, Params, embed_rational, is_prime, parse_fraction

SCHEMA_VERSION = "1"


def fmt(value):
    """Render an exact value for JSON or CSV: a Fraction as a string, anything else as is."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return value


def _json_fraction(value):
    if isinstance(value, Fraction):
        return fmt(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit(payload: dict) -> None:
    # json.dumps takes the C encoder; json.dump always encodes in Python
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(payload, sort_keys=True, default=_json_fraction) + "\n")


_PSI_PATTERNS = [
    (re.compile(r"^q\^(-?[\d/]+)$"), lambda m: approx.PowerLaw(-parse_fraction(m.group(1)))),
    (
        re.compile(r"^([\d/]+)\*q\^(-?[\d/]+)$"),
        lambda m: approx.ScaledPower(parse_fraction(m.group(1)), -parse_fraction(m.group(2))),
    ),
    (
        re.compile(r"^1/\(([\d/]*)q\)$"),
        lambda m: approx.ScaledPower(1 / _nonzero(parse_fraction(m.group(1) or "1")), Fraction(1)),
    ),
    (
        re.compile(r"^([\d/]+)/q$"),
        lambda m: approx.ScaledPower(parse_fraction(m.group(1)), Fraction(1)),
    ),
]


def _nonzero(x: Fraction) -> Fraction:
    if x == 0:
        raise ValueError("division by zero in the approximation function")
    return x


def parse_psi(text: str) -> approx.PsiComponent:
    """Tiny grammar: 'q^-5/2', '3*q^-2', '1/(2q)', '3/q', or 'table:2=1/4,3=1/9'."""
    text = text.strip().replace(" ", "")
    if text.startswith("table:"):
        entries = []
        for part in text[len("table:") :].split(","):
            try:
                q, value = part.split("=")
                entries.append((int(q), parse_fraction(value)))
            except ValueError:
                raise ValueError(f"table entry {part!r} is not q=value") from None
        return approx.TableFunction(tuple(entries))
    for pattern, build in _PSI_PATTERNS:
        m = pattern.match(text)
        if m:
            return build(m)
    raise ValueError(f"cannot parse approximation function {text!r}")


def psi_tuple_from_args(args, n: int) -> approx.ApproxTuple:
    specs = args.psi
    if len(specs) == 1:
        specs = specs * n
    if len(specs) != n:
        raise ValueError(f"need 1 or {n} --psi specifications, got {len(specs)}")
    return approx.ApproxTuple(tuple(parse_psi(s) for s in specs))


def load_map(args) -> manifold.PolyMap:
    try:
        if args.map is None:
            data = json.loads(args.map_json)
        else:
            with open(args.map) as fh:
                data = json.load(fh)
    except RecursionError:
        raise ValueError("map JSON nests too deeply") from None
    return manifold.PolyMap.from_json_dict(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_measure_layer(args) -> None:
    params = Params(args.p, args.n)
    psi = psi_tuple_from_args(args, args.n)
    mu = approx.layer_measure(params, psi, args.a0, args.reduced)
    ref = approx.reference_measure(params, psi, args.a0)
    emit(
        {
            "a0": args.a0,
            "reduced": args.reduced,
            "measure": mu,
            "reference": ref,
            "equal": mu == ref,
            "step_exponents": list(psi.step_exponents(args.a0, args.p)),
            "proper_at_a0": psi.proper_at(args.a0),
        }
    )


def cmd_claims_check(args) -> None:
    params = Params(args.p, args.n)
    psi = psi_tuple_from_args(args, args.n)
    emit(dataclasses.asdict(approx.measure_claims_check(params, psi, args.a0, args.b0)))


def cmd_khintchine(args) -> None:
    params = Params(args.p, args.n)
    psi = psi_tuple_from_args(args, args.n)
    emit({"terms": args.terms, "partial_sum": approx.khintchine_sum(params, psi, args.terms)})


def cmd_duffin_schaeffer(args) -> None:
    params = Params(args.p, args.n)
    psi = psi_tuple_from_args(args, args.n)
    total, ratio = approx.duffin_schaeffer_sum(params, psi, args.terms)
    emit({"terms": args.terms, "partial_sum": total, "ratio_to_khintchine": ratio})


def cmd_partial_limsup(args) -> None:
    params = Params(args.p, args.n)
    psi = psi_tuple_from_args(args, args.n)
    files = {}
    if args.csv:
        rows = approx.layer_sweep_rows(params, psi, args.start, args.end, args.reduced, args.depth)
        columns = ("a0", "layer_measure", "reference", "union_measure",
                   "khintchine_partial", "duffin_schaeffer_partial")
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row[k]) for k in columns])
        S = row["union"]  # the range is not empty, so the last row holds partial_limsup
        files[args.csv] = table.getvalue()
    else:
        # for n = 1 the ball table: its reads build no trie, and to_text builds one for --save-set
        S = approx._partial_union(params, psi, args.start, args.end, args.reduced, args.depth)
    _emit_set(args, S, {"range": [args.start, args.end], "reduced": args.reduced, "depth": S.depth}, files)


def _emit_set(args, S, out: dict, files: dict) -> None:
    """Emit out with the measure of S (a ClopenSet or an n = 1 ball table) and its --boxes
    counts, after writing the files (path: text) and --save-set. No file is opened before
    every count and text is made, so a bad level or a text over the budget leaves none."""
    out["measure"] = S.measure()
    if args.boxes:
        out["box_counts"] = {str(k): S.box_count(k) for k in args.boxes}
    if args.save_set:
        files[args.save_set] = S.to_text()
    for path, text in files.items():
        with open(path, "w", newline="") as fh:
            fh.write(text)
    emit(out)


def cmd_minkowski(args) -> None:
    system = {"--form": args.form, "--height": args.height, "--tau": args.tau, "--sigma": args.sigma,
              "--precision": args.precision}
    if args.random is not None:
        given = [flag for flag, value in system.items() if value is not None]
        if given:
            raise ValueError(f"--random draws its own systems; drop {', '.join(given)}")
        _random_minkowski_sweep(args)
        return
    if args.seed is not None:
        raise ValueError("--seed seeds only the --random sweep; drop --seed")
    forms, heights, tau, sigma = (args.form or [], args.height or [], args.tau or [], args.sigma or [])
    precision = 20 if args.precision is None else args.precision
    p = args.p
    n = len(forms)
    rows = []
    for spec in forms:
        entries = [parse_fraction(v) for v in spec.split(",")]
        if len(entries) != n + 1:
            raise ValueError(f"each form needs {n + 1} coefficients")
        rows.append(tuple(embed_rational(c.numerator, c.denominator, p=p, precision=precision)
                          for c in entries))
    sys_ = minkowski.LinearFormSystem(
        p, n, tuple(rows), tuple(heights), tuple(map(parse_fraction, tau)), tuple(map(parse_fraction, sigma))
    )
    sol = minkowski.solve(sys_)
    emit(
        {
            "solution": list(sol.x),
            "bucket_exponents": list(sol.bucket_exponents),
            "verified": sol.verified,
            "boundary": sol.boundary,
            "method": sol.method,
        }
    )


def _random_minkowski_sweep(args) -> None:
    if not is_prime(args.p):  # the sweep draws its own primes, but --p must still be one
        raise ValueError(f"p must be prime, got {args.p}")
    seed = 0 if args.seed is None else args.seed
    rng = random.Random(seed)
    solved = verified = surplus_ok = 0
    for _ in range(args.random):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        heights = tuple(rng.randrange(2, 13) for _ in range(n + 1))
        while True:
            tau = _random_split(rng, n, Fraction(n + 1))
            sigma = _random_signed_split(rng, n, Fraction(n))
            sys_ = minkowski.LinearFormSystem(
                p, n,
                tuple(tuple(PAdicInt(p, 14, rng.randrange(p**14)) for _ in range(n + 1)) for _ in range(n)),
                heights, tau, sigma,
            )
            try:
                minkowski.bucket_exponents(sys_)
                break
            except minkowski.BelowThresholdError:
                continue
        sol = minkowski.solve(sys_)
        solved += 1
        verified += sol.verified
        if minkowski.pigeonhole_surplus(sys_):
            surplus_ok += sol.method == "bucket"
    emit({"systems": solved, "verified": verified, "surplus_bucket_successes": surplus_ok, "seed": seed})


def _random_split(rng, n, total):
    while True:
        parts = [Fraction(rng.randrange(1, 4 * (n + 1)), 4) for _ in range(n - 1)]
        parts.append(total - sum(parts, Fraction(0)))
        if all(x > 0 for x in parts):
            return tuple(parts)


def _random_signed_split(rng, n, total):
    parts = [Fraction(rng.randrange(-4, 5), 2) for _ in range(n - 1)]
    parts.append(total - sum(parts, Fraction(0)))
    return tuple(parts)


def cmd_dirichlet_solve(args) -> None:
    f = load_map(args)
    x = tuple(
        PAdicInt(f.p, args.precision, int(r)) for r in args.x.split(",")
    )
    inst = manifold.DirichletInstance(
        f, x, tuple(parse_fraction(t) for t in args.tau), tuple(parse_fraction(v) for v in args.v), args.H
    )
    sol = manifold.dirichlet_solve(inst)
    emit(
        {
            "H": args.H,
            "h0": sol.h0_report.h0,
            "h0_cases": sol.h0_report.cases,
            "point": list(sol.point.a),
            "k": sol.k,
            "verified": sol.verified,
            "method": sol.method,
        }
    )


def cmd_enumerate_s_tau(args) -> None:
    f = load_map(args)
    pts = manifold.enumerate_S_tau(f, [parse_fraction(t) for t in args.tau], args.hmax, h_min=args.hmin)
    # a height lies in the dyadic block [2^k, 2^(k+1) - 1] iff its bit length is k + 1
    per_length = Counter(pt.height.bit_length() for pt in pts)
    blocks: dict[str, int] = {}
    h = 1
    while h <= args.hmax:
        blocks[f"[{h},{min(2 * h - 1, args.hmax)}]"] = per_length[h.bit_length()]
        h *= 2
    emit({"count": len(pts), "dyadic_counts": blocks, "points": [list(pt.a) for pt in pts[: args.limit]]})


def cmd_cover_preimage(args) -> None:
    f = load_map(args)
    cover = manifold.cover_preimage(
        f,
        [parse_fraction(t) for t in args.tau],
        parse_fraction(args.delta),
        args.hmax,
        depth=args.depth,
        h_min=args.hmin,
    )
    _emit_set(args, cover, {"depth": args.depth, "hmax": args.hmax, "hmin": args.hmin}, {})


def cmd_dim(args) -> None:
    which = args.formula
    if which == "jb":
        tau = [parse_fraction(t) for t in args.tau]
        value = dimension.jb_dimension(tau)
        n = len(tau)
        report = {"tau_i > 1": True, f"sum(tau_i) > {n + 1}": True}
        emit({"formula": "jb", "tau": tau, "value": value, "hypothesis_report": report})
    elif which == "rynne":
        tau = [parse_fraction(t) for t in args.tau]
        value = dimension.rynne_dimension(tau)
        report = {"sum(tau_i) >= 1": True, "sorted": tau == sorted(tau, reverse=True)}
        emit({"formula": "rynne", "tau": tau, "value": value, "hypothesis_report": report})
    elif which == "ww":
        res = dimension.ww_exponent(
            [parse_fraction(a) for a in args.a], [parse_fraction(t) for t in args.t], args.variant
        )
        emit(
            {
                "formula": "ww",
                "variant": args.variant,
                "value": res.value,
                "argmin": res.argmin,
                "partition": {
                    "K1": list(res.partition[0]),
                    "K2": list(res.partition[1]),
                    "K3": list(res.partition[2]),
                },
                "hypothesis_report": {"a_i > 0 and t_i >= 0": True},
            }
        )
    else:
        value = dimension.manifold_lower_bound(
            [parse_fraction(t) for t in args.tau], args.d, args.m, args.which
        )
        emit(
            {
                "formula": "manifold",
                "which": args.which,
                "value": value,
                "hypothesis_report": {"checked": True},
            }
        )


def cmd_boxdim(args) -> None:
    if args.counts is None:
        with open(args.set) as fh:
            S = ClopenSet.from_text(fh.read())
        if S.p != args.p:
            raise ValueError(f"--p {args.p} differs from the prime {S.p} of the set")
        levels = args.levels or list(range(0, S.depth + 1))
        counts = [(k, S.box_count(k)) for k in levels]
    else:
        if args.levels is not None:
            raise ValueError("--levels needs --set")
        counts = []
        for part in args.counts.split(","):
            try:
                k, N = part.split(":")
                counts.append((int(k), int(N)))
            except ValueError:
                raise ValueError(f"counts entry {part!r} is not k:N") from None
    fit = dimension.boxdim_estimate(counts, args.p, drop_coarsest=args.drop_coarsest)
    emit(
        {
            "slope": f"{fit.slope:.6f}",
            "intercept": f"{fit.intercept:.6f}",
            "r_squared": f"{fit.r_squared:.6f}",
            "levels": list(fit.levels),
            "counts": [[k, n] for k, n in counts],
        }
    )


# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer >= low (a non-integer gets argparse's own int message)."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return convert


class _UsageError(Exception):
    """An argparse usage error, raised to main instead of exiting."""


class _Parser(argparse.ArgumentParser):
    # subparsers inherit the class, so every usage error of the tree lands here:
    # argparse's usage text and message go to stderr, then main reports the message
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)

    def _get_values(self, action, arg_strings):
        # for `--flag=--` the argparse of Python 3.11 drops the "--" and returns [] as
        # the value, which no command expects; take "--" as the literal value
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padicapprox",
        description="Exact experiments in simultaneous p-adic Diophantine approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_psi(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--psi", action="append", required=True,
                        help="e.g. 'q^-2', '1/(2q)', '3*q^-5/2', 'table:2=1/4,3=1/9'")

    sp = sub.add_parser("measure-layer", help="exact measure of one approximation layer")
    common_psi(sp)
    sp.add_argument("--a0", type=int, required=True)
    sp.add_argument("--reduced", action="store_true")
    sp.set_defaults(func=cmd_measure_layer)

    sp = sub.add_parser("claims-check", help="layer identity and intersection ratio")
    common_psi(sp)
    sp.add_argument("--a0", type=int, required=True)
    sp.add_argument("--b0", type=int, required=True)
    sp.set_defaults(func=cmd_claims_check)

    sp = sub.add_parser("khintchine", help="partial volume series")
    common_psi(sp)
    sp.add_argument("--terms", type=_int_at_least(1), required=True)
    sp.set_defaults(func=cmd_khintchine)

    sp = sub.add_parser("duffin-schaeffer", help="totient-weighted partial series and ratio")
    common_psi(sp)
    sp.add_argument("--terms", type=_int_at_least(1), required=True)
    sp.set_defaults(func=cmd_duffin_schaeffer)

    sp = sub.add_parser("partial-limsup", help="union of layers over a denominator range")
    common_psi(sp)
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="end", type=int, required=True)
    sp.add_argument("--reduced", action="store_true")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--csv", default=None, help="write the per-a0 sweep table here")
    sp.add_argument("--save-set", default=None, help="serialize the resulting set here")
    sp.add_argument("--boxes", type=int, nargs="*", default=None)
    sp.set_defaults(func=cmd_partial_limsup)

    sp = sub.add_parser("minkowski", help="pigeonhole solver for linear-form systems")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--precision", type=int, default=None, help="the form path's p-adic precision (default 20)")
    sp.add_argument("--form", action="append",
                    help="comma-separated rational coefficients, one flag per form")
    sp.add_argument("--height", type=int, nargs="*")
    sp.add_argument("--tau", nargs="*")
    sp.add_argument("--sigma", nargs="*")
    sp.add_argument("--random", type=_int_at_least(1), default=None, help="run a seeded random-system sweep instead")
    sp.add_argument("--seed", type=int, default=None, help="the --random sweep's seed (default 0)")
    sp.set_defaults(func=cmd_minkowski)

    def common_map(sp):
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--map", default=None, help="path to a polynomial-map JSON fixture")
        source.add_argument("--map-json", default=None, help="inline JSON for the map")

    sp = sub.add_parser("dirichlet-solve", help="constructive approximation on a map graph")
    common_map(sp)
    sp.add_argument("--x", required=True, help="comma-separated residues of the base point")
    sp.add_argument("--precision", type=int, default=60)
    sp.add_argument("--tau", nargs="+", required=True)
    sp.add_argument("--v", nargs="+", required=True)
    sp.add_argument("--H", type=int, required=True)
    sp.set_defaults(func=cmd_dirichlet_solve)

    sp = sub.add_parser("enumerate-s-tau", help="resonant integer points near the graph")
    common_map(sp)
    sp.add_argument("--tau", nargs="+", required=True, help="dependent-block exponents")
    sp.add_argument("--hmax", type=_int_at_least(1), required=True)
    sp.add_argument("--hmin", type=int, default=1)
    sp.add_argument("--limit", type=_int_at_least(0), default=50, help="max points echoed in JSON")
    sp.set_defaults(func=cmd_enumerate_s_tau)

    sp = sub.add_parser("cover-preimage", help="rectangle cover of the approximable preimage")
    common_map(sp)
    sp.add_argument("--tau", nargs="+", required=True, help="all n exponents")
    sp.add_argument("--delta", default="1")
    sp.add_argument("--hmax", type=_int_at_least(1), required=True)
    sp.add_argument("--hmin", type=int, default=1)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--boxes", type=int, nargs="*", default=None)
    sp.add_argument("--save-set", default=None)
    sp.set_defaults(func=cmd_cover_preimage)

    sp = sub.add_parser("dim", help="dimension formula evaluators")
    dim_sub = sp.add_subparsers(dest="formula", required=True)
    d = dim_sub.add_parser("jb")
    d.add_argument("--tau", nargs="+", required=True)
    d.set_defaults(func=cmd_dim)
    d = dim_sub.add_parser("rynne")
    d.add_argument("--tau", nargs="+", required=True)
    d.set_defaults(func=cmd_dim)
    d = dim_sub.add_parser("ww")
    d.add_argument("--a", nargs="+", required=True)
    d.add_argument("--t", nargs="+", required=True)
    d.add_argument("--variant", choices=["K2-sum", "K3-sum"], default="K2-sum")
    d.set_defaults(func=cmd_dim)
    d = dim_sub.add_parser("manifold")
    d.add_argument("--tau", nargs="+", required=True)
    d.add_argument("--d", type=int, required=True)
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--which", choices=["thm2.7", "thm2.8", "thm2.9"], required=True)
    d.set_defaults(func=cmd_dim)

    sp = sub.add_parser("boxdim", help="least-squares box-dimension estimate")
    sp.add_argument("--p", type=int, required=True)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", default=None, help="'k:N,k:N,...'")
    source.add_argument("--set", default=None, help="serialized clopen set file")
    sp.add_argument("--levels", type=int, nargs="*", default=None)
    sp.add_argument("--drop-coarsest", type=int, default=2)
    sp.set_defaults(func=cmd_boxdim)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args returns a fresh namespace and keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.func(args)
    except _UsageError as exc:
        emit({"error": {"kind": "usage", "message": str(exc)}})
        return 2
    except HypothesisError as exc:
        emit({"error": {"kind": "hypothesis", "failed": exc.failed, "message": str(exc)}})
        return 2
    except (ValueError, OSError) as exc:
        emit({"error": {"kind": "invalid-input", "message": str(exc)}})
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
