"""The three benchmark workloads: op templates, seeded schedules and output checks.

A workload is a fixed list of op templates. Every template has VARIANTS fixed
variants of near-equal cost. Pass k of a run executes every template once, in
an order shuffled by the seed, using variant (offset + k) mod VARIANTS, where
the offset of each template is drawn from the seed. Hence

* the inputs depend on the seed, but every op any seed can produce is one of
  finitely many, and each of them has a golden output hash recorded from the
  seed commit (see ``run.py --record-goldens``);
* every pass has the same cost profile, so medians and percentiles of one run
  are comparable with those of a run on another seed;
* the passes of one cycle of VARIANTS never repeat an op, so within a cycle
  ops reuse the trie caches only through structure distinct inputs share;
  a longer run repeats the cycle, as a user repeating queries would.

Only names exported from ``padicapprox`` and ``padicapprox.cli.main`` are used.
Inputs are valid by construction: depths, box levels and bucket exponents are
computed here before an op is issued.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import padicapprox as pa
from padicapprox import cli

VARIANTS = 6


class CheckFailed(Exception):
    """An operation's output broke its golden hash or an invariant."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``check`` is not."""

    key: str
    template: str
    call: Callable[[], str]
    check: Callable[[str], None]
    files: tuple[str, ...] = ()

    def digest(self, out: str) -> str:
        h = hashlib.sha256(out.encode())
        for path in self.files:
            with open(path, "rb") as fh:
                h.update(b"\0" + fh.read())
        return h.hexdigest()[:24]


@dataclass
class Template:
    name: str
    make: Callable[[int, bool], Op]  # (variant, also write files) -> Op


def run_cli(argv: list[str]) -> str:
    """One in-process CLI call with stdout captured; a nonzero exit is a failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = buf.getvalue()
    if rc != 0:
        raise CheckFailed(f"exit status {rc}: {out[:300]}")
    return out


def cli_op(key_argv: list[str], argv: list[str], template: str, check, files=()) -> Op:
    key = " ".join(key_argv) + (" +files" if files else "")
    return Op(key, template, lambda: run_cli(argv), check, tuple(files))


def check_box_counts(counts: dict, p: int, n: int) -> None:
    levels = sorted((int(k), int(v)) for k, v in counts.items())
    for (k, c), (k2, c2) in zip(levels, levels[1:]):
        require(c <= c2, f"box count decreases from level {k} to {k2}")
    for k, c in levels:
        require(0 <= c <= p ** (n * k), f"box count {c} above p^(nk) at level {k}")


def valuation(x: F, p: int) -> int:
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def pow_le(p: int, e: F, base: int, r: F) -> bool:
    """p^e <= base^r for rationals e, r and integers p, base >= 1; exact."""
    den = e.denominator * r.denominator // math.gcd(e.denominator, r.denominator)
    a, b = int(e * den), int(r * den)
    lhs_num, lhs_den = (p**a, 1) if a >= 0 else (1, p**-a)
    rhs_num, rhs_den = (base**b, 1) if b >= 0 else (1, base**-b)
    return lhs_num * rhs_den <= rhs_num * lhs_den


def floor_log(p: int, base: int, r: F) -> int:
    """max{e in Z : p^e <= base^r}, exact."""
    e = math.floor(float(r) * math.log(base) / math.log(p))
    while not pow_le(p, F(e), base, r):
        e -= 1
    while pow_le(p, F(e + 1), base, r):
        e += 1
    return e


# ---------------------------------------------------------------------------
# limsup-build: partial-limsup over windows of denominators
# ---------------------------------------------------------------------------

PSI = {
    "1/(2q)": pa.ScaledPower(F(1, 2), F(1)),
    "q^-2": pa.PowerLaw(F(2)),
    "q^-5/2": pa.PowerLaw(F(5, 2)),
    "3*q^-2": pa.ScaledPower(F(3), F(2)),
}
PSI_NAMES = list(PSI)

# Cost proxy budget of one op (see LimsupBuild._units); about 25 ms each.
N1_UNITS = 4_500
N2_UNITS = 12_000
N1_STARTS = (40, 80, 120, 160)
# n=2: first denominator per psi pair (indexed by its first component) for
# (all, reduced) layers. The deep pair (q^-2, q^-5/2) starts lowest, where its
# layers are small enough that a window holds several of them.
N2_STARTS = {"1/(2q)": (12, 24), "q^-2": (6, 8), "q^-5/2": (6, 12), "3*q^-2": (18, 24)}


class LimsupBuild:
    name = "limsup-build"
    writes_files = True

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._steps: dict = {}

    def steps(self, p: int, psis: tuple[str, ...], a0: int) -> tuple[int, ...]:
        key = (p, psis, a0)
        out = self._steps.get(key)
        if out is None:
            out = pa.ApproxTuple(tuple(PSI[s] for s in psis)).step_exponents(a0, p)
            self._steps[key] = out
        return out

    def _units(self, p: int, psis: tuple[str, ...], a0: int, reduced: bool) -> int:
        """Cost proxy of one layer. Per coordinate r = residues (centers a/a0
        that are p-adic integers, at most p^t of them); n=1 costs r*(t+3),
        n=2 costs r1*r2*p^2*t^2/16 for the product trie, plus a fixed part per layer."""
        if reduced and a0 % p == 0:
            return 50
        pv = p ** valuation(F(a0), p)
        nums = sum(1 for a in range(1, a0 + 1) if math.gcd(a, a0) == 1) if reduced else 2 * (a0 // pv) + 1
        steps = self.steps(p, psis, a0)
        if len(psis) == 1:
            return min(nums, p ** steps[0]) * (steps[0] + 3) + 400
        return math.prod(min(nums, p**t) for t in steps) * p * p * max(steps) ** 2 // 16 + 400

    def _windows(self, p, psis, start, reduced) -> list[tuple[int, int]]:
        """VARIANTS consecutive windows, each filling the same cost budget."""
        budget = N1_UNITS if len(psis) == 1 else N2_UNITS
        max_width = 30 if len(psis) == 1 else 6
        out, lo = [], start
        for _ in range(VARIANTS):
            total, hi = 0, lo
            while total < budget and hi - lo < max_width:
                total += self._units(p, psis, hi, reduced)
                hi += 1
            out.append((lo, hi - 1))
            lo = hi
        return out

    def templates(self) -> list[Template]:
        out = []
        i = 0
        for n in (1, 2):
            for p in (2, 3, 5):
                for j, first in enumerate(PSI_NAMES):
                    psis = (first,) if n == 1 else (first, PSI_NAMES[(j + 1) % 4])
                    for reduced in (False, True):
                        if n == 1:
                            start = N1_STARTS[i % 4]
                        else:
                            start = N2_STARTS[first][reduced]
                        i += 1
                        out.append(self._template(p, psis, reduced, start))
        return out

    def _template(self, p, psis, reduced, start) -> Template:
        name = f"n{len(psis)}-p{p}-{'+'.join(psis)}-{'red' if reduced else 'all'}-{start}"
        windows = self._windows(p, psis, start, reduced)

        def make(v: int, files: bool = False) -> Op:
            lo, hi = windows[v]
            depth = max(max(self.steps(p, psis, a0)) for a0 in range(lo, hi + 1))
            base = ["partial-limsup", "--p", str(p), "--n", str(len(psis))]
            for s in psis:
                base += ["--psi", s]
            base += ["--from", str(lo), "--to", str(hi)] + (["--reduced"] if reduced else [])
            base += ["--boxes"] + [str(k) for k in range(1, depth + 1)]
            argv = list(base)
            paths = ()
            if files:
                csv_path = os.path.join(self.workdir, "sweep.csv")
                set_path = os.path.join(self.workdir, "union.clopen")
                argv += ["--csv", csv_path, "--save-set", set_path]
                paths = (csv_path, set_path)
            check = self._checker(p, psis, reduced, lo, hi, depth, paths)
            return cli_op(base, argv, name, check, paths)

        return Template(name, make)

    def _checker(self, p, psis, reduced, lo, hi, depth, paths):
        n = len(psis)

        def check(out: str) -> None:
            res = json.loads(out)
            require(res["depth"] == depth, f"depth {res['depth']} != {depth}")
            mu = F(res["measure"])
            layers = [
                pa.layer_measure(pa.Params(p, n), pa.ApproxTuple(tuple(PSI[s] for s in psis)), a0, reduced)
                for a0 in range(lo, hi + 1)
            ]
            require(max(layers) <= mu <= min(F(1), sum(layers)), "union measure outside [max layer, sum of layers]")
            check_box_counts(res["box_counts"], p, n)
            if paths:
                with open(paths[0]) as fh:
                    rows = fh.read().splitlines()[1:]
                unions = [F(r.split(",")[3]) for r in rows]
                require(len(rows) == hi - lo + 1, "csv row count")
                require(all(a <= b for a, b in zip(unions, unions[1:])), "csv union measure decreases")
                require(unions[-1] == mu, "csv final union measure differs from stdout")
                with open(paths[1]) as fh:
                    saved = pa.ClopenSet.from_text(fh.read())
                require(saved.measure() == mu, "saved set measure differs from stdout")

        return check


# ---------------------------------------------------------------------------
# set-query: reads of a set library built during set-up
# ---------------------------------------------------------------------------

SQ_MAP = '{"p":3,"d":1,"m":1,"polys":[[["1",[2]]]]}'
F2_MAP = '{"p":5,"d":1,"m":2,"polys":[[["1",[2]]],[["1",[3]],["2",[1]]]]}'

def _psi_pair(first: str, second: str, v: int) -> list[str]:
    pair = (first, second) if v % 2 == 0 else (second, first)
    return ["--psi", pair[0], "--psi", pair[1]]


# Slot name -> argv for variant v; each set is saved with --save-set. The
# variants of an n=1 set differ by one denominator or height; those of an n=2
# set swap the coordinates, which transposes the trie. So the sets of one slot
# have near-equal size and every seed gets a library of the same cost.
LIBRARY = {
    "tail3": lambda v: ["partial-limsup", "--p", "3", "--n", "1", "--psi", "q^-5/2",
                        "--from", str(60 + v), "--to", str(100 + v)],
    "tail2": lambda v: ["partial-limsup", "--p", "2", "--n", "1", "--psi", "q^-2", "--reduced",
                        "--from", str(70 + v), "--to", str(110 + v)],
    "sweep3": lambda v: ["partial-limsup", "--p", "3", "--n", "2", *_psi_pair("1/(2q)", "q^-2", v),
                         "--reduced", "--from", "1", "--to", "24"],
    "sweep2": lambda v: ["partial-limsup", "--p", "2", "--n", "2", *_psi_pair("q^-2", "q^-5/2", v),
                         "--reduced", "--from", "20", "--to", "27"],
    "cover": lambda v: ["cover-preimage", "--map-json", SQ_MAP, "--tau", "12/5", "7/5",
                        "--hmax", str(60 + v), "--hmin", str((60 + v) // 2), "--depth", "14"],
}
PROBES = 20_000
BALLS = 300
COSET_CAP = 30_000


@dataclass
class Slot:
    key: str
    path: str
    text: str
    set: object
    counts: list[int]


class SetQuery:
    name = "set-query"
    writes_files = False

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.slots: dict[str, Slot] = {}

    def build_library(self, variants: dict[str, int]) -> None:
        for name, argv_of in LIBRARY.items():
            argv = argv_of(variants[name])
            path = os.path.join(self.workdir, f"{name}.clopen")
            run_cli(argv + ["--save-set", path])
            with open(path) as fh:
                text = fh.read()
            S = pa.ClopenSet.from_text(text)
            counts = [S.box_count(k) for k in range(S.depth + 1)]
            self.slots[name] = Slot(" ".join(argv), path, text, S, counts)

    def templates(self) -> list[Template]:
        out = []
        for name in LIBRARY:
            for kind in ("boxdim", "from_text", "cosets", "probe", "balls", "difference", "to_text"):
                out.append(Template(f"{kind}:{name}", self._maker(kind, name)))
        return out

    def _maker(self, kind, name):
        def make(v: int, files: bool = False) -> Op:
            slot = self.slots[name]
            return getattr(self, "_" + kind)(slot, v, f"{kind}:{name}")

        return make

    def _key(self, template, slot, v):
        return f"{template}|{slot.key}|v{v}"

    def _boxdim(self, slot, v, template):
        S = slot.set
        drop = v % 3
        argv = ["boxdim", "--p", str(S.p), "--set", slot.path, "--drop-coarsest", str(drop)]

        def check(out):
            res = json.loads(out)
            counts = {k: c for k, c in res["counts"]}
            require(len(counts) == S.depth + 1, "boxdim did not count every level")
            check_box_counts(counts, S.p, S.n)

        return Op(self._key(template, slot, v), template, lambda: run_cli(argv), check)

    def _from_text(self, slot, v, template):
        parsed = []

        def call():
            parsed[:] = [pa.ClopenSet.from_text(slot.text)]
            T = parsed[0]
            return f"{T.p} {T.n} {T.depth} {T.measure()}"

        def check(out):
            require(parsed[0] == slot.set, "text round trip changed the set")
            require(out.endswith(" " + str(slot.set.measure())), "parsed set has another measure")

        return Op(self._key(template, slot, v), template, call, check)

    def _to_text(self, slot, v, template):
        def check(out):
            require(out == slot.text, "to_text differs from the text the CLI saved")

        return Op(self._key(template, slot, v), template, slot.set.to_text, check)

    def _cosets(self, slot, v, template):
        S = slot.set
        fits = [k for k, c in enumerate(slot.counts) if c <= COSET_CAP and k >= 1]
        k = max(1, max(fits) - v % 2)

        found = []

        def call():
            found[:] = [S.enumerate_cosets(k)]
            return repr(found[0])

        def check(out):
            reps = found[0]
            require(len(reps) == S.box_count(k), "len(enumerate_cosets(k)) != box_count(k)")
            require(len(set(reps)) == len(reps), "duplicate coset representatives")
            require(all(0 <= c < S.p**k for r in reps for c in r), "representative out of range")

        return Op(self._key(template, slot, v), template, call, check)

    def _probe(self, slot, v, template):
        S = slot.set
        rng = random.Random(self._key(template, slot, v))
        probes = []
        for _ in range(PROBES):
            k = rng.randrange(1, S.depth + 1)
            probes.append((tuple(rng.randrange(S.p**k) for _ in range(S.n)), k))

        def call():
            return "".join("1" if S.contains_residue(pt, k) else "0" for pt, k in probes)

        def check(out):
            require(len(out) == len(probes), "probe count")
            for (pt, k), hit in list(zip(probes, out))[:300]:
                if hit == "1":
                    # a contained coset stays contained at every finer level
                    require(S.contains_residue(pt, S.depth), "containment not monotone in the level")

        return Op(self._key(template, slot, v), template, call, check)

    def _random_ball(self, rng, S):
        exps = tuple(rng.randrange(1, S.depth + 1) for _ in range(S.n))
        center = tuple(F(rng.randrange(S.p**e)) for e in exps)
        return pa.BallSpec(center, exps)

    def _balls(self, slot, v, template):
        S = slot.set
        rng = random.Random(self._key(template, slot, v))
        balls = [self._random_ball(rng, S) for _ in range(BALLS)]
        levels = [rng.randrange(0, S.depth + 1) for _ in range(BALLS)]
        mu_s = S.measure()

        def call():
            rows = []
            for ball, k in zip(balls, levels):
                B = pa.ClopenSet.from_rectangles(S.p, S.n, S.depth, [ball])
                inter = S.intersect(B)
                rows.append(f"{inter.measure()} {inter.box_count(k)}")
            return "\n".join(rows)

        def check(out):
            rows = out.split("\n")
            require(len(rows) == BALLS, "ball count")
            for ball, k, row in zip(balls, levels, rows):
                mu, count = row.split()
                mu_ball = F(1, S.p ** sum(ball.exponents))
                require(F(mu) <= min(mu_s, mu_ball), "intersection larger than an operand")
                require(int(count) <= slot.counts[k], "intersection has more boxes than the set")

        return Op(self._key(template, slot, v), template, call, check)

    def _difference(self, slot, v, template):
        S = slot.set
        rng = random.Random(self._key(template, slot, v))
        balls = [self._random_ball(rng, S) for _ in range(30)]
        mu_s = S.measure()

        def call():
            U = pa.ClopenSet.from_rectangles(S.p, S.n, S.depth, balls)
            return f"{S.difference(U).measure()} {S.union(U).complement().measure()} {U.measure()}"

        def check(out):
            mu_d, mu_c, mu_u = (F(x) for x in out.split())
            U = pa.ClopenSet.from_rectangles(S.p, S.n, S.depth, balls)
            mu_i = S.intersect(U).measure()
            require(mu_d == mu_s - mu_i, "mu(S - U) != mu(S) - mu(S & U)")
            require(mu_c == 1 - (mu_s + mu_u - mu_i), "mu(complement(S | U)) != 1 - mu(S | U)")

        return Op(self._key(template, slot, v), template, call, check)


# ---------------------------------------------------------------------------
# resonant-solve: enumeration, covers, Dirichlet solves, Minkowski solves
# ---------------------------------------------------------------------------

# Bench-side copies of the two maps, for exact membership rechecks.
MAPS = {
    "sq": (SQ_MAP, 3, [lambda y: y * y]),
    "f2": (F2_MAP, 5, [lambda y: y * y, lambda y: y**3 + 2 * y]),
}
# map: (exponents, first hmax of each template, hmax step between variants);
# the hmax ranges of the templates of one map do not overlap.
ENUM = {"sq": ((F(7, 5),), (20, 32, 44), 2), "f2": ((F(6, 5), F(6, 5)), (14, 20, 26), 1)}
COVER = {"sq": ((F(12, 5), F(7, 5)), (20, 32, 44), 2), "f2": ((F(8, 5), F(6, 5), F(6, 5)), (14, 20), 1)}
# (tau, v) with v >= 8/5, so that H_0 < 40 (H_0 = 38 at v = 8/5). Dirichlet
# solves are the most frequent op, so the median latency lies inside their
# narrow cost band and not on the edge between two kinds of op.
DIRICHLET_TAU_V = (
    (F(7, 5), F(8, 5)), (F(6, 5), F(9, 5)), (F(13, 10), F(17, 10)),
    (F(11, 10), F(19, 10)), (F(27, 20), F(33, 20)), (F(5, 4), F(7, 4)),
)
DIRICHLET_H = (40, 80, 160, 320, 640)
# H + 1 is never a power of p: such a box can only be filled exactly (the
# non-strict pigeonhole regime) and the inputs are skipped as boundary cases.
MINKOWSKI_H = {1: (100, 250, 400), 2: (14, 29, 44), 3: (6, 10, 14)}
BOX_CAP = 3_000_000


def ball_level(p: int, h: int, tau: F) -> int:
    """Closed-ball exponent of the open ball of radius h^-tau: 1 + floor(log_p h^tau)."""
    return 1 + floor_log(p, h, tau)


class ResonantSolve:
    name = "resonant-solve"
    writes_files = False

    def __init__(self, workdir: str):
        self.workdir = workdir

    def templates(self) -> list[Template]:
        out = []
        for m, (taus, hs, step) in ENUM.items():
            for h in hs:
                out.append(Template(f"enum:{m}:{h}", self._enum(m, taus, h, step)))
        for m, (taus, hs, step) in COVER.items():
            for h in hs:
                out.append(Template(f"cover:{m}:{h}", self._cover(m, taus, h, step)))
        for fam in range(len(DIRICHLET_TAU_V)):
            for H in DIRICHLET_H:
                out.append(Template(f"dirichlet:{fam}:{H}", self._dirichlet(fam, H)))
        for n, hs in MINKOWSKI_H.items():
            for H in hs:
                out.append(Template(f"minkowski:{n}:{H}", self._minkowski(n, H)))
        return out

    def _enum(self, m, taus, h, step):
        map_json, p, polys = MAPS[m]

        def make(v, files=False):
            hmax = h + step * v
            hmin = hmax // 2
            argv = ["enumerate-s-tau", "--map-json", map_json, "--tau", *map(str, taus),
                    "--hmax", str(hmax), "--hmin", str(hmin)]

            def check(out):
                res = json.loads(out)
                require(res["count"] == sum(res["dyadic_counts"].values()), "dyadic counts do not add up")
                require(res["count"] >= len(res["points"]), "more points echoed than found")
                for a in res["points"]:
                    a0, hgt = a[0], max(abs(x) for x in a)
                    require(a0 % p != 0 and math.gcd(*a) == 1, f"point {a} not primitive or a0 divisible by p")
                    require(hmin <= hgt <= hmax, f"point {a} height outside [hmin, hmax]")
                    y = F(a[1], a0)
                    for j, (fj, tau) in enumerate(zip(polys, taus)):
                        w = fj(y) - F(a[2 + j], a0)
                        if w:
                            # |w|_p < h^-tau  <=>  not p^v <= h^tau
                            require(not pow_le(p, F(valuation(w, p)), hgt, tau), f"point {a} not in S_tau")

            return cli_op(argv, argv, f"enum:{m}:{h}", check)

        return make

    def _cover(self, m, taus, h, step):
        map_json, p, _ = MAPS[m]

        def make(v, files=False):
            hmax = h + step * v
            depth = ball_level(p, hmax, taus[0]) + 2
            argv = ["cover-preimage", "--map-json", map_json, "--tau", *map(str, taus),
                    "--hmax", str(hmax), "--hmin", str(hmax // 2), "--depth", str(depth),
                    "--boxes", *map(str, range(1, depth + 1))]

            def check(out):
                res = json.loads(out)
                require(0 < F(res["measure"]) <= 1, "cover measure outside (0, 1]")
                check_box_counts(res["box_counts"], p, 1)

            return cli_op(argv, argv, f"cover:{m}:{h}", check)

        return make

    def _dirichlet(self, fam, H):
        tau, vexp = DIRICHLET_TAU_V[fam]

        def make(v, files=False):
            x = random.Random(f"dirichlet|{fam}|{v}").randrange(3**60)
            argv = ["dirichlet-solve", "--map-json", SQ_MAP, "--x", str(x), "--precision", "60",
                    "--tau", str(tau), "--v", str(vexp), "--H", str(H)]

            def check(out):
                res = json.loads(out)
                a, k = res["point"], res["k"]
                require(res["verified"] is True, "solution not verified")
                require(k >= 0 and 3**k * max(abs(c) for c in a) <= H, "height bound p^k max|a_i| <= H broken")
                require(a[0] % 3 != 0 and math.gcd(*a) == 1, "point not primitive or a0 divisible by p")
                w = F(a[1], a[0]) ** 2 - F(a[2], a[0])
                if w:
                    # |w|_3 < (3^-k H)^-tau  <=>  H^tau < 3^(v + k tau)
                    require(not pow_le(3, valuation(w, 3) + k * tau, H, tau), "dependent inequality broken")

            return cli_op(argv, argv, f"dirichlet:{fam}:{H}", check)

        return make

    def _minkowski(self, n, H):
        def make(v, files=False):
            rng = random.Random(f"minkowski|{n}|{H}|{v}")
            p = (2, 3, 5)[v % 3]
            heights = (H,) * (n + 1)
            box = (H + 1) ** (n + 1)
            if box > BOX_CAP:
                raise ValueError(f"pigeonhole box {box} above the cap {BOX_CAP}")
            for _ in range(1000):
                forms = [[F(rng.randrange(-30, 31), rng.choice([b for b in range(1, 10) if b % p]))
                          for _ in range(n + 1)] for _ in range(n)]
                tau = _split(rng, n, F(n + 1), signed=False)
                sigma = _split(rng, n, F(n), signed=True)
                # bucket exponent 1 + max{e : p^(e + sigma) <= box^(tau/(n+1))}; sigma is an integer
                deltas = [floor_log(p, box, t / (n + 1)) - int(s) + 1 for t, s in zip(tau, sigma)]
                if min(deltas) >= 0 and sum(deltas) >= 1 and p ** sum(deltas) != box:
                    break
            else:
                raise ValueError(f"no valid system for n={n}, H={H}, p={p}")
            precision = max(20, max(deltas) + 4)
            argv = ["minkowski", "--p", str(p), "--precision", str(precision)]
            # "--form=" keeps a leading minus sign from reading as an option
            argv += [f"--form={','.join(map(str, row))}" for row in forms]
            argv += ["--height", *map(str, heights), "--tau", *map(str, tau), "--sigma", *map(str, sigma)]
            mod = p**precision
            residues = [[c.numerator * pow(c.denominator, -1, mod) % mod for c in row] for row in forms]

            def check(out):
                res = json.loads(out)
                x, ds = res["solution"], res["bucket_exponents"]
                require(res["verified"] is True, "solution not verified")
                require(ds == deltas, f"bucket exponents {ds} != {deltas}")
                require(any(x) and all(abs(c) <= h for c, h in zip(x, heights)), "height bound broken")
                if res["method"] == "bucket":
                    for row, d in zip(residues, ds):
                        require(sum(c * xi for c, xi in zip(row, x)) % p**d == 0, "bucket congruence broken")

            return cli_op(argv, argv, f"minkowski:{n}:{H}", check)

        return make


def _split(rng: random.Random, n: int, total: F, signed: bool) -> list[F]:
    while True:
        if signed:
            # integers only: argparse reads "-1/2" as an option but "-1" as a number
            parts = [F(rng.randrange(-1, 2)) for _ in range(n - 1)]
        else:
            parts = [F(rng.randrange(2, 4 * (n + 1) - 1), 4) for _ in range(n - 1)]
        parts.append(total - sum(parts, F(0)))
        if signed or all(x > 0 for x in parts):
            return parts


WORKLOADS = {w.name: w for w in (LimsupBuild, SetQuery, ResonantSolve)}


def library_variants(rng: random.Random) -> dict[str, int]:
    return {name: rng.randrange(VARIANTS) for name in LIBRARY}


def schedule(workload, templates: list[Template], seed: int, k: int) -> list[Op]:
    """The ops of pass k: every template once, in seeded order, each with its
    variant for that pass. In a workload that writes files, a fifth of the
    templates (a different fifth in each pass) also write --csv and --save-set."""
    rng = random.Random(f"offsets|{seed}")
    offsets = [rng.randrange(VARIANTS) for _ in templates]
    order = list(range(len(templates)))
    random.Random(f"pass|{seed}|{k}").shuffle(order)
    files = workload.writes_files
    return [templates[i].make((offsets[i] + k) % VARIANTS, files and (i + k) % 5 == 0) for i in order]
