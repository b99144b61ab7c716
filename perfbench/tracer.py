"""Outside-in tracing of the padicapprox layers.

Each target is a public function or method of one module (one layer). The
tracer rebinds a function in every ``padicapprox`` module namespace that holds
it (``approx`` and ``manifold`` import ``ball_exponent`` and ``cmp_powprod`` by
name) and patches class attributes for methods. Wrappers record only inside an
operation opened with ``Tracer.op``; anywhere else they pass straight through,
so set-up and output checks leave no trace.

A span is (op id, name, start, end, parent name). Hot leaves, called up to
hundreds of thousands of times per run, are only aggregated into a call count
and summed self time. Self time is span time minus the time of child spans.
A generator target (``layer_sweep_rows``) is timed per ``next()``.

A target that no longer exists is reported as absent, and so is every metric
that depends on it.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc
from collections import defaultdict

# (layer, module, attribute, hot). Attributes with a dot are methods.
TARGETS = [
    ("core", "core", "is_prime", True),
    ("core", "core", "embed_rational", True),
    ("core", "core", "valuation", True),
    ("core", "core", "euler_phi", True),
    ("core", "core", "totient_sieve", False),
    ("exactcmp", "exactcmp", "cmp_powprod", True),
    ("exactcmp", "exactcmp", "ball_exponent", True),
    ("exactcmp", "exactcmp", "floor_log_powprod", True),
    ("exactcmp", "exactcmp", "frac_pow", True),
    ("clopen", "clopen", "ClopenSet.union", False),
    ("clopen", "clopen", "ClopenSet.intersect", False),
    ("clopen", "clopen", "ClopenSet.difference", False),
    ("clopen", "clopen", "ClopenSet.complement", False),
    ("clopen", "clopen", "ClopenSet.insert_rectangle", True),
    ("clopen", "clopen", "ClopenSet.from_rectangles", True),
    ("clopen", "clopen", "ClopenSet.from_text", False),
    ("clopen", "clopen", "ClopenSet.to_text", False),
    ("clopen", "clopen", "ClopenSet.measure", True),
    ("clopen", "clopen", "ClopenSet.box_count", True),
    ("clopen", "clopen", "ClopenSet.enumerate_cosets", False),
    ("clopen", "clopen", "ClopenSet.contains_residue", True),
    ("clopen", "clopen", "product_set", False),
    ("approx", "approx", "build_layer", False),
    ("approx", "approx", "partial_limsup", False),
    ("approx", "approx", "layer_sweep_rows", True),
    ("approx", "approx", "required_depth", False),
    ("approx", "approx", "layer_measure", True),
    ("approx", "approx", "reference_measure", True),
    ("manifold", "manifold", "enumerate_S_tau", False),
    ("manifold", "manifold", "cover_preimage", False),
    ("manifold", "manifold", "dirichlet_solve", False),
    ("manifold", "manifold", "dirichlet_h0", False),
    ("manifold", "manifold", "verify_dirichlet", True),
    ("manifold", "manifold", "PolyMap.eval_exact", True),
    ("minkowski", "minkowski", "solve", False),
    ("minkowski", "minkowski", "solve_structured", False),
    ("minkowski", "minkowski", "brute_force", False),
    ("minkowski", "minkowski", "bucket_exponents", True),
    ("minkowski", "minkowski", "verify_solution", True),
    ("dimension", "dimension", "boxdim_estimate", False),
    ("cli", "cli", "main", False),
]
GENERATORS = {"approx.layer_sweep_rows"}
LAYERS = ("core", "exactcmp", "clopen", "approx", "manifold", "minkowski", "dimension", "cli")


def _name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.present: set[str] = set()
        self.points_found = 0
        self.dirichlet_fallbacks = 0
        self.solve_bucket = 0
        self.solve_peak_bytes = 0
        self.op_id = -1
        self.t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "padicapprox" or name.startswith("padicapprox."))]
        for layer, module, attr, hot in TARGETS:
            name = _name(layer, attr)
            owner = sys.modules.get(f"padicapprox.{module}")
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(last)
            if raw is None:
                continue
            self.present.add(name)
            if isinstance(raw, classmethod):
                setattr(owner, last, classmethod(self._wrap(name, raw.__func__, hot)))
            elif path:
                setattr(owner, last, self._wrap(name, raw, hot))
            else:
                wrapped = self._wrap(name, raw, hot)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)

    def _wrap(self, name: str, fn, hot: bool):
        tr = self
        post = {
            "manifold.enumerate_S_tau": self._post_points,
            "manifold.dirichlet_solve": self._post_dirichlet,
            "minkowski.solve": self._post_solve,
        }.get(name)
        alloc = name == "minkowski.solve"

        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    traced = bool(tr.stack)
                    if traced:
                        tr._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if traced:
                            tr._exit(name, hot)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tr.stack:
                return fn(*args, **kwargs)
            started = alloc and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            if alloc:
                tracemalloc.reset_peak()
            tr._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._exit(name, hot)
                if alloc:
                    tr.solve_peak_bytes = max(tr.solve_peak_bytes, tracemalloc.get_traced_memory()[1])
                if started:
                    tracemalloc.stop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _post_points(self, result) -> None:
        self.points_found += len(result)

    def _post_dirichlet(self, result) -> None:
        self.dirichlet_fallbacks += result.method == "exhaustive"

    def _post_solve(self, result) -> None:
        self.solve_bucket += result.method == "bucket"

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name: str, hot: bool) -> None:
        end = time.perf_counter()
        frame = self.stack.pop()
        dur = end - frame[1]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
            if not hot:
                self.spans.append((self.op_id, name, frame[1] - self.t0, end - self.t0, self.stack[-1][0]))

    @contextlib.contextmanager
    def op(self, op_id: int, template: str):
        """The root span of one operation; wrappers record only inside it."""
        self.op_id = op_id
        self._enter("op:" + template)
        try:
            yield
        finally:
            end = time.perf_counter()
            name, start, _ = self.stack.pop()
            self.spans.append((op_id, name, start - self.t0, end - self.t0, None))

    # -- metrics ------------------------------------------------------------

    def metrics(self, time_factor: float) -> dict[str, float | None]:
        """Per-layer metrics; None marks a metric whose target is absent.
        Times are scaled by time_factor (host-speed normalization)."""
        out: dict[str, float | None] = {}

        def calls(name):
            return self.calls.get(name, 0) if name in self.present else None

        def self_s(name):
            return self.self_s.get(name, 0.0) * time_factor if name in self.present else None

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        for metric in PER_LAYER:
            base, _, suffix = metric.rpartition(".")
            if suffix == "calls":
                out[metric] = calls(base)
            elif suffix == "self_s" and base in LAYERS:
                names = [_name(layer, attr) for layer, _, attr, _ in TARGETS if layer == base]
                present = [n for n in names if n in self.present]
                out[metric] = sum(self.self_s.get(n, 0.0) for n in present) * time_factor if present else None
            elif suffix == "self_s":
                out[metric] = self_s(base)
        enum = "manifold.enumerate_S_tau"
        out["manifold.points_found"] = self.points_found if enum in self.present else None
        out["manifold.evals_per_point"] = ratio(calls("manifold.eval_exact"), out["manifold.points_found"])
        out["manifold.dirichlet_fallbacks"] = (
            self.dirichlet_fallbacks if "manifold.dirichlet_solve" in self.present else None
        )
        solve = "minkowski.solve"
        out["minkowski.solve.peak_alloc_mb"] = self.solve_peak_bytes / 2**20 if solve in self.present else None
        out["minkowski.bucket_share"] = ratio(
            self.solve_bucket if solve in self.present else None, calls(solve)
        )
        return {m: out[m] for m in PER_LAYER if m in out}

    def counts(self) -> dict[str, int]:
        """Exact counts that two traced runs of one seed must reproduce."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out["manifold.points_found"] = self.points_found
        out["manifold.dirichlet_fallbacks"] = self.dirichlet_fallbacks
        out["minkowski.solve.bucket"] = self.solve_bucket
        return out


# Per-layer metrics in report order, with units; BENCHMARK.json lists the same.
PER_LAYER_UNITS = {
    "core.is_prime.calls": "count",
    "core.self_s": "s",
    "exactcmp.cmp_powprod.calls": "count",
    "exactcmp.ball_exponent.calls": "count",
    "exactcmp.floor_log_powprod.calls": "count",
    "exactcmp.self_s": "s",
    "clopen.union.calls": "count",
    "clopen.union.self_s": "s",
    "clopen.insert_rectangle.calls": "count",
    "clopen.insert_rectangle.self_s": "s",
    "clopen.from_rectangles.self_s": "s",
    "clopen.product_set.self_s": "s",
    "clopen.measure.self_s": "s",
    "clopen.box_count.self_s": "s",
    "clopen.enumerate_cosets.self_s": "s",
    "clopen.contains_residue.calls": "count",
    "clopen.contains_residue.self_s": "s",
    "clopen.intersect.self_s": "s",
    "clopen.to_text.self_s": "s",
    "clopen.from_text.self_s": "s",
    "clopen.self_s": "s",
    "approx.build_layer.calls": "count",
    "approx.build_layer.self_s": "s",
    "approx.partial_limsup.self_s": "s",
    "approx.layer_sweep_rows.self_s": "s",
    "approx.required_depth.self_s": "s",
    "approx.self_s": "s",
    "manifold.enumerate_S_tau.self_s": "s",
    "manifold.cover_preimage.self_s": "s",
    "manifold.dirichlet_solve.self_s": "s",
    "manifold.eval_exact.calls": "count",
    "manifold.points_found": "count",
    "manifold.evals_per_point": "ratio",
    "manifold.dirichlet_fallbacks": "count",
    "manifold.self_s": "s",
    "minkowski.solve.calls": "count",
    "minkowski.solve.self_s": "s",
    "minkowski.solve.peak_alloc_mb": "MB",
    "minkowski.solve_structured.self_s": "s",
    "minkowski.brute_force.calls": "count",
    "minkowski.bucket_share": "ratio",
    "minkowski.self_s": "s",
    "dimension.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
}
PER_LAYER = list(PER_LAYER_UNITS)
