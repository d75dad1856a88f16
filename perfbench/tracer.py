"""Outside-in tracer: wraps public functions of the ncds modules without
touching the package.

A module that did ``from .x import y`` holds its own binding of ``y``, so a
function is replaced in every ``ncds.*`` namespace that holds it, not only in
the module that defines it. Each wrapper records calls, inclusive time (the
outermost call only, so recursion is not double counted) and self time
(inclusive time minus the time spent in wrapped children). ``_iadd``, called
millions of times, and ``_shuffle_words`` are never wrapped; lru_cache hit
ratios are read from ``cache_info()`` instead. No workload reaches
``_shuffle_words`` (``shuffle_mul``), so its cache is not reported.

Exact work counts repeat exactly across runs of one seed and serve as the
steady cross-check of the timings.
"""

import os
import sys
import time
from collections import defaultdict

# span name -> functions of ncds.<first part of the name>, and a work counter
SPANS = (
    ("series.substitute", ("substitute",), "terms"),
    ("series.shuffle_coproduct", ("shuffle_coproduct",), "terms"),
    ("series.conc_mul", ("conc_mul",), None),
    ("series.json", ("series_to_json", "series_from_json"), None),
    ("linalg.kernel_basis", ("kernel_basis",), "matrix"),
    ("linalg.rref", ("rref",), None),
    ("lie.solve_space", ("solve_space",), None),
    ("lie.is_lie_series", ("is_lie_series",), None),
    ("lie.span_compare", ("series_spans_equal", "series_span_contains"), None),
    ("lie.cached_space", ("cached_space",), "disk"),
    ("barwords.bar_double", ("bar_double",), "terms"),
    ("barwords.bar_single", ("bar_single",), None),
    ("barwords.pair", ("pair",), None),
    ("harness.coface_pullback", ("coface_pullback",), "terms"),
    ("harness.pentagon_functional", ("pentagon_functional",), None),
    ("harness.A", ("verify_theorem_A",), None),
    ("harness.B", ("verify_theorem_B",), None),
    ("harness.C", ("verify_theorem_C",), None),
    ("harness.D", ("verify_theorem_D",), None),
    ("harness.E", ("verify_theorem_E",), None),
    ("harness.conjecture", ("conjecture_scan",), None),
    ("harness.lemmas", ("lemma_cab23_failures", "lemma_cabling34_failures",
                        "lemma_dihedral_failures", "lemma_polylogs_failures",
                        "stuffle_identity_failures"), None),
    ("coaction.rc_residual", ("_rc_residual_linear",), None),
    ("coaction.c4_residual", ("c4_residual",), None),
    ("coaction.ihara_bracket", ("ihara_bracket",), None),
    ("coaction.frak_b_check", ("frak_b_check",), None),
    ("dshuffle.dmr_residual", ("_dmr_residual_linear",), None),
    ("dshuffle.stuffle_coproduct", ("stuffle_coproduct",), None),
    ("kv.krv1", ("_krv1_linear",), None),
    ("kv.krv2_space", ("krv2_space",), None),
    ("kv.potential", ("potential",), None),
    ("kv.nc_krv2_fit", ("nc_krv2_fit",), None),
    ("braid.pi_coface", ("pi_coface",), None),
    ("braid.defect", ("defect",), None),
    ("braid.permute_strands", ("permute_strands",), None),
    ("cli.main", ("main",), None),
)

# metric prefix -> (module, lru_cache-wrapped function)
LRU_CACHES = (
    ("lie.lyndon_basis", "lie", "lyndon_basis"),
    ("barwords.bar_xy", "barwords", "_bar_xy"),
    ("dshuffle.sh_le", "dshuffle", "sh_le"),
)

MODULES = ("series", "linalg", "lie", "barwords", "harness", "coaction",
           "dshuffle", "kv", "braid", "cli")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("series.substitute." + k, u, "lower")
     for k, u in (("self_s", "s"), ("calls", "count"), ("terms_out", "count"))]
    + [("series.shuffle_coproduct.self_s", "s", "lower"),
       ("series.shuffle_coproduct.terms_out", "count", "lower"),
       ("series.conc_mul.self_s", "s", "lower"),
       ("series.conc_mul.calls", "count", "lower"),
       ("series.json.self_s", "s", "lower")]
    + [("linalg.kernel_basis." + k, u, "lower")
       for k, u in (("self_s", "s"), ("calls", "count"), ("cells", "count"),
                    ("rank", "count"), ("max_bits", "bits"))]
    + [("linalg.rref.self_s", "s", "lower"),
       ("linalg.rref.calls", "count", "lower"),
       ("lie.solve_space.self_s", "s", "lower"),
       ("lie.solve_space.calls", "count", "lower"),
       ("lie.rows", "count", "lower"),
       ("lie.cols", "count", "lower"),
       ("lie.is_lie_series.s", "s", "lower"),
       ("lie.span_compare.s", "s", "lower"),
       ("lie.lyndon_basis.hit_ratio", "ratio", "higher"),
       ("lie.cached_space.s", "s", "lower"),
       ("lie.disk_hits", "count", "higher"),
       ("lie.disk_misses", "count", "lower"),
       ("barwords.bar_double.self_s", "s", "lower"),
       ("barwords.bar_double.calls", "count", "lower"),
       ("barwords.bar_double.terms_out", "count", "lower"),
       ("barwords.bar_xy.hit_ratio", "ratio", "higher"),
       ("barwords.bar_single.self_s", "s", "lower"),
       ("barwords.pair.self_s", "s", "lower"),
       ("harness.coface_pullback.self_s", "s", "lower"),
       ("harness.coface_pullback.calls", "count", "lower"),
       ("harness.coface_pullback.terms_out", "count", "lower"),
       ("harness.pentagon_functional.self_s", "s", "lower")]
    + [("harness.%s.s" % op, "s", "lower")
       for op in ("A", "B", "C", "D", "E", "conjecture", "lemmas")]
    + [("coaction.rc_residual.self_s", "s", "lower"),
       ("coaction.c4_residual.self_s", "s", "lower"),
       ("coaction.ihara_bracket.self_s", "s", "lower"),
       ("coaction.frak_b_check.self_s", "s", "lower"),
       ("dshuffle.dmr_residual.self_s", "s", "lower"),
       ("dshuffle.stuffle_coproduct.self_s", "s", "lower"),
       ("dshuffle.sh_le.hit_ratio", "ratio", "higher"),
       ("kv.krv1.self_s", "s", "lower"),
       ("kv.krv2_space.s", "s", "lower"),
       ("kv.potential.s", "s", "lower"),
       ("kv.nc_krv2_fit.s", "s", "lower"),
       ("braid.pi_coface.self_s", "s", "lower"),
       ("braid.pi_coface.calls", "count", "lower"),
       ("braid.defect.s", "s", "lower"),
       ("braid.permute_strands.self_s", "s", "lower"),
       ("cli.main.s", "s", "lower")]
    + [("%s.self_s" % m, "s", "lower") for m in MODULES]
    + [("trace.overhead_ratio", "ratio", "lower"),
       ("fail_ratio", "ratio", "lower")]
)

# exact work counts: equal on every run of one seed
EXACT_SUFFIXES = (".calls", ".terms_out", ".cells", ".rank", ".max_bits",
                  ".hit_ratio", "lie.rows", "lie.cols", "lie.disk_hits",
                  "lie.disk_misses")


def _module(name):
    return sys.modules["ncds." + name]


def _bits(x):
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _cache_files():
    d = os.environ.get("NCDS_CACHE_DIR")
    return set(os.listdir(d)) if d and os.path.isdir(d) else set()


class Tracer:
    """Span and count totals of one process."""

    def __init__(self):
        self.totals = defaultdict(int)
        self.stack = []  # one [span name, seconds in wrapped children] per open call
        self.depth = defaultdict(int)

    def install(self):
        import ncds.cli  # noqa: F401  together these load every ncds module
        import ncds.harness  # noqa: F401
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("ncds.") and m is not None]
        for span, funcs, counter in SPANS:
            home = _module(span.split(".")[0])
            for fname in funcs:
                orig = getattr(home, fname)
                wrapped = self._wrap(span, orig, counter)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def _wrap(self, span, fn, counter):
        totals, stack, depth = self.totals, self.stack, self.depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            files = _cache_files() if counter == "disk" else None
            stack.append(frame)
            depth[span] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                depth[span] -= 1
                totals[span + ".calls"] += 1
                totals[span + ".self_s"] += elapsed - frame[1]
                if not depth[span]:
                    totals[span + ".s"] += elapsed
            if counter == "terms":
                totals[span + ".terms_out"] += len(result.terms)
            elif counter == "matrix":
                self._count_matrix(args[0], result)
            elif counter == "disk":
                new = any(f.endswith(".json") for f in _cache_files() - files)
                totals["lie.disk_misses" if new else "lie.disk_hits"] += 1
            if stack:
                # the parent's self time excludes this call and its bookkeeping
                stack[-1][1] += clock() - t0
            return result

        return wrapper

    def _count_matrix(self, rows, kernel):
        """Counts of one kernel_basis call; every caller passes a row list."""
        n_rows, cols = len(rows), len(rows[0]) if rows else 0
        t = self.totals
        t["linalg.kernel_basis.cells"] += n_rows * cols
        t["linalg.kernel_basis.rank"] += cols - len(kernel)
        t["linalg.kernel_basis.max_bits"] = max(
            t["linalg.kernel_basis.max_bits"],
            max((_bits(v) for row in rows for v in row if v), default=0))
        if self.stack and self.stack[-1][0] == "lie.solve_space":
            t["lie.rows"] += n_rows
            t["lie.cols"] += cols

    def stats(self):
        """Raw totals plus lru_cache hits and misses, JSON-ready."""
        out = dict(self.totals)
        for prefix, module, fname in LRU_CACHES:
            info = getattr(_module(module), fname).cache_info()
            out[prefix + ".hits"] = info.hits
            out[prefix + ".misses"] = info.misses
        return out


def merge(a, b):
    """Totals of two processes: sums, except the maxima stay maxima."""
    out = dict(a)
    for k, v in b.items():
        out[k] = max(out.get(k, 0), v) if k.endswith(".max_bits") else out.get(k, 0) + v
    return out


def layer_metrics(stats):
    """Every per-layer metric but the two the benchmark adds itself
    (trace.overhead_ratio, fail_ratio), from merged raw totals."""
    values = dict(stats)
    for prefix, _module_name, _fname in LRU_CACHES:
        hits, misses = stats.get(prefix + ".hits", 0), stats.get(prefix + ".misses", 0)
        values[prefix + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for m in MODULES:
        values[m + ".self_s"] = sum(stats.get(span + ".self_s", 0.0)
                                    for span, _f, _c in SPANS
                                    if span.split(".")[0] == m)
    return {name: values.get(name, 0) for name, _u, _b in PER_LAYER
            if name not in ("trace.overhead_ratio", "fail_ratio")}


def is_exact(name):
    return name.endswith(EXACT_SUFFIXES)
