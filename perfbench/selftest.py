"""Self-tests of the benchmark itself. Not collected by pytest; run

    python3 perfbench/selftest.py [WORKLOAD ...]

from the root of a checkout. It takes about seven minutes for all four
workloads on a 2-core machine. It checks that:

1. the gate fails one flipped coefficient in a golden output, a `fail`
   status and a dmr_0 dimension below the Brown/Furusho bound, and that a
   run counts the flipped output as a failed operation;
2. BENCHMARK.json lists exactly the metrics the benchmark reports;
3. per workload, two traced runs of one seed are correct (traced outputs
   equal the untraced ones and golden), report every per-layer metric,
   reach every function the workload is meant to reach, and give equal
   exact counts;
4. in a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import gate
import run
import tracer

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")

# metrics that must be nonzero on a workload: the layers it is meant to serve
REACHES = {
    "ceilings": (
        "series.substitute.calls", "series.conc_mul.calls",
        "linalg.kernel_basis.calls", "linalg.rref.calls",
        "lie.solve_space.calls", "lie.span_compare.s",
        "lie.lyndon_basis.hit_ratio", "barwords.bar_double.calls",
        "barwords.bar_single.self_s", "barwords.pair.self_s",
        "harness.coface_pullback.calls", "harness.pentagon_functional.self_s",
        "harness.A.s", "harness.B.s", "harness.C.s", "harness.D.s",
        "harness.E.s", "harness.conjecture.s", "harness.lemmas.s",
        "coaction.ihara_bracket.self_s", "coaction.frak_b_check.self_s",
        "braid.pi_coface.calls", "braid.defect.s",
        "braid.permute_strands.self_s"),
    "bar_frontier": (
        "barwords.bar_double.calls", "barwords.bar_xy.hit_ratio",
        "harness.coface_pullback.calls", "harness.pentagon_functional.self_s",
        "linalg.kernel_basis.calls", "lie.solve_space.calls",
        "dshuffle.dmr_residual.self_s", "dshuffle.stuffle_coproduct.self_s",
        "harness.B.s"),
    "solve_frontier": (
        "series.substitute.calls", "series.shuffle_coproduct.terms_out",
        "series.conc_mul.calls", "linalg.kernel_basis.calls",
        "lie.solve_space.calls", "lie.is_lie_series.s",
        "harness.coface_pullback.calls", "coaction.rc_residual.self_s",
        "coaction.c4_residual.self_s", "dshuffle.dmr_residual.self_s",
        "dshuffle.stuffle_coproduct.self_s", "kv.krv1.self_s",
        "kv.krv2_space.s", "kv.potential.s", "kv.nc_krv2_fit.s",
        "harness.C.s", "harness.E.s"),
    "spaces_cli": (
        "series.json.self_s", "lie.cached_space.s", "lie.disk_hits",
        "lie.disk_misses", "cli.main.s"),
}
# ncds.braid is reached by ceilings only
ABSENT = {w: ("braid.pi_coface.calls",) for w in REACHES if w != "ceilings"}


def check(cond, what, detail=""):
    if not cond:
        raise SystemExit("selftest FAILED: %s %s" % (what, detail))
    print("ok  " + what)


def flip_first_coefficient(space_json):
    out = copy.deepcopy(space_json)
    term = out["basis"][0]["terms"][0]
    term["num"] = str(-int(term["num"]))
    return out


def test_gate():
    golden = gate.load_golden("spaces_cli")
    good = golden["dmr0-5"]
    check(not gate.problems(good, good, text=gate.canonical(good)),
          "gate passes the golden dmr0-5 output")
    bad = flip_first_coefficient(good)
    check(gate.problems(bad, good, text=gate.canonical(bad))
          == ["differs from golden"], "gate fails one flipped coefficient")
    report = copy.deepcopy(gate.load_golden("bar_frontier")["B9"])
    report["weights"][0]["status"] = "fail"
    check("status fail" in gate.problems(report, report), "gate fails a fail status")
    report["weights"][0]["dims"]["dmr0"] = 0
    check(any("Brown/Furusho" in p for p in gate.problems(report, report)),
          "gate fails dim dmr0 = 0 at w=9")

    corrupt = dict(golden, **{"dmr0-5": bad})
    tally = run.Tally()
    with run.scratch_dir() as tmp:
        run.spaces_pass(0, False, corrupt, tally, tmp)
    # dmr0-5 is requested once cold and WARM_ROUNDS times warm
    check((tally.attempted, tally.failed) == (90, 1 + run.WARM_ROUNDS),
          "a run counts each flipped output as one failed operation "
          "(%d of %d)" % (tally.failed, tally.attempted))


def test_benchmark_json():
    with open(BENCH) as fh:
        spec = json.load(fh)
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(tracer.PER_LAYER), "BENCHMARK.json per_layer matches tracer.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")


def traced_run(workload, seed):
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, cwd=run.ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_traced(workload, seed=7):
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    for res in (first, second):
        check(res["correct"] and not res["failed"],
              "%s: traced run correct, traced outputs equal untraced" % workload)
    values = {k: v["value"] for k, v in first["metrics"].items()}
    check(sorted(values) == sorted(n for n, _u, _b in tracer.PER_LAYER),
          "%s: every per-layer metric reported" % workload)
    missed = [n for n in REACHES[workload] if not values[n]]
    check(not missed, "%s: every listed function reached" % workload, missed)
    present = [n for n in ABSENT.get(workload, ()) if values[n]]
    check(not present, "%s: ncds.braid not reached" % workload, present)
    again = {k: v["value"] for k, v in second["metrics"].items()}
    differ = [n for n in values if tracer.is_exact(n) and values[n] != again[n]]
    check(not differ, "%s: exact counts repeat across two runs" % workload, differ)


def test_bare_directory():
    with run.scratch_dir() as bare:
        shutil.copy(BENCH, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "ceilings", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=180)
    check(p.returncode != 0 and not p.stdout.strip(),
          "without the sources the benchmark exits %d and prints no result"
          % p.returncode)


def main():
    test_gate()
    test_benchmark_json()
    test_bare_directory()
    for workload in sys.argv[1:] or run.WORKLOADS:
        test_traced(workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
