"""The ncds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload is a closed loop with one
client: one operation at a time from a single process. Each pass of a verify
workload runs in a fresh interpreter (`worker.py`), as a real `ncds verify`
does, so the package's lru_caches start cold; `spaces_cli` spawns
`python -m ncds.cli spaces` per request. Every output is checked against
golden (`gate.py`). With `--trace 0` the end-to-end metrics are reported;
with `--trace 1` one untraced and one traced pass give the per-layer metrics
(`tracer.py`) and the tracing overhead. Every end-to-end time is divided by a
host-speed reference measured beside it (`hostref.py`), so it is in `ref`
units; the info line gives the same times in seconds. The last stdout line is
the result: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import gate
import hostref
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_CLI = os.path.join(HERE, "trace_cli.py")

WORKLOADS = ("ceilings", "bar_frontier", "solve_frontier", "spaces_cli")
SPACES = ("rc0", "dmr0", "krv2", "krv1skew", "conj2")
SPACE_WEIGHTS = range(3, 9)
SPACE_PAIRS = [(s, w) for s in SPACES for w in SPACE_WEIGHTS]
WARM_ROUNDS = 2  # 60 warm requests a pass, so p80 has 12 samples beyond it
SETUP_PROBES = 10

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cold_ref", "ref"), ("warm_p50_ref", "ref"), ("warm_p80_ref", "ref"))


@dataclass
class Pass:
    """One pass's latencies, each in ref units and in seconds."""
    wall_ref: float = 0.0  # summed operation latencies, set-up excluded
    cold_ref: float = 0.0  # summed latencies of cold requests, spawn to exit
    warm_ref: list = field(default_factory=list)  # warm-request latencies
    wall_s: float = 0.0
    cold_s: float = 0.0
    warm_s: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # op -> output bytes
    stats: dict = None   # tracer totals, traced passes only


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, found):
        self.attempted += 1
        if found:
            self.failed += 1
            print("FAILED %s: %s" % (label, "; ".join(found)), file=sys.stderr)


def child_env(cache_dir=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("NCDS_THREADS", "NCDS_CACHE_DIR")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if cache_dir:
        env["NCDS_CACHE_DIR"] = cache_dir
    return env


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def bare_start(env):
    """Seconds of one bare interpreter start: the start-up reference."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def setup_probe(workload):
    """Spawn to `ready` of a worker that only imports what the workload
    needs, then a bare interpreter start: (seconds, bare-start seconds)."""
    argv = [sys.executable, WORKER, workload, "0", "0", "--setup-only"]
    env = child_env()
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
    if p.returncode or line.strip() != '{"ready": true}':
        raise SystemExit("perfbench: set-up failed (exit code %s)" % p.returncode)
    return elapsed, bare_start(env)


def verify_pass(workload, seed, trace, golden, tally, reference=None):
    argv = [sys.executable, WORKER, workload, str(seed), "1" if trace else "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as p:
        records = [json.loads(line) for line in p.stdout]
    exited = time.perf_counter() - t0
    ops = {r["op"]: r for r in records if "op" in r}
    stats = next((r["trace"] for r in records if "trace" in r), {} if trace else None)
    refs = next((r for r in records if "ref_s" in r), None)
    if refs is None:
        raise SystemExit("perfbench: the %s worker exited with code %s before "
                         "the end of its pass" % (workload, p.returncode))
    outputs = {}
    for name, want in golden.items():
        rec = ops.get(name)
        if rec is None:
            found = ["no output"]
        elif rec["error"]:
            found = [rec["error"]]
        else:
            outputs[name] = gate.canonical(rec["out"])
            found = gate.problems(rec["out"], want)
        if p.returncode:
            found.append("worker exit code %d" % p.returncode)
        if reference is not None and outputs.get(name) != reference.get(name):
            found.append("traced output differs from untraced")
        tally.record("%s/%s" % (workload, name), found)
    wall_s = sum(r["s"] for r in ops.values())
    wall_ref = sum(r["s"] / refs["ref_s"][name] for name, r in ops.items())
    # the pass is one request: cold from spawn to exit, warm once imports are
    # done. Start-up and exit ran outside any operation, so the whole pass's
    # reference measures them.
    cold_ref = wall_ref + (exited - wall_s) / refs["pass_ref_s"]
    return Pass(wall_ref=wall_ref, cold_ref=cold_ref, warm_ref=[wall_ref],
                wall_s=wall_s, cold_s=exited, warm_s=[wall_s], outputs=outputs,
                stats=stats)


def spaces_pass(seed, trace, golden, tally, tmp, reference=None):
    """Per space: its six pairs cold against a fresh cache directory, then
    WARM_ROUNDS rounds of the same pairs in seed-shuffled order, served from
    it. Going space by space spreads the warm requests over the whole pass,
    so their percentiles span more than one moment of a shared host.

    Host-speed references: a sampler thread runs through the pass, for the
    sums; a bare interpreter start follows every request, for the warm
    percentiles."""
    cache = tempfile.mkdtemp(dir=tmp, prefix="cache-")
    stats_file = os.path.join(tmp, "trace.json")
    env = child_env(cache)
    result = Pass(stats={} if trace else None)
    bare = []   # (time, seconds) of each bare start
    timed = []  # (start, end, cold) of each request
    sampler = hostref.Sampler()

    def request(space, weight, cold):
        label = "%s-%d" % (space, weight)
        cli = ["spaces", "--set", space, "--weight", str(weight)]
        argv = ([sys.executable, TRACE_CLI, stats_file] if trace
                else [sys.executable, "-m", "ncds.cli"]) + cli
        t0 = time.perf_counter()
        p = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True)
        t1 = time.perf_counter()
        b = bare_start(env)
        bare.append((t1 + b / 2, b))
        timed.append((t0, t1, cold))
        if p.returncode:
            found = ["exit code %d" % p.returncode]
        else:
            try:
                out = json.loads(p.stdout)
            except ValueError:
                out = None
            found = gate.problems(out, golden[label], text=p.stdout)
        if reference is not None and p.stdout != reference.get(label):
            found.append("traced output differs from untraced")
        tally.record("spaces_cli/" + label, found)
        result.outputs[label] = p.stdout
        if trace and os.path.exists(stats_file):
            with open(stats_file) as fh:
                result.stats = tracer.merge(result.stats, json.load(fh))
            os.remove(stats_file)

    rng = random.Random(seed)
    sampler.start()
    try:
        for space in SPACES:
            pairs = [(space, w) for w in SPACE_WEIGHTS]
            for pair in pairs:
                request(*pair, cold=True)
            for _ in range(WARM_ROUNDS):
                for pair in rng.sample(pairs, len(pairs)):
                    request(*pair, cold=False)
    finally:
        sampler.stop()
        shutil.rmtree(cache, ignore_errors=True)
    for t0, t1, cold in timed:
        seconds = t1 - t0
        ref = seconds / (hostref.during(sampler.samples, t0, t1)
                         * hostref.SLICES_PER_REF)
        result.wall_ref += ref
        result.wall_s += seconds
        if cold:
            result.cold_ref += ref
            result.cold_s += seconds
        else:
            result.warm_ref.append(seconds / hostref.beside(bare, t0, t1))
            result.warm_s.append(seconds)
    return result


def measure(args, golden, tmp):
    tally = Tally()

    def one_pass(trace, reference=None):
        if args.workload == "spaces_cli":
            return spaces_pass(args.seed, trace, golden, tally, tmp, reference)
        return verify_pass(args.workload, args.seed, trace, golden, tally,
                           reference)

    setup_probe(args.workload)  # discarded: writes bytecode, warms the file cache
    info = {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()}
    if args.trace:
        plain = one_pass(False)
        traced = one_pass(True, reference=plain.outputs)
        values = tracer.layer_metrics(traced.stats)
        values["trace.overhead_ratio"] = traced.wall_ref / plain.wall_ref
        values["fail_ratio"] = tally.failed / tally.attempted
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        info["passes"] = 2
    else:
        # half the probes before the passes and half after, so that the
        # median spans the run rather than one moment of a shared host
        setups = [setup_probe(args.workload) for _ in range(SETUP_PROBES // 2)]
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(one_pass(False))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        setups += [setup_probe(args.workload) for _ in range(SETUP_PROBES // 2)]
        warm = [x for p in passes for x in p.warm_ref]
        warm_s = [x for p in passes for x in p.warm_s]
        values = {
            "wall_ref": statistics.median(p.wall_ref for p in passes),
            "setup_s": statistics.median(s / b for s, b in setups)
                       * hostref.BARE_START_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "cold_ref": statistics.median(p.cold_ref for p in passes),
            "warm_p50_ref": percentile(warm, 0.5),
            "warm_p80_ref": percentile(warm, 0.8),
        }
        units = dict(END_TO_END)
        info.update(passes=len(passes), setup_samples=len(setups),
                    warm_samples=len(warm), seconds={
                        "setup_s": statistics.median(s for s, _ in setups),
                        "wall_s": statistics.median(p.wall_s for p in passes),
                        "cold_s": statistics.median(p.cold_s for p in passes),
                        "warm_p50_ms": percentile(warm_s, 0.5) * 1e3,
                        "warm_p80_ms": percentile(warm_s, 0.8) * 1e3})
    info["loadavg_end"] = os.getloadavg()
    print(json.dumps({"info": info}, sort_keys=True))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .perfbench_tmp/ in the checkout, removed on exit."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ncds", "__init__.py")):
        raise SystemExit("perfbench: no ncds sources under %s" % ROOT)
    golden = gate.load_golden(args.workload)
    with scratch_dir() as tmp:
        result = measure(args, golden, tmp)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
