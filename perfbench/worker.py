"""One pass of a verify workload in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED TRACE [--setup-only]

Protocol on stdout, one JSON object per line:

    {"ready": true}                      imports done; set-up ends here
    {"op": NAME, "s": SECONDS, "out": OUTPUT, "error": null|TEXT}
    {"ref_s": {NAME: SECONDS, ...}, "pass_ref_s": SECONDS}
    {"trace": STATS}                     only when TRACE is 1

The parent times spawn -> ready as set-up and checks every OUTPUT against
golden. Operations are called through the package's public entry points only.
With TRACE 1 the outside-in tracer is installed after the ready line, so
set-up is never traced. A `hostref.Sampler` runs from the ready line to the
end of the pass; `ref_s` is each operation's host-speed reference (the
length of one ref unit while it ran) and `pass_ref_s` the whole pass's.
"""

import json
import math
import random
import sys
import time

WORKLOAD, SEED, TRACE = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
SETUP_ONLY = "--setup-only" in sys.argv[4:]

if WORKLOAD == "spaces_cli":
    import ncds.cli  # noqa: F401  the bare import a CLI request pays
else:
    import ncds.harness as harness

OUT = sys.stdout
sys.stdout = sys.stderr  # nothing the package prints may corrupt the protocol


def emit(obj):
    OUT.write(json.dumps(obj, sort_keys=True) + "\n")
    OUT.flush()


def lemma_seeds(seed):
    """Five lemma-suite seeds derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(5)]


def operations(workload, seed):
    """(name, thunk) pairs of one pass, in run order."""
    h = harness
    if workload == "ceilings":
        c = h.DEFAULT_CEILINGS
        s1, s2, s3, s4, s5 = lemma_seeds(seed)
        return [
            ("A", lambda: h.verify_theorem_A(c["A"])),
            ("B", lambda: h.verify_theorem_B(c["B"])),
            ("C", lambda: h.verify_theorem_C(c["C"])),
            ("D", lambda: h.verify_theorem_D(c["D"])),
            ("E", lambda: h.verify_theorem_E(c["E"])),
            ("conjecture", lambda: h.conjecture_scan(7)),
            ("cab23", lambda: h.lemma_cab23_failures(6, 100, s1)),
            ("cabling34", lambda: h.lemma_cabling34_failures(6, 100, s2)),
            ("dihedral", lambda: h.lemma_dihedral_failures(6, 3, s3)),
            ("polylogs", lambda: h.lemma_polylogs_failures(6, 2, s4)),
            ("stuffle", lambda: h.stuffle_identity_failures(6, 2, s5)),
        ]
    if workload == "bar_frontier":
        return [("B9", lambda: h.verify_theorem_B(9, weights=[9]))]
    if workload == "solve_frontier":
        return [("C10", lambda: h.verify_theorem_C(10, weights=[10])),
                ("E9", lambda: h.verify_theorem_E(9, weights=[9]))]
    raise SystemExit("unknown verify workload %r" % (workload,))


def to_output(result):
    """Report JSON without `version`, or a lemma suite's failure list."""
    if isinstance(result, list):
        return json.loads(json.dumps(result))
    out = result.to_json()
    out.pop("version", None)
    return out


def main():
    emit({"ready": True})
    if SETUP_ONLY:
        return
    import hostref  # the script's directory is on sys.path
    tracer = None
    if TRACE:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = hostref.Sampler()
    sampler.start()
    spans = {}
    for name, thunk in operations(WORKLOAD, SEED):
        t0 = time.perf_counter()
        try:
            result, error = thunk(), None
        except Exception as exc:  # counted as one failed operation
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        spans[name] = (t0, time.perf_counter())
        emit({"op": name, "s": spans[name][1] - t0, "error": error,
              "out": None if error else to_output(result)})
    sampler.stop()
    scale = hostref.SLICES_PER_REF
    emit({"ref_s": {name: hostref.during(sampler.samples, *span) * scale
                    for name, span in spans.items()},
          "pass_ref_s": hostref.during(sampler.samples, -math.inf, math.inf) * scale})
    if tracer is not None:
        emit({"trace": tracer.stats()})


if __name__ == "__main__":
    main()
