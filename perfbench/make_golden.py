"""Write the golden outputs the benchmark checks against.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Run at the commit whose outputs are the reference (the golden files in
perfbench/golden/ were written at the seed commit). Verify and conjecture
reports are stored without `version`; lemma suites are stored as their
failure lists, which must be empty; `ncds spaces` outputs are stored as
parsed JSON whose canonical form is byte-identical to what the CLI printed.
"""

import json
import os
import subprocess
import sys

import gate
from run import ROOT, SPACE_PAIRS, WORKER, WORKLOADS, child_env, scratch_dir


def verify_golden(workload):
    argv = [sys.executable, WORKER, workload, "0", "0"]
    out = subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    golden = {}
    for line in out.splitlines()[1:]:
        rec = json.loads(line)
        if rec["error"] or (isinstance(rec["out"], list) and rec["out"]):
            raise SystemExit("%s/%s failed: %r" % (workload, rec["op"], rec))
        golden[rec["op"]] = rec["out"]
    return golden


def spaces_golden():
    with scratch_dir() as cache:
        golden = {}
        for space, weight in SPACE_PAIRS:
            argv = [sys.executable, "-m", "ncds.cli", "spaces", "--set", space,
                    "--weight", str(weight)]
            text = subprocess.run(argv, cwd=ROOT, env=child_env(cache), check=True,
                                  stdout=subprocess.PIPE, text=True).stdout
            out = json.loads(text)
            if gate.canonical(out) != text:
                raise SystemExit("%s-%d: output is not in canonical form" % (space, weight))
            golden["%s-%d" % (space, weight)] = out
        return golden


def main():
    os.makedirs(gate.GOLDEN_DIR, exist_ok=True)
    for workload in sys.argv[1:] or WORKLOADS:
        golden = spaces_golden() if workload == "spaces_cli" else verify_golden(workload)
        for name, out in golden.items():
            if gate.problems(out, out):
                raise SystemExit("%s/%s: %s" % (workload, name, gate.problems(out, out)))
        with open(gate.golden_path(workload), "w") as fh:
            json.dump(golden, fh, sort_keys=False, separators=(",", ":"))
            fh.write("\n")
        print("%s: %d outputs" % (workload, len(golden)))


if __name__ == "__main__":
    main()
