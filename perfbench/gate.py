"""Correctness gate: every output is compared with the golden output stored
from the seed commit, and independently against a literature lower bound.

A mismatch, a `fail` status, a nonzero exit or an exception makes one failed
operation. The caller counts them.
"""

import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Brown (Ann. Math. 175, 2012): the motivic Lie algebra is free on
# sigma_3, sigma_5, ... and embeds in grt_1; Furusho (Ann. Math. 174, 2011):
# grt_1 is contained in dmr_0. Hence dim dmr_0 in weight w is at least the
# number of Lie words of that weight in generators of odd weight >= 3.
DMR0_LOWER_BOUND = {3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1, 9: 1}


def canonical(obj):
    """The byte form the CLI writes: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def golden_path(workload):
    return os.path.join(GOLDEN_DIR, workload + ".json")


def load_golden(workload):
    """op name -> golden output (report JSON without `version`, lemma failure
    list, or `ncds spaces` JSON)."""
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def dmr0_dimensions(out):
    """(weight, dimension) of every dmr_0 dimension an output reports."""
    if not isinstance(out, dict):
        return []
    if out.get("space") == "dmr0":
        return [(out["weight"], out["dimension"])]
    return [(e["w"], e["dims"]["dmr0"]) for e in out.get("weights", ())
            if "dmr0" in e.get("dims", {})]


def problems(out, golden, text=None):
    """Why an output is wrong; empty when it is right. ``text`` is the raw
    output when the operation printed one (CLI), compared byte for byte."""
    found = []
    got = text if text is not None else canonical(out)
    if got != canonical(golden):
        found.append("differs from golden")
    if isinstance(out, dict) and any(e.get("status") == "fail"
                                     for e in out.get("weights", ())):
        found.append("status fail")
    for w, dim in dmr0_dimensions(out):
        if dim < DMR0_LOWER_BOUND.get(w, 0):
            found.append("dim dmr0 = %d at w=%d is below the Brown/Furusho "
                         "bound %d" % (dim, w, DMR0_LOWER_BOUND[w]))
    return found
