"""Command-line interface.

    ncds spaces --set {rc|rc0|dmr0|krv2|krv1skew|conj2} --weight W
                [--lambda p/q] [--out FILE]
    ncds verify --theorem {A|B|C|D|E} [--max-weight W] [--out FILE]
    ncds residual --check {rc|dmr|krv1|nckrv2} --in series.json
    ncds conjecture [--max-weight W] [--out FILE]

Exit codes: 0 all pass, 1 a check failed or a residual is nonzero, 2 input
error, 3 an internal error (a traceback is printed).  NCDS_CACHE_DIR enables
the on-disk solution-space cache.
"""

import argparse
import json
import sys

from . import InputError, __version__, integer
from .cache import cached_space


def _dump(data, path):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_rational(text):
    from fractions import Fraction
    num, slash, den = text.partition("/")
    try:
        num, den = integer(num), (integer(den) if slash else 1)
    except InputError:
        raise InputError("--lambda %s is not a rational p/q" % text) from None
    if not den:
        raise InputError("--lambda %s has a zero denominator" % text)
    return Fraction(num, den)


def space(name, weight, lam=None):
    """The named spaces: rc, rc0, dmr0, krv2, krv1skew, conj2.  Each loads
    only the modules that compute it."""
    if name in ("rc", "rc0"):
        from .coaction import rc_space
        return rc_space(weight, lam if name == "rc" else 0)
    if name == "dmr0":
        from .dshuffle import dmr_space
        return dmr_space(weight)
    if name == "krv2":
        from .kv import krv2_space
        return krv2_space(weight)
    if name == "krv1skew":
        from .kv import krv1skew_space
        return krv1skew_space(weight)
    if name == "conj2":
        from .harness import conj2_space
        return conj2_space(weight)
    raise ValueError("unknown space %r" % (name,))


def cmd_spaces(args):
    lam = _parse_rational(args.lam) if args.lam is not None else None
    if args.set != "rc" and lam is not None:
        raise InputError("--lambda only applies to the rc space")
    def compute():
        return space(args.set, args.weight, lam)
    if lam is None:
        doc = cached_space(args.set, args.weight, compute)
    else:
        doc = compute().to_json()
    _dump(doc, args.out)
    return 0


def _report(report, args):
    """The report JSON to --out or stdout, its summary (timing last) to
    stderr; InputError if --max-weight left the check no weight."""
    if not report.weights:
        raise InputError("--max-weight %d is below the first weight %s checks"
                         % (args.max_weight, report.check))
    _dump(report.to_json(), args.out)
    for line in report.summary_lines():
        print(line, file=sys.stderr)


def cmd_verify(args):
    from .harness import DEFAULT_CEILINGS, VERIFIERS
    max_weight = args.max_weight
    if max_weight is None:
        max_weight = DEFAULT_CEILINGS[args.theorem]
    report = VERIFIERS[args.theorem](max_weight)
    _report(report, args)
    return 0 if report.ok else 1


def cmd_conjecture(args):
    from .harness import conjecture_scan
    _report(conjecture_scan(args.max_weight), args)
    return 0


def cmd_residual(args):
    with open(args.infile) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise InputError("%s is not JSON: %s" % (args.infile, exc)) from None
    from .series import (_coef_num_den, series_from_json, series_to_json,
                         two_letter_alphabet)
    psi = series_from_json(data)
    if psi.alphabet != two_letter_alphabet():
        raise InputError("residual needs the alphabet ['x0', 'x1'], got %s"
                         % (list(psi.alphabet.letters),))
    if args.check == "rc":
        from .coaction import rc_residual
        res = rc_residual(psi)
        payload = {"residual": series_to_json(res), "zero": res.is_zero}
    elif args.check == "dmr":
        if psi.max_weight > 10:  # a y-letter index is written as one digit
            raise InputError("the dmr residual payload supports at most 10 "
                             "y-letters, so maxWeight <= 10, got %d" % psi.max_weight)
        from .dshuffle import dmr_residual
        res = dmr_residual(psi)
        terms = []
        for (l, r), c in sorted(res.terms.items()):
            num, den = _coef_num_den(c)
            terms.append({"left": "".join(str(i) for i in l),
                          "right": "".join(str(i) for i in r), "num": num, "den": den})
        payload = {"residual": {"terms": terms}, "zero": res.is_zero}
    elif args.check == "krv1":
        from .kv import krv1_residual
        res = krv1_residual(psi)
        payload = {"residual": series_to_json(res), "zero": res.is_zero}
    else:  # nckrv2
        from .kv import nc_krv2_fit, tangential_pair_of
        from .lie import is_lie_series
        if not is_lie_series(psi):
            raise InputError("the nc krv2 fit is defined for Lie series")
        res, f = nc_krv2_fit(tangential_pair_of(psi))
        payload = {"residual": series_to_json(res), "f": series_to_json(f),
                   "zero": res.is_zero}
    payload["check"] = args.check
    _dump(payload, args.out)
    return 0 if payload["zero"] else 1


def build_parser():
    p = argparse.ArgumentParser(prog="ncds", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version="ncds " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spaces", help="compute a named solution space")
    sp.add_argument("--set", required=True,
                    choices=("rc", "rc0", "dmr0", "krv2", "krv1skew", "conj2"))
    sp.add_argument("--weight", type=integer, required=True)
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="rational p/q pinning the [x0,x1] coefficient (rc only)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_spaces)

    vp = sub.add_parser("verify", help="machine-check one of the theorems")
    vp.add_argument("--theorem", required=True, choices=tuple("ABCDE"))
    vp.add_argument("--max-weight", type=integer, default=None)
    vp.add_argument("--out", default=None)
    vp.set_defaults(fn=cmd_verify)

    rp = sub.add_parser("residual", help="evaluate a residual on a series")
    rp.add_argument("--check", required=True,
                    choices=("rc", "dmr", "krv1", "nckrv2"))
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=cmd_residual)

    cp = sub.add_parser("conjecture", help="report-only dimension scan")
    cp.add_argument("--max-weight", type=integer, default=7)
    cp.add_argument("--out", default=None)
    cp.set_defaults(fn=cmd_conjecture)
    return p


def _glue_negative_values(argv):
    """argv with "--name -1/3" written as "--name=-1/3": argparse reads a
    token that starts with "-" and is not a plain negative number as an
    option, so a negative fraction would never reach --lambda."""
    out = []
    for arg in argv:
        if (arg[:1] == "-" and arg[1:2].isdigit() and out
                and out[-1][:2] == "--" and "=" not in out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_glue_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print("ncds: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a crash pays for loading it
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
