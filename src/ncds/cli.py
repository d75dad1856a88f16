"""Command-line interface.

    ncds spaces --set {rc|rc0|dmr0|krv2|krv1skew|conj2} --weight W
                [--lambda p/q] [--out FILE]
    ncds verify --theorem {A|B|C|D|E} [--max-weight W] [--seed S] [--out FILE]
    ncds residual --check {rc|dmr|krv1|nckrv2} --in series.json
    ncds conjecture [--max-weight W] [--seed S] [--out FILE]

Exit codes: 0 all pass, 1 a check failed or a residual is nonzero, 2 input
error, 3 an internal error (a traceback is printed).  NCDS_CACHE_DIR enables
the on-disk solution-space cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .lie import cached_space, is_lie_series, SolutionSpace
from .series import InputError, series_from_json, series_to_json, two_letter_alphabet


def _dump(data, path):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_rational(text):
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), (int(den) if slash else 1)
    except ValueError:
        raise InputError("--lambda %s is not a rational p/q" % text) from None
    if not den:
        raise InputError("--lambda %s has a zero denominator" % text)
    return Fraction(num, den)


def cmd_spaces(args):
    lam = _parse_rational(args.lam) if args.lam is not None else None
    if args.set != "rc" and lam is not None:
        raise InputError("--lambda only applies to the rc space")
    def compute():
        from .harness import space
        return space(args.set, args.weight, lam)
    if lam is None:
        sol = cached_space(args.set, args.weight, compute,
                           SolutionSpace.from_json, SolutionSpace.to_json)
    else:
        sol = compute()
    _dump(sol.to_json(), args.out)
    return 0


def _report(report, path):
    """The report JSON to path or stdout, its summary (timing last) to stderr."""
    _dump(report.to_json(), path)
    for line in report.summary_lines():
        print(line, file=sys.stderr)


def cmd_verify(args):
    from .harness import DEFAULT_CEILINGS, VERIFIERS
    max_weight = args.max_weight or DEFAULT_CEILINGS[args.theorem]
    report = VERIFIERS[args.theorem](max_weight, args.seed)
    _report(report, args.out)
    return 0 if report.ok else 1


def cmd_conjecture(args):
    from .harness import conjecture_scan
    report = conjecture_scan(args.max_weight, args.seed)
    _report(report, args.out)
    return 0


def cmd_residual(args):
    with open(args.infile) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise InputError("%s is not JSON: %s" % (args.infile, exc)) from None
    psi = series_from_json(data)
    if psi.alphabet != two_letter_alphabet():
        raise InputError("residual needs the alphabet ['x0', 'x1'], got %s"
                         % (list(psi.alphabet.letters),))
    from .coaction import rc_residual
    from .dshuffle import dmr_residual
    from .kv import krv1_residual, nc_krv2_fit
    if args.check == "rc":
        res = rc_residual(psi)
        payload = {"residual": series_to_json(res), "zero": res.is_zero}
    elif args.check == "dmr":
        res = dmr_residual(psi)
        terms = [{"left": "".join(str(i) for i in l),
                  "right": "".join(str(i) for i in r),
                  "num": str(c.numerator if isinstance(c, Fraction) else c),
                  "den": str(c.denominator if isinstance(c, Fraction) else 1)}
                 for (l, r), c in sorted(res.terms.items())]
        payload = {"residual": {"terms": terms}, "zero": res.is_zero}
    elif args.check == "krv1":
        res = krv1_residual(psi)
        payload = {"residual": series_to_json(res), "zero": res.is_zero}
    elif args.check == "nckrv2":
        if not is_lie_series(psi):
            raise InputError("the nc krv2 fit is defined for Lie series")
        res, f = nc_krv2_fit(psi)
        payload = {"residual": series_to_json(res), "f": series_to_json(f),
                   "zero": res.is_zero}
    else:
        raise InputError("unknown check %r" % (args.check,))
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
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="rational p/q pinning the [x0,x1] coefficient (rc only)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_spaces)

    vp = sub.add_parser("verify", help="machine-check one of the theorems")
    vp.add_argument("--theorem", required=True, choices=tuple("ABCDE"))
    vp.add_argument("--max-weight", type=int, default=None)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--out", default=None)
    vp.set_defaults(fn=cmd_verify)

    rp = sub.add_parser("residual", help="evaluate a residual on a series")
    rp.add_argument("--check", required=True,
                    choices=("rc", "dmr", "krv1", "nckrv2"))
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=cmd_residual)

    cp = sub.add_parser("conjecture", help="report-only dimension scan")
    cp.add_argument("--max-weight", type=int, default=7)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--out", default=None)
    cp.set_defaults(fn=cmd_conjecture)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
