"""Free Lie algebra structure inside the series algebra and the linear solver
used by every membership computation.

Lie elements are always carried in expanded word form; the Lyndon basis is
the coordinate chart the solvers work in, since all the functionals we care
about act on word coefficients.
"""

from __future__ import annotations

import binascii
import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache

from .linalg import kernel_basis, rref, span_contains
from .series import (Series, TensorSeries, CyclicSeries, conc_mul,
                     shuffle_coproduct, letter_swap, two_letter_alphabet,
                     series_to_json, _iadd)


def lie_bracket(f, g):
    return conc_mul(f, g) - conc_mul(g, f)


def lyndon_words(weight, n_letters=2):
    """All Lyndon words of the given length via Duval's algorithm."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == weight:
            out.append(bytes(w))
        while len(w) < weight:
            w.append(w[-m])
        while w and w[-1] == n_letters - 1:
            w.pop()
    return sorted(out)


def _standard_factorization(w):
    """Longest proper Lyndon suffix split of a Lyndon word."""
    n = len(w)
    for i in range(1, n):
        suf = w[i:]
        if all(suf < suf[j:] + suf[:j] for j in range(1, len(suf))):
            return w[:i], suf
    raise ValueError("not a Lyndon word: %r" % (w,))


def _bracketing(w):
    if len(w) == 1:
        return w[0]
    u, v = _standard_factorization(w)
    return (_bracketing(u), _bracketing(v))


def _expand_bracketing(tree, alphabet, max_weight):
    if isinstance(tree, int):
        return Series(alphabet, max_weight, {bytes((tree,)): 1}, _clean=False)
    left = _expand_bracketing(tree[0], alphabet, max_weight)
    right = _expand_bracketing(tree[1], alphabet, max_weight)
    return lie_bracket(left, right)


@dataclass(frozen=True)
class LyndonBasis:
    weight: int
    elements: tuple  # of (word bytes, bracketing tree, expanded Series)

    def series(self):
        return [s for _, _, s in self.elements]


@lru_cache(maxsize=None)
def lyndon_basis(weight, max_weight=None):
    """Standard-bracketing Lyndon basis of the free Lie algebra on x0, x1."""
    alphabet = two_letter_alphabet()
    mw = weight if max_weight is None else max_weight
    elems = []
    for w in lyndon_words(weight):
        tree = _bracketing(w)
        elems.append((w, tree, _expand_bracketing(tree, alphabet, mw)))
    return LyndonBasis(weight, tuple(elems))


def primitivity_defect(f, coproduct=None):
    """Delta(f) - f (x) 1 - 1 (x) f as a raw dict.

    Delta defaults to the shuffle coproduct, for which the defect is empty
    iff f is a Lie series; the dmr residual passes the stuffle coproduct.
    The default is looked up at call time, so a wrapped module-level
    ``shuffle_coproduct`` (the benchmark's tracer) sees every call.
    """
    terms = dict((coproduct or shuffle_coproduct)(f).terms)
    for w, c in f.terms.items():
        _iadd(terms, (w, b""), -c)
        _iadd(terms, (b"", w), -c)
    return terms


def is_lie_series(f):
    """True iff f is primitive for the shuffle coproduct in every weight."""
    return not primitivity_defect(f)


def skew_constraint(s):
    """eta(x1, x0) + eta(x0, x1), zero iff s is skew."""
    return letter_swap(s) + s


def linear_constraint(s):
    """The x0 and x1 coefficients, which the named spaces require to vanish."""
    return {"x0": s.coeff(b"\x00"), "x1": s.coeff(b"\x01")}


def is_skew(f):
    """eta(x0, x1) = -eta(x1, x0)."""
    return skew_constraint(f).is_zero


# -- generic homogeneous solver ---------------------------------------------

@dataclass
class SolutionSpace:
    """Weight-graded basis of a linear subspace, reduced over rationals.

    Basis entries are Series or, for krv2, tangential derivations.
    ``offset`` carries the particular solution of an affine (nonzero lambda)
    problem and is None in the homogeneous case.
    """

    space: str
    weight: int
    basis: list
    offset: object = None

    @property
    def dimension(self):
        return len(self.basis)

    def to_json(self):
        out = {"space": self.space, "weight": self.weight,
               "dimension": self.dimension,
               "basis": [_basis_entry_json(b) for b in self.basis]}
        if self.offset is not None:
            out["offset"] = _basis_entry_json(self.offset)
        return out


def _basis_entry_json(entry):
    if isinstance(entry, Series):
        return series_to_json(entry)
    return entry.to_json()


def _constraint_items(value):
    """Normalize a constraint evaluation to an iterable of (key, coeff)."""
    if isinstance(value, (Series, TensorSeries, CyclicSeries)):
        return value.terms.items()
    if isinstance(value, dict):
        return value.items()
    raise TypeError("constraint must return a Series-like or a dict")


def assemble_rows(basis_values, n_cols):
    """Turn per-basis-element constraint values into matrix rows.

    basis_values[j] is the list of (key, coeff) items for column j; one row
    is produced per distinct (constraint, key) pair.
    """
    rows = {}
    for j, items in enumerate(basis_values):
        for key, c in items:
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * n_cols
            row[j] = c
    return [rows[k] for k in sorted(rows)]


def solve_space(weight, constraints, space="anon", chart="lyndon",
                max_weight=None):
    """Joint kernel of linear constraints on homogeneous weight-w elements.

    chart "lyndon" solves over the free Lie algebra in Lyndon coordinates;
    chart "words" solves over raw word coefficients (used as the independent
    brute-force route, with primitivity supplied as an explicit constraint);
    chart "pairs" solves over tangential derivations (a1, a2), the Lyndon
    basis placed in a1 and then in a2.  Each constraint maps an ambient
    element to a Series/TensorSeries/CyclicSeries/dict whose entries must
    all vanish.
    """
    alphabet = two_letter_alphabet()
    mw = weight if max_weight is None else max_weight
    if chart == "lyndon":
        ambient = lyndon_basis(weight, mw).series()
    elif chart == "words":
        ambient = [Series(alphabet, mw, {bytes(w): 1})
                   for w in _all_words(weight)]
    elif chart == "pairs":
        from .kv import TangentialDerivation
        zero = Series.zero(alphabet, mw)
        lyndon = lyndon_basis(weight, mw).series()
        ambient = ([TangentialDerivation(s, zero, normalize=False) for s in lyndon]
                   + [TangentialDerivation(zero, s, normalize=False) for s in lyndon])
    else:
        raise ValueError("unknown chart %r" % (chart,))
    kind = type(ambient[0])
    values = []
    for elt in ambient:
        items = []
        for ci, con in enumerate(constraints):
            items.extend(((ci, key), c) for key, c in _constraint_items(con(elt)))
        values.append(items)
    rows = assemble_rows(values, len(ambient))
    combos = kernel_basis(rows) if rows else kernel_basis([[0] * len(ambient)])
    sols = []
    for vec in combos:
        coords = {}
        for c, elt in zip(vec, ambient):
            if c:
                for k, v in elt.terms.items():
                    _iadd(coords, k, c * v)
        sols.append(kind.from_terms(alphabet, mw, coords))
    return SolutionSpace(space, weight, canonical_series_basis(sols))


def _all_words(weight):
    words = [[]]
    for _ in range(weight):
        words = [w + [i] for w in words for i in (0, 1)]
    return [bytes(w) for w in words]


# -- canonical bases and span comparisons over coordinates ------------------
#
# Series and tangential derivations expose their coordinates the same way:
# a ``terms`` map key -> coefficient and the class method
# ``from_terms(alphabet, max_weight, terms)``.

def _coordinate_keys(objs):
    return sorted({k for o in objs for k in o.terms})


def _coordinate_rows(objs, keys):
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for o in objs:
        row = [0] * len(keys)
        for k, c in o.terms.items():
            row[index[k]] = c
        rows.append(row)
    return rows


def canonical_series_basis(sols):
    """Reduced echelon basis of the span of the given Series (or tangential
    derivations), as objects of the same kind."""
    sols = [s for s in sols if not s.is_zero]
    if not sols:
        return []
    kind, alphabet = type(sols[0]), sols[0].alphabet
    mw = min(s.max_weight for s in sols)
    keys = _coordinate_keys(sols)
    ech, _ = rref(_coordinate_rows(sols, keys))
    return [kind.from_terms(
                alphabet, mw, {k: (int(c) if c.denominator == 1 else c)
                               for k, c in zip(keys, row) if c})
            for row in ech]


def series_span_contains(basis, candidate):
    basis = [s for s in basis if not s.is_zero]
    keys = _coordinate_keys(basis)
    ech, piv = rref(_coordinate_rows(basis, keys))
    index = {k: i for i, k in enumerate(keys)}
    vec = [0] * len(keys)
    for k, c in candidate.terms.items():
        if k not in index:
            if c:
                return False
            continue
        vec[index[k]] = c
    return span_contains(ech, piv, vec)


def series_spans_equal(basis_a, basis_b):
    """Mutual containment; returns (equal, witness object or None)."""
    basis_a = [s for s in basis_a if not s.is_zero]
    basis_b = [s for s in basis_b if not s.is_zero]
    if not basis_a and not basis_b:
        return True, None
    pool = basis_a + basis_b
    keys = _coordinate_keys(pool)
    rows_a = _coordinate_rows(basis_a, keys)
    rows_b = _coordinate_rows(basis_b, keys)
    ech_a, piv_a = rref(rows_a)
    ech_b, piv_b = rref(rows_b)
    for row, obj in zip(rows_b, basis_b):
        if not span_contains(ech_a, piv_a, row):
            return False, obj
    for row, obj in zip(rows_a, basis_a):
        if not span_contains(ech_b, piv_b, row):
            return False, obj
    return True, None


# -- optional on-disk cache --------------------------------------------------

def cache_dir():
    return os.environ.get("NCDS_CACHE_DIR") or None


@lru_cache(maxsize=None)
def source_hash():
    """CRC-32 of the package's *.py sources, so that a kernel change never
    serves a space cached by other code.  (hashlib would load OpenSSL, about
    3 MB of resident memory in every `ncds` process.)"""
    pkg = os.path.dirname(os.path.abspath(__file__))
    crc = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                crc = binascii.crc32(name.encode() + b"\0" + fh.read() + b"\0", crc)
    return "%08x" % crc


def _cached_entry(path, space_id, weight, from_json):
    """The space stored at path, or None unless the file holds a JSON object
    for this space and weight whose dimension counts its basis and which
    parses through from_json."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (FileNotFoundError, ValueError):  # missing, or not JSON
        return None
    if not (isinstance(data, dict) and data.get("space") == space_id
            and data.get("weight") == weight
            and isinstance(data.get("basis"), list)
            and data.get("dimension") == len(data["basis"])):
        return None
    try:
        return from_json(data)
    except (KeyError, TypeError, ValueError):
        return None


def cached_space(space_id, weight, compute, from_json, to_json):
    """Disk cache keyed by (space id, weight, source hash).

    An entry that is not valid for (space id, weight) is recomputed and
    rewritten; writes are atomic.
    """
    d = cache_dir()
    if not d:
        return compute()
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-w%d-%s.json" % (space_id, weight, source_hash()))
    value = _cached_entry(path, space_id, weight, from_json)
    if value is not None:
        return value
    value = compute()
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(to_json(value), fh, sort_keys=True)
    os.replace(tmp, path)
    return value
