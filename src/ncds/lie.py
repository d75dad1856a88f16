"""Free Lie algebra structure inside the series algebra and the linear solver
used by every membership computation.

Lie elements are always carried in expanded word form; the Lyndon basis is
the coordinate chart the solvers work in, since all the functionals we care
about act on word coefficients.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache

from . import __version__ as KERNEL_VERSION
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


def primitivity_defect(f):
    """Delta(f) - f (x) 1 - 1 (x) f as a raw dict; empty iff f is a Lie series."""
    terms = dict(shuffle_coproduct(f).terms)
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

    Basis entries are Series (or, for the KV layer, objects exposing
    ``coordinate_items()``).  ``offset`` carries the particular solution of an
    affine (nonzero lambda) problem and is None in the homogeneous case.
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
    brute-force route, with primitivity supplied as an explicit constraint).
    Each constraint maps a Series to a Series/TensorSeries/CyclicSeries/dict
    whose entries must all vanish.
    """
    alphabet = two_letter_alphabet()
    mw = weight if max_weight is None else max_weight
    if chart == "lyndon":
        ambient = lyndon_basis(weight, mw).series()
    elif chart == "words":
        ambient = [Series(alphabet, mw, {bytes(w): 1})
                   for w in _all_words(weight)]
    else:
        raise ValueError("unknown chart %r" % (chart,))
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
        s = Series.zero(alphabet, mw)
        for c, elt in zip(vec, ambient):
            if c:
                s = s + elt.scale(c)
        sols.append(s)
    return SolutionSpace(space, weight, canonical_series_basis(sols))


def _all_words(weight):
    words = [[]]
    for _ in range(weight):
        words = [w + [i] for w in words for i in (0, 1)]
    return [bytes(w) for w in words]


# -- canonical bases and span comparisons over word coordinates -------------

def _coordinate_keys(objs):
    keys = set()
    for o in objs:
        if hasattr(o, "coordinate_items"):
            keys.update(k for k, _ in o.coordinate_items())
        else:
            keys.update(o.terms)
    return sorted(keys)


def _coordinate_rows(objs, keys):
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for o in objs:
        row = [0] * len(keys)
        items = o.coordinate_items() if hasattr(o, "coordinate_items") else o.terms.items()
        for k, c in items:
            row[index[k]] = c
        rows.append(row)
    return rows


def canonical_series_basis(sols):
    """Reduced echelon basis of the span of the given Series, as Series."""
    sols = [s for s in sols if not s.is_zero]
    if not sols:
        return []
    alphabet = sols[0].alphabet
    mw = min(s.max_weight for s in sols)
    keys = _coordinate_keys(sols)
    ech, _ = rref(_coordinate_rows(sols, keys))
    out = []
    for row in ech:
        terms = {k: (int(c) if c.denominator == 1 else c)
                 for k, c in zip(keys, row) if c}
        out.append(Series(alphabet, mw, terms, _clean=False))
    return out


def series_span_data(basis):
    basis = [s for s in basis if not (hasattr(s, "is_zero") and s.is_zero)]
    keys = _coordinate_keys(basis) if basis else []
    ech, piv = rref(_coordinate_rows(basis, keys)) if basis else ([], [])
    return keys, ech, piv


def series_span_contains(basis, candidate):
    keys, ech, piv = series_span_data(basis)
    items = list(candidate.coordinate_items() if hasattr(candidate, "coordinate_items")
                 else candidate.terms.items())
    index = {k: i for i, k in enumerate(keys)}
    vec = [0] * len(keys)
    for k, c in items:
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
    ech_a, piv_a = rref(rows_a) if rows_a else ([], [])
    ech_b, piv_b = rref(rows_b) if rows_b else ([], [])
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


def cached_space(space_id, weight, compute, from_json, to_json):
    """Disk cache keyed by (space id, weight, kernel version); atomic writes."""
    d = cache_dir()
    if not d:
        return compute()
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-w%d-v%s.json" % (space_id, weight, KERNEL_VERSION))
    if os.path.exists(path):
        with open(path) as fh:
            return from_json(json.load(fh))
    value = compute()
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(to_json(value), fh, sort_keys=True)
    os.replace(tmp, path)
    return value
