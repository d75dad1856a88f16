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
from itertools import product

from .linalg import _integer_rows, kernel_basis, rref, span_contains
from .series import (InputError, Series, SparseSeries, conc_mul, shuffle_coproduct,
                     letter_swap, two_letter_alphabet, series_from_json,
                     series_to_json, _iadd)


def lie_bracket(f, g):
    return conc_mul(f, g) - conc_mul(g, f)


def letter_bracket(i, a, max_weight):
    """[x_i, a] = x_i a - a x_i as word edits: each word of a, prepended and
    appended with letter i, truncated at max_weight."""
    x = bytes((i,))
    out = {}
    for w, c in a.terms.items():
        if len(w) < max_weight:
            _iadd(out, x + w, c)
            _iadd(out, w + x, -c)
    return Series(a.alphabet, max_weight, out, _clean=False)


def apply_derivation(images, f, max_weight):
    """The derivation sending letter i to images[i] (a Series, or None for
    0), applied to f by the Leibniz rule: the sum over positions i of each
    word w of w[:i] images[w[i]] w[i+1:], truncated at max_weight."""
    out = {}
    for w, c in f.terms.items():
        room = max_weight - len(w) + 1
        for i, li in enumerate(w):
            img = images[li]
            if img is None:
                continue
            pre, post = w[:i], w[i + 1:]
            for v, cv in img.terms.items():
                if len(v) <= room:
                    _iadd(out, pre + v + post, c * cv)
    return Series(f.alphabet, max_weight, out, _clean=False)


def lyndon_words(weight, n_letters=2):
    """All Lyndon words of the given length via Duval's algorithm."""
    if weight < 1:
        raise InputError("weight must be >= 1")
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


def is_skew(f):
    """eta(x0, x1) = -eta(x1, x0)."""
    return skew_constraint(f).is_zero


# -- tangential derivations, the element type of the "pairs" chart -----------

def _strip_linear(a, letter_index):
    w = bytes((letter_index,))
    if w in a.terms:
        terms = dict(a.terms)
        del terms[w]
        return Series(a.alphabet, a.max_weight, terms, _clean=False)
    return a


class TangentialDerivation:
    """The pair (a1, a2) with u(x0) = [x0, a1] and u(x1) = [x1, a2]; the
    canonical pair strips the linear terms k1 x0 and k2 x1, which do not move
    the derivation."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1, a2, normalize=True):
        if a1.alphabet != a2.alphabet:
            raise ValueError("alphabet mismatch")
        if normalize:
            a1 = _strip_linear(a1, 0)
            a2 = _strip_linear(a2, 1)
        self.a1 = a1
        self.a2 = a2

    @classmethod
    def from_terms(cls, alphabet, max_weight, terms):
        """Inverse of terms: key (0, word) is in a1, (1, word) in a2."""
        parts = ({}, {})
        for (slot, w), c in terms.items():
            parts[slot][w] = c
        return cls(Series(alphabet, max_weight, parts[0], _clean=False),
                   Series(alphabet, max_weight, parts[1], _clean=False),
                   normalize=False)

    @property
    def alphabet(self):
        return self.a1.alphabet

    @property
    def max_weight(self):
        return max(self.a1.max_weight, self.a2.max_weight)

    @property
    def is_zero(self):
        return self.a1.is_zero and self.a2.is_zero

    def normalized(self):
        return TangentialDerivation(self.a1, self.a2, normalize=True)

    def __add__(self, other):
        return TangentialDerivation(self.a1 + other.a1, self.a2 + other.a2,
                                    normalize=False)

    def __sub__(self, other):
        return TangentialDerivation(self.a1 - other.a1, self.a2 - other.a2,
                                    normalize=False)

    def scale(self, c):
        return TangentialDerivation(self.a1.scale(c), self.a2.scale(c),
                                    normalize=False)

    def __eq__(self, other):
        return (isinstance(other, TangentialDerivation)
                and self.a1 == other.a1 and self.a2 == other.a2)

    def __repr__(self):
        return "TangentialDerivation(%r, %r)" % (self.a1, self.a2)

    @property
    def terms(self):
        """Coordinates of the pair: (0, word) in a1 and (1, word) in a2."""
        out = {(0, w): c for w, c in self.a1.terms.items()}
        out.update(((1, w), c) for w, c in self.a2.terms.items())
        return out

    def to_json(self):
        return {"a1": series_to_json(self.a1), "a2": series_to_json(self.a2)}

    def generator_images(self):
        """(u(x0), u(x1)) = ([x0, a1], [x1, a2]), one weight up; equality of
        these is equality of derivations."""
        mw = self.max_weight + 1
        return letter_bracket(0, self.a1, mw), letter_bracket(1, self.a2, mw)


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

    @classmethod
    def from_json(cls, data):
        """Inverse of to_json; ValueError, KeyError or TypeError on a
        malformed document."""
        basis = [_basis_entry_from_json(b) for b in data["basis"]]
        offset = _basis_entry_from_json(data["offset"]) if "offset" in data else None
        return cls(data["space"], data["weight"], basis, offset=offset)


def _basis_entry_json(entry):
    if isinstance(entry, Series):
        return series_to_json(entry)
    return entry.to_json()


def _basis_entry_from_json(data):
    if "a1" in data:
        return TangentialDerivation(series_from_json(data["a1"]),
                                    series_from_json(data["a2"]),
                                    normalize=False)
    return series_from_json(data)


def _constraint_items(value):
    """Normalize a constraint evaluation to an iterable of (key, coeff)."""
    if isinstance(value, SparseSeries):
        return value.terms.items()
    if isinstance(value, dict):
        return value.items()
    raise TypeError("constraint must return a Series-like or a dict")


def solve_space(weight, constraints, space="anon", chart="lyndon"):
    """Joint kernel of linear constraints on homogeneous weight-w elements.

    chart "lyndon" solves over the free Lie algebra in Lyndon coordinates;
    chart "words" solves over raw word coefficients (used as the independent
    brute-force route, with primitivity supplied as an explicit constraint);
    chart "pairs" solves over tangential derivations (a1, a2), the Lyndon
    basis placed in a1 and then in a2.  A chart is only a change of basis:
    column j is an ambient element given by its coordinates (a word, or
    (slot, word) for pairs).  Each constraint maps an ambient element to a
    Series/TensorSeries/CyclicSeries/dict whose entries must all vanish.

    On these coordinate charts, constraints are evaluated once per
    coordinate, on that coordinate's unit element, and the value is carried
    to every column through the chart.  So every constraint must be linear
    on the whole ambient algebra and must check no precondition: a unit word
    is not a Lie series.

    A solved space is a chart too: its basis elements, scaled to integer
    coefficients, are the columns, and each constraint is evaluated once per
    element, which feeds only its own column.  The result is the space cut
    by the constraints; an empty basis gives an empty space.

    Rows are keyed (constraint index, output key) and sorted by key.
    """
    alphabet = two_letter_alphabet()
    if isinstance(chart, SolutionSpace):
        if not chart.basis:
            return SolutionSpace(space, weight, [])
        kind = type(chart.basis[0])
        columns = [dict(zip(b.terms, ints)) for b, ints in zip(
            chart.basis, _integer_rows([list(b.terms.values()) for b in chart.basis]))]
        points = [(terms, [(j, 1)]) for j, terms in enumerate(columns)]
    else:
        if chart == "lyndon":
            kind, columns = Series, [s.terms for s in lyndon_basis(weight).series()]
        elif chart == "words":
            kind, columns = Series, [{bytes(w): 1}
                                     for w in product((0, 1), repeat=weight)]
        elif chart == "pairs":
            lyndon = lyndon_basis(weight).series()
            kind = TangentialDerivation
            columns = [{(slot, w): c for w, c in s.terms.items()}
                       for slot in (0, 1) for s in lyndon]
        else:
            raise ValueError("unknown chart %r" % (chart,))
        chart_index = {}  # coordinate key -> [(column, coefficient)]
        for j, terms in enumerate(columns):
            for key, c in terms.items():
                chart_index.setdefault(key, []).append((j, c))
        points = [({key: 1}, cols) for key, cols in chart_index.items()]
    rows = {}
    for terms, cols in points:
        point = kind.from_terms(alphabet, weight, terms)
        for ci, con in enumerate(constraints):
            for out_key, v in _constraint_items(con(point)):
                row = rows.get((ci, out_key))
                if row is None:
                    row = rows[ci, out_key] = [0] * len(columns)
                for j, c in cols:
                    row[j] += c * v
    combos = kernel_basis([rows[k] for k in sorted(rows)] or [[0] * len(columns)])
    sols = []
    for vec in combos:
        coords = {}
        for c, terms in zip(vec, columns):
            if c:
                for k, v in terms.items():
                    _iadd(coords, k, c * v)
        sols.append(kind.from_terms(alphabet, weight, coords))
    return SolutionSpace(space, weight, canonical_series_basis(sols))


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


def _outside_span(basis, objs, keys):
    """The first of objs outside the span of basis, or None; keys must cover
    every coordinate of both."""
    ech, piv = rref(_coordinate_rows(basis, keys))
    for row, obj in zip(_coordinate_rows(objs, keys), objs):
        if not span_contains(ech, piv, row):
            return obj
    return None


def series_span_contains(basis, candidate):
    keys = _coordinate_keys(list(basis) + [candidate])
    return _outside_span(basis, [candidate], keys) is None


def series_spans_equal(basis_a, basis_b):
    """Mutual containment; returns (equal, witness object or None)."""
    keys = _coordinate_keys(list(basis_a) + list(basis_b))
    witness = _outside_span(basis_a, basis_b, keys)
    if witness is None:
        witness = _outside_span(basis_b, basis_a, keys)
    return witness is None, witness


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


def _entry_crc(entry):
    """CRC-32 of an entry's canonical JSON, stored in the file as "crc32"."""
    text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return "%08x" % binascii.crc32(text.encode())


def _cached_entry(path, space_id, weight, from_json):
    """The space stored at path, or None unless the file holds a JSON object
    whose CRC matches, for this space and weight, whose dimension counts its
    basis and which parses through from_json."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (FileNotFoundError, ValueError):  # missing, or not JSON
        return None
    if not (isinstance(data, dict) and data.pop("crc32", None) == _entry_crc(data)
            and data.get("space") == space_id
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

    An entry that is not valid for (space id, weight), or whose stored CRC
    does not match its content, is recomputed and rewritten; writes are
    atomic.
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
    entry = to_json(value)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(dict(entry, crc32=_entry_crc(entry)), fh, sort_keys=True)
    os.replace(tmp, path)
    return value
