"""Free Lie algebra structure inside the series algebra and the linear solver
used by every membership computation.

Lie elements are always carried in expanded word form; the Lyndon basis is
the coordinate chart the solvers work in, since all the functionals we care
about act on word coefficients.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import lcm

from . import InputError
# perfbench/tracer.py wraps the disk cache as `lie.cached_space`, found here
from .cache import cached_space  # noqa: F401
from .series import (Series, SparseSeries, conc_mul, shuffle_coproduct,
                     letter_swap, two_letter_alphabet, _iadd)


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


def lyndon_words(weight):
    """All Lyndon words in x0, x1 of the given length via Duval's algorithm."""
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
        while w and w[-1] == 1:
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


class LyndonBasis(namedtuple("LyndonBasis", "weight elements")):
    """The Lyndon basis of one weight; ``elements`` is a tuple of (word
    bytes, bracketing tree, expanded Series), one per Lyndon word."""

    __slots__ = ()

    def series(self):
        return [s for _, _, s in self.elements]


@lru_cache(maxsize=None)
def lyndon_basis(weight):
    """Standard-bracketing Lyndon basis of the free Lie algebra on x0, x1."""
    alphabet = two_letter_alphabet()
    elems = []
    for w in lyndon_words(weight):
        tree = _bracketing(w)
        elems.append((w, tree, _expand_bracketing(tree, alphabet, weight)))
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


def _dynkin(terms):
    """The Dynkin map theta on words of one length n >= 1, by last-letter
    recursion: theta(a) = a and theta(u a) = theta(u) a - a theta(u).  The
    words ending in one letter a share theta of their prefixes, which is
    taken once on the merged prefixes."""
    if len(next(iter(terms))) == 1:
        return terms
    prefixes = {}
    for w, c in terms.items():
        prefixes.setdefault(w[-1:], {})[w[:-1]] = c
    out = {}
    for a, part in prefixes.items():
        for u, c in _dynkin(part).items():
            _iadd(out, u + a, c)
            _iadd(out, a + u, -c)
    return out


def is_lie_series(f):
    """True iff f is a Lie series, by the Dynkin-Specht-Wever criterion
    (Reutenauer, Free Lie Algebras, Thm 1.4): a homogeneous part P of degree
    n >= 1 is Lie iff theta(P) = n P.  A constant term is not Lie.
    primitivity_defect, the shuffle-coproduct test, is the second route that
    shares no code with this one."""
    parts = {}
    for w, c in f.terms.items():
        parts.setdefault(len(w), {})[w] = c
    if 0 in parts:
        return False
    return all(_dynkin(p) == {w: n * c for w, c in p.items()}
               for n, p in parts.items())


def skew_constraint(s):
    """eta(x1, x0) + eta(x0, x1), zero iff s is skew."""
    return letter_swap(s) + s


def is_skew(f):
    """eta(x0, x1) = -eta(x1, x0)."""
    return skew_constraint(f).is_zero


_SWAP_LETTERS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def swap_word(w):
    """The word w with x0 and x1 exchanged."""
    return w.translate(_SWAP_LETTERS)


def skew_functionals(weight):
    """Skew symmetry as a family of functionals for `solve_space`: the row
    at each Lyndon word l of the weight is s[l] + s[swap l], the coefficient
    of l in skew_constraint(s).

    Lie charts only (the Lyndon chart and solved spaces of Lie series): there
    s + s(x1, x0) is a Lie series, and a Lie series is zero iff its
    coefficients at the Lyndon words are, since those coefficients of the
    Lyndon basis form a unitriangular matrix (Reutenauer, Free Lie Algebras,
    Thm 5.1).  On the words chart a column is not Lie, and these rows cut
    too little; skew_constraint is the route there."""
    alphabet = two_letter_alphabet()
    for l in lyndon_words(weight):
        yield l, Series(alphabet, weight, {l: 1, swap_word(l): 1}, _clean=False)


# -- tangential derivations, the element type of the "pairs" chart -----------

class TangentialDerivation(SparseSeries):
    """The pair (a1, a2) with u(x0) = [x0, a1] and u(x1) = [x1, a2], one
    sparse series over keys (slot, word): (0, w) is the coefficient of w in
    a1 and (1, w) in a2.  A key weighs as much as its word.  The canonical
    pair strips the linear terms k1 x0 and k2 x1, which do not move the
    derivation."""

    __slots__ = ()

    @staticmethod
    def key_weight(key):
        return len(key[1])

    @classmethod
    def of(cls, a1, a2):
        """The pair of two Series, at the larger of their max weights, with
        its linear terms kept (`normalized` strips them)."""
        if a1.alphabet != a2.alphabet:
            raise ValueError("alphabet mismatch")
        terms = {(0, w): c for w, c in a1.terms.items()}
        terms.update(((1, w), c) for w, c in a2.terms.items())
        return cls(a1.alphabet, max(a1.max_weight, a2.max_weight), terms, _clean=False)

    def normalized(self):
        terms = dict(self.terms)
        terms.pop((0, b"\x00"), None)
        terms.pop((1, b"\x01"), None)
        return TangentialDerivation(self.alphabet, self.max_weight, terms, _clean=False)

    def _slot(self, slot):
        return Series(self.alphabet, self.max_weight,
                      {w: c for (s, w), c in self.terms.items() if s == slot},
                      _clean=False)

    @property
    def a1(self):
        return self._slot(0)

    @property
    def a2(self):
        return self._slot(1)

    def __repr__(self):
        return "TangentialDerivation(%r, %r)" % (self.a1, self.a2)

    def to_json(self):
        return {"a1": self.a1.to_json(), "a2": self.a2.to_json()}

    def generator_images(self):
        """(u(x0), u(x1)) = ([x0, a1], [x1, a2]), one weight up; equality of
        these is equality of derivations."""
        mw = self.max_weight + 1
        return letter_bracket(0, self.a1, mw), letter_bracket(1, self.a2, mw)


# -- generic homogeneous solver ---------------------------------------------

class SolutionSpace(namedtuple("SolutionSpace", "space weight basis offset",
                               defaults=(None,))):
    """Weight-graded basis of a linear subspace, reduced over rationals.

    Basis entries are Series or, for krv2, tangential derivations.
    ``offset`` carries the particular solution of an affine (nonzero lambda)
    problem and is None in the homogeneous case.
    """

    __slots__ = ()

    @property
    def dimension(self):
        return len(self.basis)

    def to_json(self):
        out = {"space": self.space, "weight": self.weight,
               "dimension": self.dimension,
               "basis": [b.to_json() for b in self.basis]}
        if self.offset is not None:
            out["offset"] = self.offset.to_json()
        return out


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

    A constraint that is not callable is a family of functionals: an
    iterable of (key, F) with F a series over the chart's coordinates, whose
    row (index, key) is sum_k F[k] * column_j[k], read through the chart
    index.  A family is iterated once, so each F can be dropped as soon as
    its row is built.  A family that takes a Lie-valued condition at the
    Lyndon words only (`skew_functionals`, and `kv.sder_functionals` and
    `kv.krv1_eta_functionals`) needs a chart whose columns are Lie series:
    the Lyndon chart, the pairs chart or a solved space of Lie elements,
    never the words chart, where it cuts too little.

    Rows are keyed (constraint index, output key) and sorted by key.
    """
    from .linalg import _integer_rows, kernel_basis  # `ncds residual` never loads it
    alphabet = two_letter_alphabet()
    if isinstance(chart, SolutionSpace):
        if not chart.basis:
            return SolutionSpace(space, weight, [])
        kind = type(chart.basis[0])
        columns = [b.terms for b in integer_multiples(chart.basis)]
    elif chart == "lyndon":
        kind, columns = Series, [s.terms for s in lyndon_basis(weight).series()]
    elif chart == "words":
        kind, columns = Series, [{bytes(w): 1} for w in product((0, 1), repeat=weight)]
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
    if isinstance(chart, SolutionSpace):
        points = [(terms, [(j, 1)]) for j, terms in enumerate(columns)]
    else:
        points = [({key: 1}, cols) for key, cols in chart_index.items()]
    calls = [(ci, con) for ci, con in enumerate(constraints) if callable(con)]
    families = [(ci, con) for ci, con in enumerate(constraints) if not callable(con)]

    def entries():
        """(row key, [(column, c)], v): row[column] += c * v."""
        for terms, cols in points:
            point = kind.from_terms(alphabet, weight, terms)
            for ci, con in calls:
                for out_key, v in _constraint_items(con(point)):
                    yield (ci, out_key), cols, v
        for ci, family in families:
            for key, F in family:
                for k, v in F.terms.items():
                    cols = chart_index.get(k)
                    if cols:
                        yield (ci, key), cols, v

    rows = {}
    for row_key, cols, v in entries():
        row = rows.get(row_key)
        if row is None:
            row = rows[row_key] = [0] * len(columns)
        for j, c in cols:
            row[j] += c * v
    combos = kernel_basis([rows[k] for k in sorted(rows)] or [[0] * len(columns)])
    sols = []
    for vec in _integer_rows(combos):  # canonical_series_basis rescales them
        coords = {}
        for c, terms in zip(vec, columns):
            if c:
                for k, v in terms.items():
                    _iadd(coords, k, c * v)
        sols.append(kind.from_terms(alphabet, weight, coords))
    return SolutionSpace(space, weight, canonical_series_basis(sols))


def spans_kernel(weight, families, elements):
    """True if the Lyndon-chart kernel of listed functional families is
    proved to be the span of the given elements, else False.

    Let A be the families' rows on the Lyndon chart (cols columns, one row
    per (family index, key), as `solve_space` forms them) and d the number
    of elements, which must be linearly independent Lie series of the
    weight.
    - Inclusion.  Every functional pairs to 0, exactly, with the integer
      multiple of every element, so ker_Q(A) contains their span.
    - Bound.  Rows are formed lazily, in the order of a seeded sample of
      all the sorted row keys (`random.Random(0).sample`), and eliminated
      mod one prime, 16 at a time, until the rank reaches cols - d
      (`linalg.rank_mod_p`); then nullity_Q(A) <= nullity_p(A_S) <= d.  Any
      order proves the bound, and this one was chosen by measurement: on
      theorem C's sides it reads 112-640 rows at w = 10..13 where a stride
      through the sorted keys read 176-2,736, each dependent row costing a
      full reduction.
    Together they prove ker_Q(A) is the span.  False means only that the
    proof missed: inclusion failed, the rank fell short, or a key repeats in
    a family (`solve_space` sums its functionals into one row, a matrix this
    one is not).  The caller then solves the side in full, so every dim and
    witness is the one a full solve gives.
    """
    from .linalg import rank_mod_p  # `ncds residual` never loads it
    functionals = {(ci, key): F.terms
                   for ci, family in enumerate(families) for key, F in family}
    multiples = [b.terms for b in integer_multiples(elements)]
    if len(functionals) < sum(map(len, families)) or any(
            sum(v * b.get(k, 0) for k, v in terms.items())
            for terms in functionals.values() for b in multiples):
        return False
    lyndon = lyndon_basis(weight).series()
    cols = len(lyndon)
    chart_index = {}  # word -> [(column, coefficient)]
    for j, s in enumerate(lyndon):
        for k, c in s.terms.items():
            chart_index.setdefault(k, []).append((j, c))

    def row(terms):
        out = [0] * cols
        for k, v in terms.items():
            for j, c in chart_index.get(k, ()):
                out[j] += c * v
        return out
    keys = random.Random(0).sample(sorted(functionals), len(functionals))
    target = cols - len(multiples)
    return rank_mod_p((row(functionals[k]) for k in keys), cols, target) >= target


def certify_space(weight, families, base, space="anon"):
    """The Lyndon-chart kernel of functional families as a SolutionSpace:
    the base's basis under the name space when `spans_kernel` proves the
    kernel is the base's span (the base's basis is canonical, so it is the
    basis the full solve gives), else `solve_space` on the same families."""
    families = [list(family) for family in families]
    if spans_kernel(weight, families, base.basis):
        return SolutionSpace(space, weight, list(base.basis))
    return solve_space(weight, families, space)


# -- canonical bases and span comparisons over coordinates ------------------
#
# Every kind here (Series, tangential pairs) is a SparseSeries: one stored
# ``terms`` map key -> coefficient, and ``from_terms(alphabet, max_weight,
# terms)`` back.  Keys of one kind compare, so sorted keys are the columns.

def canonical_series_basis(sols):
    """Reduced echelon basis of the span of the given Series (or tangential
    derivations), as objects of the same kind.  Each element's least key is
    its pivot, with coefficient 1, and no other element has that key."""
    sols = [s for s in sols if not s.is_zero]
    if not sols:
        return []
    from .linalg import rref
    kind, alphabet = type(sols[0]), sols[0].alphabet
    mw = min(s.max_weight for s in sols)
    keys = sorted({k for s in sols for k in s.terms})
    ech, _ = rref([[s.terms.get(k, 0) for k in keys] for s in sols])
    return [kind.from_terms(
                alphabet, mw, {k: (int(c) if c.denominator == 1 else c)
                               for k, c in zip(keys, row) if c})
            for row in ech]


def integer_multiples(elems):
    """Each element's coprime integer multiple, of the element's own kind:
    its coefficients times the lcm of their denominators, divided by their
    gcd.  A linear check holds on an element iff it holds on this multiple,
    and integer arithmetic costs a fraction of Fraction arithmetic."""
    from .linalg import _integer_rows
    rows = _integer_rows([list(e.terms.values()) for e in elems])
    return [type(e).from_terms(e.alphabet, e.max_weight, dict(zip(e.terms, row)))
            for e, row in zip(elems, rows)]


def _outside_span(basis, objs):
    """The first of objs outside the span of basis, or None.  A basis that is
    canonical already (every SolutionSpace basis: each least key has
    coefficient 1 and is in no other element) is used as given, any other is
    made canonical first.  The test runs in integers: each element e is held
    as its integer multiple N_e with s_e = N_e[p_e] at its pivot p_e, each
    candidate as its integer multiple o, and with L = lcm(s_e), o lies in the
    span iff L o - sum_e o[p_e] (L / s_e) N_e = 0 (no other element has the
    key p_e, so o[p_e] is the coefficient of e)."""
    basis = [e for e in basis if e.terms]
    pivots = [min(e.terms) for e in basis]
    if not all(e.terms[p] == 1 and sum(p in f.terms for f in basis) == 1
               for p, e in zip(pivots, basis)):
        basis = canonical_series_basis(basis)
    reducers = [(min(n.terms), n.terms) for n in integer_multiples(basis)]
    scale = lcm(*(terms[pivot] for pivot, terms in reducers))
    reducers = [(pivot, scale // terms[pivot], terms) for pivot, terms in reducers]
    for obj, o in zip(objs, integer_multiples(objs)):
        rest = {k: scale * v for k, v in o.terms.items()}
        for pivot, m, terms in reducers:
            c = o.terms.get(pivot, 0) * m
            if c:
                for k, v in terms.items():
                    _iadd(rest, k, -c * v)
        if rest:
            return obj
    return None


def series_span_contains(basis, candidate):
    return _outside_span(basis, [candidate]) is None


def series_spans_equal(basis_a, basis_b):
    """Mutual containment; returns (equal, witness object or None)."""
    witness = _outside_span(basis_a, basis_b)
    if witness is None:
        witness = _outside_span(basis_b, basis_a)
    return witness is None, witness

