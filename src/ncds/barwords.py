"""Formal bar-construction words for one- and two-variable multiple
polylogarithms, their pairing with braid elements, and Chen integrability.

A bar word is a homogeneous Series over the five 1-forms of the moduli space
of five points, identified letterwise with the chord alphabet
(w45, w34, w24, w12, w23 <-> x45, x34, x24, x12, x23); one-variable words in
the single variable z live over the two-letter alphabet instead.  The pairing
reads leftmost bar letter against leftmost word letter.

The two-variable words are the unique solutions of the dualized differential
recursions, which only ever prepend a letter.  So any word morphism that sends
each letter to at most one letter (a letter target) can run inside the
recursion instead of after it: the identity target gives the x,y order, the
swap w12 <-> w45, w23 <-> w34 gives the y,x order, and a pentagon leg's target
(composed with the swap for y,x) gives the pullback onto x0, x1 directly,
without forming the five-letter word.
"""

from __future__ import annotations

from functools import lru_cache

from .braid import CHORD_NAMES, TAU, chord_alphabet, p5_relations, _chord_name
from .series import Series, two_letter_alphabet, _iadd

# 1-form dictionary:  dx/x = w12,  dx/(1-x) = -w23,  dy/y = w45,
# dy/(1-y) = -w34,  d(xy)/(1-xy) = -w24,  d(xy)/xy = w12 + w45.


def _g():
    return chord_alphabet()


def _letter(name):
    return _g().index(name)


# A letter target sends each chord letter (by index) to an output letter index,
# or to None, which drops every word containing that letter.  Since the
# recursions below only prepend letters, applying a target while they run
# gives the same words as applying it to their result.
IDENTITY = tuple(range(len(CHORD_NAMES)))
# x <-> y is the strand reversal TAU on the chords: w12 <-> w45, w23 <-> w34.
OMEGA_SWAP = tuple(CHORD_NAMES.index(_chord_name(TAU[int(n[0])], TAU[int(n[1])]))
                   for n in CHORD_NAMES)


def order_target(order, then=IDENTITY):
    """Target of l^{x,y} -> l^{order}, followed by the target `then`: the
    y,x order is the letter swap w12 <-> w45, w23 <-> w34."""
    order = tuple(order)
    if order == ("x", "y"):
        first = IDENTITY
    elif order == ("y", "x"):
        first = OMEGA_SWAP
    else:
        raise ValueError("order must be ('x','y') or ('y','x')")
    return tuple(then[t] for t in first)


def _codomain(target):
    """A target whose images all lie in {x0, x1} is a pullback onto the
    two-letter alphabet; any other keeps the chord alphabet."""
    if any(t is not None and t > 1 for t in target):
        return _g()
    return two_letter_alphabet()


def _prepend(combo, terms, target, out=None):
    """Prepends one bar slot, combo = ((chord letter index, coef), ...), each
    letter sent through target; accumulates into out (a new dict if None)."""
    out = {} if out is None else out
    for li, lc in combo:
        t = target[li]
        if t is None:
            continue
        head = bytes((t,))
        for w, c in terms.items():
            _iadd(out, head + w, lc * c)
    return out


_SINGLE_PAIRS = {
    "x": ("12", "23"),
    "y": ("45", "34"),
}


def bar_single(index, variable, target=IDENTITY):
    """l_a in one variable: the pattern (-1)^k [A^(a_k - 1)|B|...|A^(a_1-1)|B]
    with (A, B) the variable's form pair; variable "xy" uses the two-letter
    combination A = w12 + w45, B = w24, and "z" the two-letter alphabet.
    The chord letters of "x", "y" and "xy" words are sent through target."""
    if not index:
        raise ValueError("empty index")
    k = len(index)
    if variable == "z":
        if target != IDENTITY:
            raise ValueError("z words have no chord letters to send")
        alphabet, target = two_letter_alphabet(), (0, 1)
        a_combo = ((0, 1),)
        b_combo = ((1, 1),)
    elif variable == "xy":
        alphabet = _codomain(target)
        a_combo = ((_letter("12"), 1), (_letter("45"), 1))
        b_combo = ((_letter("24"), 1),)
    elif variable in _SINGLE_PAIRS:
        alphabet = _codomain(target)
        a_name, b_name = _SINGLE_PAIRS[variable]
        a_combo = ((_letter(a_name), 1),)
        b_combo = ((_letter(b_name), 1),)
    else:
        raise ValueError("unknown variable %r" % (variable,))
    terms = {b"": 1 if k % 2 == 0 else -1}
    for a_i in index:  # a_1 block built first, ends up rightmost
        terms = _prepend(b_combo, terms, target)
        for _ in range(a_i - 1):
            terms = _prepend(a_combo, terms, target)
    return Series(alphabet, sum(index), terms, _clean=False)


@lru_cache(maxsize=None)
def _bar_xy(a, b, target):
    """Terms of l^{x,y}_{a,b} sent through the letter target: dualized
    differential recursion, both d/dx and d/dy branches prepend one 1-form on
    the left.  A branch whose letters the target drops is never expanded.

    The memo lives as long as the process.  On one ``ceilings`` pass
    ``cache_info()`` shows 7,754 hits and 1,586 misses: 6,270 hits come
    under ``harness.pulled_functional`` (the theorem families and the
    conjecture scan), mostly sub-results read again within one check, and
    1,484 under ``bar_double`` (the polylogarithm and stuffle suites; the
    stuffle suite finds all its words left by the polylogarithm suite).
    Clearing the memo between the pass's checks adds 1,192 misses.  A
    functional family calls the uncached body ``_bar_xy.__wrapped__`` for
    its own words, so only the sub-results of lower weight, which the
    recursion reads again, enter the memo."""
    w12, w23, w34, w45 = (_letter("12"), _letter("23"), _letter("34"),
                          _letter("45"))
    out = {}

    def acc(combo, sub):
        if any(target[li] is not None for li, _c in combo):
            _prepend(combo, sub(), target, out)

    def single(index, variable):
        return lambda: bar_single(index, variable, target).terms

    # d/dy branch acts on b
    if b[-1] > 1:
        acc(((w45, 1),), lambda: _bar_xy(a, b[:-1] + (b[-1] - 1,), target))
    elif len(b) > 1:
        acc(((w34, -1),), lambda: _bar_xy(a, b[:-1], target))
    else:
        acc(((w34, -1),), single(a, "xy"))
    # d/dx branch acts on a
    if a[-1] > 1:
        acc(((w12, 1),), lambda: _bar_xy(a[:-1] + (a[-1] - 1,), b, target))
    else:
        if len(a) > 1:
            shortened = lambda: _bar_xy(a[:-1], b, target)
            merged = ((lambda: _bar_xy(a[:-1] + (b[0],), b[1:], target))
                      if len(b) > 1 else single(a[:-1] + (b[0],), "xy"))
        else:
            shortened = single(b, "y")
            merged = ((lambda: _bar_xy((b[0],), b[1:], target)) if len(b) > 1
                      else single((b[0],), "xy"))
        acc(((w23, -1),), shortened)
        acc(((w12, -1), (w23, 1)), merged)
    return out


def bar_double(a, b, order=("x", "y")):
    """l^{x,y}_{a,b} or l^{y,x}_{a,b} for nonempty indices a, b."""
    a, b = tuple(a), tuple(b)
    if not a or not b:
        raise ValueError("indices must be nonempty")
    return Series(_g(), sum(a) + sum(b), _bar_xy(a, b, order_target(order)),
                  _clean=False)


def pair(bar, elt):
    """<[w_{j_m}|...|w_{j_1}], word> = coefficient of x_{j_m}...x_{j_1},
    leftmost to leftmost, extended bilinearly."""
    if bar.alphabet != elt.alphabet:
        raise ValueError("alphabet mismatch")
    if len(bar.terms) > len(elt.terms):
        bar, elt = elt, bar
    total = 0
    other = elt.terms
    for w, c in bar.terms.items():
        oc = other.get(w)
        if oc:
            total += c * oc
    return total


def restrict_to_letters(bar, names):
    """Sub-sum of bar tensors supported on the given 1-form letters."""
    keep = {bar.alphabet.index(n) for n in names}
    out = {w: c for w, c in bar.terms.items() if set(w) <= keep}
    return Series(bar.alphabet, bar.max_weight, out, _clean=False)


@lru_cache(maxsize=None)
def _relation_slot_map():
    """2-letter word -> ((relation idx, coef), ...) over the chord alphabet."""
    table = {}
    for ridx, (_pair, rel) in enumerate(p5_relations()):
        for w, c in rel.terms.items():
            table.setdefault(w, []).append((ridx, c))
    return {w: tuple(v) for w, v in table.items()}


def integrable(bar):
    """Chen integrability via descent: the bar word must annihilate
    u . r . v for every defining quadratic relation r of the braid Lie
    algebra and all monomial flanks u, v.  Organized as a slotwise
    contraction so no flank enumeration is needed.

    One-variable z words live over the free two-letter algebra, where there
    are no relations.
    """
    if bar.alphabet == two_letter_alphabet():
        return True
    slot_map = _relation_slot_map()
    weights = {len(w) for w in bar.terms}
    for m in weights:
        for p in range(m - 1):
            acc = {}
            for w, c in bar.terms.items():
                if len(w) != m:
                    continue
                hits = slot_map.get(w[p:p + 2])
                if not hits:
                    continue
                for ridx, rc in hits:
                    _iadd(acc, (w[:p], ridx, w[p + 2:]), c * rc)
            if acc:
                return False
    return True
