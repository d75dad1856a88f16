"""The sphere braid Lie algebra on five strands, as free-algebra
representatives over the canonical chords, together with the pentagon defect,
strand projections, the dihedral action, and the Fox-pairing cocycle algebra.

Elements of the enveloping algebra are carried as free associative
polynomials over the chord basis G = (x12, x23, x34, x45, x24) with no
quotient normal form; every scalar extraction goes through bar-word pairing
or the pi maps, which are well defined on the quotient.

Chord maps (strand relabelling, projections, insertions) are
``LinearMorphism``s.  The pi maps send each letter to a sum of cocycle letter
images and run on the same engine, ``series._expand_terms``: the words of an
element are grouped by first letter, the tails are mapped once, and each
letter image multiplies the merged tail image by a word edit
(``_cocycle_times``) that agrees with ``cocycle_mul``, the defining product.
A cocycle element is a ``SparseSeries`` over (x0, x1) whose keys are tensor
pairs (a, b) and tagged module words (w,).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .linalg import rref
from .series import (EMPTY, Alphabet, LinearMorphism, Series, SparseSeries,
                     substitute, two_letter_alphabet, _expand_terms, _iadd)

CHORD_NAMES = ("12", "23", "34", "45", "24")
PI23_NAMES = ("12", "23", "24", "34", "13")
PI34_NAMES = ("14", "24", "13", "23", "34")


@lru_cache(maxsize=None)
def chord_alphabet():
    return Alphabet(CHORD_NAMES)


@lru_cache(maxsize=None)
def pi_alphabet(flavor):
    return Alphabet(_flavor(flavor)[0])


def _chord_name(i, j):
    if i == j:
        raise ValueError("x_ii is zero")
    i, j = min(i, j), max(i, j)
    return "%d%d" % (i, j)


# x13, x14, x15, x25, x35 solved from the five strand relations
# sum_j x_ij = 0; the members of G map to themselves.
_REWRITE = {
    "12": {"12": 1}, "23": {"23": 1}, "34": {"34": 1},
    "45": {"45": 1}, "24": {"24": 1},
    "13": {"12": -1, "23": -1, "45": 1},
    "14": {"24": -1, "34": -1, "45": -1},
    "15": {"23": 1, "24": 1, "34": 1},
    "25": {"12": -1, "23": -1, "24": -1},
    "35": {"12": 1, "34": -1, "45": -1},
}


def rewrite_chord(i, j):
    """x_ij as a linear combination over G, per the strand relations."""
    return dict(_REWRITE[_chord_name(i, j)])


def chord_series(i, j, max_weight=1):
    g = chord_alphabet()
    terms = {bytes((g.index(name),)): c for name, c in rewrite_chord(i, j).items()}
    return Series(g, max_weight, terms, _clean=False)


@lru_cache(maxsize=None)
def express_chord(i, j, base_names):
    """Coordinates of x_ij over an alternative basis of five chords;
    ValueError unless the chords are independent and span x_ij."""
    columns = [_REWRITE[name] for name in base_names] + [_REWRITE[_chord_name(i, j)]]
    red, pivots = rref([[col.get(g, 0) for col in columns] for g in CHORD_NAMES])
    n = len(base_names)
    if pivots != list(range(n)):
        raise ValueError("x%d%d has no unique coordinates over the chords %r"
                         % (i, j, base_names))
    out = {}
    for c in range(n):
        v = red[c][n]
        if v:
            out[base_names[c]] = int(v) if v.denominator == 1 else v
    return out


@lru_cache(maxsize=None)
def _insertion(alphabet, x0_chords, x1_chords):
    """The letter map x0 -> the sum of the chords in x0_chords ("14 24" is
    x14 + x24), and x1 likewise, over a basis alphabet of five chords."""
    def image(chords):
        out = {}
        for i, j in chords.split():
            for name, c in express_chord(int(i), int(j), alphabet.letters).items():
                _iadd(out, name, c)
        return out
    return LinearMorphism.by_name(two_letter_alphabet(), alphabet,
                                  {"x0": image(x0_chords), "x1": image(x1_chords)})


def leg_insertion(leg):
    """The letter map psi -> psi(x_ij, x_jk) of the leg named "ijk", over G."""
    if len(set(leg)) != 3:
        raise ValueError("strand indices must be distinct")
    return _insertion(chord_alphabet(), leg[:2], leg[1:])


def insert_triple(psi, i, j, k):
    """psi(x_ij, x_jk) as a chord-basis element."""
    return substitute(psi, leg_insertion("%d%d%d" % (i, j, k)))


# Signed pentagon legs.  Those of alpha and of the cyclic defect are strand
# triples "ijk", for psi(x_ij, x_jk); phi = psi_451 + psi_123 is alpha's first
# two.  alpha_hat's are (sign, x0 image, x1 image), an image a sum of chords.
ALPHA_LEGS = ((1, "451"), (1, "123"), (-1, "432"), (-1, "215"), (-1, "543"))
PHI_LEGS = ALPHA_LEGS[:2]
CYCLIC_LEGS = ((1, "123"), (1, "234"), (1, "345"), (1, "451"), (1, "512"))
ALPHA_HAT_LEGS = ((1, "13", "23"), (1, "14", "24 34"), (1, "24", "34"),
                  (-1, "14 24", "34"), (-1, "13 14", "23 24"))


def _leg_sum(psi, alphabet, legs):
    """Sum of sign * psi(x0 image, x1 image) over the legs, over the alphabet."""
    out = {}
    for sign, x0, x1 in legs:
        for w, c in substitute(psi, _insertion(alphabet, x0, x1)).terms.items():
            _iadd(out, w, sign * c)
    return Series(alphabet, psi.max_weight, out, _clean=False)


def _relabel(chords, perm):
    """A sum of chords ("14 24") with each strand i relabelled perm[i]."""
    return " ".join("%d%d" % (perm[int(c[0])], perm[int(c[1])]) for c in chords.split())


def defect(psi, form="alpha", perm=None):
    """Signed five-term pentagon defect of a Lie series over G: form "alpha"
    sums ALPHA_LEGS, form "alpha_hat" the change of variable ALPHA_HAT_LEGS.

    A strand permutation perm relabels the chords of every leg, which gives
    permute_strands(defect(psi, form), perm): relabelling strands is an
    algebra map, and it sends x_ij to x_perm(i)perm(j) on the chord span."""
    from .lie import is_lie_series
    if not is_lie_series(psi):
        raise ValueError("the pentagon defect is defined for Lie series")
    if form == "alpha":
        legs = [(s, leg[:2], leg[1:]) for s, leg in ALPHA_LEGS]
    elif form == "alpha_hat":
        legs = ALPHA_HAT_LEGS
    else:
        raise ValueError("unknown defect form %r" % (form,))
    if perm is not None:
        legs = [(s, _relabel(x0, perm), _relabel(x1, perm)) for s, x0, x1 in legs]
    return _leg_sum(psi, chord_alphabet(), legs)


# coface name -> the chord sums of the images of (x0, x1), as in ALPHA_HAT_LEGS
_COFACE_23 = {
    "1,2,3": ("12", "23"),
    "2,3,4": ("23", "34"),
    "12,3,4": ("13 23", "34"),
    "1,23,4": ("12 13", "24 34"),
    "1,2,34": ("12", "23 24"),
}

_COFACE_34 = {
    "1,2,34": ("13 14", "23 24"),
    "2,3,4": ("24", "34"),
    "12,3,4": ("14 24", "34"),
    "1,2,3": ("13", "23"),
    "1,23,4": ("14", "24 34"),
}


# The two pi presentations: the letter names, the coface table, and the
# letter images under pi, written as a word edit each (see _cocycle_times):
# pi^{2,3}: x12 -> x0 (x) 1, x24 -> x1 (x) 1, x13 -> 1 (x) x0,
#           x34 -> 1 (x) x1, x23 -> -e
# pi^{3,4}: x14, x24, x13, x23 likewise, x34 -> -e
_FLAVORS = {
    "23": (PI23_NAMES, _COFACE_23,
           {"12": ("left", b"\x00", 1), "24": ("left", b"\x01", 1),
            "13": ("right", b"\x00", 1), "34": ("right", b"\x01", 1),
            "23": ("e", b"", -1)}),
    "34": (PI34_NAMES, _COFACE_34,
           {"14": ("left", b"\x00", 1), "24": ("left", b"\x01", 1),
            "13": ("right", b"\x00", 1), "23": ("right", b"\x01", 1),
            "34": ("e", b"", -1)}),
}


def _flavor(flavor):
    """(letter names, coface table, letter images) of a pi presentation."""
    if flavor not in _FLAVORS:
        raise ValueError("flavor must be '23' or '34'")
    return _FLAVORS[flavor]


def coface_images(name, flavor):
    """The chord sums ("13 23") of the images of (x0, x1) under a coface map."""
    table = _flavor(flavor)[1]
    if name not in table:
        raise ValueError("unknown coface %r" % (name,))
    return table[name]


def coface(psi, name, flavor="23"):
    """Coface substitution, kept over the five-letter pi presentation."""
    return substitute(psi, _insertion(pi_alphabet(flavor), *coface_images(name, flavor)))


def permute_strands(e, perm):
    """Relabel strands by a permutation of {1..5} and rewrite into G."""
    g = chord_alphabet()
    return substitute(e, LinearMorphism.by_name(
        g, g, {name: rewrite_chord(perm[int(name[0])], perm[int(name[1])])
               for name in g.letters}))


SIGMA = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
TAU = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}


def _perm_power(perm, n):
    out = {i: i for i in perm}
    for _ in range(n % 5):
        out = {i: perm[out[i]] for i in out}
    return out


# pr_2 on the chord basis; x_infinity = -x0-x1 expanded
_PR2 = {"12": {}, "23": {}, "24": {}, "34": {"x1": 1}, "45": {"x0": -1, "x1": -1}}


def project_strand(e, i):
    """Strand-elimination morphism pr_i onto the two-letter algebra.

    pr_2 is the explicit table x12,x23,x24 -> 0, x34 -> x1, x45 -> -x0-x1;
    the other projections conjugate pr_2 by the cyclic strand rotation.  Both
    maps are algebra morphisms, so they are composed once on the letters.
    """
    if i not in (1, 2, 3, 4, 5):
        raise ValueError("strand index out of range")
    m = {2: 0, 3: 1, 4: 2, 5: 3, 1: 4}[i]
    perm = _perm_power(SIGMA, 5 - m)
    images = {}
    for name in CHORD_NAMES:
        img = images[name] = {}
        for gname, c in rewrite_chord(perm[int(name[0])], perm[int(name[1])]).items():
            for xname, xc in _PR2[gname].items():
                _iadd(img, xname, c * xc)
    return substitute(e, LinearMorphism.by_name(chord_alphabet(),
                                                two_letter_alphabet(), images))


# -- Fox pairing and the two-cocycle algebra --------------------------------

def _rho_words(u, v):
    """rho(u, v) on words: u . tail(v) if last(u) == first(v), else None."""
    if not u or not v or u[-1] != v[0]:
        return None
    return u + v[1:]


def rho_kks(a, b):
    """The diagonal Fox pairing: left Fox derivative in the first slot and
    right Fox derivative in the second, with rho(x_i, x_j) = delta_ij x_i.

    On words it contracts the last letter of a with the first letter of b
    (``_rho_words``).
    """
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    mw = min(a.max_weight, b.max_weight)
    out = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            w = _rho_words(u, v)
            if w is not None and len(w) <= mw:
                _iadd(out, w, cu * cv)
    return Series(a.alphabet, mw, out, _clean=False)


class CocycleElement(SparseSeries):
    """Element of A (x) A + M over (x0, x1) with the Fox-pairing twisted
    product; the module M is A with the bimodule rule
    (f (x) g) a (h (x) k) = eps(f) eps(k) g a h.  A tensor key (a, b) weighs
    len(a) + len(b), a module key (w,) len(w) + 1 (e has weight 1)."""

    __slots__ = ()

    @staticmethod
    def key_weight(key):
        if len(key) == 2:
            return len(key[0]) + len(key[1])
        return len(key[0]) + 1

    @classmethod
    def of(cls, max_weight, tensor=(), module=()):
        """From a (word, word) -> coef map and a word -> coef map."""
        terms = dict(tensor)
        terms.update(((w,), c) for w, c in dict(module).items())
        return cls(two_letter_alphabet(), max_weight, terms)

    @property
    def tensor(self):
        return {k: c for k, c in self.terms.items() if len(k) == 2}

    @property
    def module(self):
        return {k[0]: c for k, c in self.terms.items() if len(k) == 1}

    def module_series(self):
        return Series(self.alphabet, self.max_weight, self.module, _clean=False)

    def __repr__(self):
        return "CocycleElement(%r, %r)" % (self.tensor, self.module)


def cocycle_mul(u, v):
    """(a1 (x) b1 + c1)(a2 (x) b2 + c2) = a1 a2 (x) b1 b2
    + eps(a1) b1 c2 + c1 a2 eps(b2) + eps(a1) rho(b1, a2) eps(b2)."""
    if u.max_weight != v.max_weight:
        raise ValueError("truncation mismatch")
    mw = u.max_weight
    u_tensor, v_tensor, v_module = u.tensor, v.tensor, v.module
    tensor = {}
    module = {}
    for (a1, b1), cu in u_tensor.items():
        for (a2, b2), cv in v_tensor.items():
            if len(a1) + len(a2) + len(b1) + len(b2) <= mw:
                _iadd(tensor, (a1 + a2, b1 + b2), cu * cv)
            if not a1 and not b2:
                w = _rho_words(b1, a2)
                if w is not None and len(w) + 1 <= mw:
                    _iadd(module, w, cu * cv)
        if not a1:
            for m2, cv in v_module.items():
                if len(b1) + len(m2) + 1 <= mw:
                    _iadd(module, b1 + m2, cu * cv)
    for m1, cu in u.module.items():
        for (a2, b2), cv in v_tensor.items():
            if not b2 and len(m1) + len(a2) + 1 <= mw:
                _iadd(module, m1 + a2, cu * cv)
    return CocycleElement.of(mw, tensor, module)


def _cocycle_times(image, tail, out):
    """Adds image * tail to out in the cocycle algebra, for the image of one
    pi letter, a sequence of (kind, x, coef).  Each product with a letter
    image is a word edit that agrees with cocycle_mul:
      (x (x) 1)(a (x) b) = xa (x) b, and (x (x) 1) m = 0;
      (1 (x) x)(a (x) b) = a (x) xb, plus rho(x, a) = a in the module when
        b is empty and a starts with x; (1 (x) x) m = xm;
      e (a (x) 1) = a in the module, and e (a (x) b) = 0 = e m otherwise
        (the letter image -e is e with coef -1).
    Every letter image has weight 1, so no product needs truncating."""
    for kind, x, c in image:
        if kind == "left":
            for key, v in tail.items():
                if len(key) == 2:
                    _iadd(out, (x + key[0], key[1]), c * v)
        elif kind == "right":
            for key, v in tail.items():
                if len(key) == 2:
                    a, b = key
                    _iadd(out, (a, x + b), c * v)
                    if not b and a[:1] == x:  # rho(x, a) = a
                        _iadd(out, (a,), c * v)
                else:
                    _iadd(out, (x + key[0],), c * v)
        else:
            for key, v in tail.items():
                if len(key) == 2 and not key[1]:
                    _iadd(out, key[:1], c * v)
    return out


def _pi_apply(f, images):
    """f under the letter map images: (kind, x, coef) sequences per letter."""
    return CocycleElement.from_terms(
        two_letter_alphabet(), f.max_weight,
        _expand_terms(f.terms, images, _cocycle_times, (EMPTY, EMPTY)))


def pi_decompose(e, flavor="23"):
    """Image of a five-letter presentation element under pi^{2,3} or
    pi^{3,4}, a CocycleElement (tensor part and module part)."""
    alphabet = pi_alphabet(flavor)
    if e.alphabet != alphabet:
        raise ValueError("element is not over the %s-presentation letters" % flavor)
    letter_images = _flavor(flavor)[2]
    return _pi_apply(e, [(letter_images[n],) for n in alphabet.letters])


def pi_coface(psi, name, flavor="23"):
    """pi o coface without materializing the intermediate substitution: each
    generator maps straight to the sum of the letter images of its coface
    chords."""
    if psi.alphabet != two_letter_alphabet():
        raise ValueError("psi is not over the letters x0, x1")
    letter_images = _flavor(flavor)[2]
    return _pi_apply(psi, [tuple(letter_images[n] for n in img.split())
                           for img in coface_images(name, flavor)])


def cyclic_defect_pi23(psi):
    """The cyclic pentagon defect expressed over the pi^{2,3} presentation
    letters (x45 and x15 are linear in them), then pushed through pi^{2,3}."""
    legs = ((s, leg[:2], leg[1:]) for s, leg in CYCLIC_LEGS)
    return pi_decompose(_leg_sum(psi, pi_alphabet("23"), legs), "23")


# -- defining quadratic relations -------------------------------------------

@lru_cache(maxsize=None)
def p5_relations(max_weight=2):
    """The fifteen commuting-disjoint-chord relations rewritten over G."""
    out = []
    for (i, j), (k, l) in combinations(combinations(range(1, 6), 2), 2):
        if {i, j} & {k, l}:
            continue
        a = chord_series(i, j, max_weight)
        b = chord_series(k, l, max_weight)
        out.append((("%d%d" % (i, j), "%d%d" % (k, l)), a * b - b * a))
    return tuple(out)


def r23_relations():
    """The R^{2,3} presentation relations as elements of the free algebra on
    the pi^{2,3} letters (each must map to zero under pi^{2,3}).

    [x34,x24] = [x24,x23] here, with no sign: projecting out strand 5 sends
    both sides to -[x,y] in the four-strand algebra, and the sign-flipped
    variant is killed by neither that projection nor the pi map.
    """
    alphabet = pi_alphabet("23")
    L = lambda n: Series.letter(alphabet, n, 2)
    br = lambda a, b: L(a) * L(b) - L(b) * L(a)
    return (
        br("13", "23") - br("23", "12"),
        br("34", "23") - br("23", "24"),
        br("13", "24"),
        br("12", "13") + br("12", "23"),
        br("34", "24") - br("24", "23"),
        br("12", "34"),
    )


@lru_cache(maxsize=None)
def _relation_ideal_rows(weight):
    g = chord_alphabet()
    rows = []
    by_len = {0: [b""]}
    for n in range(1, weight - 1):
        by_len[n] = [w + bytes((i,)) for w in by_len[n - 1] for i in range(5)]
    for _, rel in p5_relations(weight):
        for i in range(weight - 1):
            j = weight - 2 - i
            for u in by_len[i]:
                for v in by_len[j]:
                    left = Series(g, weight, {u: 1}, _clean=False)
                    right = Series(g, weight, {v: 1}, _clean=False)
                    rows.append(left * rel * right)
    return tuple(rows)


def in_relation_ideal(f):
    """Whether a chord-basis element lies in the two-sided ideal generated by
    the disjoint-chord commutators, i.e. represents zero in the enveloping
    algebra.  Exponential in the weight; intended for small regression checks.
    """
    from .lie import series_span_contains
    for w in f.weights():
        if w > 5:
            raise ValueError("ideal membership check capped at weight 5")
        if w < 2:
            return False
        part = f.homogeneous_part(w)
        if not series_span_contains(list(_relation_ideal_rows(w)), part):
            return False
    return True
