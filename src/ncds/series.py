"""Exact-rational noncommutative formal series over finite alphabets.

Words are packed byte strings (one byte per letter index) keyed in plain
dicts; coefficients are Python ints or ``fractions.Fraction`` and are never
floats.  A word's weight is its length.  Every binary operation truncates
its result to the smaller of the two operands' ``max_weight``.  All values
are treated as immutable after construction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

EMPTY = b""


class Alphabet:
    """Ordered list of letter names; every letter weighs 1, so a word's
    weight is its length."""

    __slots__ = ("letters", "_index")

    def __init__(self, letters):
        letters = tuple(letters)
        if len(set(letters)) != len(letters):
            raise ValueError("letter names must be unique")
        self.letters = letters
        self._index = {name: i for i, name in enumerate(letters)}

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Alphabet(%r)" % (self.letters,)

    def index(self, name):
        return self._index[name]


@lru_cache(maxsize=None)
def two_letter_alphabet():
    """The alphabet of the main series algebra on x0, x1."""
    return Alphabet(("x0", "x1"))


@lru_cache(maxsize=None)
def one_letter_alphabet():
    """One-variable power series live over the single letter s."""
    return Alphabet(("s",))


def _iadd(terms, word, coef):
    cur = terms.get(word)
    if cur is None:
        if coef:
            terms[word] = coef
    else:
        cur = cur + coef
        if cur:
            terms[word] = cur
        else:
            del terms[word]


class SparseSeries:
    """The truncating arithmetic shared by the sparse classes: a map key ->
    nonzero exact rational that keeps only keys of weight <= max_weight.
    A subclass says how heavy a key is (``key_weight``)."""

    __slots__ = ("alphabet", "max_weight", "terms")

    key_weight = staticmethod(len)

    def __init__(self, alphabet, max_weight, terms=None, _clean=True):
        self.alphabet = alphabet
        self.max_weight = int(max_weight)
        if self.max_weight < 0:
            raise ValueError("max_weight must be >= 0")
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = self._cleaned(terms)
        else:
            self.terms = terms

    @classmethod
    def from_terms(cls, alphabet, max_weight, terms):
        """The element with the given key -> nonzero coefficient map, taken
        as it is (no key is heavier than max_weight)."""
        return cls(alphabet, max_weight, terms, _clean=False)

    def _cleaned(self, terms):
        """Drop zero coefficients and keys heavier than max_weight."""
        kw, mw = self.key_weight, self.max_weight
        return {k: c for k, c in terms.items() if c and kw(k) <= mw}

    @property
    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return min(self.max_weight, other.max_weight)

    def _merged(self, other, items):
        """self plus the given (key, coef) items of other, truncated to the
        smaller max_weight."""
        mw = self._check(other)
        terms = dict(self.terms)
        for k, c in items:
            _iadd(terms, k, c)
        kw = self.key_weight
        return type(self)(self.alphabet, mw,
                          {k: c for k, c in terms.items() if kw(k) <= mw}, _clean=False)

    def __add__(self, other):
        return self._merged(other, other.terms.items())

    def __sub__(self, other):
        return self._merged(other, ((k, -c) for k, c in other.terms.items()))

    def scale(self, c):
        if not c:
            return type(self)(self.alphabet, self.max_weight)
        return type(self)(self.alphabet, self.max_weight,
                          {k: c * v for k, v in self.terms.items()}, _clean=False)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.alphabet == other.alphabet
                and self.terms == other.terms)


class Series(SparseSeries):
    """Sparse map word -> nonzero exact rational, truncated by word length."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet, max_weight):
        return cls(alphabet, max_weight, {}, _clean=False)

    @classmethod
    def unit(cls, alphabet, max_weight):
        return cls(alphabet, max_weight, {EMPTY: 1}, _clean=False)

    @classmethod
    def letter(cls, alphabet, name, max_weight):
        i = alphabet.index(name)
        return cls(alphabet, max_weight, {bytes((i,)): 1})

    @classmethod
    def word(cls, alphabet, letters, max_weight):
        w = bytes(alphabet.index(n) for n in letters)
        return cls(alphabet, max_weight, {w: 1})

    # -- basic queries -----------------------------------------------------

    def coeff(self, word):
        return self.terms.get(word, 0)

    def constant_term(self):
        return self.terms.get(EMPTY, 0)

    def weights(self):
        return sorted({len(w) for w in self.terms})

    def homogeneous_part(self, weight):
        return Series(self.alphabet, self.max_weight,
                      {w: c for w, c in self.terms.items() if len(w) == weight},
                      _clean=False)

    def truncated(self, max_weight):
        return Series(self.alphabet, max_weight,
                      {w: c for w, c in self.terms.items() if len(w) <= max_weight},
                      _clean=False)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Series(self.alphabet, self.max_weight,
                      {w: -c for w, c in self.terms.items()}, _clean=False)

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return conc_mul(self, other)

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def to_json(self):
        return series_to_json(self)

    def __repr__(self):
        if not self.terms:
            return "<0>"
        names = self.alphabet.letters
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            mono = ".".join(names[i] for i in w) if w else "1"
            bits.append("%s*%s" % (c, mono))
        return "<" + " + ".join(bits) + ">"


class TensorSeries(SparseSeries):
    """Element of the two-fold tensor square: sparse map (word, word) -> rational."""

    __slots__ = ()

    @staticmethod
    def key_weight(key):
        return len(key[0]) + len(key[1])

    def coeff(self, left, right):
        return self.terms.get((left, right), 0)

    def __repr__(self):
        return "TensorSeries(%d terms)" % len(self.terms)


# -- products and coproducts ----------------------------------------------

def conc_mul(f, g):
    """Concatenation product, truncated to the smaller max_weight."""
    mw = f._check(g)
    out = {}
    for wf, cf in f.terms.items():
        room = mw - len(wf)
        if room < 0:
            continue
        for wg, cg in g.terms.items():
            if len(wg) <= room:
                _iadd(out, wf + wg, cf * cg)
    return Series(f.alphabet, mw, out, _clean=False)


def _shuffle_words(u, v):
    """dict word -> multiplicity of riffle shuffles of the two words."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, m in _shuffle_words(u[1:], v).items():
        _iadd(out, u[:1] + w, m)
    for w, m in _shuffle_words(u, v[1:]).items():
        _iadd(out, v[:1] + w, m)
    return out


def shuffle_mul(f, g):
    """Shuffle product: sum over riffle shuffles of word pairs."""
    mw = f._check(g)
    out = {}
    for wf, cf in f.terms.items():
        room = mw - len(wf)
        if room < 0:
            continue
        for wg, cg in g.terms.items():
            if len(wg) > room:
                continue
            c = cf * cg
            for w, m in _shuffle_words(wf, wg).items():
                _iadd(out, w, m * c)
    return Series(f.alphabet, mw, out, _clean=False)


def shuffle_splits(word):
    """(subword, complementary subword) for every subset of letter positions,
    subsets taken by size and then in lexicographic order."""
    n = len(word)
    for r in range(n + 1):
        for pos in itertools.combinations(range(n), r):
            keep = set(pos)
            yield (bytes(word[i] for i in pos),
                   bytes(word[i] for i in range(n) if i not in keep))


def shuffle_coproduct(f):
    """Deshuffle coproduct: every letter is primitive, extended multiplicatively.

    On a word it is the sum over subsets of letter positions of
    (subword, complementary subword).
    """
    out = {}
    for w, c in f.terms.items():
        for split in shuffle_splits(w):
            _iadd(out, split, c)
    return TensorSeries(f.alphabet, f.max_weight, out, _clean=False)


def antipode(f):
    """Standard antipode: S(w) = (-1)^len(w) * reverse(w), extended linearly."""
    out = {}
    for w, c in f.terms.items():
        _iadd(out, w[::-1], -c if len(w) % 2 else c)
    return Series(f.alphabet, f.max_weight, out, _clean=False)


def letter_swap(f):
    """Exchange the two letters of a two-letter alphabet in every word."""
    if len(f.alphabet) != 2:
        raise ValueError("letter_swap needs a two-letter alphabet")
    return _swap(f.alphabet).apply(f)


def fox_derivative(f, letter, side):
    """One-sided letter strip: side "right" takes the part starting with the
    letter and removes it (d^R), side "left" strips a trailing letter (d^L).
    The counit part is discarded."""
    i = f.alphabet.index(letter)
    out = {}
    if side == "right":
        for w, c in f.terms.items():
            if w and w[0] == i:
                _iadd(out, w[1:], c)
    elif side == "left":
        for w, c in f.terms.items():
            if w and w[-1] == i:
                _iadd(out, w[:-1], c)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return Series(f.alphabet, f.max_weight, out, _clean=False)


# -- letter maps ---------------------------------------------------------------

def _translate_terms(terms, table, drop):
    """Word-morphism path: one ``bytes.translate`` per word; a word that
    loses a letter has a letter with no image and maps to 0."""
    out = {}
    for w, c in terms.items():
        tw = w.translate(table, drop)
        if len(tw) == len(w):
            _iadd(out, tw, c)
    return out


def _concat_times(image, tail, out):
    """out + image * tail in the free algebra: the image of a letter, a
    sequence of (one-letter word, coef), concatenated before each word.  The
    image's letters are distinct, so for an empty out the products are
    distinct words and fill a new dict without merging."""
    if not out:
        return {t + v: tc * vc for t, tc in image for v, vc in tail.items()}
    for t, tc in image:
        for v, vc in tail.items():
            _iadd(out, t + v, tc * vc)
    return out


def _expand_terms(terms, images, times=_concat_times, unit=EMPTY):
    """Image of a word -> coef map under the algebra morphism sending letter
    i to images[i], by first-letter recursion: phi(f) = sum_a phi(a) phi(f_a),
    where f_a holds the words of f that start with a, that letter removed.
    Equal keys merge at every level, so a letter map costs one factor at a
    time instead of one expansion per word.  ``times(image, tail, out)`` is
    out + image * tail in the target (in place, or a new dict for an empty
    out); ``unit`` is the target key of the empty word.  Concatenation is
    the default."""
    out = {}
    by_first = {}
    for w, c in terms.items():
        if w:
            by_first.setdefault(w[0], {})[w[1:]] = c
        else:
            out[unit] = c
    for i, tails in by_first.items():
        if images[i]:
            out = times(images[i], _expand_terms(tails, images, times, unit), out)
    return out


class LinearMorphism:
    """Algebra morphism sending every source letter to a linear combination
    of target letters.

    ``images`` holds one sequence of (target letter index, coef) per source
    letter, with distinct target letters; zero coefficients are dropped, and
    an empty image sends the letter to 0.  A word maps to words of its own
    length, so an image needs no truncation beyond its source's.  When every
    image is a single letter with coefficient 1 or nothing (a word morphism),
    words go through one ``bytes.translate`` each; otherwise the map is
    expanded by first-letter recursion (``_expand_terms``).
    """

    __slots__ = ("source", "target", "images", "_translation")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = tuple(tuple((bytes((t,)), c) for t, c in img if c)
                            for img in images)
        if len(self.images) != len(source):
            raise ValueError("need one image per source letter")
        if all(len(img) <= 1 and all(c == 1 for _t, c in img) for img in self.images):
            src = bytes(i for i, img in enumerate(self.images) if img)
            dst = b"".join(img[0][0] for img in self.images if img)
            drop = bytes(i for i, img in enumerate(self.images) if not img)
            self._translation = (bytes.maketrans(src, dst), drop)
        else:
            self._translation = None

    @classmethod
    def by_name(cls, source, target, images):
        """From a dict source letter name -> {target letter name: coef};
        letters left out go to 0."""
        return cls(source, target,
                   [[(target.index(t), c) for t, c in images.get(name, {}).items()]
                    for name in source.letters])

    def apply(self, f):
        """The image of f, with f's max_weight."""
        if f.alphabet is not self.source and f.alphabet != self.source:
            raise ValueError("series is not over the source alphabet of the map")
        if self._translation is not None:
            out = _translate_terms(f.terms, *self._translation)
        else:
            out = _expand_terms(f.terms, self.images)
        return Series(self.target, f.max_weight, out, _clean=False)


@lru_cache(maxsize=None)
def _swap(alphabet):
    return LinearMorphism(alphabet, alphabet, (((1, 1),), ((0, 1),)))


def substitute(f, morphism):
    """f under a LinearMorphism from f's alphabet, with f's max_weight."""
    return morphism.apply(f)


def _onto_x(source, images):
    return LinearMorphism.by_name(source, two_letter_alphabet(), images)


# Fixed maps onto the two-letter algebra, named by where they send (x0, x1)
# or the one-variable letter s: psi(-x0-x1, x1), g(x0+x1, 0), g(x1, 0), and
# r(x1), r(-x0), f(x0), f(x0+x1).
AT_MINUS_SUM_X1 = _onto_x(two_letter_alphabet(),
                          {"x0": {"x0": -1, "x1": -1}, "x1": {"x1": 1}})
AT_SUM_ZERO = _onto_x(two_letter_alphabet(), {"x0": {"x0": 1, "x1": 1}})
AT_X1_ZERO = _onto_x(two_letter_alphabet(), {"x0": {"x1": 1}})
S_AT_X1 = _onto_x(one_letter_alphabet(), {"s": {"x1": 1}})
S_AT_MINUS_X0 = _onto_x(one_letter_alphabet(), {"s": {"x0": -1}})
S_AT_X0 = _onto_x(one_letter_alphabet(), {"s": {"x0": 1}})
S_AT_SUM = _onto_x(one_letter_alphabet(), {"s": {"x0": 1, "x1": 1}})


def abelianize(f):
    """Image in the commutative series ring: map exponent vector -> rational."""
    k = len(f.alphabet)
    out = {}
    for w, c in f.terms.items():
        deg = [0] * k
        for i in w:
            deg[i] += 1
        _iadd(out, tuple(deg), c)
    return out


# -- cyclic words ----------------------------------------------------------

def _canonical_rotation(w):
    if len(w) < 2:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


class CyclicSeries(SparseSeries):
    """Series with words identified up to rotation; the stored representative
    is the lexicographically least rotation."""

    __slots__ = ()

    def _cleaned(self, terms):
        out = {}
        for w, c in super()._cleaned(terms).items():
            _iadd(out, _canonical_rotation(w), c)
        return out

    def coeff(self, word):
        return self.terms.get(_canonical_rotation(word), 0)

    def __repr__(self):
        names = self.alphabet.letters
        bits = ["%s*|%s|" % (c, ".".join(names[i] for i in w))
                for w, c in sorted(self.terms.items())]
        return "<" + (" + ".join(bits) or "0") + ">"


def cyclic_project(f):
    """Projection A -> |A| = A/[A,A]."""
    return CyclicSeries(f.alphabet, f.max_weight, f.terms)


def symmetrize(c):
    """N: |s_1...s_k| -> sum of all k rotations, extended linearly."""
    out = {}
    for w, coef in c.terms.items():
        if not w:
            _iadd(out, w, coef)
            continue
        for i in range(len(w)):
            _iadd(out, w[i:] + w[:i], coef)
    return Series(c.alphabet, c.max_weight, out, _clean=False)


# -- JSON ------------------------------------------------------------------

def _coef_num_den(c):
    if isinstance(c, Fraction):
        return str(c.numerator), str(c.denominator)
    return str(c), "1"


def series_to_json(f):
    """Schema: {"alphabet": [...], "maxWeight": N,
    "terms": [{"word": "001", "num": "1", "den": "3"}]} with terms sorted by
    (weight, word), a word's weight being its length.  Letter indices are
    single decimal digits."""
    if len(f.alphabet) > 10:
        raise ValueError("JSON word encoding supports at most 10 letters")
    terms = []
    for w in sorted(f.terms, key=lambda w: (len(w), w)):
        num, den = _coef_num_den(f.terms[w])
        terms.append({"word": "".join(str(i) for i in w), "num": num, "den": den})
    return {"alphabet": list(f.alphabet.letters),
            "maxWeight": f.max_weight,
            "terms": terms}


def series_from_json(data):
    """Inverse of series_to_json; InputError on a malformed document (the
    rules are `jsonformat.series_parts`)."""
    from .jsonformat import series_parts  # a cold `spaces` request never loads it
    letters, max_weight, parts = series_parts(data)
    terms = {}
    for w, num, den in parts:
        c = Fraction(num, den)
        if c.denominator == 1:
            c = int(c)
        if c:
            terms[w] = c
    return Series(Alphabet(letters), max_weight, terms)
