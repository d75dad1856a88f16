"""The JSON format rules of series and solution-space documents, checked
without building a series.  `series.series_from_json` builds a Series from
the parts `series_parts` returns, and a disk-cache hit (`ncds.cache`) checks
a stored space with `check_space` and serves the document as it is.  This
module loads neither `fractions` nor the algebra."""

from . import InputError, integer

_DIGIT_INDEX = bytes.maketrans(b"0123456789", bytes(range(10)))  # "01" -> b"\0\1"


def _field(obj, name):
    if name not in obj:
        raise InputError("series JSON lacks the field %r" % name)
    return obj[name]


def _integer(value, name):
    """A JSON int, or a string that `ncds.integer` reads."""
    if isinstance(value, str):
        try:
            return integer(value)
        except InputError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError("series JSON field %r must be an integer or an integer "
                     "string, got %r" % (name, value))


def series_parts(data):
    """The parts of a series document (see `series.series_to_json`): its
    letter names, its maxWeight and its terms as (word bytes, num, den), num
    and den ints and den nonzero, in document order; InputError on a
    malformed document.

    A "weights" list is accepted only when it gives every letter weight 1.
    """
    if not isinstance(data, dict):
        raise InputError("a series must be a JSON object")
    letters = _field(data, "alphabet")
    if (not isinstance(letters, list) or not all(isinstance(n, str) for n in letters)
            or len(set(letters)) != len(letters)):
        raise InputError("series alphabet must be a list of distinct letter names")
    weights = data.get("weights")
    if weights is not None and weights != [1] * len(letters):
        raise InputError("every letter weighs 1, got weights %r" % (weights,))
    max_weight = _integer(_field(data, "maxWeight"), "maxWeight")
    if max_weight < 0:
        raise InputError("maxWeight must be >= 0, got %d" % max_weight)
    raw = _field(data, "terms")
    if not isinstance(raw, list) or not all(isinstance(t, dict) for t in raw):
        raise InputError("series terms must be a list of objects")
    terms = []
    seen = set()
    for t in raw:
        word = _field(t, "word")
        if not isinstance(word, str) or not (word.isascii()
                                             and (word.isdigit() or not word)):
            raise InputError("word %r is not a string of digits" % (word,))
        w = word.encode().translate(_DIGIT_INDEX)
        if w and max(w) >= len(letters):
            raise InputError("word %r uses a letter outside the alphabet" % word)
        if len(w) > max_weight:
            raise InputError("word %r is heavier than maxWeight %d" % (word, max_weight))
        if w in seen:
            raise InputError("duplicate word %r" % word)
        seen.add(w)
        den = _integer(t.get("den", "1"), "den")
        if not den:
            raise InputError("zero denominator for word %r" % word)
        terms.append((w, _integer(_field(t, "num"), "num"), den))
    return letters, max_weight, terms


def check_space(data):
    """InputError unless a space document (see `lie.SolutionSpace.to_json`)
    has a basis list that its "dimension" counts, and every basis entry, and
    the offset if there is one, is a series document or an {"a1", "a2"} pair
    of them over one alphabet."""
    basis = data.get("basis")
    if not isinstance(basis, list) or data.get("dimension") != len(basis):
        raise InputError("a space needs a basis list that its dimension counts")
    entries = list(basis)
    if "offset" in data:
        entries.append(data["offset"])
    for entry in entries:
        if isinstance(entry, dict) and "a1" in entry:
            if "a2" not in entry:
                raise InputError("a tangential pair lacks a2")
            if series_parts(entry["a1"])[0] != series_parts(entry["a2"])[0]:
                raise InputError("a1 and a2 are over different alphabets")
        else:
            series_parts(entry)
