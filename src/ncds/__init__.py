"""Degree-truncated noncommutative series kernel over exact rationals, with a
double shuffle / reduced coaction / Kashiwara-Vergne verification harness."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input from outside the program: a malformed document, a violated
    precondition or an out-of-range parameter.  The CLI exits 2 on it."""


def integer(text):
    """The integer that text spells as an optional "-" and ASCII digits;
    InputError on anything else, such as "+5", " 5", "1_0" or other
    scripts' digits, which int() reads too.  The one integer rule of
    documents and command lines."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise InputError("%r is not an integer" % (text,))
