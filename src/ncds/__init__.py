"""Degree-truncated noncommutative series kernel over exact rationals, with a
double shuffle / reduced coaction / Kashiwara-Vergne verification harness."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input from outside the program: a malformed document, a violated
    precondition or an out-of-range parameter.  The CLI exits 2 on it."""
