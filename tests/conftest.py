import random

import pytest

from ncds.harness import random_lie_series
from ncds.series import Series, two_letter_alphabet

X = two_letter_alphabet()


def x_series(terms, max_weight):
    """Build a Series over (x0, x1) from {"0100...": coef} digit strings."""
    data = {bytes(int(ch) for ch in w): c for w, c in terms.items()}
    return Series(X, max_weight, data)


# the seeded generator the lemma suites use, so tests draw the same series
random_lie = random_lie_series


@pytest.fixture
def rng():
    return random.Random(20240901)
