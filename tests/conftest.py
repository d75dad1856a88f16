import os
import pathlib
import random

import pytest

from ncds.harness import random_lie_series
from ncds.series import Series, two_letter_alphabet

X = two_letter_alphabet()
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def src_env():
    """Environment for a child interpreter: src/ leads its PYTHONPATH, so it
    imports this checkout's ncds without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def x_series(terms, max_weight):
    """Build a Series over (x0, x1) from {"0100...": coef} digit strings."""
    data = {bytes(int(ch) for ch in w): c for w, c in terms.items()}
    return Series(X, max_weight, data)


def assemble_rows(basis_values, n_cols):
    """Turn per-column constraint values into matrix rows: basis_values[j]
    is the list of (key, coeff) items of column j, and one row is produced
    per distinct key, in sorted key order."""
    rows = {}
    for j, items in enumerate(basis_values):
        for key, c in items:
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * n_cols
            row[j] = c
    return [rows[k] for k in sorted(rows)]


# the seeded generator the lemma suites use, so tests draw the same series
random_lie = random_lie_series


@pytest.fixture
def rng():
    return random.Random(20240901)
