import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qtspp.cofactors import build_table  # noqa: E402
from qtspp.fieldcore import PrimeModulus  # noqa: E402
from qtspp.guessing import (  # noqa: E402
    AnsatzSupport,
    guess_modular,
    reconstruct_symbolic,
    refine_support,
    sweep,
)
from qtspp.okada import QPoint  # noqa: E402

P = PrimeModulus()


@pytest.fixture(scope="session")
def modulus():
    return P


@pytest.fixture(scope="session")
def table_q2(modulus):
    return build_table(35, QPoint(2, modulus))


@pytest.fixture(scope="session")
def full_support():
    return AnsatzSupport.full()


@pytest.fixture(scope="session")
def modular_rec(table_q2, full_support):
    return guess_modular(table_q2, full_support)


@pytest.fixture(scope="session")
def refined(modular_rec):
    return refine_support(modular_rec)


@pytest.fixture(scope="session")
def sweep_recs(refined, modular_rec, modulus):
    workers = min(os.cpu_count() or 1, 4)
    return sweep(
        refined,
        2,
        150,
        p=modulus.p,
        n_max=35,
        pivot_term=modular_rec.pivot_term,
        workers=workers,
    )


@pytest.fixture(scope="session")
def symbolic_rec(sweep_recs):
    return reconstruct_symbolic(sweep_recs)
