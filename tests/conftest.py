import contextlib
import io
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qtspp import fieldcore  # noqa: E402
from qtspp.cli import main  # noqa: E402
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

#: Wall-clock limit of one test: a hang fails the test instead of stalling the suite.
TEST_DEADLINE_S = 600


@pytest.fixture(autouse=True)
def deadline():
    def expire(signum, frame):
        pytest.fail(f"test still running after {TEST_DEADLINE_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_DEADLINE_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def corrupt_products(monkeypatch):
    """A function that, once called, makes every nonempty fieldcore._mul_mod
    product wrong by 1 in its first entry: a fault in the elimination kernel."""

    def arm():
        clean = fieldcore._mul_mod

        def corrupted(a, b, p):
            out = clean(a, b, p)
            if out.size:
                out.flat[0] = (out.flat[0] + 1) % p
            return out

        monkeypatch.setattr(fieldcore, "_mul_mod", corrupted)

    return arm


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


@pytest.fixture(scope="session")
def order8_run(tmp_path_factory):
    """`qtspp pipeline --workers 2 --beta-max 8 --gamma-max 8`: exit status, stdout, directory."""
    out = tmp_path_factory.mktemp("order8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["pipeline", "--workers", "2", "--beta-max", "8", "--gamma-max", "8",
                   "--out", str(out)])
    return rc, stdout.getvalue(), out
