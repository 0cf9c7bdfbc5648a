import random

import pytest

from qtspp.cofactors import (
    build_table,
    cofactor_by_minors,
    det_certified,
    det_direct,
    load_table,
)
from qtspp.fieldcore import PrimeModulus
from qtspp.okada import QPoint, okada_entry, qtspp_orbit_product
from qtspp.verify import check_soichi

P = PrimeModulus()
RNG = random.Random(31337)
GOOD_Q = [3, 5, 17, 101, RNG.randrange(2, P.p)]


def qp(q):
    return QPoint(q, P)


class TestCofactorRow:
    def test_normalization_only(self):
        assert build_table(1, qp(7)).row(1).tolist() == [1]

    def test_n2_closed_form(self):
        # single equation: x1 * a(1,1) = -a(1,2)
        for q in GOOD_Q:
            qpt = qp(q)
            row = build_table(2, qpt).row(2)
            a11, a12 = okada_entry(1, 1, qpt).value, okada_entry(1, 2, qpt).value
            want = -a12 * pow(a11, -1, P.p) % P.p
            assert row.tolist() == [want, 1]

    def test_n2_at_unit(self):
        row = build_table(2, qp(1)).row(2)
        minus_three_quarters = (-3 * pow(4, -1, P.p)) % P.p
        assert row.tolist() == [minus_three_quarters, 1]


class TestBuildTable:
    def test_single_row(self):
        t = build_table(1, qp(5))
        assert t.value(1, 1) == 1 and len(t) == 1

    def test_two_rows_at_unit(self):
        t = build_table(2, qp(1))
        assert t.value(1, 1) == 1
        assert t.value(2, 1) == (-3 * pow(4, -1, P.p)) % P.p
        assert t.value(2, 2) == 1

    def test_full_scale_at_q2(self, table_q2):
        assert len(table_q2) == 630
        assert table_q2.n_max == 35
        # every row satisfies the orthogonality identity by construction
        assert check_soichi(table_q2, 35).passed

    def test_zero_extension(self):
        t = build_table(3, qp(5))
        assert t.value(2, 0) == 0
        assert t.value(2, 3) == 0
        assert t.value(2, -4) == 0
        with pytest.raises(IndexError):
            t.value(4, 1)

    def test_scaled_rows_at_small_order_point(self):
        # at q = 2 the rows 13..19 are stored p-cleared: the diagonal entry
        # is no longer 1 there, but orthogonality still holds exactly
        t = build_table(19, qp(2))
        diag = [t.value(n, n) for n in range(1, 20)]
        assert diag[:12] == [1] * 12
        assert 0 in diag[12:]
        assert check_soichi(t, 19).passed

    def test_truncated_and_padded(self):
        t = build_table(6, qp(3))
        t4 = t.truncated(4)
        assert t4.n_max == 4 and t4.value(4, 2) == t.value(4, 2)
        b = t.padded(extra_cols=3)
        assert b.shape == (7, 10)
        assert b[5, 2] == t.value(5, 2)
        assert b[5, 6] == 0

    def test_with_value_does_not_mutate(self):
        t = build_table(4, qp(3))
        t2 = t.with_value(3, 2, 12345)
        assert t.value(3, 2) != 12345 or t2 is not t
        assert t2.value(3, 2) == 12345
        assert t.value(3, 2) == build_table(4, qp(3)).value(3, 2)


class TestDeterminantOracles:
    def test_det_direct_matches_entry_at_n1(self):
        for q in GOOD_Q:
            assert det_direct(1, qp(q)) == okada_entry(1, 1, qp(q))

    def test_det_direct_n2_unit(self):
        # det [[4, 3], [1, 7]] = 25
        assert det_direct(2, qp(1)).value == 25

    def test_det_certified_n2_unit(self):
        t = build_table(2, qp(1))
        assert det_certified(2, t).value == 25

    def test_certified_equals_direct(self):
        for q in GOOD_Q[:3]:
            qpt = qp(q)
            t = build_table(20, qpt)
            for n in range(1, 21):
                assert det_certified(n, t) == det_direct(n, qpt)

    def test_determinant_identity_small(self):
        # the conjectured evaluation, numerically: det = (orbit product)^2
        for q in GOOD_Q:
            qpt = qp(q)
            for n in range(1, 11):
                sq = qtspp_orbit_product(n, qpt).value
                assert det_direct(n, qpt).value == sq * sq % P.p


class TestMinorsOracle:
    def test_trivial(self):
        assert cofactor_by_minors(1, 1, qp(9)).value == 1

    def test_n2_unit(self):
        got = cofactor_by_minors(2, 1, qp(1))
        assert got.value == (-3 * pow(4, -1, P.p)) % P.p

    def test_matches_row_solve(self):
        for q in GOOD_Q:
            qpt = qp(q)
            table = build_table(8, qpt)
            for n in range(1, 9):
                for j in range(1, n + 1):
                    assert cofactor_by_minors(n, j, qpt) == table.value(n, j)

    def test_scale_limit(self):
        with pytest.raises(ValueError):
            cofactor_by_minors(11, 1, qp(3))


class TestPersistence:
    def test_text_round_trip(self, tmp_path):
        t = build_table(7, qp(11))
        path = t.save_text(tmp_path / "t.txt")
        back = load_table(path)
        assert back == t
        # byte-identical re-save
        again = back.save_text(tmp_path / "t2.txt")
        assert path.read_bytes() == again.read_bytes()

    def test_binary_round_trip(self, tmp_path):
        t = build_table(7, qp(11))
        path = t.save_binary(tmp_path / "t.bin")
        back = load_table(path)
        assert back == t
        assert back.to_binary() == path.read_bytes()

    def test_formats_agree(self, tmp_path):
        t = build_table(5, qp(23))
        a = load_table(t.save_text(tmp_path / "a.txt"))
        b = load_table(t.save_binary(tmp_path / "b.bin"))
        assert a == b

    def test_header_and_sorting(self, tmp_path):
        t = build_table(3, qp(9))
        lines = t.to_text().splitlines()
        assert lines[0] == f"9 {P.p} 3"
        triples = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
        assert [(n, j) for n, j, _ in triples] == [
            (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
        ]

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2147483647 2\n1 1 1\n")
        with pytest.raises(ValueError):
            load_table(bad)
