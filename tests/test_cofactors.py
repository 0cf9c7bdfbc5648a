import hashlib
import random
import struct
import tracemalloc

import numpy as np
import pytest

from qtspp import cofactors, fieldcore, okada
from qtspp.cofactors import (
    PrecisionExhausted,
    build_table,
    certificate_product,
    cofactor_by_minors,
    det_certified,
    det_direct,
    load_table,
)
from qtspp.fieldcore import InvalidInput, PrimeModulus, SingularMatrix, WorkbenchError, _mul_mod
from qtspp.guessing import AnsatzSupport, sweep
from qtspp.okada import (
    QPoint,
    has_admissible_order,
    nice_ratio,
    okada_entry,
    okada_slice,
    qbinom,
    qtspp_orbit_product,
)
from qtspp.verify import check_normalization, check_okada, check_soichi

P = PrimeModulus()
RNG = random.Random(31337)
GOOD_Q = [3, 5, 17, 101, RNG.randrange(2, P.p)]


def qp(q):
    return QPoint(q, P)


def of_order(r):
    """A q point of multiplicative order r mod P (7 is a primitive root)."""
    return pow(7, (P.p - 1) // r, P.p)


class TestCofactorRow:
    def test_normalization_only(self):
        assert build_table(1, qp(7)).row(1).tolist() == [1]

    def test_n2_closed_form(self):
        # single equation: x1 * a(1,1) = -a(1,2)
        for q in GOOD_Q:
            qpt = qp(q)
            row = build_table(2, qpt).row(2)
            a11, a12 = okada_entry(1, 1, qpt), okada_entry(1, 2, qpt)
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

    def test_copies_share_no_storage(self):
        t = build_table(6, qp(3))
        text = t.to_text()
        t.row(4)[:] = 0
        t.padded(extra_cols=2)[:] = 0
        for copy in (t.with_value(5, 2, 7), t.truncated(4)):
            copy._b[:] = 0
        assert t.to_text() == text


class TestTableBytes:
    """sha256 of to_text(), pinned from the earlier per-row solvers."""

    DIGESTS = {
        (1, 120): "637943805d4a30a360ee6528a556b3c72acdd6e3c9a6fe376f6e00c0b2cfc177",
        (2, 120): "5d725abaa8b63d846b159361cc9ba8fae6f6238b5d4792f552dccfbe44127b21",
        (3, 120): "e647bd66772567a7c95ee9603dbb6e28d50130795a6411dbb22499f5f31cb4ec",
        (151, 120): "ba3f015d9d63e5691f8fd013c9922f5d69ccaa56c9d7d42351bbcc91e43e4a3b",
        (128, 60): "7d08d9b5657a8ea99dcfdf1be9bc0ef0064f0d30c2cf6b6fcd761cde87e73ba0",
        (2, 35): "6868df68c77339a576bced85b2adb8d2bc1b6d2833d4b9df38c51146bb22cb92",
        (2**5, 60): "65519a75bf1a1f7515d955782d1a23043c850d128fac7f912c58574dcbac5e62",
        (2**29, 60): "12bf64e145151e52caee16d05a71aabcc5f8403c7b6c9563ad7308777859bb6e",
    }

    @pytest.mark.parametrize("q, n", sorted(DIGESTS))
    def test_digest(self, q, n):
        text = build_table(n, qp(q)).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[q, n]


class TestSmallOrderTables:
    """q = 7**((p-1)/r) of order r: many lifted rows, each table at its own digits.

    sha256 of to_text(), pinned from the earlier fixed-digit solver with its
    digits raised from 16 to 64 (with 16 it refused orders 6 and 42 at n = 22).
    """

    DIGESTS = {
        6: "3d48327661718877a0c3767d265859549d9e50a6af7a4fa9bad60c7e32ff88bc",
        14: "477eec3d7168a5baac76704585b57d70f34f9c077b623a8cb663d4da53d2dcf5",
        42: "dd129647c4a09f2d28f2207e56f0e8aa31f051114c7176ceb3b7c4a85b697d21",
    }

    @pytest.mark.parametrize("order", sorted(DIGESTS))
    def test_table_at_n35(self, order):
        assert qp(of_order(order)).order == order
        table = build_table(35, qp(of_order(order)))
        assert check_soichi(table, 35).passed
        assert hashlib.sha256(table.to_text().encode()).hexdigest() == self.DIGESTS[order]

    def test_order_6_at_n120_is_refused_before_any_elimination(self, monkeypatch):
        def eliminate(*args):
            raise AssertionError("eliminated before the refusal")

        monkeypatch.setattr(cofactors, "_extend_prefix", eliminate)
        monkeypatch.setattr(cofactors, "_schur_row", eliminate)
        q = of_order(6)
        message = rf"row n=94 at q={q}: .*d=32\b.*PADIC_PRECISION=64\b"
        with pytest.raises(PrecisionExhausted, match=message):
            build_table(120, qp(q))


class TestTableGates:
    def counted(self, monkeypatch, name):
        """Record every call to cofactors.<name> by its arguments between m and qpt."""
        calls = []
        fn = getattr(cofactors, name)

        def counting(*args):
            calls.append(args[1:-2])
            return fn(*args)

        monkeypatch.setattr(cofactors, name, counting)
        return calls

    def test_one_schur_solve_per_lifted_row(self, monkeypatch):
        solves = self.counted(monkeypatch, "_schur_row")
        build_table(35, qp(2))
        assert solves == [(11, n) for n in range(13, 20)]

    @pytest.mark.parametrize("k", [3, 5, 29])
    def test_one_prefix_extension_per_block(self, monkeypatch, k):
        extensions = self.counted(monkeypatch, "_extend_prefix")
        solves = self.counted(monkeypatch, "_schur_row")
        build_table(60, qp(2**k))
        # blocks 13..19 and 44..50; before each the leading (s - 2)-minor is a unit
        assert extensions == [(0, 11, 13), (11, 42, 44)]
        assert solves == [(11, n) for n in range(13, 20)] + [(42, n) for n in range(44, 51)]

    def test_prefix_without_unit_pivot(self):
        # once column 0 is eliminated, column 1 of rows 1..2 holds p and 3p
        p = P.p
        m = [[1, 2, 3], [5, p + 10, 7], [4, 3 * p + 8, 1]]
        with pytest.raises(WorkbenchError, match=r"row n=4 at q=2: prefix column 1 has no unit"):
            cofactors._extend_prefix(m, 0, 3, 4, qp(2), 16)

    @pytest.mark.parametrize(
        "entry, first", [((0, 11), 13), ((5, 11), 13), ((0, 12), 13), ((12, 11), 14), ((11, 12), 13)]
    )
    def test_corrupt_prefix_fails_orthogonality(self, monkeypatch, entry, first):
        extend = cofactors._extend_prefix

        def corrupted(m, lo, hi, n, qpt, digits):
            extend(m, lo, hi, n, qpt, digits)
            m[entry[0]][entry[1]] += 1

        monkeypatch.setattr(cofactors, "_extend_prefix", corrupted)
        with pytest.raises(SingularMatrix) as info:
            build_table(35, qp(2))
        assert info.value.n == first

    def test_precision_exhaustion_names_the_row(self, monkeypatch):
        monkeypatch.setattr(cofactors, "PADIC_PRECISION", 2)
        with pytest.raises(PrecisionExhausted, match=r"n=13 at q=2\b.*PADIC_PRECISION=2\b"):
            build_table(19, qp(2))
        # ordinary q points never lift a row, so they are unaffected
        assert build_table(19, qp(3)).n_max == 19

    def test_sweep_propagates_precision_exhaustion(self, monkeypatch):
        monkeypatch.setattr(cofactors, "PADIC_PRECISION", 2)
        support = AnsatzSupport(((0, 0, 0), (0, 0, 1)), (0, 0, 0))
        with pytest.raises(PrecisionExhausted):
            sweep(support, 2, 3, n_max=19, min_points=1)

    # at a small prime, q = 1 lifts rows too (factors e of the layers), and
    # v_p(1 - q**e) grows with v_p(e) (q = 3 has order 6 mod 7)
    @pytest.mark.parametrize(
        "q, p, n_max", [(2, P.p, 120), (of_order(14), P.p, 60), (of_order(42), P.p, 60),
                        (1, 101, 60), (3, 7, 30)]
    )
    def test_predicted_valuation_is_the_solved_one(self, monkeypatch, q, p, n_max):
        solved = {}
        solve = cofactors._schur_row

        def recording(m, k, n, qpt, digits):
            y = solve(m, k, n, qpt, digits)
            solved[n] = cofactors._valuation(y[-1], p, digits)  # y[-1] = p**d
            return y

        monkeypatch.setattr(cofactors, "_schur_row", recording)
        qpt = QPoint(q, PrimeModulus(p))
        build_table(n_max, qpt)
        predicted = cofactors._leading_valuations(n_max, qpt)
        assert solved and solved == {n: predicted[n] for n in solved}
        if q == 2:
            assert list(solved.values()) == [2, 2, 4, 4, 4, 2, 2] * 4

    def test_prediction_two_digits_short_trips_the_guard(self, monkeypatch):
        predict = cofactors._padic_digits
        short = []

        def two_short(lifted, qpt):
            short.append(predict(lifted, qpt) - 2)
            return short[-1]

        monkeypatch.setattr(cofactors, "_padic_digits", two_short)
        with pytest.raises(PrecisionExhausted, match=r"row n=15 at q=2: .*d=4\b.*the 8 digits"):
            build_table(120, qp(2))
        assert short == [8]

    @pytest.mark.parametrize("q, order", [(P.p - 1, 2), (pow(7, (P.p - 1) // 3, P.p), 3)])
    def test_small_order_is_refused(self, q, order):
        assert qp(q).order == order
        with pytest.raises(SingularMatrix, match=f"^q has multiplicative order {order}$"):
            build_table(12, qp(q))

    def test_q1_is_not_refused(self):
        assert qp(1).order == 1
        assert build_table(12, QPoint(1)).q_int == 1

    def test_corrupt_kernel_row_fails_orthogonality(self, monkeypatch):
        kernels = cofactors.leading_kernels_mod

        def corrupted(a, p):
            rows = kernels(a, p)
            rows[5][0] = (rows[5][0] + 1) % p
            return rows

        monkeypatch.setattr(cofactors, "leading_kernels_mod", corrupted)
        with pytest.raises(SingularMatrix) as info:
            build_table(8, qp(3))
        assert info.value.n == 5


class TestOneProductPerTable:
    """build_table computes R = A B^T once; the checks and det_certified read its blocks."""

    def test_one_entry_matrix_and_one_product(self, monkeypatch):
        assert has_admissible_order(12345, P, 40)
        det = det_direct(40, qp(12345))
        calls = {"entry_matrix": 0, "_mul_mod": 0}
        for module, name in ((okada, "entry_matrix"), (cofactors, "entry_matrix"),
                             (fieldcore, "_mul_mod"), (cofactors, "_mul_mod")):
            def counting(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counting)
        table = build_table(40, qp(12345))
        for report in (check_normalization(table), check_soichi(table, 40), check_okada(table, 40)):
            assert report.passed, report.summary_line()
        assert det_certified(40, table) == det and det_certified(9, table)
        assert calls == {"entry_matrix": 1, "_mul_mod": 1}

    def test_stored_product_is_read_only(self):
        table = build_table(20, qp(3))
        for r in (table._r, certificate_product(table, 12)):
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[0, 0] = 1

    @pytest.mark.parametrize("L", [1, 7, 39])
    def test_leading_block_is_a_fresh_product(self, L):
        table = build_table(40, qp(12345))
        b = table.padded()[1 : L + 1, 1 : L + 1]
        fresh = _mul_mod(okada_slice(L, table.qpoint()), b.T, P.p)
        assert np.array_equal(certificate_product(table, L), fresh)

    def test_copies_compute_their_own_product(self, tmp_path):
        table = build_table(30, qp(12345))
        assert check_soichi(table, 30).passed
        bad = table.with_value(17, 4, table.value(17, 4) + 1)
        assert {f["n"] for f in check_soichi(bad, 30).failures} == {17}
        assert check_soichi(table, 30).passed
        loaded = load_table(table.save_text(tmp_path / "t.txt"))
        for copy, n in ((table.truncated(20), 20), (loaded, 30)):
            assert copy._r is None
            assert np.array_equal(certificate_product(copy, n), certificate_product(table, n))
            assert copy._r.shape == (n, n)


class TestDeterminantOracles:
    def test_scalar_results_are_plain_ints(self):
        # every public scalar function returns a residue in [0, p) as a plain int
        for q in (1, 3):
            qpt = qp(q)
            results = [
                qbinom(5, 2, qpt),
                qbinom(5, 7, qpt),
                okada_entry(3, 2, qpt),
                qtspp_orbit_product(4, qpt),
                nice_ratio(4, qpt),
                det_direct(4, qpt),
                det_certified(4, build_table(4, qpt)),
                cofactor_by_minors(4, 2, qpt),
            ]
            for v in results:
                assert type(v) is int and 0 <= v < P.p

    def test_det_direct_matches_entry_at_n1(self):
        for q in GOOD_Q:
            assert det_direct(1, qp(q)) == okada_entry(1, 1, qp(q))

    def test_det_direct_n2_unit(self):
        # det [[4, 3], [1, 7]] = 25
        assert det_direct(2, qp(1)) == 25

    def test_det_certified_n2_unit(self):
        t = build_table(2, qp(1))
        assert det_certified(2, t) == 25

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
                sq = qtspp_orbit_product(n, qpt)
                assert det_direct(n, qpt) == sq * sq % P.p


class TestMinorsOracle:
    def test_trivial(self):
        assert cofactor_by_minors(1, 1, qp(9)) == 1

    def test_n2_unit(self):
        got = cofactor_by_minors(2, 1, qp(1))
        assert got == (-3 * pow(4, -1, P.p)) % P.p

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

    def test_header_and_sorting(self, tmp_path):
        t = build_table(3, qp(9))
        lines = t.to_text().splitlines()
        assert lines[0] == f"9 {P.p} 3"
        triples = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
        assert [(n, j) for n, j, _ in triples] == [
            (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
        ]

    def test_rejects_duplicate_position_text(self, tmp_path):
        bad = tmp_path / "dup.txt"
        bad.write_text(f"3 {P.p} 2\n1 1 1\n2 1 5\n2 1 7\n")
        with pytest.raises(ValueError, match=r"\(2, 1\) appears twice"):
            load_table(bad)

    def test_rejects_the_retired_binary_layout(self, tmp_path):
        # magic, a (q, p, n_max) header and (n, j, value) triples, little endian
        t = build_table(3, qp(9))
        data = b"QTB1" + struct.pack("<QQQ", 9, P.p, 3)
        data += b"".join(struct.pack("<IIQ", n, j, t.value(n, j))
                         for n in range(1, 4) for j in range(1, n + 1))
        old = tmp_path / "t.bin"
        old.write_bytes(data)
        with pytest.raises(InvalidInput) as exc:
            load_table(old)
        assert str(exc.value).startswith(f"malformed table file {old}: ")

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2147483647 2\n1 1 1\n")
        with pytest.raises(ValueError):
            load_table(bad)

    def test_header_is_checked_before_allocating(self, tmp_path):
        # a two-line file whose header claims n_max = 4000 (8,002,000 triples)
        bad = tmp_path / "short.txt"
        bad.write_text(f"3 {P.p} 4000\n1 1 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput, match=rf"{bad.name}.*expected 8002000 triples, got 1"):
                load_table(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
