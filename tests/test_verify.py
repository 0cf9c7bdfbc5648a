import dataclasses
import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from qtspp import okada, verify
from qtspp.cofactors import build_table, certificate_product
from qtspp.fieldcore import IntegerPoly, InvalidInput, PrimeModulus, SingularMatrix, matvec_mod
from qtspp.guessing import SymbolicRecurrence, load_recurrence
from qtspp.okada import (
    DegenerateDenominator,
    QPoint,
    has_admissible_order,
    nice_ratio,
    okada_entry,
    okada_entry_q1,
    okada_slice,
    qtspp_orbit_product,
)
from qtspp.verify import (
    OrbitPoset,
    SizeLimit,
    _ct_kernel_series,
    brute_force_qtspp,
    check_extended,
    check_leading_factor_vanishing,
    check_normalization,
    check_okada,
    check_soichi,
    cofactor_rows_q1_exact,
    ct_check_q1,
    select_q_points,
)

P = PrimeModulus()
ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixtures" / "recurrence-symbolic.json"


def qp(q):
    return QPoint(q, P)


class TestOrbitPoset:
    def test_element_count(self):
        for n in range(6):
            poset = OrbitPoset.build(n)
            assert len(poset.elements) == n * (n + 1) * (n + 2) // 6

    def test_order_axioms(self):
        poset = OrbitPoset.build(3)
        els = poset.elements
        for a in els:
            assert OrbitPoset.leq(a, a)
        for a in els:
            for b in els:
                if OrbitPoset.leq(a, b) and OrbitPoset.leq(b, a):
                    assert a == b
                for c in els:
                    if OrbitPoset.leq(a, b) and OrbitPoset.leq(b, c):
                        assert OrbitPoset.leq(a, c)

    def test_down_sets(self):
        poset = OrbitPoset.build(2)
        below = poset.down_sets()
        sizes = sorted(len(s) for s in below)
        assert sizes == [1, 2, 3, 4]  # the n=2 orbit poset is a chain


class TestBruteForce:
    def test_n1(self):
        assert brute_force_qtspp(1) == IntegerPoly([1, 1])

    def test_n2_chain(self):
        assert brute_force_qtspp(2) == IntegerPoly([1, 1, 1, 1, 1])

    def test_counts(self):
        assert [brute_force_qtspp(n)(1) for n in range(5)] == [1, 2, 5, 16, 66]

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            brute_force_qtspp(5)

    def test_matches_product_formula(self):
        qs = select_q_points(30, 4, P, seed=5150)
        for n in range(1, 5):
            poly = brute_force_qtspp(n)
            for q in qs:
                want = qtspp_orbit_product(n, qp(q))
                assert poly.eval_mod(q % P.p, P.p) == want


class TestIdentityChecks:
    def test_soichi_vacuous(self):
        t = build_table(1, qp(5))
        rep = check_soichi(t, 1)
        assert rep.passed and rep.checks == 0

    def test_soichi_passes(self):
        tables = [build_table(12, qp(q)) for q in (3, 5, 103)]
        rep = check_soichi(tables, 12)
        assert rep.passed
        assert rep.checks == 3 * sum(n - 1 for n in range(2, 13))

    def test_soichi_detects_corruption(self):
        t = build_table(10, qp(7))
        bad = t.with_value(6, 2, (t.value(6, 2) + 1) % P.p)
        rep = check_soichi(bad, 10)
        assert not rep.passed
        assert {f["n"] for f in rep.failures} == {6}

    def test_okada_row_one(self):
        for q in (3, 5, 19):
            t = build_table(1, qp(q))
            rep = check_okada(t, 1)
            assert rep.passed
            # both sides are the (1,1) entry, the squared binomial
            assert okada_entry(1, 1, qp(q)) == nice_ratio(1, qp(q))

    def test_okada_unit_point(self):
        t = build_table(5, qp(1))
        rep = check_okada(t, 5)
        assert rep.passed

    def test_okada_detects_corruption(self):
        t = build_table(10, qp(3))
        bad = t.with_value(8, 8, 0)  # break normalization, hence the sum
        rep = check_okada(bad, 10)
        assert not rep.passed

    def test_normalization(self):
        t = build_table(9, qp(23))
        assert check_normalization(t).passed
        bad = t.with_value(4, 4, 2)
        rep = check_normalization(bad)
        assert not rep.passed and rep.failures[0]["n"] == 4

    def test_normalization_single_row(self):
        assert check_normalization(build_table(1, qp(3))).passed


def per_row_soichi(table, L):
    """check_soichi's failures by the per-row residual loop it replaced."""
    p = table.modulus.p
    a = okada_slice(L, table.qpoint())
    out = []
    for n in range(2, L + 1):
        res = matvec_mod(a[: n - 1, :n], table.row(n), p)
        out += [
            {"q": table.q_int, "n": n, "i": int(i) + 1, "residual": int(res[i])}
            for i in np.nonzero(res)[0]
        ]
    return out


def per_row_sums(table, L):
    """Row n's certificate sum, sum over j of a(n, j) B(n, j), row by row."""
    p = table.modulus.p
    a = okada_slice(L, table.qpoint())
    return [int((a[n - 1, :n] * table.row(n) % p).sum() % p) for n in range(1, L + 1)]


def per_row_okada(table, L):
    """check_okada's failures by the per-row loop it replaced."""
    qpt = table.qpoint()
    out = []
    for n, lhs in enumerate(per_row_sums(table, L), start=1):
        rhs = nice_ratio(n, qpt)
        if lhs != rhs:
            out.append({"q": table.q_int, "n": n, "lhs": lhs, "rhs": rhs})
    return out


def failures_or_error(failures):
    try:
        return failures()
    except DegenerateDenominator as exc:
        return str(exc)


class TestCertificateProduct:
    """check_soichi and check_okada read R = A B^T; the per-row loops are the reference."""

    @pytest.fixture(scope="class", params=[(40, 12345), (60, 2**5), (60, 1)], ids=str)
    def tables(self, request):
        n, q = request.param
        t = build_table(n, qp(q))
        return n, [
            t,
            t.with_value(n // 2, 3, t.value(n // 2, 3) + 1),
            t.with_value(n, n, 0),
            t.with_value(7, 1, 0).with_value(n - 1, n - 5, 12345),
        ]

    def test_soichi_failures_match(self, tables):
        n, ts = tables
        for t in ts:
            rep = check_soichi(t, n)
            assert rep.failures == per_row_soichi(t, n)
            assert rep.checks == sum(m - 1 for m in range(2, n + 1))
        assert not check_soichi(ts[1], n).passed and not check_soichi(ts[3], n).passed

    def test_okada_failures_match(self, tables):
        n, ts = tables
        for t in ts:
            got = failures_or_error(lambda: check_okada(t, n).failures)
            assert got == failures_or_error(lambda: per_row_okada(t, n))
            assert np.diagonal(certificate_product(t, n)).tolist() == per_row_sums(t, n)

    def test_checks_run_where_the_layer_is_defined(self, tables):
        # q = 2**5 has order 31: layer 11 divides by 1 - q**31, so okada stops there
        n, ts = tables
        if ts[0].q_int == 2**5:
            with pytest.raises(DegenerateDenominator, match=r"q\*\*31 = 0"):
                check_okada(ts[0], n)
        else:
            assert check_okada(ts[0], n).passed and not check_okada(ts[2], n).passed

    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_wrong_layer_fails_okada_at_that_n(self, monkeypatch, k):
        assert has_admissible_order(12345, P, 30)
        table = build_table(30, qp(12345))
        layers = okada._layers
        monkeypatch.setattr(
            okada, "_layers", lambda ns, qpt: (layers(ns, qpt) + np.equal(ns, k)) % P.p
        )
        assert [f["n"] for f in check_okada(table, 30).failures] == [k]


class TestLargestModulus:
    def test_identity_suite(self):
        # 3037000493 is the largest prime <= MAX_MODULUS
        big = PrimeModulus(3037000493)
        qs = select_q_points(3, 30, big)
        tables = [build_table(30, QPoint(q, big)) for q in qs]
        for rep in (
            check_soichi(tables, 30),
            check_okada(tables, 30),
            check_normalization(tables),
        ):
            assert rep.passed and rep.checks > 0, rep.summary_line()


class TestSelectQPoints:
    def test_deterministic(self):
        a = select_q_points(8, 40, P)
        b = select_q_points(8, 40, P)
        assert a == b and len(set(a)) == 8

    @pytest.mark.parametrize("p, count, n_bound", [(101, 20, 40), (3, 20, 5), (13, 5, 3)])
    def test_exhausted_modulus_raises(self, p, count, n_bound):
        # every candidate in [2, p - 2] is drawn, too few clear the order bound
        with pytest.raises(InvalidInput, match=rf"^p={p} has fewer than {count} q points"
                                               rf" of order >= 4\*{n_bound};"):
            select_q_points(count, n_bound, PrimeModulus(p))

    def test_last_candidate_is_drawn(self):
        # the four primitive roots mod 13 are all of its q points of order >= 12
        assert sorted(select_q_points(4, 3, PrimeModulus(13))) == [2, 6, 7, 11]

    def test_all_admissible(self):
        for q in select_q_points(12, 50, P, seed=99):
            assert P.multiplicative_order(q % P.p) >= 200


class TestExtended:
    def test_annihilation_small(self, symbolic_rec):
        rep = check_extended(symbolic_rec, 7, P.p, 45)
        assert rep.passed and rep.checks == 45 * 23

    def test_fresh_points_beyond_sweep(self, symbolic_rec):
        # q points never used in the discovery sweep
        for q in (151, 155, 160):
            assert q not in symbolic_rec.q_points_used
            assert check_extended(symbolic_rec, q, P.p, 40).passed

    @pytest.mark.parametrize("q, order", [(P.p - 1, 2), (pow(7, (P.p - 1) // 3, P.p), 3)])
    def test_small_order_is_refused(self, symbolic_rec, q, order):
        with pytest.raises(SingularMatrix, match=f"^q has multiplicative order {order}$"):
            check_extended(symbolic_rec, q, P.p, 12)

    def test_random_recurrence_fails(self, symbolic_rec):
        rng = random.Random(8)
        fake = SymbolicRecurrence(
            support=symbolic_rec.support,
            pivot_term=symbolic_rec.pivot_term,
            coefficients=[
                IntegerPoly([rng.randrange(-9, 10) for _ in range(3)] + [1])
                for _ in symbolic_rec.coefficients
            ],
            prime=P.p,
            q_points_used=[],
        )
        rep = check_extended(fake, 7, P.p, 30)
        assert not rep.passed
        assert len(rep.failures) > 100


class TestLeadingFactor:
    def test_negative_control(self, symbolic_rec):
        rng = random.Random(21)
        fake = SymbolicRecurrence(
            support=symbolic_rec.support,
            pivot_term=symbolic_rec.pivot_term,
            coefficients=[
                IntegerPoly([rng.randrange(1, 50)]) for _ in symbolic_rec.coefficients
            ],
            prime=P.p,
            q_points_used=[],
        )
        rep = check_leading_factor_vanishing(fake, trials=30)
        assert not rep.passed

    def test_top_shift_constant_term_off_by_one_fails_every_draw(self):
        rec = load_recurrence(FIXTURE)
        assert check_leading_factor_vanishing(rec).passed
        gmax = rec.support.max_shift_j
        k, (a, b, _) = next((k, t) for k, t in enumerate(rec.support.terms) if t[2] == gmax)
        c = rec.coefficients[k].coeffs
        coeffs = list(rec.coefficients)
        coeffs[k] = IntegerPoly([c[0] + 1, *c[1:]])
        rep = check_leading_factor_vanishing(dataclasses.replace(rec, coefficients=coeffs))
        # P vanishes at every draw, so the bad P reads the added x**a * y**b there
        assert rep.checks == 200 and len(rep.failures) == 200
        for f in rep.failures:
            assert f["value"] == pow(f["x"], a, P.p) * pow(f["y"], b, P.p) % P.p != 0

    # moves of one factor's exponent that do not land on another of the six
    @pytest.mark.parametrize(
        "kind, delta", [(0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (3, 1), (4, -1), (5, 1)]
    )
    def test_exponent_off_by_one_fails_the_order_8_run(self, order8_run, monkeypatch, kind, delta):
        sym = load_recurrence(order8_run[2] / "recurrence-symbolic.json")
        assert check_leading_factor_vanishing(sym).passed
        offsets = list(verify.LEADING_FACTOR_OFFSETS)
        offsets[kind] -= delta
        monkeypatch.setattr(verify, "LEADING_FACTOR_OFFSETS", tuple(offsets))
        rep = check_leading_factor_vanishing(sym)
        assert len(rep.failures) == len(range(kind, 200, 6))
        assert {f["factor"] for f in rep.failures} == {kind}


class TestConstantTermRoute:
    def test_exact_rows_match_modular(self):
        rows = cofactor_rows_q1_exact(8)
        t = build_table(8, qp(1))
        for n in range(1, 9):
            for j in range(1, n + 1):
                frac = rows[n - 1][j - 1]
                want = frac.numerator * pow(frac.denominator, -1, P.p) % P.p
                assert t.value(n, j) == want

    def test_exact_rows_refuse_a_vanishing_minor(self, monkeypatch):
        entry = verify.okada_entry_q1
        monkeypatch.setattr(verify, "okada_entry_q1", lambda i, j: 0 if i == j == 1 else entry(i, j))
        with pytest.raises(SingularMatrix, match="row n=2: the leading 1-minor vanishes"):
            cofactor_rows_q1_exact(6)

    def test_exact_small(self):
        rep = ct_check_q1(12)
        assert rep.passed and rep.details["mode"] == "exact-rational"
        assert rep.checks == sum(n for n in range(1, 13))

    def test_modular_matches_exact(self):
        t = build_table(14, qp(1))
        a = ct_check_q1(14)
        b = ct_check_q1(14, table=t)
        assert a.passed and b.passed

    def test_agreement_under_fault(self):
        t = build_table(10, qp(1))
        bad = t.with_value(7, 3, (t.value(7, 3) + 1) % P.p)
        direct_s = check_soichi(bad, 10)
        direct_o = check_okada(bad, 10)
        ct = ct_check_q1(10, table=bad)
        assert not ct.passed
        assert not (direct_s.passed and direct_o.passed)
        # the constant-term residuals are the same sums: same failing rows
        ct_rows = {f["n"] for f in ct.failures}
        direct_rows = {f["n"] for f in direct_s.failures} | {
            f["n"] for f in direct_o.failures
        }
        assert ct_rows == direct_rows

    def test_requires_unit_table(self):
        t = build_table(5, qp(3))
        with pytest.raises(ValueError):
            ct_check_q1(5, table=t)

    def test_kernel_coefficients_are_the_q1_entries(self):
        # the constant-term sum is sum over m of a(i, m) * B(n, m): Pascal's rule
        for i in range(1, 41):
            g = _ct_kernel_series(i, 41)
            assert g[1:] == [okada_entry_q1(i, m) for m in range(1, 41)]
            # x**0 only ever multiplies the out-of-range B(n, 0) = 0
            assert g[0] == (-1 if i == 1 else 0)

    def test_kernel_coefficient_off_by_one_fails_its_shift(self, monkeypatch):
        kernel = verify._ct_kernel_series

        def bad(i, order):
            g = kernel(i, order)
            if i == 3:
                g[5] += 1
            return g

        monkeypatch.setattr(verify, "_ct_kernel_series", bad)
        rep = ct_check_q1(12)
        assert [(f["n"], f["i"]) for f in rep.failures] == [(n, 3) for n in range(5, 13)]

    def test_ratio_off_by_one_fails_its_diagonal(self, monkeypatch):
        ratio = verify.nice_ratio_q1_exact
        monkeypatch.setattr(verify, "nice_ratio_q1_exact", lambda n: ratio(n) + (n == 7))
        rep = ct_check_q1(12)
        assert [(f["n"], f["i"]) for f in rep.failures] == [(7, 7)]
        assert rep.failures[0]["value"] == str(ratio(7))

    #: sha256 of to_json() at n = 30, pinned from the series-division kernel
    REPORT_DIGESTS = {
        "exact": "39e37c062752434fd2076300b9a6bd4f44641e24f4478ad21cb0042a33406e2b",
        "modular": "96676b99a0ee4ad32ce2eec6c7e87713b8509221589cc658f3c98bad014f769d",
        "fault": "b65c2acde5418b8482458b46a7c62619a1e3324a2c9da0baff34092baf1e215f",
    }

    @pytest.mark.parametrize("kind", sorted(REPORT_DIGESTS))
    def test_report_bytes(self, kind):
        t = build_table(30, qp(1))
        table = {
            "exact": None,
            "modular": t,
            # entry (17, 5) + 1: the failure records carry their values
            "fault": t.with_value(17, 5, (t.value(17, 5) + 1) % P.p),
        }[kind]
        text = ct_check_q1(30, table=table).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORT_DIGESTS[kind]


class TestReportSerialization:
    def test_round_trip_and_determinism(self, tmp_path):
        t = build_table(6, qp(5))
        rep = check_soichi(t, 6)
        p1 = rep.save(tmp_path / "r1.json")
        rep2 = check_soichi(t, 6)
        p2 = rep2.save(tmp_path / "r2.json")
        # a report holds evidence only, so a rerun serializes identically
        assert p1.read_bytes() == p2.read_bytes()
        assert rep.summary_line().startswith("PASS soichi")
