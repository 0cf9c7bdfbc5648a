import argparse
import contextlib
import hashlib
import io
import itertools
import json
import re
import shutil
import signal
import struct
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from qtspp import cli
from qtspp.cli import (
    MAX_ABS_COEFFICIENT,
    PipelineConfig,
    cmd_cofactors,
    cmd_guess,
    cmd_pipeline,
    cmd_verify,
    main,
)
from qtspp.cofactors import build_table, load_table
from qtspp.fieldcore import IntegerPoly, InvalidInput, PrimeModulus
from qtspp.guessing import (
    AnsatzSupport,
    ModularRecurrence,
    SymbolicRecurrence,
    load_recurrence,
    recurrence_to_json,
    save_recurrence,
)
from qtspp.okada import QPoint

P = PrimeModulus()
ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixtures" / "recurrence-symbolic.json"
SMALL_RECURRENCE = SymbolicRecurrence(
    support=AnsatzSupport(((0, 0, 0), (0, 0, 1))),
    pivot_term=(0, 0, 0),
    coefficients=[IntegerPoly([1]), IntegerPoly([-1])],
    prime=P.p,
    q_points_used=[2],
)


def config(tmp_path, **kw):
    kw.setdefault("out_dir", tmp_path)
    return PipelineConfig(**kw)


#: Seconds the clock of tick_clock advances per reading (exact in binary).
TICK = 1.25


def tick_clock(monkeypatch):
    """Replace cli's clock by one that advances TICK seconds per reading."""
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=itertools.count(0, TICK).__next__))


def report_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith(("PASS ", "FAIL "))]


def implausible_recurrence(monkeypatch):
    """Make the sweep return nothing and reconstruction a coefficient of 44."""
    support = AnsatzSupport(((0, 0, 0), (0, 0, 1)))
    fake = SymbolicRecurrence(
        support=support,
        pivot_term=(0, 0, 0),
        coefficients=[IntegerPoly([1]), IntegerPoly([3, MAX_ABS_COEFFICIENT + 1])],
        prime=P.p,
        q_points_used=[2],
    )
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: [])
    monkeypatch.setattr(cli, "reconstruct_symbolic", lambda recs: fake)


class TestPipelineConfig:
    def test_defaults(self):
        c = PipelineConfig()
        assert c.prime == 2**31 - 1
        assert (c.n_max, c.alpha_max, c.beta_max, c.gamma_max) == (35, 4, 7, 10)
        assert (c.q_from, c.q_to) == (2, 150)
        assert (c.n_ext, c.L, c.L_q1) == (120, 40, 60)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_max=10)
        with pytest.raises(ValueError):
            PipelineConfig(q_from=9, q_to=8)
        with pytest.raises(ValueError):
            PipelineConfig(workers=0)
        with pytest.raises(ValueError, match="sweeps start at q >= 2"):
            PipelineConfig(q_from=1)
        for bound in ("alpha_max", "beta_max", "gamma_max"):
            with pytest.raises(InvalidInput, match="negative ansatz bound"):
                PipelineConfig(**{bound: -1})
        for bound in ("n_ext", "L", "L_q1"):
            for value in (0, -3):
                with pytest.raises(InvalidInput, match=f"^{bound} must be >= 1, got {value}$"):
                    PipelineConfig(**{bound: value})
        assert PipelineConfig(alpha_max=0, beta_max=0, gamma_max=0).gamma_max == 0
        assert PipelineConfig(n_ext=1, L=1, L_q1=1).L_q1 == 1


class TestCofactorsCommand:
    def test_writes_readable_file(self, tmp_path, capsys):
        c = config(tmp_path, n_max=12)
        path = cmd_cofactors(c, 5)
        assert path.exists()
        table = load_table(path)
        assert table == build_table(12, QPoint(5, P))
        assert "630" not in capsys.readouterr().out  # 12 rows, not 35

    def test_deterministic_bytes(self, tmp_path):
        c = config(tmp_path, n_max=11)
        p1 = cmd_cofactors(c, 7).read_bytes()
        p2 = cmd_cofactors(c, 7).read_bytes()
        assert p1 == p2

    def test_binary_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cofactors", "--binary", "--out", str(tmp_path)])

    def test_refuses_tiny_order(self, tmp_path, capsys):
        # p - 1 has multiplicative order 2 < MIN_Q_ORDER
        rc = main(["cofactors", "--q", str(P.p - 1), "--n-max", "12",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: q has multiplicative order 2\n"
        assert not (tmp_path / "out").exists()

    def test_q1_dispatch(self, tmp_path):
        rc = main(["cofactors", "--q1", "--n-max", "11", "--out", str(tmp_path)])
        assert rc == 0
        table = load_table(tmp_path / "cofactors-q1-n11.txt")
        assert table.q_int == 1


class TestGuessCommand:
    def test_defaults_fingerprint(self, tmp_path, capsys):
        c = config(tmp_path)
        path = cmd_guess(c, 2)
        out = capsys.readouterr().out
        assert "nullspace dimension 1" in out
        assert "110 of 440" in out
        rec = load_recurrence(path)
        assert rec.nullspace_dim == 1

    def test_no_recurrence_without_shifts(self, tmp_path, capsys):
        # a pure (alpha, beta) ansatz has no relation to find
        rc = main([
            "guess", "--q", "5", "--n-max", "8",
            "--alpha-max", "2", "--beta-max", "2", "--gamma-max", "0",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "full column rank" in capsys.readouterr().err

    def test_from_table_file(self, tmp_path):
        c = config(tmp_path)
        tfile = cmd_cofactors(c, 2)
        path = cmd_guess(c, 2, in_path=tfile)
        assert load_recurrence(path).zero_count() == 110


class TestVerifyCommand:
    def test_normalization_small(self, tmp_path):
        c = config(tmp_path, L=8, q_count=3)
        assert cmd_verify(c, "normalization") == 0
        report = json.loads((tmp_path / "report-normalization.json").read_text())
        assert report["passed"] and len(report["q_points"]) == 3

    def test_soichi_and_okada_small(self, tmp_path):
        c = config(tmp_path, L=8, q_count=3)
        assert cmd_verify(c, "soichi") == 0
        assert cmd_verify(c, "okada") == 0

    def test_q1_variant(self, tmp_path):
        c = config(tmp_path, L_q1=12)
        assert cmd_verify(c, "soichi", q1=True) == 0
        assert (tmp_path / "report-soichi-q1.json").exists()

    def test_brute(self, tmp_path):
        c = config(tmp_path)
        assert cmd_verify(c, "brute") == 0
        report = json.loads((tmp_path / "report-brute.json").read_text())
        assert report["details"]["count_n4"] == 66

    def test_ct(self, tmp_path):
        c = config(tmp_path)
        assert cmd_verify(c, "ct", ct_bound=8) == 0

    def test_extended_needs_input(self, tmp_path):
        c = config(tmp_path)
        with pytest.raises(Exception):
            cmd_verify(c, "extended", in_path=None)

    def test_extended_via_main(self, tmp_path, symbolic_rec):
        rec_path = save_recurrence(symbolic_rec, tmp_path / "sym.json")
        rc = main([
            "verify", "extended", "--q", "7", "--n-ext", "40",
            "--in", str(rec_path), "--out", str(tmp_path),
        ])
        assert rc == 0

    def test_extended_refuses_tiny_order(self, tmp_path, capsys):
        # checked before the recurrence file is read: it need not exist
        rc = main([
            "verify", "extended", "--q", str(P.p - 1),
            "--in", str(tmp_path / "missing.json"), "--out", str(tmp_path),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: q has multiplicative order 2\n"

    def test_extended_detects_corruption(self, tmp_path, symbolic_rec):
        doc = json.loads(save_recurrence(symbolic_rec, tmp_path / "s.json").read_text())
        doc["coefficients"][5] = [1, 2, 3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main([
            "verify", "extended", "--q", "7", "--n-ext", "40",
            "--in", str(bad), "--out", str(tmp_path),
        ])
        assert rc == 1

    @pytest.mark.parametrize(
        "craft, message",
        [
            (lambda cs: [], "0 coefficient polynomials for 330 support terms"),
            (lambda cs: cs[:1], "1 coefficient polynomials for 330 support terms"),
            (lambda cs: [[] for _ in cs], "zero coefficient polynomial"),
        ],
        ids=["empty", "truncated", "all-zero"],
    )
    def test_extended_refuses_malformed_recurrence(
        self, tmp_path, capsys, symbolic_rec, craft, message
    ):
        doc = json.loads(save_recurrence(symbolic_rec, tmp_path / "s.json").read_text())
        doc["coefficients"] = craft(doc["coefficients"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main([
            "verify", "extended", "--q", "3", "--n-ext", "40",
            "--in", str(bad), "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "report-extended-q3.json").exists()


    @pytest.mark.parametrize("q", [2, 151])
    def test_extended_at_a_second_prime(self, tmp_path, q):
        # the committed integer polynomials annihilate a fresh table mod the
        # largest admissible prime too, not only mod 2**31 - 1
        rc = main([
            "verify", "extended", "--prime", "3037000493", "--q", str(q), "--n-ext", "60",
            "--in", str(FIXTURE), "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / f"report-extended-q{q}.json").read_text())
        assert report["passed"] and report["checks"] > 0

    @pytest.mark.parametrize(
        "craft, message",
        [
            (lambda doc, k: [], "0 coefficients for 440 support terms"),
            (lambda doc, k: doc["coefficients"][:k] + [0] + doc["coefficients"][k + 1:],
             "has a zero coefficient"),
        ],
        ids=["empty", "zero-pivot"],
    )
    def test_extended_refuses_malformed_modular_recurrence(
        self, tmp_path, capsys, modular_rec, craft, message
    ):
        doc = json.loads(save_recurrence(modular_rec, tmp_path / "m.json").read_text())
        k = modular_rec.support.terms.index(modular_rec.pivot_term)
        doc["coefficients"] = craft(doc, k)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main([
            "verify", "extended", "--q", "3", "--n-ext", "40",
            "--in", str(bad), "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestBadInput:
    """Input validation ends in one error line and exit status 1."""

    def run(self, capsys, *argv):
        rc = main(list(argv))
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "Traceback" not in err
        return err

    def test_config(self, tmp_path, capsys):
        err = self.run(capsys, "guess", "--n-max", "1", "--out", str(tmp_path))
        assert "n_max must exceed gamma_max" in err

    @pytest.mark.parametrize(
        "flag, bounds", [("--alpha-max", "(-1, 7, 10)"), ("--beta-max", "(4, -1, 10)")]
    )
    def test_negative_bound_writes_nothing(self, tmp_path, capsys, flag, bounds):
        out = tmp_path / "out"
        err = self.run(capsys, "pipeline", flag, "-1", "--out", str(out))
        assert err == f"error: negative ansatz bound in {bounds}\n"
        assert not out.exists()

    @pytest.mark.parametrize("prime, L", [("101", "40"), ("3", "5")])
    def test_too_few_q_points(self, tmp_path, capsys, prime, L):
        err = self.run(capsys, "verify", "soichi", "--prime", prime, "--L", L,
                       "--out", str(tmp_path))
        assert err == (f"error: p={prime} has fewer than 20 q points of order >= 4*{L}; "
                       "use a larger prime or a smaller bound\n")

    def test_modulus(self, tmp_path, capsys):
        err = self.run(capsys, "cofactors", "--prime", "4", "--out", str(tmp_path))
        assert "modulus 4 is not prime" in err

    def test_malformed_table_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2147483647 2\n1 1 1\n2 1\n")
        err = self.run(capsys, "guess", "--n-max", "12", "--in", str(bad), "--out", str(tmp_path))
        assert f"malformed table file {bad}" in err

    def test_retired_binary_table_file(self, tmp_path, capsys):
        old = tmp_path / "t.bin"
        old.write_bytes(b"QTB1" + struct.pack("<QQQ", 2, P.p, 1) + struct.pack("<IIQ", 1, 1, 1))
        err = self.run(capsys, "guess", "--n-max", "12", "--in", str(old), "--out", str(tmp_path))
        assert err.startswith(f"error: malformed table file {old}: ") and err.count("\n") == 1

    def test_repeated_position(self, tmp_path, capsys):
        bad = tmp_path / "twice.txt"
        bad.write_text("2 2147483647 2\n1 1 1\n2 1 5\n2 1 5\n")
        err = self.run(capsys, "guess", "--n-max", "12", "--in", str(bad), "--out", str(tmp_path))
        assert "position (2, 1) appears twice" in err

    def test_missing_table_file(self, tmp_path, capsys):
        gone = tmp_path / "gone.txt"
        err = self.run(capsys, "guess", "--n-max", "12", "--in", str(gone), "--out", str(tmp_path))
        assert f"cannot read table file {gone}" in err

    def verify_extended(self, tmp_path, capsys, path):
        return self.run(
            capsys, "verify", "extended", "--q", "3", "--n-ext", "40",
            "--in", str(path), "--out", str(tmp_path),
        )

    def recurrence_file(self, tmp_path, **changes):
        """SMALL_RECURRENCE as a file, with keys changed, or dropped where None."""
        doc = json.loads(recurrence_to_json(SMALL_RECURRENCE))
        doc.update(changes)
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        return path

    def test_recurrence_file_is_well_formed(self, tmp_path):
        rec = load_recurrence(self.recurrence_file(tmp_path))
        assert recurrence_to_json(rec) == recurrence_to_json(SMALL_RECURRENCE)

    @pytest.mark.parametrize("key", ["support", "bounds", "pivot", "mode", "coefficients", "prime"])
    def test_recurrence_missing_key(self, tmp_path, capsys, key):
        path = self.recurrence_file(tmp_path, **{key: None})
        err = self.verify_extended(tmp_path, capsys, path)
        assert f"recurrence file {path} has no '{key}' key" in err

    def test_recurrence_unknown_mode(self, tmp_path, capsys):
        path = self.recurrence_file(tmp_path, mode="p-adic")
        err = self.verify_extended(tmp_path, capsys, path)
        assert f"recurrence file {path} has unknown mode 'p-adic'" in err

    def test_recurrence_not_json(self, tmp_path, capsys):
        path = tmp_path / "rec.json"
        path.write_text("{support")
        err = self.verify_extended(tmp_path, capsys, path)
        assert f"cannot read recurrence file {path}" in err

    def test_missing_recurrence_file(self, tmp_path, capsys):
        gone = tmp_path / "gone.json"
        err = self.verify_extended(tmp_path, capsys, gone)
        assert f"cannot read recurrence file {gone}" in err

    def test_bad_q_before_the_file(self, tmp_path, capsys):
        gone = tmp_path / "gone.json"
        err = self.run(capsys, "verify", "extended", "--q", "-5", "--in", str(gone), "--out", str(tmp_path))
        assert "q must be a positive integer, got -5" in err and str(gone) not in err

    @pytest.mark.parametrize(
        "support, message",
        [
            ([[0, 0, 0], [0, 0, -1]], "negative exponent in term (0, 0, -1)"),
            ([[0, 0, 0], [0, 1]], "term (0, 1) is not an (alpha, beta, gamma) triple"),
            ([[0, 0, 0], [0, 0, 1.5]], "1.5 is not an integer"),
        ],
        ids=["negative", "pair", "fraction"],
    )
    def test_recurrence_bad_support_term(self, tmp_path, capsys, support, message):
        path = self.recurrence_file(tmp_path, support=support)
        err = self.verify_extended(tmp_path, capsys, path)
        assert f"malformed recurrence file {path}" in err and message in err

    def modular_recurrence_file(self, tmp_path, coefficients):
        rec = ModularRecurrence(SMALL_RECURRENCE.support, 3, P.p, [1, P.p - 1], (0, 0, 0), 1)
        doc = json.loads(recurrence_to_json(rec))
        doc["coefficients"] = coefficients
        path = tmp_path / "modular.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("mode", ["symbolic", "modular"])
    @pytest.mark.parametrize("value, message", [(1.5, "1.5 is not an integer"),
                                                ("x", "'x' is not an integer")])
    def test_recurrence_non_integer_coefficient(self, tmp_path, capsys, mode, value, message):
        # 1.5 used to be truncated to 1 without a word
        if mode == "symbolic":
            path = self.recurrence_file(tmp_path, coefficients=[[value], [-1]])
        else:
            path = self.modular_recurrence_file(tmp_path, [value, P.p - 1])
        err = self.verify_extended(tmp_path, capsys, path)
        assert f"malformed recurrence file {path}" in err and message in err
        assert not (tmp_path / "report-extended-q3.json").exists()

    def test_modular_recurrence_file_is_well_formed(self, tmp_path):
        rec = load_recurrence(self.modular_recurrence_file(tmp_path, [1, P.p - 1]))
        assert rec.q_int == 3 and list(rec.coefficients) == [1, P.p - 1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--q", "3"], "modular recurrence is bound to q=2, table has q=3"),
            (["--q", "2", "--prime", "3037000493"], "recurrence and table prime differ"),
        ],
        ids=["q", "prime"],
    )
    def test_mismatched_modular_recurrence(self, tmp_path, capsys, modular_rec, argv, message):
        path = save_recurrence(modular_rec, tmp_path / "recurrence-modular-q2.json")
        err = self.run(capsys, "verify", "extended", "--n-ext", "40", *argv,
                       "--in", str(path), "--out", str(tmp_path))
        assert message in err

    @pytest.mark.parametrize("flag", ["--alpha-max", "--gamma-max"])
    def test_negative_ansatz_bound(self, tmp_path, capsys, flag):
        err = self.run(capsys, "guess", flag, "-1", "--out", str(tmp_path))
        assert "negative ansatz bound" in err

    @pytest.mark.parametrize("command", ["guess", "reconstruct"])
    def test_table_at_another_prime(self, tmp_path, capsys, command):
        path = build_table(12, QPoint(3, PrimeModulus(3037000493))).save_text(tmp_path / "t.txt")
        err = self.run(capsys, command, "--n-max", "12", "--in", str(path), "--out", str(tmp_path))
        assert f"table in {path} is at p=3037000493, but --prime is {P.p}" in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["t.txt"]

    def test_reconstruct_reads_its_table_file(self, tmp_path, capsys):
        gone = tmp_path / "gone.txt"
        err = self.run(capsys, "reconstruct", "--in", str(gone), "--out", str(tmp_path))
        assert f"cannot read table file {gone}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cofactors", "--q", "-3"], "q must be a positive integer, got -3"),
            (["verify", "extended", "--q", "-5", "--in", str(FIXTURE)], "q must be a positive integer, got -5"),
            (["verify", "soichi", "--L", "0"], "L must be >= 1, got 0"),
            (["verify", "ct", "--L", "1"], "need n_max_ct >= 2"),
            (["reconstruct", "--q-from", "1"], "sweeps start at q >= 2"),
            (["pipeline", "--n-ext", "0"], "n_ext must be >= 1, got 0"),
            (["pipeline", "--L", "0"], "L must be >= 1, got 0"),
            (["pipeline", "--q1", "--L", "1"],
             "pipeline --q1 needs L >= 2 for its constant-term check, got 1"),
        ],
        ids=["cofactors-q", "extended-q", "soichi-L", "ct-L", "reconstruct-q-from",
             "pipeline-n-ext", "pipeline-L", "pipeline-q1-L"],
    )
    def test_out_of_range_argument(self, tmp_path, capsys, argv, message):
        assert message in self.run(capsys, *argv, "--out", str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestPipelineQ1:
    def test_q1_pipeline(self, tmp_path, capsys):
        c = config(tmp_path, L_q1=14)
        assert cmd_pipeline(c, q1=True) == 0
        out = capsys.readouterr().out
        assert "q=1 pipeline" in out
        assert (tmp_path / "cofactors-q1-n14.txt").exists()


#: sha256 of every file `qtspp pipeline` writes at the default configuration.
PIPELINE_SHA256 = {
    "cofactors-q2-n35.txt": "6868df68c77339a576bced85b2adb8d2bc1b6d2833d4b9df38c51146bb22cb92",
    "recurrence-modular-q2.json": "70b4cd12828e758064970de2fc932d9a841e15ae36de3a8812f3c346228a4a39",
    "recurrence-symbolic.json": "6eac503d9732e13127a291a526cb5d5d9fc91e9026a26b68d3ddd3b2e9955a25",
    "report-extended-q151.json": "a3b1f0406466db07e0363afd989631318874edbcbfc80daf5db5c15df5261604",
    "report-extended-q2.json": "2c53115a2cc6850a4419df96845a4e510ba0e7e6631c8c6ad1d783e60b9386b4",
    "report-leading-factor.json": "dd621a1634d15ca2d2ca5d13c000ceeb8d4deb95e5f0c61804c310ddf2d6ae4c",
    "report-normalization.json": "cc11ea998e30da26767455defe3e7a25f2a04f246c151eabca6c603297f2a914",
    "report-okada.json": "d6787f27edc8b3b6dc381f691382896dc9b5e0263b5d1ecf4c2cf189e946b1a8",
    "report-soichi.json": "d86112ea37021622df1fb6a5d8847433311f7ce64be1717ed56db0120c3dc510",
}

#: sha256 of every file `qtspp pipeline --q1` writes at the default configuration.
PIPELINE_Q1_SHA256 = {
    "cofactors-q1-n60.txt": "24532427ab687a3087f875422b0a6af21eed08e326abce81632361b25ca1c539",
    "report-brute.json": "fa2517ea7f0bc8aa44da7ab2f23472392e71bc856d5db3005e299cba6bf0f873",
    "report-ct-q1-q1.json": "39e37c062752434fd2076300b9a6bd4f44641e24f4478ad21cb0042a33406e2b",
    "report-normalization-q1.json": "9e8fc7e0ef855bfdd7c7eb77c7c485efe0308ee39b2fd2ba35e0d68b781a39bd",
    "report-okada-q1.json": "737f42e17fd4c15d6c11f6df08f3fc7d606594547bfc8778adffa9faf93c0749",
    "report-soichi-q1.json": "cd11dc34858521c59dc38bc2158fb06dacb6ff561277857f2fb080f5c95b910a",
}


def digests(directory: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in directory.iterdir()}


@pytest.fixture(scope="module")
def fixture_sweep(refined, modular_rec, sweep_recs):
    """A stand-in for cli.sweep that checks its arguments and returns the session sweep."""

    def stub(support, q_from, q_to, *, p, n_max, pivot_term, workers):
        assert (support, q_from, q_to) == (refined, 2, 150)
        assert (p, n_max, pivot_term) == (P.p, 35, modular_rec.pivot_term)
        return sweep_recs

    return stub


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, fixture_sweep):
    """The default pipeline's directory and stdout, with the session sweep and a ticking clock."""
    out = tmp_path_factory.mktemp("pipeline")
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(cli, "sweep", fixture_sweep)
        tick_clock(mp)
        assert cmd_pipeline(PipelineConfig(out_dir=out)) == 0
    return out, stdout.getvalue()


@pytest.fixture(scope="module")
def pipeline_dir(pipeline_run):
    return pipeline_run[0]


class TestPipelineArtifacts:
    """Every file of the default pipeline runs, pinned by digest."""

    def test_pipeline_files(self, pipeline_dir):
        assert digests(pipeline_dir) == PIPELINE_SHA256

    def test_q1_pipeline_files(self, tmp_path):
        assert cmd_pipeline(PipelineConfig(out_dir=tmp_path), q1=True) == 0
        assert digests(tmp_path) == PIPELINE_Q1_SHA256

    def test_flipped_byte_fails(self, tmp_path, pipeline_dir):
        shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
        target = tmp_path / "report-extended-q151.json"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))
        assert digests(tmp_path) != PIPELINE_SHA256

    def test_reconstruct_from_table_file(self, tmp_path, capsys, monkeypatch, fixture_sweep):
        # reconstruct reads --in like guess does, and writes the stage 2 file too
        monkeypatch.setattr(cli, "sweep", fixture_sweep)
        tfile = cmd_cofactors(config(tmp_path), 2)
        assert main(["reconstruct", "--in", str(tfile), "--out", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        for name in ("recurrence-modular-q2.json", "recurrence-symbolic.json"):
            assert digests(tmp_path)[name] == PIPELINE_SHA256[name]


#: sha256 of recurrence-symbolic.json from `pipeline --beta-max 8 --gamma-max 8`.
ORDER8_SYMBOLIC_SHA256 = "defa5f328c79f080f1d32d281406047deaddfd2f682c0da04f0f396c5e90ffbc"


class TestOrderEightPipeline:
    """`pipeline --workers 2 --beta-max 8 --gamma-max 8` finds an order-8 recurrence."""

    def test_every_stage_passes(self, order8_run):
        rc, stdout, _ = order8_run
        assert rc == 0
        lines = report_lines(stdout)
        assert [line.split()[:2] for line in lines] == [
            ["PASS", name] for name in
            ("leading-factor", "extended", "extended", "normalization", "soichi", "okada")
        ]

    def test_fingerprints(self, order8_run):
        out = order8_run[2]
        rec = load_recurrence(out / "recurrence-modular-q2.json")
        assert (rec.nullspace_dim, rec.zero_count(), len(rec.support)) == (1, 96, 405)
        path = out / "recurrence-symbolic.json"
        sym = load_recurrence(path)
        assert len(sym.coefficients) == 309
        assert sym.max_abs_coefficient() == 12
        assert max(c.degree for c in sym.coefficients) == 50
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ORDER8_SYMBOLIC_SHA256


class TestReportTiming:
    """Each report line carries the time _report_out measured around its check."""

    def test_pipeline(self, pipeline_run):
        lines = report_lines(pipeline_run[1])
        assert len(lines) == 6 and lines[0].startswith("PASS leading-factor")
        assert all(line.endswith(f" ({TICK:.2f}s)") for line in lines), lines

    def test_verify_brute(self, tmp_path, capsys, monkeypatch):
        tick_clock(monkeypatch)
        assert main(["verify", "brute", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"PASS brute-force bound=4 checks=120 failures=0 ({TICK:.2f}s)\n"


class TestReadme:
    """The README's flag list and command table follow cli._build_parser()."""

    TEXT = (ROOT / "README.md").read_text()

    def subcommands(self) -> dict[str, argparse.ArgumentParser]:
        action = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_flags(self):
        listed = re.search(r"Flags: `([^`]*)`", self.TEXT).group(1).split()
        parsed = {opt for parser in self.subcommands().values() for action in parser._actions
                  for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
        assert sorted(listed) == sorted(parsed)

    def test_command_table(self):
        listed = set(re.findall(r"^\| `([a-z]+)[^`]*` \|", self.TEXT, flags=re.MULTILINE))
        assert listed == set(self.subcommands())


class TestPlausibilityGate:
    def test_pipeline_stops_at_stage_3(self, tmp_path, capsys, monkeypatch):
        implausible_recurrence(monkeypatch)
        assert cmd_pipeline(config(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "pipeline stopped at stage 3" in out
        assert f"max |coefficient| = {MAX_ABS_COEFFICIENT + 1}" in out
        assert "stage 4" not in out

    def test_reconstruct_fails(self, tmp_path, capsys, monkeypatch):
        implausible_recurrence(monkeypatch)
        rc = main(["reconstruct", "--out", str(tmp_path)])
        assert rc == 1
        assert "plausibility bound" in capsys.readouterr().err


class TestMainParsing:
    def test_unknown_verify_target(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense", "--out", str(tmp_path)])

    def test_out_dir_created(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        rc = main(["cofactors", "--q", "5", "--n-max", "12", "--out", str(target)])
        assert rc == 0 and target.is_dir()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("QTSPP_OUT", str(target))
        rc = main(["cofactors", "--q", "5", "--n-max", "12"])
        assert rc == 0
        assert (target / "cofactors-q5-n12.txt").exists()

    def test_defaults_are_the_config_defaults(self, monkeypatch):
        monkeypatch.delenv("QTSPP_OUT", raising=False)
        for command in (["cofactors"], ["pipeline"], ["verify", "ct"]):
            args = cli._build_parser().parse_args(command)
            assert cli._config_from_args(args) == PipelineConfig()


class TestSuiteDeadline:
    def test_deadline_fails_a_hung_test(self):
        # conftest's autouse deadline: SIGALRM fails the running test
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(pytest.fail.Exception, match="still running after 600 s"):
            time.sleep(5)
