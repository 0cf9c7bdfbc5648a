import json

import pytest

from qtspp import cli
from qtspp.cli import (
    MAX_ABS_COEFFICIENT,
    MIN_Q_ORDER,
    PipelineConfig,
    cmd_cofactors,
    cmd_guess,
    cmd_pipeline,
    cmd_verify,
    main,
)
from qtspp.cofactors import build_table, load_table
from qtspp.fieldcore import IntegerPoly, PrimeModulus
from qtspp.guessing import (
    AnsatzSupport,
    SymbolicRecurrence,
    load_recurrence,
    save_recurrence,
)
from qtspp.okada import QPoint

P = PrimeModulus()


def config(tmp_path, **kw):
    kw.setdefault("out_dir", tmp_path)
    return PipelineConfig(**kw)


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

    def test_binary_format(self, tmp_path):
        c = config(tmp_path, n_max=11)
        path = cmd_cofactors(c, 7, binary=True)
        assert path.suffix == ".bin"
        assert load_table(path) == build_table(11, QPoint(7, P))

    def test_refuses_tiny_order(self, tmp_path, capsys):
        # p - 1 has multiplicative order 2 < MIN_Q_ORDER
        rc = main(["cofactors", "--q", str(P.p - 1), "--n-max", "12",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "order" in capsys.readouterr().err

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
        assert "order" in capsys.readouterr().err

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


class TestPipelineQ1:
    def test_q1_pipeline(self, tmp_path, capsys):
        c = config(tmp_path, L_q1=14)
        assert cmd_pipeline(c, q1=True) == 0
        out = capsys.readouterr().out
        assert "q=1 pipeline" in out
        assert (tmp_path / "cofactors-q1-n14.txt").exists()


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
