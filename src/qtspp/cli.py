"""Command line front end: drives the pipeline stages and file I/O.

Subcommands: cofactors, guess, reconstruct, verify {soichi, okada,
normalization, extended, ct, brute}, pipeline.  All artifacts are plain
text (decimal table files, canonical JSON for recurrences and reports), so
reruns with identical configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .cofactors import CofactorTable, build_table, load_table
from .fieldcore import DEFAULT_PRIME, PrimeModulus, SingularMatrix, WorkbenchError
from .guessing import (
    AnsatzSupport,
    refine_support,
    guess_modular,
    load_recurrence,
    reconstruct_symbolic,
    save_recurrence,
    sweep,
)
from .okada import QPoint, qtspp_orbit_product
from .verify import (
    VerificationReport,
    brute_force_qtspp,
    check_extended,
    check_leading_factor_vanishing,
    check_normalization,
    check_okada,
    check_soichi,
    ct_check_q1,
    select_q_points,
)

log = logging.getLogger(__name__)

OUT_DIR_ENV = "QTSPP_OUT"

#: q points of multiplicative order below this are refused outright: the
#: matrix entries collapse there (order 2 zeroes the (1,1) entry, order 3
#: the (1,2) entry) and no useful table exists.
MIN_Q_ORDER = 4

#: Plausibility gate on the reconstructed recurrence: a genuine recurrence
#: has tiny integer coefficients, an artefact solution shows integers on the
#: order of sqrt(p).
MAX_ABS_COEFFICIENT = 43


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the reproduction pipeline, with desk-scale defaults."""

    prime: int = DEFAULT_PRIME
    n_max: int = 35
    alpha_max: int = 4
    beta_max: int = 7
    gamma_max: int = 10
    q_from: int = 2
    q_to: int = 150
    n_ext: int = 120
    L: int = 40
    L_q1: int = 60
    q_count: int = 20
    workers: int = 1
    out_dir: Path = Path("qtspp-out")

    def __post_init__(self):
        if self.n_max <= self.gamma_max:
            raise ValueError("n_max must exceed gamma_max")
        if self.q_to < self.q_from:
            raise ValueError("sweep range is empty")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")

    def modulus(self) -> PrimeModulus:
        return PrimeModulus(self.prime)

    def support(self) -> AnsatzSupport:
        return AnsatzSupport.full(self.alpha_max, self.beta_max, self.gamma_max)

    def ensure_out_dir(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir


def _check_q_usable(q_int: int, modulus: PrimeModulus) -> None:
    if q_int == 1:
        return
    r = q_int % modulus.p
    if r == 0:
        raise WorkbenchError(f"q={q_int} is 0 mod p={modulus.p}")
    order = modulus.multiplicative_order(r)
    if order < MIN_Q_ORDER:
        raise WorkbenchError(
            f"q={q_int} has multiplicative order {order} mod {modulus.p}; "
            f"the entry matrix degenerates at such points, pick another q"
        )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_cofactors(config: PipelineConfig, q_int: int, binary: bool = False) -> Path:
    """Build and persist the certificate table at one q point."""
    modulus = config.modulus()
    _check_q_usable(q_int, modulus)
    t0 = time.perf_counter()
    table = build_table(config.n_max, QPoint(q_int, modulus))
    elapsed = time.perf_counter() - t0
    out = config.ensure_out_dir()
    suffix = "bin" if binary else "txt"
    path = out / f"cofactors-q{q_int}-n{config.n_max}.{suffix}"
    table.save_binary(path) if binary else table.save_text(path)
    print(
        f"wrote {path}: {table.n_max} rows, {len(table)} values at "
        f"q={q_int}, p={modulus.p} ({elapsed:.2f}s)"
    )
    return path


def _discovery_table(config: PipelineConfig, q_int: int, in_path: Path | None) -> CofactorTable:
    if in_path is not None:
        table = load_table(in_path)
        if table.n_max < config.n_max:
            raise WorkbenchError(f"table in {in_path} covers only n <= {table.n_max}")
        return table.truncated(config.n_max)
    modulus = config.modulus()
    _check_q_usable(q_int, modulus)
    return build_table(config.n_max, QPoint(q_int, modulus))


def cmd_guess(config: PipelineConfig, q_int: int = 2, in_path: Path | None = None) -> Path:
    """Solve the full ansatz system at one q point and persist the result."""
    t0 = time.perf_counter()
    table = _discovery_table(config, q_int, in_path)
    rec = guess_modular(table, config.support())
    elapsed = time.perf_counter() - t0
    out = config.ensure_out_dir()
    path = out / f"recurrence-modular-q{table.q_int}.json"
    save_recurrence(rec, path)
    print(
        f"wrote {path}: nullspace dimension {rec.nullspace_dim}, "
        f"{rec.zero_count()} of {len(rec.support)} coefficients zero ({elapsed:.2f}s)"
    )
    if rec.nullspace_dim != 1:
        raise WorkbenchError(
            f"expected a one dimensional solution space, found {rec.nullspace_dim}"
        )
    return path


def cmd_reconstruct(config: PipelineConfig, q_int: int = 2) -> Path:
    """Discover, refine, sweep, and reconstruct the symbolic recurrence."""
    table = _discovery_table(config, q_int, None)
    rec = guess_modular(table, config.support())
    if rec.nullspace_dim != 1:
        raise WorkbenchError(
            f"expected a one dimensional solution space, found {rec.nullspace_dim}"
        )
    refined = refine_support(rec)
    log.info("refined support: %d of %d terms", len(refined), len(rec.support))
    recs = sweep(
        refined,
        config.q_from,
        config.q_to,
        p=config.prime,
        n_max=config.n_max,
        pivot_term=rec.pivot_term,
        workers=config.workers,
    )
    sym = reconstruct_symbolic(recs)
    out = config.ensure_out_dir()
    path = out / "recurrence-symbolic.json"
    save_recurrence(sym, path)
    maxc = sym.max_abs_coefficient()
    print(
        f"wrote {path}: {len(sym.coefficients)} coefficient polynomials from "
        f"{len(recs)} q points, max |coefficient| = {maxc}"
    )
    if maxc > MAX_ABS_COEFFICIENT:
        raise WorkbenchError(
            f"max |coefficient| = {maxc} exceeds the plausibility bound "
            f"{MAX_ABS_COEFFICIENT}: probable artefact solution"
        )
    return path


def _report_out(config: PipelineConfig, report: VerificationReport, name: str) -> Path:
    out = config.ensure_out_dir()
    path = out / f"report-{name}.json"
    report.save(path)
    print(report.summary_line())
    return path


def _identity_tables(config: PipelineConfig, q1: bool) -> list[CofactorTable]:
    modulus = config.modulus()
    if q1:
        return [build_table(config.L_q1, QPoint(1, modulus))]
    qs = select_q_points(config.q_count, config.L, modulus)
    return [build_table(config.L, QPoint(q, modulus)) for q in qs]


def cmd_verify(config: PipelineConfig, which: str, q_int: int = 2,
               in_path: Path | None = None, q1: bool = False,
               ct_bound: int | None = None) -> int:
    """Run one verification program; exit status 0 only on a clean pass."""
    if which in ("soichi", "okada", "normalization"):
        tables = _identity_tables(config, q1)
        bound = config.L_q1 if q1 else config.L
        if which == "soichi":
            report = check_soichi(tables, bound)
        elif which == "okada":
            report = check_okada(tables, bound)
        else:
            report = check_normalization(tables)
        name = f"{which}-q1" if q1 else which
        _report_out(config, report, name)
        return 0 if report.passed else 1
    if which == "extended":
        if in_path is None:
            raise WorkbenchError("verify extended needs --in <symbolic recurrence file>")
        _check_q_usable(q_int, config.modulus())
        rec = load_recurrence(in_path)
        report = check_extended(rec, q_int, config.prime, config.n_ext)
        _report_out(config, report, f"extended-q{q_int}")
        return 0 if report.passed else 1
    if which == "ct":
        report = ct_check_q1(ct_bound if ct_bound is not None else 30)
        _report_out(config, report, "ct-q1")
        return 0 if report.passed else 1
    if which == "brute":
        report = VerificationReport("brute-force", 4, [])
        modulus = config.modulus()
        t0 = time.perf_counter()
        for n in range(1, 5):
            poly = brute_force_qtspp(n)
            qs = select_q_points(30, n, modulus, seed=424242 + n)
            for q in qs:
                report.checks += 1
                lhs = poly.eval_mod(q % modulus.p, modulus.p)
                rhs = int(qtspp_orbit_product(n, QPoint(q, modulus)))
                if lhs != rhs:
                    report.record_failure(n=n, q=q, brute=lhs, product=rhs)
            report.details[f"count_n{n}"] = poly(1)
        report.elapsed = time.perf_counter() - t0
        _report_out(config, report, "brute")
        return 0 if report.passed else 1
    raise WorkbenchError(f"unknown verification {which!r}")


def cmd_pipeline(config: PipelineConfig, q1: bool = False) -> int:
    """One-shot reproduction: table, guess, sweep, reconstruct, verify."""
    out = config.ensure_out_dir()
    modulus = config.modulus()
    if q1:
        print("== q=1 pipeline: certificate identities and brute-force oracle ==")
        table = build_table(config.L_q1, QPoint(1, modulus))
        table.save_text(out / f"cofactors-q1-n{config.L_q1}.txt")
        ok = True
        for rep in (
            check_normalization(table),
            check_soichi(table, config.L_q1),
            check_okada(table, config.L_q1),
            ct_check_q1(min(30, config.L_q1)),
        ):
            _report_out(config, rep, f"{rep.identity}-q1")
            ok = ok and rep.passed
        rc = cmd_verify(config, "brute")
        return 0 if (ok and rc == 0) else 1

    print("== stage 1: certificate table ==")
    t0 = time.perf_counter()
    table = _discovery_table(config, 2, None)
    table.save_text(out / f"cofactors-q2-n{config.n_max}.txt")
    print(f"table at q=2: {len(table)} values ({time.perf_counter() - t0:.2f}s)")

    print("== stage 2: modular guess ==")
    t0 = time.perf_counter()
    rec = guess_modular(table, config.support())
    save_recurrence(rec, out / "recurrence-modular-q2.json")
    print(
        f"nullspace dimension {rec.nullspace_dim}, zero coefficients "
        f"{rec.zero_count()}/{len(rec.support)} ({time.perf_counter() - t0:.2f}s)"
    )
    if rec.nullspace_dim != 1:
        print("pipeline stopped at stage 2: solution space is not one dimensional")
        return 1

    print("== stage 3: sweep and symbolic reconstruction ==")
    t0 = time.perf_counter()
    refined = refine_support(rec)
    recs = sweep(
        refined,
        config.q_from,
        config.q_to,
        p=config.prime,
        n_max=config.n_max,
        pivot_term=rec.pivot_term,
        workers=config.workers,
    )
    sym = reconstruct_symbolic(recs)
    save_recurrence(sym, out / "recurrence-symbolic.json")
    maxc = sym.max_abs_coefficient()
    print(
        f"{len(recs)} q points, max |integer coefficient| = {maxc} "
        f"({time.perf_counter() - t0:.2f}s)"
    )
    if maxc > MAX_ABS_COEFFICIENT:
        print(
            f"pipeline stopped at stage 3: max |coefficient| = {maxc} exceeds "
            f"the plausibility bound {MAX_ABS_COEFFICIENT}"
        )
        return 1

    print("== stage 4: recurrence verification ==")
    lead = check_leading_factor_vanishing(sym)
    _report_out(config, lead, "leading-factor")
    ext2 = check_extended(sym, 2, config.prime, config.n_ext)
    _report_out(config, ext2, "extended-q2")
    q_fresh = config.q_to + 1
    ext_fresh = check_extended(sym, q_fresh, config.prime, max(config.n_ext // 2, config.n_max + 1))
    _report_out(config, ext_fresh, f"extended-q{q_fresh}")
    if not (lead.passed and ext2.passed and ext_fresh.passed):
        print("pipeline stopped at stage 4: recurrence verification failed")
        return 1

    print("== stage 5: identity suite ==")
    tables = _identity_tables(config, q1=False)
    reports = [
        check_normalization(tables),
        check_soichi(tables, config.L),
        check_okada(tables, config.L),
    ]
    for rep in reports:
        _report_out(config, rep, rep.identity)
    if not all(r.passed for r in reports):
        print("pipeline stopped at stage 5: identity suite failed")
        return 1

    print("== plausibility summary ==")
    print(
        f" 1. overdetermined system: {config.n_max * (config.n_max + 1) // 2} equations, "
        f"{len(rec.support)} unknowns, nullspace dimension {rec.nullspace_dim}"
    )
    print(
        f" 2. integer coefficients: max |c| = {maxc} <= {MAX_ABS_COEFFICIENT} "
        f"(an artefact would be expected near sqrt(p) ~ {int(config.prime ** 0.5)})"
    )
    print(f" 3. top-shift coefficient factors: {'pass' if lead.passed else 'FAIL'}")
    print(
        f" 4. annihilates fresh table to n={config.n_ext} at q=2: "
        f"{'pass' if ext2.passed else 'FAIL'}"
    )
    print(
        f" 5. annihilates at unswept q={q_fresh}: "
        f"{'pass' if ext_fresh.passed else 'FAIL'}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtspp",
        description="Certificate workbench for the q-TSPP determinant identity",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=2, help="numeric q point (default 2)")
    common.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    common.add_argument("--n-max", type=int, default=35)
    common.add_argument("--alpha-max", type=int, default=4)
    common.add_argument("--beta-max", type=int, default=7)
    common.add_argument("--gamma-max", type=int, default=10)
    common.add_argument("--q-from", type=int, default=2)
    common.add_argument("--q-to", type=int, default=150)
    common.add_argument("--n-ext", type=int, default=120)
    common.add_argument("--L", type=int, default=None, dest="L")
    common.add_argument("--q1", action="store_true", help="run the q = 1 specialization")
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument("--in", type=Path, default=None, dest="in_path")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("cofactors", parents=[common], help="build a certificate table")
    p.add_argument("--binary", action="store_true", help="write the compact binary layout")
    sub.add_parser("guess", parents=[common], help="solve the ansatz system at one q")
    sub.add_parser("reconstruct", parents=[common], help="sweep q points and lift to integer polynomials")
    p = sub.add_parser("verify", parents=[common], help="run a verification program")
    p.add_argument(
        "which",
        choices=["soichi", "okada", "normalization", "extended", "ct", "brute"],
    )
    sub.add_parser("pipeline", parents=[common], help="run every stage end to end")
    return parser


def _config_from_args(args) -> PipelineConfig:
    out_dir = args.out
    if out_dir is None:
        out_dir = Path(os.environ.get(OUT_DIR_ENV, "qtspp-out"))
    kwargs = dict(
        prime=args.prime,
        n_max=args.n_max,
        alpha_max=args.alpha_max,
        beta_max=args.beta_max,
        gamma_max=args.gamma_max,
        q_from=args.q_from,
        q_to=args.q_to,
        n_ext=args.n_ext,
        workers=args.workers,
        out_dir=out_dir,
    )
    if args.L is not None:
        kwargs["L"] = args.L
        kwargs["L_q1"] = args.L
    return PipelineConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _config_from_args(args)
        if args.command == "cofactors":
            q = 1 if args.q1 else args.q
            cmd_cofactors(config, q, binary=args.binary)
            return 0
        if args.command == "guess":
            cmd_guess(config, args.q, args.in_path)
            return 0
        if args.command == "reconstruct":
            cmd_reconstruct(config, args.q)
            return 0
        if args.command == "verify":
            return cmd_verify(
                config, args.which, args.q, args.in_path, args.q1, ct_bound=args.L
            )
        if args.command == "pipeline":
            return cmd_pipeline(config, q1=args.q1)
        raise WorkbenchError(f"unknown command {args.command!r}")
    except SingularMatrix as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
