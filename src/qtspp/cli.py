"""Command line front end: drives the pipeline stages and file I/O.

Subcommands: cofactors, guess, reconstruct, verify {soichi, okada,
normalization, extended, ct, brute}, pipeline.  Each stage (table, guess,
reconstruction, reports) is one function that its subcommand and `pipeline`
both run.  All artifacts are plain text (decimal table files, canonical
JSON for recurrences and reports), so reruns with identical configuration
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .cofactors import CofactorTable, build_table, check_q_order, load_table
from .fieldcore import DEFAULT_PRIME, InvalidInput, PrimeModulus, WorkbenchError
from .guessing import (
    AnsatzSupport,
    ModularRecurrence,
    SymbolicRecurrence,
    refine_support,
    guess_modular,
    load_recurrence,
    reconstruct_symbolic,
    save_recurrence,
    sweep,
)
from .okada import QPoint, qtspp_orbit_product
from .verify import (
    CT_BOUND,
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

#: Plausibility gate on the reconstructed recurrence: a genuine recurrence
#: has tiny integer coefficients, an artefact solution shows integers on the
#: order of sqrt(p).
MAX_ABS_COEFFICIENT = 43


class GateFailed(WorkbenchError):
    """A stage's result failed its plausibility gate or one of its checks."""


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
        self.support()  # refuses a negative ansatz bound before any stage runs
        if self.n_max <= self.gamma_max:
            raise InvalidInput("n_max must exceed gamma_max")
        if self.q_from < 2:
            raise InvalidInput("sweeps start at q >= 2")
        if self.q_to < self.q_from:
            raise InvalidInput("sweep range is empty")
        if self.workers < 1:
            raise InvalidInput("worker count must be >= 1")
        for name in ("n_ext", "L", "L_q1"):  # table bounds, refused before any stage runs
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be >= 1, got {getattr(self, name)}")

    def modulus(self) -> PrimeModulus:
        return PrimeModulus(self.prime)

    def support(self) -> AnsatzSupport:
        return AnsatzSupport.full(self.alpha_max, self.beta_max, self.gamma_max)

    def ensure_out_dir(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir


# ---------------------------------------------------------------------------
# Stages: each subcommand and `pipeline` run these same functions
# ---------------------------------------------------------------------------


def _table(modulus: PrimeModulus, q_int: int, n_max: int) -> CofactorTable:
    """The certificate table up to n_max at q_int."""
    return build_table(n_max, QPoint(q_int, modulus))


def _discovery_table(config: PipelineConfig, q_int: int, in_path: Path | None) -> CofactorTable:
    """The table to guess on: read from in_path (truncated to n_max), or built at q_int."""
    if in_path is None:
        return _table(config.modulus(), q_int, config.n_max)
    table = load_table(in_path)
    if table.modulus.p != config.prime:
        raise InvalidInput(
            f"table in {in_path} is at p={table.modulus.p}, but --prime is {config.prime}"
        )
    if table.n_max < config.n_max:
        raise WorkbenchError(f"table in {in_path} covers only n <= {table.n_max}")
    return table.truncated(config.n_max)


def _table_stage(config: PipelineConfig, q_int: int, n_max: int) -> tuple[CofactorTable, Path]:
    """Stage 1: build the certificate table at q_int and save it."""
    t0 = time.perf_counter()
    table = _table(config.modulus(), q_int, n_max)
    elapsed = time.perf_counter() - t0
    path = table.save_text(config.ensure_out_dir() / f"cofactors-q{q_int}-n{n_max}.txt")
    print(f"wrote {path}: {n_max} rows, {len(table)} values at q={q_int}, p={config.prime} "
          f"({elapsed:.2f}s)")
    return table, path


def _guess_stage(config: PipelineConfig, table: CofactorTable) -> tuple[ModularRecurrence, Path]:
    """Stage 2: solve the full ansatz system on table, save it, gate on a 1-dim solution space."""
    t0 = time.perf_counter()
    rec = guess_modular(table, config.support())
    elapsed = time.perf_counter() - t0
    path = save_recurrence(rec, config.ensure_out_dir() / f"recurrence-modular-q{table.q_int}.json")
    print(f"wrote {path}: nullspace dimension {rec.nullspace_dim}, "
          f"{rec.zero_count()} of {len(rec.support)} coefficients zero ({elapsed:.2f}s)")
    if rec.nullspace_dim != 1:
        raise GateFailed(f"expected a one dimensional solution space, found {rec.nullspace_dim}")
    return rec, path


def _reconstruct_stage(
    config: PipelineConfig, rec: ModularRecurrence
) -> tuple[SymbolicRecurrence, Path]:
    """Stage 3: refine rec's support, sweep, reconstruct, save, gate on coefficient size."""
    t0 = time.perf_counter()
    refined = refine_support(rec)
    log.info("refined support: %d of %d terms", len(refined), len(rec.support))
    recs = sweep(refined, config.q_from, config.q_to, p=config.prime, n_max=config.n_max,
                 pivot_term=rec.pivot_term, workers=config.workers)
    sym = reconstruct_symbolic(recs)
    path = save_recurrence(sym, config.ensure_out_dir() / "recurrence-symbolic.json")
    maxc = sym.max_abs_coefficient()
    print(f"wrote {path}: {len(sym.coefficients)} coefficient polynomials from "
          f"{len(sym.q_points_used)} q points, max |coefficient| = {maxc} "
          f"({time.perf_counter() - t0:.2f}s)")
    if maxc > MAX_ABS_COEFFICIENT:
        raise GateFailed(
            f"max |coefficient| = {maxc} exceeds the plausibility bound "
            f"{MAX_ABS_COEFFICIENT}: probable artefact solution"
        )
    return sym, path


def _report_out(config: PipelineConfig, name: str, check, *args) -> bool:
    """Run and time check(*args), save report-<name>.json, print its summary, say if it passed."""
    t0 = time.perf_counter()
    report = check(*args)
    elapsed = time.perf_counter() - t0
    report.save(config.ensure_out_dir() / f"report-{name}.json")
    print(f"{report.summary_line()} ({elapsed:.2f}s)")
    return report.passed


def _extended_report(config: PipelineConfig, rec, q_int: int, n_ext: int) -> bool:
    """Annihilation of a fresh table to n_ext at q_int, as report-extended-q<q>.json."""
    return _report_out(config, f"extended-q{q_int}", check_extended,
                       rec, q_int, config.prime, n_ext)


_IDENTITY_CHECKS = {
    "normalization": lambda tables, bound: check_normalization(tables),
    "soichi": check_soichi,
    "okada": check_okada,
}


def _identity_tables(config: PipelineConfig, q1: bool) -> list[CofactorTable]:
    modulus = config.modulus()
    if q1:
        return [_table(modulus, 1, config.L_q1)]
    qs = select_q_points(config.q_count, config.L, modulus)
    return [_table(modulus, q, config.L) for q in qs]


def _identity_reports(
    config: PipelineConfig, tables: list[CofactorTable], q1: bool, names=tuple(_IDENTITY_CHECKS)
) -> bool:
    """Run the identity checks `names` on tables; the q = 1 reports get a -q1 suffix."""
    bound = config.L_q1 if q1 else config.L
    return all([
        _report_out(config, f"{name}-q1" if q1 else name, _IDENTITY_CHECKS[name], tables, bound)
        for name in names
    ])


def _brute_report(config: PipelineConfig) -> VerificationReport:
    """Order-ideal enumeration against the orbit product for n <= 4."""
    report = VerificationReport("brute-force", 4, [])
    modulus = config.modulus()
    for n in range(1, 5):
        poly = brute_force_qtspp(n)
        for q in select_q_points(30, n, modulus, seed=424242 + n):
            report.checks += 1
            lhs = poly.eval_mod(q % modulus.p, modulus.p)
            rhs = qtspp_orbit_product(n, QPoint(q, modulus))
            if lhs != rhs:
                report.record_failure(n=n, q=q, brute=lhs, product=rhs)
        report.details[f"count_n{n}"] = poly(1)
    return report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_cofactors(config: PipelineConfig, q_int: int) -> Path:
    """Build and persist the certificate table at one q point."""
    return _table_stage(config, q_int, config.n_max)[1]


def cmd_guess(config: PipelineConfig, q_int: int = 2, in_path: Path | None = None) -> Path:
    """Solve the full ansatz system at one q point and persist the result."""
    return _guess_stage(config, _discovery_table(config, q_int, in_path))[1]


def cmd_reconstruct(config: PipelineConfig, q_int: int = 2, in_path: Path | None = None) -> Path:
    """Discover, refine, sweep, and reconstruct the symbolic recurrence."""
    rec, _ = _guess_stage(config, _discovery_table(config, q_int, in_path))
    return _reconstruct_stage(config, rec)[1]


def cmd_verify(config: PipelineConfig, which: str, q_int: int = 2,
               in_path: Path | None = None, q1: bool = False,
               ct_bound: int | None = None) -> int:
    """Run one verification program; exit status 0 only on a clean pass."""
    if which in _IDENTITY_CHECKS:
        passed = _identity_reports(config, _identity_tables(config, q1), q1, names=[which])
    elif which == "extended":
        if in_path is None:
            raise WorkbenchError("verify extended needs --in <symbolic recurrence file>")
        check_q_order(QPoint(q_int, config.modulus()))
        passed = _extended_report(config, load_recurrence(in_path), q_int, config.n_ext)
    elif which == "ct":
        bound = CT_BOUND if ct_bound is None else ct_bound
        passed = _report_out(config, "ct-q1", ct_check_q1, bound)
    elif which == "brute":
        passed = _report_out(config, "brute", _brute_report, config)
    else:
        raise WorkbenchError(f"unknown verification {which!r}")
    return 0 if passed else 1


def cmd_pipeline(config: PipelineConfig, q1: bool = False) -> int:
    """One-shot reproduction: table, guess, sweep, reconstruct, verify."""
    if q1:
        if config.L_q1 < 2:  # the constant-term check needs two rows; refused before any file
            raise InvalidInput(
                f"pipeline --q1 needs L >= 2 for its constant-term check, got {config.L_q1}"
            )
        print("== q=1 pipeline: certificate identities and brute-force oracle ==")
        table, _ = _table_stage(config, 1, config.L_q1)
        passed = [
            _identity_reports(config, [table], q1=True),
            _report_out(config, "ct-q1-q1", ct_check_q1, min(CT_BOUND, config.L_q1)),
            _report_out(config, "brute", _brute_report, config),
        ]
        return 0 if all(passed) else 1

    q_fresh = config.q_to + 1
    stage = 1
    try:
        print("== stage 1: certificate table ==")
        table, _ = _table_stage(config, 2, config.n_max)
        stage = 2
        print("== stage 2: modular guess ==")
        rec, _ = _guess_stage(config, table)
        stage = 3
        print("== stage 3: sweep and symbolic reconstruction ==")
        sym, _ = _reconstruct_stage(config, rec)
        stage = 4
        print("== stage 4: recurrence verification ==")
        passed = [
            _report_out(config, "leading-factor", check_leading_factor_vanishing, sym),
            _extended_report(config, sym, 2, config.n_ext),
            _extended_report(config, sym, q_fresh, max(config.n_ext // 2, config.n_max + 1)),
        ]
        if not all(passed):
            raise GateFailed("recurrence verification failed")
        stage = 5
        print("== stage 5: identity suite ==")
        if not _identity_reports(config, _identity_tables(config, q1=False), q1=False):
            raise GateFailed("identity suite failed")
    except GateFailed as exc:
        print(f"pipeline stopped at stage {stage}: {exc}")
        return 1

    print(
        "== plausibility summary ==\n"
        f" 1. overdetermined system: {config.n_max * (config.n_max + 1) // 2} equations, "
        f"{len(rec.support)} unknowns, nullspace dimension {rec.nullspace_dim}\n"
        f" 2. integer coefficients: max |c| = {sym.max_abs_coefficient()} <= {MAX_ABS_COEFFICIENT} "
        f"(an artefact would be expected near sqrt(p) ~ {int(config.prime ** 0.5)})\n"
        " 3. top-shift coefficient factors: pass\n"
        f" 4. annihilates fresh table to n={config.n_ext} at q=2: pass\n"
        f" 5. annihilates at unswept q={q_fresh}: pass"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


#: PipelineConfig fields that are integer options of every subcommand, with
#: the field's default.
_CONFIG_ARGS = ("prime", "n_max", "alpha_max", "beta_max", "gamma_max", "q_from", "q_to", "n_ext",
                "workers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtspp",
        description="Certificate workbench for the q-TSPP determinant identity",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=2, help="numeric q point (default 2)")
    for name in _CONFIG_ARGS:
        common.add_argument(f"--{name.replace('_', '-')}", type=int,
                            default=getattr(PipelineConfig, name))
    common.add_argument("--L", type=int, default=None, dest="L")
    common.add_argument("--q1", action="store_true", help="run the q = 1 specialization")
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument("--in", type=Path, default=None, dest="in_path")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("cofactors", parents=[common], help="build a certificate table")
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
    kwargs = {name: getattr(args, name) for name in _CONFIG_ARGS}
    kwargs["out_dir"] = args.out or Path(os.environ.get(OUT_DIR_ENV, PipelineConfig.out_dir))
    if args.L is not None:
        kwargs.update(L=args.L, L_q1=args.L)
    return PipelineConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _config_from_args(args)
        if args.command == "cofactors":
            cmd_cofactors(config, 1 if args.q1 else args.q)
            return 0
        if args.command == "guess":
            cmd_guess(config, args.q, args.in_path)
            return 0
        if args.command == "reconstruct":
            cmd_reconstruct(config, args.q, args.in_path)
            return 0
        if args.command == "verify":
            return cmd_verify(config, args.which, args.q, args.in_path, args.q1, ct_bound=args.L)
        if args.command == "pipeline":
            return cmd_pipeline(config, q1=args.q1)
        raise WorkbenchError(f"unknown command {args.command!r}")
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
