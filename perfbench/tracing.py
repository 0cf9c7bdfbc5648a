"""Outside-in tracing of the qtspp layers, installed from the benchmark only.

Tracer wraps every public module-level function of the traced qtspp modules
and rebinds each module attribute that refers to it, so calls between the
modules (cofactors -> fieldcore.solve_mod, say) pass through the wrappers
too.  A span is one call; its self time is its duration minus the time its
child spans cover.  Spans are aggregated in memory per name as they close.

RecordCounter counts the log records the program already emits (p-adic row
lifts, p-scaled rows, skipped sweep points); no program change is needed.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path

import qtspp
from qtspp import cli, cofactors, fieldcore, guessing, okada, verify

LAYERS = {
    "okada": okada,
    "cofactors": cofactors,
    "fieldcore": fieldcore,
    "guessing": guessing,
    "verify": verify,
    "cli": cli,
}

#: Artifact writers (table, recurrence and report files), all reported
#: under one span name.
ARTIFACT_SPAN = "cli.artifacts"
_ARTIFACT_METHODS = (
    (cofactors.CofactorTable, "save_text"),
    (verify.VerificationReport, "save"),
)
_ARTIFACT_FUNCTIONS = {"save_recurrence"}


def _report_amounts(report) -> dict[str, int]:
    return {"verify.checks": report.checks, "verify.failures": len(report.failures)}


#: Amounts read off a span's return value, by span name.
_AMOUNTS = {
    ARTIFACT_SPAN: lambda path: {"cli.artifacts.bytes": Path(path).stat().st_size},
    "cofactors.build_table": lambda table: {"cofactors.rows": table.n_max},
    "verify.check_soichi": _report_amounts,
    "verify.check_okada": _report_amounts,
    "verify.check_normalization": _report_amounts,
    "verify.check_extended": _report_amounts,
    "verify.check_leading_factor_vanishing": _report_amounts,
    "verify.ct_check_q1": _report_amounts,
}


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span recorder around the public functions of the qtspp layers."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.amounts: dict[str, int] = {}
        self.spans = 0
        # one entry per open span: the time its closed children took
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        amounts = _AMOUNTS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - child
                if stack:
                    stack[-1] += dur
                self.spans += 1
            if amounts is not None:
                for key, value in amounts(result).items():
                    self.amounts[key] = self.amounts.get(key, 0) + value
            return result

        return traced

    def install(self) -> "Tracer":
        namespaces = [qtspp, *LAYERS.values()]
        for layer, module in LAYERS.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = ARTIFACT_SPAN if attr in _ARTIFACT_FUNCTIONS else f"{layer}.{attr}"
                wrapper = self.wrap(name, fn)
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, other, wrapper)
        for cls, attr in _ARTIFACT_METHODS:
            self._rebind(cls, attr, self.wrap(ARTIFACT_SPAN, getattr(cls, attr)))
        return self

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def layer(self, prefix: str) -> SpanStats:
        """Sum over every span whose name starts with prefix + '.'."""
        out = SpanStats()
        for name, s in self.stats.items():
            if name.startswith(prefix + "."):
                out.calls += s.calls
                out.errors += s.errors
                out.total_s += s.total_s
                out.self_s += s.self_s
        return out


def cost_per_span(trials: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    probe = Tracer().wrap("probe", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(trials):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(trials):
        probe()
    return max(clock() - t0 - bare, 0.0) / trials


class RecordCounter(logging.Handler):
    """Counts the program's own log records by logger and message template."""

    PATTERNS = {
        "cofactors.padic_rows": ("qtspp.cofactors", "minor system singular mod p"),
        "cofactors.scaled_rows": ("qtspp.cofactors", "row n=%d at q=%d stored as p**"),
        "guessing.sweep.skipped": ("qtspp.guessing", "sweep skipped"),
    }

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.counts = {key: 0 for key in self.PATTERNS}
        self._loggers: list[tuple[logging.Logger, int]] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        for key, (logger, prefix) in self.PATTERNS.items():
            if record.name == logger and msg.startswith(prefix):
                self.counts[key] += 1

    def attach(self) -> "RecordCounter":
        for name in ("qtspp.cofactors", "qtspp.guessing"):
            logger = logging.getLogger(name)
            self._loggers.append((logger, logger.level))
            logger.setLevel(logging.INFO)
            logger.addHandler(self)
        return self

    def detach(self) -> None:
        for logger, level in self._loggers:
            logger.removeHandler(self)
            logger.setLevel(level)
        self._loggers.clear()
