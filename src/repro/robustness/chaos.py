"""Deterministic fault injection for the fault-tolerant runtime.

The degradation ladder, budget enforcement and journal replay are only
trustworthy if something actually exercises them.  :class:`ChaosInjector`
installs seeded fault injectors behind the two seams the production code
already has — the mutation-listener hook of
:meth:`~repro.dataset.relation.Relation.set_value` and the kernel-call
seam of the donor-scan engines — plus an injectable clock and pre-run
cell corruption:

* **kernel faults** — :class:`~repro.exceptions.InjectedFaultError`
  raised at kernel-call entries (``cell_scan`` / ``is_faultless`` / ...)
  with probability ``kernel_fault_rate`` per call;
* **listener faults** — the same error raised from a mutation listener,
  exercising the write-then-invalidate-then-surface discipline of
  ``Relation.set_value``;
* **clock skips** — the injected clock jumps forward
  ``clock_skip_seconds`` with probability ``clock_skip_rate`` per
  reading, tripping time budgets deterministically;
* **corrupted donor cells** — ``corrupt_cells`` present cells are
  scrambled before the run, so candidate generation and verification
  digest hostile values;
* **kill switch** — ``kill_after_cells`` raises :class:`ChaosKill`
  (a ``BaseException``, so nothing on the recovery ladder can swallow
  it) when the driver starts cell N+1, simulating a hard kill for
  journal-resume tests;
* **disk-full faults** — ``disk_full_rate`` raises ``OSError(ENOSPC)``
  from the disk-write seam of :mod:`repro.utils.atomic` (which the
  checkpoint journal's append path also consults), with probability per
  write; install via :meth:`ChaosInjector.disk_faults`.  Exercises the
  artifact cache's count-as-miss contract, the journal's located
  append errors and the pipeline's failed-stage recovery;
* **HTTP faults** — ``http_reset_rate`` / ``http_slow_read_rate`` /
  ``http_mid_kill_rate`` / ``http_crash_rate`` target the service's
  HTTP seam (``repro.service.http`` consults
  :meth:`ChaosInjector.http_fault` per request): a *reset* tears the
  connection down with an RST before any response byte, a *slow read*
  stalls the handler mid-request (slow-loris analogue), a *mid kill*
  sends the headers plus half the body and then resets, a *crash*
  raises inside the handler (exercising the 500-and-keep-serving
  path).  The hardened :mod:`repro.service.client` must survive all
  four.

Every channel draws from its own ``random.Random`` stream derived from
``seed``, so two runs with the same config, relation and RFDs inject
*exactly* the same faults at the same points — chaos tests are ordinary
deterministic tests.
"""

from __future__ import annotations

import errno
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.dataset.missing import MISSING, is_missing
from repro.dataset.relation import Relation
from repro.exceptions import ImputationError, InjectedFaultError
from repro.telemetry.logs import get_logger
from repro.utils.rng import spawn_rng

logger = get_logger("robustness.chaos")


class ChaosKill(BaseException):
    """Simulated hard kill (SIGKILL analogue) raised by the kill switch.

    Derives from ``BaseException`` on purpose: the fault-isolation
    ladder catches ``Exception``, and a kill must not be recoverable.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection plan for one run."""

    seed: int = 0
    #: Probability of an InjectedFaultError per kernel-call entry.
    kernel_fault_rate: float = 0.0
    #: Probability of an InjectedFaultError per mutation-listener call.
    listener_fault_rate: float = 0.0
    #: Probability of a forward clock jump per clock reading.
    clock_skip_rate: float = 0.0
    #: Size of each injected clock jump.
    clock_skip_seconds: float = 3600.0
    #: Present cells scrambled before the run starts.
    corrupt_cells: int = 0
    #: Raise ChaosKill when the driver starts cell N+1 (None = never).
    kill_after_cells: int | None = None
    #: Probability of an OSError(ENOSPC) per disk write on the atomic-
    #: write seam (requires :meth:`ChaosInjector.disk_faults`).
    disk_full_rate: float = 0.0
    #: Cap on injected kernel+listener faults (None = unlimited).
    max_faults: int | None = None
    #: Probability that a request's connection is reset (RST) before
    #: any response byte is sent (service HTTP seam).
    http_reset_rate: float = 0.0
    #: Probability that a request's handler stalls mid-request for
    #: ``http_slow_seconds`` (slow-loris analogue; response still OK).
    http_slow_read_rate: float = 0.0
    #: Probability that a response is cut after the headers plus half
    #: the body, then reset.
    http_mid_kill_rate: float = 0.0
    #: Probability that the handler raises an injected fault (the
    #: server must answer 500 and keep serving).
    http_crash_rate: float = 0.0
    #: Stall applied by a slow-read HTTP fault.
    http_slow_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in ("kernel_fault_rate", "listener_fault_rate",
                     "clock_skip_rate", "disk_full_rate",
                     "http_reset_rate", "http_slow_read_rate",
                     "http_mid_kill_rate", "http_crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ImputationError(
                    f"{name} must be in [0, 1], got {rate!r}"
                )
        http_total = (self.http_reset_rate + self.http_slow_read_rate
                      + self.http_mid_kill_rate + self.http_crash_rate)
        if http_total > 1.0:
            raise ImputationError(
                f"http fault rates must sum to <= 1, got {http_total}"
            )
        if self.http_slow_seconds < 0:
            raise ImputationError("http_slow_seconds must be >= 0")
        if self.corrupt_cells < 0:
            raise ImputationError("corrupt_cells must be >= 0")
        if self.kill_after_cells is not None and self.kill_after_cells < 0:
            raise ImputationError(
                "kill_after_cells must be >= 0 when given"
            )


class ChaosInjector:
    """The live injectors for one run; pass to ``Renuver.impute(chaos=...)``.

    One injector is good for one run: fault counters and RNG streams
    advance as the run consumes them.  Build a fresh injector (same
    config) to repeat a run identically.
    """

    def __init__(self, config: ChaosConfig | None = None) -> None:
        self.config = config or ChaosConfig()
        seed = self.config.seed
        self._kernel_rng = spawn_rng(seed, "chaos", "kernel")
        self._listener_rng = spawn_rng(seed, "chaos", "listener")
        self._clock_rng = spawn_rng(seed, "chaos", "clock")
        self._corrupt_rng = spawn_rng(seed, "chaos", "corrupt")
        self._disk_rng = spawn_rng(seed, "chaos", "disk")
        self._http_rng = spawn_rng(seed, "chaos", "http")
        self._skew = 0.0
        self.cells_started = 0
        self.faults_injected = 0
        self.clock_skips = 0
        self.disk_faults_injected = 0
        self.http_faults_injected = 0
        self.corrupted: list[tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Seam implementations (duck-typed against the driver)
    # ------------------------------------------------------------------
    def kernel_hook(self, op: str, target_row: int, attribute: str) -> None:
        """Kernel-call seam: maybe raise an injected kernel fault."""
        rate = self.config.kernel_fault_rate
        if not self._exhausted() and rate > 0.0 \
                and self._kernel_rng.random() < rate:
            self.faults_injected += 1
            logger.debug(
                "injecting kernel fault #%d in %s at (%d, %s)",
                self.faults_injected, op, target_row, attribute,
            )
            raise InjectedFaultError(
                f"injected kernel fault in {op} at "
                f"({target_row}, {attribute!r})"
            )

    def listener(self, row: int, name: str, value: Any) -> None:
        """Mutation-listener seam: maybe fail after a cell write."""
        rate = self.config.listener_fault_rate
        if not self._exhausted() and rate > 0.0 \
                and self._listener_rng.random() < rate:
            self.faults_injected += 1
            raise InjectedFaultError(
                f"injected listener fault after write to ({row}, {name!r})"
            )

    def clock(self) -> float:
        """Deterministically skewed clock for the run's timers."""
        rate = self.config.clock_skip_rate
        if rate > 0.0 and self._clock_rng.random() < rate:
            self._skew += self.config.clock_skip_seconds
            self.clock_skips += 1
        return time.perf_counter() + self._skew

    def disk_hook(self, path: Path) -> None:
        """Disk-write seam: maybe fail the write with ``ENOSPC``.

        Raises a real ``OSError`` (not :class:`InjectedFaultError`)
        because that is what a full disk raises — consumers must handle
        the genuine error type: the artifact cache counts a miss, the
        journal raises a located :class:`~repro.exceptions
        .JournalError`, the pipeline fails the stage and stays
        resumable.
        """
        rate = self.config.disk_full_rate
        if not self._exhausted() and rate > 0.0 \
                and self._disk_rng.random() < rate:
            self.faults_injected += 1
            self.disk_faults_injected += 1
            logger.debug(
                "injecting ENOSPC on write to %s (#%d)",
                path, self.disk_faults_injected,
            )
            raise OSError(
                errno.ENOSPC,
                f"injected disk-full fault writing {path}",
            )

    @contextmanager
    def disk_faults(self) -> Iterator["ChaosInjector"]:
        """Install :meth:`disk_hook` on the atomic-write seam.

        The hook is process-global (the seam lives in
        :mod:`repro.utils.atomic`), so scope it tightly around the code
        under test; the previous hook is restored on exit.
        """
        from repro.utils.atomic import disk_fault_injection

        with disk_fault_injection(self.disk_hook):
            yield self

    def on_cell_start(self, row: int, attribute: str) -> None:
        """Driver cell boundary: counts cells and pulls the kill switch."""
        limit = self.config.kill_after_cells
        if limit is not None and self.cells_started >= limit:
            raise ChaosKill(
                f"chaos kill switch after {self.cells_started} cells "
                f"(at cell ({row}, {attribute!r}))"
            )
        self.cells_started += 1

    def http_fault(self) -> dict[str, Any] | None:
        """The fault plan for one HTTP request, or ``None``.

        Consumed from the ``http`` stream per request, so a server
        driven by a deterministic request sequence injects the same
        faults at the same requests on every run.  The caller (the
        service's dispatch path) applies the fault; fault kinds:
        ``reset``, ``slow_read`` (with ``seconds``), ``mid_kill``,
        ``crash``.
        """
        config = self.config
        total = (config.http_reset_rate + config.http_slow_read_rate
                 + config.http_mid_kill_rate + config.http_crash_rate)
        if total <= 0.0 or self._exhausted():
            return None
        draw = self._http_rng.random()
        fault: dict[str, Any] | None = None
        if draw < config.http_reset_rate:
            fault = {"kind": "reset"}
        elif draw < config.http_reset_rate + config.http_slow_read_rate:
            fault = {"kind": "slow_read",
                     "seconds": config.http_slow_seconds}
        elif draw < total - config.http_crash_rate:
            fault = {"kind": "mid_kill"}
        elif draw < total:
            fault = {"kind": "crash"}
        if fault is not None:
            self.faults_injected += 1
            self.http_faults_injected += 1
            logger.debug(
                "injecting http fault %s (#%d)",
                fault["kind"], self.http_faults_injected,
            )
        return fault

    def corrupt(self, relation: Relation) -> None:
        """Scramble ``corrupt_cells`` present cells of ``relation``.

        Runs before the imputation loop; corrupted coordinates are kept
        on :attr:`corrupted` for assertions.  String cells get a marker
        prefix plus their reversed text; numeric cells get an extreme
        value — both survive type coercion, so the damage flows through
        the normal codecs.
        """
        budget = self.config.corrupt_cells
        if budget <= 0:
            return
        present = [
            (row, name)
            for name in relation.attribute_names
            for row in range(relation.n_tuples)
            if not relation.is_missing_cell(row, name)
        ]
        rng = self._corrupt_rng
        for row, name in rng.sample(present, min(budget, len(present))):
            value = relation.value(row, name)
            relation.set_value(row, name, _scrambled(value))
            self.corrupted.append((row, name))
        logger.info(
            "chaos: corrupted %d cells of %s",
            len(self.corrupted), relation.name,
        )

    # ------------------------------------------------------------------
    def _exhausted(self) -> bool:
        limit = self.config.max_faults
        return limit is not None and self.faults_injected >= limit


def _scrambled(value: Any) -> Any:
    """A hostile-but-coercible replacement for a present cell value."""
    if is_missing(value):
        return MISSING
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 1_000_003 + 7
    if isinstance(value, float):
        return -(abs(value) + 1.0) * 1e9
    text = str(value)
    return f"☠{text[::-1]}☠"
