"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  ``--trace 0`` sets the workload up
several times (reporting the median set-up time), runs the closed loop
for ``--seconds`` and prints the end-to-end metrics; cycle time is
reported in multiples of a calibration loop run between cycles (see
calibration.py).  ``--trace 1`` sets
up once and alternates untraced and traced cycles, printing the
per-layer metrics, a self-time table by layer, and writing every span to
``.perfbench-runs/trace/``.  Either way, the outputs are checked and the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed output check prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
#: Set-ups per untraced run (``setup_s`` is their median): at least
#: ``SETUPS``, and more, up to ``MAX_SETUPS``, while they have taken
#: under ``SETUP_SECONDS`` in all, so a set-up of a few milliseconds
#: gets a median over many.
SETUPS = 3
MAX_SETUPS = 15
SETUP_SECONDS = 2.0


class Phase:
    """What the timed loop saw."""

    def __init__(self) -> None:
        #: (traced, seconds, calibration seconds around it) per cycle.
        self.cycles: list[tuple[bool, float, float]] = []
        self.ops: list = []
        #: Seconds of the loop, without the pauses between cycles.
        self.wall = 0.0
        #: Counts over the first traced cycles (traced runs only).
        self.exact: dict[str, float] = {}

    def seconds(self, traced: bool) -> list[float]:
        return [taken for on, taken, _ in self.cycles if on == traced]

    def in_calibrations(self, traced: bool) -> list[float]:
        """Cycle times in multiples of the calibration loop."""
        return [
            taken / around for on, taken, around in self.cycles
            if on == traced
        ]


def frozen_counts(acc: dict, recorder) -> dict[str, float]:
    exact = dict(acc)
    exact.update(recorder.counts)
    calls = Counter(span[0] for span in recorder.spans)
    exact.update({f"calls.{name}": n for name, n in calls.items()})
    return exact


def drive(workload, seconds: float, trace: bool, spans, program_counters,
          calibrate) -> Phase:
    """Run the workload's closed loop on ``workload.clients`` callers.

    Callers meet at a barrier between cycles, whose action runs the
    calibration loop, so every cycle is bracketed by two calibrations
    (each the mean of about two passes per second of the cycle before).
    The loop stops once ``seconds`` have passed and each caller has done
    ``min_cycles``.  Traced runs alternate untraced and traced cycles
    (starting untraced) and also wait for ``traced_cycles`` traced ones;
    counts are frozen after the last of those, so they cover the same
    work on every run of a seed.
    """
    phase = Phase()
    lock = threading.Lock()
    errors: list[Exception] = []
    calibrations: list[float] = []
    running: list[tuple[bool, float, list]] = []
    state = {
        "traced": 0, "stop": False, "acc": defaultdict(float),
        "prev": program_counters(workload) if trace else {},
        "paused": 0.0,
    }
    start = perf_counter()

    def boundary() -> None:
        paused = perf_counter()
        try:
            pause()
        finally:
            state["paused"] += perf_counter() - paused

    def pause() -> None:
        # About two calibration passes per second of the cycle just
        # run, so a long cycle is matched by a long look at the machine;
        # the first boundary has no cycle behind it and takes a fixed
        # look.
        longest = max((taken for _, taken, _ in running), default=0.0)
        passes = max(1, round(2 * longest)) if calibrations else 10
        # Every cycle starts with the young generations empty, so when
        # a collection lands inside a cycle does not depend on history.
        gc.collect()
        calibration = sum(calibrate() for _ in range(passes)) / passes
        if running:
            around = (calibrations[-1] + calibration) / 2
            for traced, taken, ops in running:
                phase.cycles.append((traced, taken, around))
                phase.ops.extend(ops)
            running.clear()
        calibrations.append(calibration)
        if len(calibrations) == 1:
            return  # the first cycle runs untraced
        done = (
            len(calibrations) > workload.min_cycles
            and perf_counter() - start >= seconds
        )
        if trace:
            was_traced = spans.RECORDER.enabled
            current = program_counters(workload)
            if was_traced:
                if state["traced"] < workload.traced_cycles:
                    for key, value in current.items():
                        state["acc"][key] += value - state["prev"][key]
                state["traced"] += 1
                if state["traced"] == workload.traced_cycles:
                    phase.exact = frozen_counts(state["acc"], spans.RECORDER)
            state["prev"] = current
            done = (
                done and was_traced
                and state["traced"] >= workload.traced_cycles
            )
            spans.set_tracing(not was_traced and not done)
        state["stop"] = done

    barrier = threading.Barrier(workload.clients, action=boundary)

    def caller(client: int) -> None:
        index = 0
        try:
            while True:
                barrier.wait()
                if state["stop"]:
                    return
                traced = spans.RECORDER.enabled
                began = perf_counter()
                ops = workload.cycle(client, index)
                taken = perf_counter() - began
                with lock:
                    running.append((traced, taken, ops))
                index += 1
        except threading.BrokenBarrierError:
            return  # another caller failed; its error is re-raised
        except Exception as exc:  # noqa: BLE001 - re-raised by drive
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=caller, args=(client,))
        for client in range(1, workload.clients)
    ]
    for thread in threads:
        thread.start()
    caller(0)
    for thread in threads:
        thread.join()
    if trace:
        spans.set_tracing(False)
    phase.wall = perf_counter() - start - state["paused"]
    if errors:
        raise errors[0]
    return phase


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "cycle_cal": (statistics.median(phase.in_calibrations(False)), "cal"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(phase: Phase, spans) -> dict:
    """Per-layer metrics: ``*_s`` are inclusive seconds per traced
    cycle; counts and ratios cover the first traced cycles only."""
    recorder = spans.RECORDER
    totals = recorder.totals()
    cycles = max(1, len(phase.seconds(True)))
    exact = phase.exact

    def seconds(*names: str) -> float:
        return sum(
            totals.get(name, {}).get("seconds", 0.0) for name in names
        ) / cycles

    def count(name: str) -> float:
        return exact.get(name, 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits = count("kernel.vector_cache_hits")
    builds = count("kernel.vector_builds") + count("kernel.subset_builds")
    traced_wall = sum(phase.seconds(True))
    covered = recorder.covered_seconds()
    metrics = {
        "dataset.copy_s": seconds("dataset.copy"),
        "dataset.incomplete_rows_s": seconds("dataset.incomplete_rows"),
        "dataset.csv_s": seconds("dataset.csv"),
        "discovery.discover_s": seconds("discovery.discover"),
        "discovery.matrix_s": seconds("discovery.matrix"),
        "discovery.prune_s": seconds("discovery.prune"),
        "discovery.rfds": count("discovery.rfds"),
        "discovery.insert_s": seconds("discovery.insert"),
        "discovery.insert_rows": count("discovery.insert_rows"),
        "distance.lev_calls": count("distance.lev_calls"),
        "distance.lev_length_filtered": count(
            "distance.lev_length_filtered"
        ),
        "distance.vector_s": seconds("distance.vector"),
        "distance.vector_hit_ratio": ratio(hits, hits + builds),
        "core.impute_s": seconds("core.impute"),
        "core.preprocess_s": seconds("core.preprocess"),
        "core.selection_s": seconds("core.selection"),
        "core.candidates_s": seconds("core.candidates"),
        "core.candidates": count("core.candidates"),
        "core.verify_s": seconds("core.verify"),
        "core.verify_calls": count("calls.core.verify"),
        "core.verify_accept_ratio": ratio(
            count("core.verify_accepted"), count("calls.core.verify")
        ),
        "core.cells": count("core.cells"),
        "core.cells_imputed": count("core.cells_imputed"),
        "index.probe_s": seconds("index.probe"),
        "index.probes": count("kernel.index_probes"),
        "index.served_ratio": ratio(
            count("kernel.index_served_probes"),
            count("kernel.index_probes"),
        ),
        "index.pruned_pairs": count("kernel.index_pruned_pairs"),
        "index.fallbacks": count("kernel.index_fallbacks"),
        "index.builds": count("kernel.index_builds"),
        "index.updates": count("kernel.index_updates"),
        "index.update_s": seconds("index.update"),
        "service.queue_wait_s": seconds("service.queue_wait"),
        "service.prepare_rfds_s": seconds("service.prepare_rfds"),
        "service.cache_hit_ratio": ratio(
            count("service.cache_hits"),
            count("calls.service.prepare_rfds"),
        ),
        "service.impute_s": seconds("service.impute"),
        "service.session_append_s": seconds("service.session_append"),
        "service.session_impute_s": seconds("service.session_impute"),
        "service.persist_s": seconds("service.persist"),
        "service.persists": count("calls.service.persist"),
        "pipeline.run_s": seconds("pipeline.run"),
        "pipeline.ingest_s": seconds("pipeline.ingest"),
        "pipeline.state_save_s": seconds("pipeline.state_save"),
        "pipeline.state_saves": count("calls.pipeline.state_save"),
        "pipeline.commit_s": seconds("pipeline.commit"),
        "pipeline.impute_s": recorder.seconds_under(
            "core.impute", "pipeline.run"
        ) / cycles,
        "pipeline.degraded_runs": count("pipeline.degraded_runs"),
        "journal.records": count("calls.journal.write"),
        "journal.write_s": seconds("journal.write"),
        "trace.overhead": (
            statistics.median(phase.in_calibrations(True))
            / statistics.median(phase.in_calibrations(False)) - 1.0
        ),
        "trace.unattributed_share": max(
            0.0, 1.0 - ratio(covered, traced_wall)
        ),
    }
    for key in sorted(exact):
        if key.startswith("index.fallbacks."):
            metrics[key] = exact[key]
    return metrics


UNITS = (("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio"))


def unit_of(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this run's digests as the default seed's reference",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    import workloads
    from calibration import calibrate

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"--workload must be one of {sorted(workloads.WORKLOADS)}"
        )
    factory = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times: list[float] = []
    workload = None
    try:
        for attempt in range(1 if traced else MAX_SETUPS):
            if attempt >= SETUPS and sum(setup_times) >= SETUP_SECONDS:
                break
            if workload is not None:
                workload.teardown()
                workload = None
                gc.collect()
            candidate = factory()
            began = perf_counter()
            candidate.setup(args.seed, workdir / f"setup-{attempt}", traced)
            setup_times.append(perf_counter() - began)
            workload = candidate
        # The inputs live for the whole run; freezing them keeps the
        # collector from rescanning them in every cycle.
        gc.collect()
        gc.freeze()
        phase = drive(
            workload, args.seconds, traced, spans,
            workloads.program_counters, calibrate,
        )
        f1, problems, digests = workload.finish(args.seed)
        figures = workload.console_figures(phase.ops, phase.wall)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.write_reference:
        reference = workloads.load_reference()
        reference[args.workload] = digests
        workloads.REFERENCE.write_text(
            json.dumps(reference, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    elif args.seed == workloads.DEFAULT_SEED:
        expected = workloads.load_reference().get(args.workload, {})
        for key, value in digests.items():
            if expected.get(key) != value:
                problems.append(f"digest of {key} differs from reference")

    attempted = sum(op.requests for op in phase.ops)
    failed = sum(op.failed for op in phase.ops)
    correct = not problems
    if not correct:
        failed = attempted
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced = phase.seconds(False)
    print(f"workload {args.workload}  seed {args.seed}  cycles "
          f"{len(untraced)} untraced + {len(phase.seconds(True))} traced  "
          f"set-ups {[round(t, 3) for t in setup_times]}")
    requests = sum(op.requests for op in phase.ops)
    people = {
        "wall_s": (statistics.median(untraced), "s"),
        "calibration_ms": (
            statistics.median(c for _, _, c in phase.cycles) * 1e3, "ms"
        ),
        "ops_per_s": (requests / phase.wall, "1/s"),
        "f1": (f1, "ratio"),
        **figures,
        "failed_frac": (failed / max(attempted, 1), "ratio"),
    }
    if traced:
        metrics = {
            name: (value, unit_of(name))
            for name, value in per_layer(phase, spans).items()
        }
        unattributed = metrics["trace.unattributed_share"][0]
        for line in spans.self_time_table(
            spans.RECORDER.totals(), sum(phase.seconds(True)),
            len(phase.seconds(True)), unattributed,
        ):
            print(line)
        trace_path = RUNS / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.write_spans(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(phase, setup_times)
        for name, (value, unit) in {**metrics, **people}.items():
            print(f"  {name:<16} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
