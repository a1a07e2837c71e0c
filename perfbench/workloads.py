"""The four benchmark workloads.

Each workload builds its inputs deterministically from the seed, runs
closed-loop cycles (a caller issues its next operation only after the previous one
returned), and checks its outputs after the timed phase.  See README.md
for why each one exists and which layers it moves.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from repro import (
    DiscoveryConfig,
    Relation,
    Renuver,
    inject_missing,
    load_dataset,
    load_rule_file,
    parse_rfd,
    read_csv_text,
    write_csv,
)
from repro.dataset.csv_io import to_csv_text
from repro.dataset.missing import MISSING, is_missing
from repro.datasets.physician import generate_physician
from repro.distance.levenshtein import BOUNDED_STATS
from repro.evaluation.metrics import Scores
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.reconcile import load_store_relation
from repro.pipeline.state import RunStateStore
from repro.robustness.journal import cell_record
from repro.service import ArtifactStore, build_server
from repro.telemetry import NULL_TELEMETRY, NULL_TRACER, MetricsRegistry
from repro.telemetry import Telemetry, Tracer

ROOT = Path(__file__).resolve().parent.parent
RULES = ROOT / "rules"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Digests in reference.json are for this seed.
DEFAULT_SEED = 1
#: A seed no reference was derived from; it runs the invariant checks.
HELDOUT_SEED = 2
MISSING_RATE = 0.03

FALLBACK_REASONS = (
    "unindexed", "full_scan", "unsupported", "hot_group", "probe_cost",
)


@dataclass
class Op:
    """One timed operation of a cycle."""

    kind: str
    seconds: float
    requests: int = 1
    failed: int = 0


def validator(dataset: str):
    return load_rule_file(RULES / f"{dataset}.json")


def pooled(scores: list[Scores]) -> Scores:
    return Scores(
        missing=sum(s.missing for s in scores),
        imputed=sum(s.imputed for s in scores),
        correct=sum(s.correct for s in scores),
    )


def score_cells(relation: Relation, truth: dict, rules) -> Scores:
    """Scores over ``truth`` ((row, attribute) -> expected value)."""
    imputed = correct = 0
    for (row, attribute), expected in truth.items():
        value = relation.value(row, attribute)
        if is_missing(value):
            continue
        imputed += 1
        correct += rules.is_correct(attribute, value, expected)
    return Scores(missing=len(truth), imputed=imputed, correct=correct)


def result_digest(result) -> str:
    """SHA-256 over the imputed relation and its cell outcomes."""
    digest = hashlib.sha256(to_csv_text(result.relation).encode("utf-8"))
    for outcome in result.report.outcomes:
        digest.update(json.dumps(
            cell_record(outcome), sort_keys=True, default=str
        ).encode("utf-8"))
    return digest.hexdigest()


def outcome_problems(label: str, injection, result) -> list[str]:
    """Seed-independent checks of one library imputation.

    Every injected cell has exactly one outcome, no other cell changed,
    no cell was settled by a fault, and each filled value equals its
    donor tuple's value.
    """
    problems: list[str] = []
    dirty, out = injection.relation, result.relation
    report = result.report
    cells = {(o.row, o.attribute) for o in report.outcomes}
    if cells != set(injection.ground_truth):
        problems.append(f"{label}: outcomes do not cover the injected cells")
    if report.degraded_count or report.degradations:
        problems.append(f"{label}: {report.degraded_count} degraded cells")
    changed = set(dirty.diff_cells(out))
    if not changed <= cells:
        problems.append(f"{label}: cells outside the missing ones changed")
    for outcome in report.outcomes:
        if not outcome.filled:
            continue
        value = out.value(outcome.row, outcome.attribute)
        donor = out.value(outcome.source_row, outcome.attribute)
        if value != outcome.value or donor != value:
            problems.append(
                f"{label}: cell ({outcome.row}, {outcome.attribute}) "
                f"does not hold its donor's value"
            )
            break
    return problems


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


class Workload:
    """Interface the loop in run.py uses."""

    name = ""
    #: Closed-loop callers running cycles at once.
    clients = 1
    #: Cycles each caller completes before an untraced run may stop.
    min_cycles = 1
    #: Traced cycles per caller whose counts the traced run reports.
    traced_cycles = 1

    def setup(self, seed: int, workdir: Path, traced: bool) -> None:
        raise NotImplementedError

    def cycle(self, client: int, index: int) -> list[Op]:
        raise NotImplementedError

    def finish(self, seed: int) -> tuple[float, list[str], dict]:
        """``(f1, problems, digests)`` once the timed phase is over."""
        raise NotImplementedError

    def registries(self) -> list:
        """Metrics registries the program fed during the run."""
        return []

    def teardown(self) -> None:
        pass

    def console_figures(self, ops: list[Op], wall: float) -> dict:
        """The workload's own end-to-end figures for the console."""
        return {}


def _metrics_telemetry(traced: bool) -> Telemetry:
    """Library callers run with the disabled default; traced runs add a
    registry (no tracer) so index fallbacks are counted by reason."""
    if traced:
        return Telemetry(tracer=NULL_TRACER, metrics=MetricsRegistry())
    return NULL_TELEMETRY


# ----------------------------------------------------------------------
# paper-cold: discovery + impute on the four paper-size datasets
# ----------------------------------------------------------------------
PAPER_DATASETS = ("restaurant", "cars", "glass", "bridges")
PAPER_DISCOVERY = DiscoveryConfig(
    threshold_limit=3, max_lhs_size=2, grid_size=3, max_per_rhs=40,
    max_pairs=300_000,
)


class PaperCold(Workload):
    name = "paper-cold"
    #: One pass takes about 12 s; a second one averages out part of
    #: what the machine's drift during a single pass does to the median.
    min_cycles = 2

    def setup(self, seed, workdir, traced):
        self.telemetry = _metrics_telemetry(traced)
        self.inputs = [
            (name, inject_missing(
                load_dataset(name, seed=0), rate=MISSING_RATE, seed=seed
            ))
            for name in PAPER_DATASETS
        ]
        self.first: dict[str, Any] = {}
        self.problems: list[str] = []

    def cycle(self, client, index):
        ops = []
        for name, injection in self.inputs:
            start = perf_counter()
            discovery = discover_rfds(injection.relation, PAPER_DISCOVERY)
            result = Renuver(
                discovery.all_rfds, telemetry=self.telemetry
            ).impute(injection.relation)
            ops.append(Op(f"impute:{name}", perf_counter() - start))
            first = self.first.setdefault(name, result)
            if first is not result and not (
                first.report.outcomes == result.report.outcomes
                and first.relation.equals(result.relation)
            ):
                self.problems.append(f"{name}: cycle {index} differs")
                ops[-1].failed = 1
        return ops

    def finish(self, seed):
        problems = list(self.problems)
        scores, digests = [], {}
        for name, injection in self.inputs:
            result = self.first[name]
            problems += outcome_problems(name, injection, result)
            scores.append(score_cells(
                result.relation, injection.ground_truth, validator(name)
            ))
            digests[name] = result_digest(result)
        return pooled(scores).f1, problems, digests

    def registries(self):
        return [self.telemetry.metrics]


def discover_rfds(relation, config):
    # Looked up at call time so traced runs see the wrapped function.
    import repro.discovery.dime as dime

    return dime.discover_rfds(relation, config)


# ----------------------------------------------------------------------
# physician-10k: blocked imputation at 10k tuples, pinned RFDs
# ----------------------------------------------------------------------
PHYSICIAN_RFDS = (
    "Zip(<=0) -> City(<=0)",
    "Zip(<=0) -> State(<=0)",
    "OrgId(<=0) -> Street(<=0)",
    "OrgId(<=0) -> Zip(<=0)",
    "Organization(<=1) -> City(<=2)",
    "Street(<=1) -> Zip(<=2)",
    "Street(<=1) -> City(<=2)",
    "OrgId(<=0), GradYear(<=1) -> YearsExperience(<=1)",
)
PHYSICIAN_INJECT = ("City", "State", "Street", "Zip", "YearsExperience")
PHYSICIAN_CELLS = 8000
#: 10k tuples: blocking engages (it needs 5000), and an impute takes a
#: few seconds, so a run holds more than one.  Per-cell cost is heavy
#: tailed (probes that fall back to a full scan), so at 2000 cells the
#: seed's choice of cells moved the median cycle by 14% (quartile
#: spread over ten seeds) against 4% between runs of one seed; 8000
#: cells average that out.  At 100k one impute takes
#: 6-9 s and the same input varies by 10-16% between imputes on a shared
#: host, which no run length affordable here averages out.
PHYSICIAN_SCALE = 10


class Physician10k(Workload):
    name = "physician-10k"

    def setup(self, seed, workdir, traced):
        self.telemetry = _metrics_telemetry(traced)
        self.rfds = [parse_rfd(text) for text in PHYSICIAN_RFDS]
        relation = generate_physician(
            1000, seed=0, scale=PHYSICIAN_SCALE
        )
        self.injection = inject_missing(
            relation, count=PHYSICIAN_CELLS, seed=seed,
            attributes=PHYSICIAN_INJECT,
        )
        self.first = None
        self.problems: list[str] = []

    def cycle(self, client, index):
        start = perf_counter()
        result = Renuver(self.rfds, telemetry=self.telemetry).impute(
            self.injection.relation
        )
        op = Op("impute", perf_counter() - start)
        if self.first is None:
            self.first = result
        elif not (
            self.first.report.outcomes == result.report.outcomes
            and self.first.relation.equals(result.relation)
        ):
            self.problems.append(f"cycle {index} differs")
            op.failed = 1
        return [op]

    def finish(self, seed):
        result = self.first
        problems = self.problems + outcome_problems(
            self.name, self.injection, result
        )
        counters = result.report.kernel_counters
        if not counters.get("index_served_probes"):
            problems.append("the blocking index never served a probe")
        scores = score_cells(
            result.relation, self.injection.ground_truth,
            validator("physician"),
        )
        return scores.f1, problems, {"impute": result_digest(result)}

    def registries(self):
        return [self.telemetry.metrics]

    def teardown(self):
        self.injection = self.first = None


# ----------------------------------------------------------------------
# service-mixed: warm one-shots beside session rounds, two clients
# ----------------------------------------------------------------------
SERVICE_TUPLES = 200
#: One-shots rotate over this many disjoint 200-tuple instances, so a
#: run's latency does not hang on one instance's discovered RFD set.
SERVICE_INSTANCES = 4
SERVICE_DISCOVERY = {
    "limit": 3, "max_lhs": 1, "grid_size": 3, "max_per_rhs": 15,
}
#: The same options as the library sees them.
SERVICE_DISCOVERY_CONFIG = DiscoveryConfig(
    threshold_limit=3, max_lhs_size=1, grid_size=3, max_per_rhs=15,
)
SESSION_ROWS = 2


def _post(base: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        error.read()
        return error.code, {}


def _json_row(values) -> list:
    return [None if value is MISSING else value for value in values]


class ServiceMixed(Workload):
    name = "service-mixed"
    clients = 2
    min_cycles = 50
    traced_cycles = 10

    def setup(self, seed, workdir, traced):
        clean = load_dataset("restaurant", seed=0)
        injection = inject_missing(clean, rate=MISSING_RATE, seed=seed)
        dirty = injection.relation
        self.truth = injection.ground_truth
        self.windows = [
            range(start, start + SERVICE_TUPLES)
            for start in range(
                0, SERVICE_INSTANCES * SERVICE_TUPLES, SERVICE_TUPLES
            )
        ]
        self.bodies = [
            {
                "csv": to_csv_text(dirty.take(list(rows), name="request")),
                "discovery": SERVICE_DISCOVERY,
            }
            for rows in self.windows
        ]
        artifacts = workdir / "artifacts"
        self.server = build_server(
            "127.0.0.1", 0, artifact_dir=str(artifacts)
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.base = f"http://127.0.0.1:{self.server.port}"
        self.problems: list[str] = []
        store = ArtifactStore(artifacts)
        self.expected = []
        for body in self.bodies:
            status, cold = _post(self.base, "/v1/impute", body)
            if status != 200 or cold.get("rfd_source") != "discovered":
                raise RuntimeError(f"cold request failed ({status})")
            # The library reference: the same input, the cached RFDs.
            relation = read_csv_text(body["csv"], name="request")
            cached = store.load_discovery(relation, SERVICE_DISCOVERY_CONFIG)
            self.expected.append(to_csv_text(
                Renuver(cached.all_rfds).impute(relation).relation
            ))
        # Client c's session starts from instance c and receives the
        # tuples outside that instance, in order, as held-out rows.
        self.sessions, self.pools = [], []
        for client in range(self.clients):
            status, created = _post(
                self.base, "/v1/sessions", self.bodies[client]
            )
            if status != 201:
                raise RuntimeError(f"session create failed ({status})")
            session = created["id"]
            status, _ = _post(
                self.base, f"/v1/sessions/{session}/impute", {}
            )
            if status != 200:
                raise RuntimeError(f"session impute failed ({status})")
            self.sessions.append(session)
            own = self.windows[client]
            order = list(range(own.stop, dirty.n_tuples)) + list(
                range(own.start)
            )
            self.pools.append(
                [_json_row(dirty.row_values(row)) for row in order]
            )

    def cycle(self, client, index):
        instance = (index * self.clients + client) % SERVICE_INSTANCES
        start = perf_counter()
        status, answer = _post(
            self.base, "/v1/impute", self.bodies[instance]
        )
        oneshot = Op("oneshot", perf_counter() - start)
        expected = self.expected[instance]
        if (
            status != 200
            or answer.get("rfd_source") != "cache"
            or answer.get("csv") != expected
        ):
            oneshot.failed = 1
            self.problems.append(
                f"one-shot {client}/{index}: status {status}, "
                f"source {answer.get('rfd_source')}, csv "
                f"{'equal' if answer.get('csv') == expected else 'differs'}"
            )
        session = self.sessions[client]
        pool = self.pools[client]
        rows = [
            pool[(index * SESSION_ROWS + k) % len(pool)]
            for k in range(SESSION_ROWS)
        ]
        start = perf_counter()
        appended, _ = _post(
            self.base, f"/v1/sessions/{session}/tuples", {"rows": rows}
        )
        imputed, payload = _post(
            self.base, f"/v1/sessions/{session}/impute", {}
        )
        round_op = Op("round", perf_counter() - start, requests=2)
        report = payload.get("report", {})
        if appended != 200 or imputed != 200 or report.get(
            "degraded_cells", 1
        ):
            round_op.failed = 2
            self.problems.append(
                f"session round {client}/{index}: statuses "
                f"{appended}/{imputed}"
            )
        return [oneshot, round_op]

    def finish(self, seed):
        rules = validator("restaurant")
        scores = []
        for rows, expected in zip(self.windows, self.expected):
            truth = {
                (row - rows.start, attribute): value
                for (row, attribute), value in self.truth.items()
                if row in rows
            }
            scores.append(score_cells(
                read_csv_text(expected, name="expected"), truth, rules
            ))
        return pooled(scores).f1, list(self.problems), {}

    def registries(self):
        return [self.server.telemetry.metrics]

    def teardown(self):
        self.server.drain()
        self.thread.join()

    def console_figures(self, ops, wall):
        out = {}
        for kind in ("oneshot", "round"):
            values = sorted(op.seconds for op in ops if op.kind == kind)
            out[f"{kind}_p50_ms"] = (percentile(values, 0.5) * 1e3, "ms")
            out[f"{kind}_p90_ms"] = (percentile(values, 0.9) * 1e3, "ms")
        requests = sum(op.requests for op in ops)
        out["req_per_s"] = (requests / wall, "1/s")
        return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted sample."""
    if not sorted_values:
        return 0.0
    rank = round(q * (len(sorted_values) - 1))
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


# ----------------------------------------------------------------------
# pipeline-incr: successive INCR runs over 1% batches
# ----------------------------------------------------------------------
PIPELINE_DISCOVERY = DiscoveryConfig(
    threshold_limit=3, max_lhs_size=1, grid_size=3,
)
BOOTSTRAP_SHARE = 0.7
#: The store the INCR runs extend is a fixture: its 3% missing cells come
#: from this seed whatever ``--seed`` is.  Incremental maintenance cost
#: follows the bootstrap's handful of RFDs, which would otherwise differ
#: by seed and swamp what a change to the program does.  ``--seed``
#: drives what arrives: which held-out rows, in which order, with which
#: cells missing.
STORE_SEED = 0
BATCH_ROWS = 8
#: INCR runs whose journals and stores the default-seed digest covers.
DIGEST_RUNS = 10


class PipelineIncr(Workload):
    name = "pipeline-incr"
    min_cycles = DIGEST_RUNS
    traced_cycles = DIGEST_RUNS

    def setup(self, seed, workdir, traced):
        clean = load_dataset("restaurant", seed=0)
        self.split = int(clean.n_tuples * BOOTSTRAP_SHARE)
        store = inject_missing(clean, rate=MISSING_RATE, seed=STORE_SEED)
        arriving = inject_missing(clean, rate=MISSING_RATE, seed=seed)
        self.order = list(range(self.split, clean.n_tuples))
        random.Random(seed).shuffle(self.order)
        self.truth = {
            cell: value for cell, value in store.ground_truth.items()
            if cell[0] < self.split
        }
        self.truth.update(
            (cell, value) for cell, value in arriving.ground_truth.items()
            if cell[0] >= self.split
        )
        self.attributes = list(clean.attributes)
        self.pool = [
            arriving.relation.row_values(row) for row in self.order
        ]
        self.root = workdir / "root"
        self.ingest = workdir / "ingest"
        self.ingest.mkdir(parents=True)
        write_csv(
            Relation.from_rows(
                self.attributes,
                [
                    store.relation.row_values(row)
                    for row in range(self.split)
                ],
                name="base",
            ),
            self.ingest / "b00000.csv",
        )
        self.registry = MetricsRegistry()
        bootstrap = self._pipeline().run()
        if bootstrap.mode != "full":
            raise RuntimeError(f"bootstrap ran {bootstrap.mode}")
        self.runs: list[dict] = []
        self.problems: list[str] = []

    def _pipeline(self) -> Pipeline:
        # A fresh Pipeline per run, as the CLI makes one; the registry is
        # shared so the run counters add up across runs.
        return Pipeline(
            self.root, self.ingest,
            PipelineConfig(discovery=PIPELINE_DISCOVERY),
            telemetry=Telemetry(tracer=Tracer(), metrics=self.registry),
        )

    def cycle(self, client, index):
        start_row = index * BATCH_ROWS
        rows = [
            self.pool[(start_row + k) % len(self.pool)]
            for k in range(BATCH_ROWS)
        ]
        write_csv(
            Relation.from_rows(self.attributes, rows, name="batch"),
            self.ingest / f"b{index + 1:05d}.csv",
        )
        start = perf_counter()
        result = self._pipeline().run()
        op = Op("incr", perf_counter() - start)
        if (
            result.mode != "incr"
            or result.discovered is not False
            or result.degraded_reason is not None
            or result.rows_ingested != BATCH_ROWS
        ):
            op.failed = 1
            self.problems.append(
                f"run {index}: mode {result.mode}, discovered "
                f"{result.discovered}, degraded {result.degraded_reason}"
            )
        if index < DIGEST_RUNS:
            self.runs.append({
                "run": result.run_id,
                "cells_imputed": result.cells_imputed,
                "cells_unresolved": result.cells_unresolved,
                "journal": str(result.run_dir / "journal.jsonl"),
            })
        return [op]

    def finish(self, seed):
        digest = hashlib.sha256()
        for run in self.runs:
            cells = [
                line for line in Path(run["journal"]).read_text(
                    encoding="utf-8"
                ).splitlines()
                if json.loads(line).get("type") == "cell"
            ]
            digest.update(json.dumps(
                [run["run"], run["cells_imputed"], run["cells_unresolved"],
                 cells]
            ).encode("utf-8"))
        state = RunStateStore(self.root).load()
        store = load_store_relation(self.root, state.store)
        return (
            self._store_scores(store).f1,
            list(self.problems),
            {"incr_runs": digest.hexdigest()},
        )

    def _store_scores(self, store: Relation) -> Scores:
        """Scores over every injected cell the committed store holds."""
        truth = self.truth
        mapped = {}
        for row in range(store.n_tuples):
            source = row if row < self.split else self.order[
                (row - self.split) % len(self.order)
            ]
            for attribute in store.attribute_names:
                if (source, attribute) in truth:
                    mapped[(row, attribute)] = truth[(source, attribute)]
        return score_cells(store, mapped, validator("restaurant"))

    def registries(self):
        return [self.registry]

    def console_figures(self, ops, wall):
        values = sorted(op.seconds for op in ops)
        return {"incr_p50_ms": (percentile(values, 0.5) * 1e3, "ms")}


WORKLOADS = {
    cls.name: cls
    for cls in (PaperCold, Physician10k, ServiceMixed, PipelineIncr)
}


def program_counters(workload: Workload) -> dict[str, float]:
    """Counters the program keeps itself: the process-wide Levenshtein
    tallies, and index fallbacks by reason and pipeline degradations
    from the metrics registries."""
    counters = {
        "distance.lev_calls": float(BOUNDED_STATS.calls),
        "distance.lev_length_filtered": float(
            BOUNDED_STATS.length_filtered
        ),
    }
    registries = workload.registries()
    for reason in FALLBACK_REASONS:
        counters[f"index.fallbacks.{reason}"] = sum(
            registry.value(
                "renuver_index_fallbacks_total", reason=reason
            ) or 0.0
            for registry in registries
        )
    counters["pipeline.degraded_runs"] = sum(
        instrument.value
        for registry in registries
        for family in registry.families()
        if family.name == "renuver_pipeline_degradations_total"
        for instrument in family.instruments.values()
    )
    return counters
