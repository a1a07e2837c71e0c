"""One distance memo pool per :class:`PreparedEngine`.

Every one-shot and every session round the engine serves reads the
engine's string-distance memos.  These tests hold the promises that
sharing makes: concurrent requests get the answers serial library runs
get, a run's kernel counters and cache report count its own work, and
traffic that never repeats a value neither changes an answer nor grows
the pool or a run's memo rows past their bounds.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.renuver import Renuver
from repro.dataset import MISSING, Relation
from repro.dataset.attribute import AttributeType
from repro.dataset.csv_io import to_csv_text
from repro.datasets import load_dataset
from repro.discovery import DiscoveryConfig, discover_rfds
from repro.discovery.incremental import IncrementalDiscovery
from repro.distance import kernels as kernels_module
from repro.evaluation.injection import inject_missing
from repro.extensions.incremental import ImputationSession
from repro.service import PreparedEngine, ServiceConfig

pytestmark = pytest.mark.service

DISCOVERY = DiscoveryConfig(
    threshold_limit=3, max_lhs_size=1, grid_size=3, max_per_rhs=15
)
TUPLES = 60
INSTANCES = 3
ROUNDS = 5
ROWS_PER_ROUND = 2


@pytest.fixture(scope="module")
def data():
    clean = load_dataset("restaurant", n_tuples=300, seed=0)
    dirty = inject_missing(clean, rate=0.05, seed=1).relation
    instances = [
        dirty.take(list(range(start, start + TUPLES)), name="request")
        for start in range(0, INSTANCES * TUPLES, TUPLES)
    ]
    rfds = [discover_rfds(instance, DISCOVERY).all_rfds
            for instance in instances]
    held_out = [
        dirty.row_values(row)
        for row in range(INSTANCES * TUPLES, dirty.n_tuples)
    ]
    return instances, rfds, held_out


def _rounds(client, held_out):
    """The batches client ``client``'s session receives, in order."""
    start = client * ROUNDS * ROWS_PER_ROUND
    return [
        held_out[start + k * ROWS_PER_ROUND:
                 start + (k + 1) * ROWS_PER_ROUND]
        for k in range(ROUNDS)
    ]


def _answer(result):
    return to_csv_text(result.relation), repr(result.report.outcomes)


def _oneshot_instance(client, index):
    return (index + client) % INSTANCES


class TestConcurrentRequests:
    def test_two_threads_answer_as_serial_library_runs(self, data):
        instances, rfds, held_out = data
        engine = PreparedEngine(ServiceConfig(discovery=DISCOVERY))
        sessions = [
            engine.open_session(instances[client])[0]
            for client in range(2)
        ]
        answers: dict[int, list] = {0: [], 1: []}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def client(number):
            try:
                barrier.wait()
                session = sessions[number]
                for index, batch in enumerate(_rounds(number, held_out)):
                    instance = _oneshot_instance(number, index)
                    result, _ = engine.impute_once(
                        instances[instance], rfds[instance]
                    )
                    answers[number].append(_answer(result))
                    session.append(batch)
                    answers[number].append(
                        _answer(session.impute_pending())
                    )
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(number,))
            for number in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        for number in range(2):
            expected = []
            maintainer = IncrementalDiscovery(
                instances[number],
                DISCOVERY,
                initial=discover_rfds(instances[number], DISCOVERY),
            )
            session = ImputationSession(
                instances[number],
                maintainer.all_rfds,
                maintainer=maintainer,
            )
            for index, batch in enumerate(_rounds(number, held_out)):
                instance = _oneshot_instance(number, index)
                expected.append(_answer(
                    Renuver(rfds[instance]).impute(instances[instance])
                ))
                session.append(batch)
                expected.append(_answer(session.impute_pending()))
            assert answers[number] == expected


class TestPerRunCounters:
    def test_repeated_warm_oneshot_counts_only_its_own_work(
        self, data, monkeypatch
    ):
        instances, rfds, _ = data
        engines = []
        make_engine = Renuver._make_engine

        def recording(self, relation):
            engine = make_engine(self, relation)
            engines.append(engine)
            return engine

        monkeypatch.setattr(Renuver, "_make_engine", recording)
        engine = PreparedEngine()
        reports, caches = [], []
        for _ in range(3):
            result, _ = engine.impute_once(instances[0], rfds[0])
            reports.append(result.report.kernel_counters)
            caches.append(engines[-1].kernels.cache_report())
        assert reports[0]["levenshtein_dp_calls"] > 0
        for counters, cache in zip(reports[1:], caches[1:]):
            assert counters["levenshtein_dp_calls"] == 0
            assert counters["levenshtein_dp_blocked"] == 0
            assert sum(hits for hits, _, _ in cache.values()) > 0
            assert all(
                (misses, size) == (0, 0)
                for _, misses, size in cache.values()
            )
        # The memo's lifetime is not summed in: the third run reports
        # what the second did, not twice as much.
        assert caches[2] == caches[1]
        assert reports[2] == reports[1]


def _renamed(relation, tag):
    """``relation`` with ``~tag`` appended to every present string, so
    no value repeats across differently tagged instances."""
    columns = {
        attribute.name: [
            value if value is MISSING
            or attribute.type is not AttributeType.STRING
            else f"{value}~{tag}"
            for value in relation.column(attribute.name)
        ]
        for attribute in relation.attributes
    }
    return Relation(relation.attributes, columns, name=relation.name)


class TestDistinctInstances:
    def test_pool_and_rows_stay_bounded_without_repeats(
        self, data, monkeypatch
    ):
        """Twelve one-shots, none repeating a value an earlier one saw:
        every answer equals a private-memo run, the pool holds at most
        its budget after every memo row it makes, and no row is wider
        than the run's column allows."""
        instances, rfds, _ = data
        budget = 64 * 2**10
        monkeypatch.setattr(kernels_module, "MEMO_POOL_BYTES", budget)
        monkeypatch.setattr(kernels_module, "_MIN_ROW_CELLS", 0)
        engine = PreparedEngine()
        pool = engine.memo_pool
        widths, held, memos, keys = [], [], {}, set()
        row = kernels_module._ValueMemo.row

        def recording(memo, target, size):
            answer = row(memo, target, size)
            widths.append(answer[0].size)
            held.append(pool.nbytes)
            memos[id(memo)] = memo  # held, so no id is reused
            return answer

        monkeypatch.setattr(kernels_module._ValueMemo, "row", recording)
        for tag in range(12):
            instance = _renamed(instances[tag % INSTANCES], tag)
            result, _ = engine.impute_once(instance, rfds[tag % INSTANCES])
            expected = Renuver(rfds[tag % INSTANCES]).impute(instance)
            assert _answer(result) == _answer(expected)
            keys.update(pool._memos)
        assert widths and held
        # At hand-out a memo holds at most 8 values per row of the run's
        # column; the run adds at most one per row; one sentinel cell.
        assert max(widths) <= (kernels_module._CELLS_PER_ROW + 1) * TUPLES + 1
        assert max(held) <= budget
        # Memos were replaced: more of them than (attribute, limit) keys.
        assert len(memos) > len(keys)
        assert pool.nbytes <= budget
