"""Graceful shutdown of the CLI: SIGINT/SIGTERM → exit 130.

Runs ``python -m repro impute --journal`` as a real subprocess in its
own process group, interrupts it mid-run, and checks the contract: exit
code 130, the ``interrupted`` message, a replayable journal prefix on
disk, and no process left behind in the group.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import inject_missing, parse_rfd, save_rfds, write_csv
from repro.datasets.physician import generate_physician
from repro.robustness import load_journal

pytestmark = pytest.mark.chaos

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

RFDS = (
    "Zip(<=0) -> City(<=0)",
    "Zip(<=0) -> State(<=0)",
    "OrgId(<=0) -> Street(<=0)",
    "OrgId(<=0) -> Zip(<=0)",
    "Organization(<=1) -> City(<=2)",
    "Street(<=1) -> Zip(<=2)",
    "Street(<=1) -> City(<=2)",
)
TUPLES = 10000
CELLS = 8000


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A dirty CSV and RFD file big enough to interrupt mid-run.

    The signal is sent once the first cell is journaled.  On a 2-core
    host this run spends about 6 s settling cells after that point
    (8 s in all), so the signal lands mid-run with room to spare on a
    faster host.  Donor scans are one-vs-all, so that margin grows with
    tuples times cells: 4000 tuples and 3000 cells leave only 1.6 s,
    and a 400-tuple restaurant input finishes in 0.75 s, startup
    included.
    """
    base = tmp_path_factory.mktemp("shutdown")
    clean = generate_physician(TUPLES)
    dirty = inject_missing(
        clean, count=CELLS, seed=3,
        attributes=("City", "State", "Street", "Zip"),
    )
    csv_path = base / "dirty.csv"
    rfd_path = base / "rfds.txt"
    write_csv(dirty.relation, csv_path)
    save_rfds([parse_rfd(text) for text in RFDS], rfd_path)
    return csv_path, rfd_path


def _group_is_empty(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    return False


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupt_flushes_journal(cli_inputs, tmp_path, signum):
    csv_path, rfd_path = cli_inputs
    journal = tmp_path / f"run-{signum}.jsonl"
    out = tmp_path / f"out-{signum}.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "impute", str(csv_path),
            "--rfds", str(rfd_path), "--journal", str(journal),
            "--out", str(out),
        ],
        env=env,
        start_new_session=True,  # its own process group, checkable later
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    pgid = os.getpgid(process.pid)
    try:
        # Wait for the run to get going: its first cell is journaled.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                pytest.fail(
                    "run finished before it could be interrupted: "
                    + process.stderr.read()
                )
            if journal.exists() and any(
                '"type": "cell"' in line
                for line in journal.read_text().splitlines()
            ):
                break
            time.sleep(0.02)
        process.send_signal(signum)
        _, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup path
            os.killpg(pgid, signal.SIGKILL)
            process.wait()
    assert process.returncode == 130, stderr
    assert "interrupted" in stderr
    # The journal on disk is a valid, replayable prefix.
    records = load_journal(journal)
    assert records[0]["type"] == "header"
    assert all("type" in record for record in records)
    assert any(record["type"] == "cell" for record in records)
    assert records[-1]["type"] != "end"
    assert json.loads(journal.read_text().splitlines()[0])
    # No orphans: the whole process group is gone.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if _group_is_empty(pgid):
            break
        time.sleep(0.1)
    assert _group_is_empty(pgid), "processes were left in the group"
