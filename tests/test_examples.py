"""The shipped examples stay runnable (quick ones run end to end)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

ALL_EXAMPLES = [
    "quickstart.py",
    "restaurant_cleaning.py",
    "compare_imputers.py",
    "discovery_tour.py",
    "physician_scaling.py",
    "incremental_stream.py",
    "service_client.py",
]

# Examples cheap enough for the unit-test suite; the heavyweight ones
# (full comparisons, paper-sized datasets) run as part of the benches.
QUICK_EXAMPLES = ["quickstart.py", "discovery_tour.py",
                  "service_client.py", "incremental_stream.py"]


class TestExamplesInventory:
    def test_all_examples_exist(self):
        for name in ALL_EXAMPLES:
            assert (EXAMPLES_DIR / name).exists(), name

    def test_examples_compile(self):
        for name in ALL_EXAMPLES:
            source = (EXAMPLES_DIR / name).read_text(encoding="utf-8")
            compile(source, name, "exec")  # SyntaxError = failure


@pytest.mark.parametrize("name", QUICK_EXAMPLES)
class TestQuickExamplesRun:
    def test_runs_cleanly(self, name):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip()


class TestQuickstartOutput:
    def test_reproduces_figure_1(self):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert "310-932-9025" in completed.stdout   # t7[Phone] from t2
        assert "Hollywood" in completed.stdout      # t6[City] from t5
        assert "fill rate 100.0%" in completed.stdout
