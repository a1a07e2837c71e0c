"""Documentation stays consistent with the code base.

These tests keep README.md / DESIGN.md / EXPERIMENTS.md, docs/ and the
docstrings under src/repro honest: every bench target, benchmark
workload and module path they reference must actually exist.
"""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: A perfbench workload name as the docs cite it: ``paper-cold``.
WORKLOAD_NAME = re.compile(r"`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`")


@pytest.fixture(scope="module")
def design_text() -> str:
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


def _docstrings(path: Path) -> str:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = (
        ast.get_docstring(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
    )
    return "\n\n".join(doc for doc in docs if doc)


@pytest.fixture(scope="module")
def cited_texts() -> dict[str, str]:
    """Every text that may cite a benchmark: the top-level documents,
    docs/*.md and the docstrings under src/repro, by relative path."""
    texts = {
        name: (ROOT / name).read_text(encoding="utf-8")
        for name in ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    }
    for path in sorted((ROOT / "docs").glob("*.md")):
        texts[str(path.relative_to(ROOT))] = path.read_text(
            encoding="utf-8"
        )
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        texts[str(path.relative_to(ROOT))] = _docstrings(path)
    return texts


def _benchmark_workloads() -> set[str]:
    declared = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    return {workload["name"] for workload in declared["workloads"]}


class TestDocumentsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/ALGORITHMS.md", "docs/ROBUSTNESS.md",
         "docs/OBSERVABILITY.md", "docs/SERVICE.md",
         "docs/PIPELINE.md", "docs/INDEXING.md"],
    )
    def test_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text(encoding="utf-8")) > 500

    def test_design_confirms_paper_identity(self, design_text):
        assert "EDBT 2022" in design_text
        assert "RENUVER" in design_text


class TestDesignReferences:
    def test_bench_targets_exist(self, design_text, cited_texts):
        assert re.search(r"benchmarks/bench_\w+\.py", design_text), (
            "DESIGN.md lists no bench targets"
        )
        for name, text in cited_texts.items():
            for target in re.findall(r"benchmarks/(bench_\w+\.py)", text):
                assert (ROOT / "benchmarks" / target).exists(), (
                    f"{name} cites missing benchmarks/{target}"
                )

    def test_bench_artifacts_exist(self, cited_texts):
        for name, text in cited_texts.items():
            for artifact in re.findall(r"BENCH_\w+\.json", text):
                assert (ROOT / artifact).exists(), (
                    f"{name} cites missing {artifact}"
                )

    def test_cited_perfbench_workloads_exist(self, cited_texts):
        workloads = _benchmark_workloads()
        cited = set()
        for name, text in cited_texts.items():
            for paragraph in re.split(r"\n\s*\n", text):
                if not re.search(r"perfbench|workload", paragraph):
                    continue
                for workload in WORKLOAD_NAME.findall(paragraph):
                    assert workload in workloads, (
                        f"{name} cites {workload!r}, which is not a "
                        f"workload in BENCHMARK.json"
                    )
                    cited.add(workload)
        assert cited, "no document cites a perfbench workload"

    def test_subpackages_exist(self, design_text):
        for module in re.findall(r"`repro\.([a-z_.]+)`", design_text):
            parts = module.split(".")
            base = ROOT / "src" / "repro"
            candidate_pkg = base.joinpath(*parts)
            candidate_mod = base.joinpath(*parts[:-1],
                                          parts[-1] + ".py")
            assert candidate_pkg.is_dir() or candidate_mod.exists(), (
                f"DESIGN.md references missing module repro.{module}"
            )


class TestExperimentsReferences:
    def test_every_paper_artifact_covered(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for artifact in ["Table 3", "Figure 2", "Figure 3", "Table 4",
                         "Table 5"]:
            assert artifact in text, f"EXPERIMENTS.md misses {artifact}"

    def test_bench_files_cover_every_artifact(self):
        names = {
            path.name for path in (ROOT / "benchmarks").glob("bench_*.py")
        }
        expected = {
            "bench_table3_datasets.py",
            "bench_figure2_thresholds.py",
            "bench_figure3_restaurant.py",
            "bench_figure3_glass.py",
            "bench_table4_stress.py",
            "bench_table5_physician.py",
            "bench_ablation.py",
            "bench_extensions.py",
        }
        assert expected <= names


class TestObservabilityDoc:
    @pytest.fixture(scope="class")
    def text(self) -> str:
        return (ROOT / "docs" / "OBSERVABILITY.md").read_text(
            encoding="utf-8"
        )

    def test_cross_linked_from_the_other_docs(self):
        for name in ["README.md", "docs/ALGORITHMS.md",
                     "docs/ROBUSTNESS.md"]:
            text = (ROOT / name).read_text(encoding="utf-8")
            assert "OBSERVABILITY.md" in text, (
                f"{name} does not link docs/OBSERVABILITY.md"
            )

    def test_documented_metrics_exist_in_the_code(self, text):
        src = ROOT / "src" / "repro"
        code = "\n".join(
            path.read_text(encoding="utf-8")
            for path in src.rglob("*.py")
        )
        for metric in re.findall(r"`(renuver_[a-z_]+)`", text):
            assert metric in code, (
                f"OBSERVABILITY.md documents unknown metric {metric}"
            )

    def test_documented_cli_flags_exist(self, text):
        cli = (ROOT / "src" / "repro" / "cli.py").read_text(
            encoding="utf-8"
        )
        for flag in ["--trace", "--metrics", "--profile",
                     "--log-level", "--log-json"]:
            assert flag in text
            assert f'"{flag}"' in cli, f"cli.py misses {flag}"

    def test_documented_span_names_emitted(self, text):
        src = ROOT / "src" / "repro"
        code = "\n".join(
            path.read_text(encoding="utf-8")
            for path in src.rglob("*.py")
        )
        for span in ["impute", "preprocess", "cell", "discover",
                     "discover_level", "kernel."]:
            assert f'"{span}' in code, (
                f"OBSERVABILITY.md documents unemitted span {span!r}"
            )


class TestServiceDoc:
    @pytest.fixture(scope="class")
    def text(self) -> str:
        return (ROOT / "docs" / "SERVICE.md").read_text(
            encoding="utf-8"
        )

    def test_cross_linked_from_the_other_docs(self):
        for name in ["README.md", "docs/ROBUSTNESS.md",
                     "docs/OBSERVABILITY.md"]:
            text = (ROOT / name).read_text(encoding="utf-8")
            assert "SERVICE.md" in text, (
                f"{name} does not link docs/SERVICE.md"
            )

    def test_documented_metrics_exist_in_the_code(self, text):
        src = ROOT / "src" / "repro"
        code = "\n".join(
            path.read_text(encoding="utf-8")
            for path in src.rglob("*.py")
        )
        for metric in re.findall(r"`(renuver_[a-z_]+[a-z])`", text):
            assert metric in code, (
                f"SERVICE.md documents unknown metric {metric}"
            )

    def test_documented_cli_flags_exist(self, text):
        cli = (ROOT / "src" / "repro" / "cli.py").read_text(
            encoding="utf-8"
        )
        for flag in ["--host", "--port", "--artifact-dir",
                     "--max-inflight", "--max-sessions",
                     "--request-budget"]:
            assert flag in text, flag
            assert f'"{flag}"' in cli, f"cli.py misses {flag}"

    def test_documented_routes_exist_in_the_code(self, text):
        http = (
            ROOT / "src" / "repro" / "service" / "http.py"
        ).read_text(encoding="utf-8")
        for route in ["/v1/impute", "/v1/sessions", "/healthz",
                      "/metrics"]:
            assert route in text, route
            assert route in http, f"http.py misses {route}"

    def test_documented_exit_code_8_is_wired(self, text):
        assert "exit code 8" in text.lower() or "code 8" in text
        cli = (ROOT / "src" / "repro" / "cli.py").read_text(
            encoding="utf-8"
        )
        assert "(ServiceError, 8)" in cli


class TestPipelineDoc:
    @pytest.fixture(scope="class")
    def text(self) -> str:
        return (ROOT / "docs" / "PIPELINE.md").read_text(
            encoding="utf-8"
        )

    def test_cross_linked_from_the_other_docs(self):
        for name in ["README.md", "docs/ROBUSTNESS.md",
                     "docs/OBSERVABILITY.md"]:
            text = (ROOT / name).read_text(encoding="utf-8")
            assert "PIPELINE.md" in text, (
                f"{name} does not link docs/PIPELINE.md"
            )

    def test_documented_metrics_exist_in_the_code(self, text):
        src = ROOT / "src" / "repro"
        code = "\n".join(
            path.read_text(encoding="utf-8")
            for path in src.rglob("*.py")
        )
        for metric in re.findall(r"`(renuver_[a-z_]+[a-z])`", text):
            assert metric in code, (
                f"PIPELINE.md documents unknown metric {metric}"
            )

    def test_documented_cli_flags_exist(self, text):
        cli = (ROOT / "src" / "repro" / "cli.py").read_text(
            encoding="utf-8"
        )
        for flag in ["--root", "--ingest", "--mode", "--lease-ttl",
                     "--owner"]:
            assert flag in text, flag
            assert f'"{flag}"' in cli, f"cli.py misses {flag}"

    def test_documented_degradation_reasons_are_real(self, text):
        runner = (
            ROOT / "src" / "repro" / "pipeline" / "runner.py"
        ).read_text(encoding="utf-8")
        for reason in ["watermark_mismatch", "store_integrity",
                       "stale_rfds", "no_store"]:
            assert reason in text, reason
            assert f'"{reason}"' in runner, (
                f"runner.py misses degradation reason {reason}"
            )

    def test_documented_exit_code_9_is_wired(self, text):
        assert "exit code 9" in text.lower() or "code 9" in text
        cli = (ROOT / "src" / "repro" / "cli.py").read_text(
            encoding="utf-8"
        )
        assert "(PipelineError, 9)" in cli


class TestIndexingDoc:
    @pytest.fixture(scope="class")
    def text(self) -> str:
        return (ROOT / "docs" / "INDEXING.md").read_text(
            encoding="utf-8"
        )

    def test_cross_linked_from_the_other_docs(self):
        for name in ["README.md", "docs/ALGORITHMS.md",
                     "docs/SERVICE.md"]:
            text = (ROOT / name).read_text(encoding="utf-8")
            assert "INDEXING.md" in text, (
                f"{name} does not link docs/INDEXING.md"
            )

    def test_documented_metrics_exist_in_the_code(self, text):
        src = ROOT / "src" / "repro"
        code = "\n".join(
            path.read_text(encoding="utf-8")
            for path in src.rglob("*.py")
        )
        for metric in re.findall(r"`(renuver_[a-z_]+[a-z])`", text):
            assert metric in code, (
                f"INDEXING.md documents unknown metric {metric}"
            )

    def test_documented_cli_flags_exist(self, text):
        cli = (ROOT / "src" / "repro" / "cli.py").read_text(
            encoding="utf-8"
        )
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
        assert flags
        for flag in flags:
            assert f'"{flag}"' in cli, f"cli.py misses {flag}"

    def test_documented_fallback_reasons_are_real(self, text):
        src = "\n".join(
            path.read_text(encoding="utf-8")
            for path in (ROOT / "src" / "repro" / "index").glob("*.py")
        )
        for reason in ["unindexed", "unsupported", "hot_group",
                       "probe_cost"]:
            assert reason in text, reason
            assert f'"{reason}"' in src, (
                f"repro.index misses fallback reason {reason}"
            )

    def test_cites_the_blocking_workload(self, text):
        assert "`physician-10k`" in text
        assert "physician-10k" in _benchmark_workloads()


class TestReadmeReferences:
    def test_examples_listed_exist(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        for name in re.findall(r"`(\w+\.py)`", text):
            if (ROOT / "examples" / name).exists():
                continue
            if (ROOT / "src" / "repro" / name).exists():
                continue
            raise AssertionError(f"README references missing {name}")

    def test_rule_files_shipped(self):
        for name in ["restaurant", "cars", "glass", "bridges",
                     "physician"]:
            assert (ROOT / "rules" / f"{name}.json").exists()
