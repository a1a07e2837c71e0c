"""Repo lint: no bare ``print`` calls outside the sanctioned modules,
no upward imports of the service layer, and one CSV codec.

Library code must log through :mod:`repro.telemetry.logs` so embedders
control verbosity; only the CLI and the evaluation report renderer talk
to stdout/stderr directly.  The algorithm, discovery, robustness and
pipeline layers sit below :mod:`repro.service`, so none of them may
import it.  Only :mod:`repro.dataset.csv_io` builds CSV readers and
writers, so every relation is parsed and rendered one way.  Only
:mod:`repro.dataset` reads a relation's column lists, so every columnar
reader goes through the one encoding per column.  Only the index plan
(and the chaos injector's hookup in :mod:`repro.core.renuver`) listens
to a relation's writes, so no per-write cache grows beside the encoding
and the indexes.  The checks
walk the AST (not grep) so names appearing in docstrings or comments do
not trip them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose job is writing to the console.
ALLOWED = {
    SRC / "cli.py",
    SRC / "evaluation" / "reporting.py",
}


def bare_print_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_no_bare_prints_outside_cli_and_reporting():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        lines = bare_print_calls(path)
        if lines:
            offenders[str(path.relative_to(SRC))] = lines
    assert not offenders, (
        f"bare print() calls found (use repro.telemetry.logs instead): "
        f"{offenders}"
    )


def test_the_allowed_modules_exist():
    # Guard the allowlist against renames silently voiding the lint.
    for path in ALLOWED:
        assert path.exists(), f"allowlisted module moved: {path}"


#: Packages below the service layer.
BELOW_SERVICE = ("pipeline", "core", "discovery", "extensions", "robustness")


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_no_service_imports_below_the_service_layer():
    offenders = {}
    for package in BELOW_SERVICE:
        for path in sorted((SRC / package).rglob("*.py")):
            lines = [
                lineno for lineno, name in imported_modules(path)
                if name == "repro.service"
                or name.startswith("repro.service.")
            ]
            if lines:
                offenders[str(path.relative_to(SRC))] = sorted(set(lines))
    assert not offenders, (
        f"modules below repro.service import it: {offenders}"
    )


#: The one module that may construct CSV readers and writers.
CSV_CODEC = SRC / "dataset" / "csv_io.py"
CSV_FACTORIES = {"reader", "writer", "DictReader", "DictWriter"}


def csv_factory_uses(path):
    """Lines naming ``csv.reader``/``csv.writer`` (or the dict
    variants), as attributes of ``csv`` or imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in CSV_FACTORIES
            and isinstance(node.value, ast.Name)
            and node.value.id == "csv"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            if any(alias.name in CSV_FACTORIES for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_csv_is_read_and_written_only_by_the_codec():
    # A second reader or writer would grow a CSV path beside the codec's
    # per-distinct-value parse and column-wise render.
    assert CSV_CODEC.exists(), f"the CSV codec moved: {CSV_CODEC}"
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == CSV_CODEC:
            continue
        lines = csv_factory_uses(path)
        if lines:
            offenders[str(path.relative_to(SRC))] = lines
    assert not offenders, (
        f"csv readers/writers outside repro.dataset.csv_io: {offenders}"
    )


#: The dataset package owns the column lists; the scalar reference
#: reads the raw values on purpose (it is the oracle of the encoding's
#: readers).
DATASET = SRC / "dataset"
COLUMN_READERS = {SRC / "distance" / "pattern.py"}


def column_list_reads(path):
    """Lines reading ``<something>._columns`` other than ``self``'s."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "_columns"
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def test_only_the_dataset_package_reads_column_lists():
    # A module reading the lists directly would encode the column its
    # own way again, beside ``Relation.encoding``.
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if DATASET in path.parents or path in COLUMN_READERS:
            continue
        lines = column_list_reads(path)
        if lines:
            offenders[str(path.relative_to(SRC))] = lines
    assert not offenders, (
        f"relation column lists read outside repro.dataset: {offenders}"
    )
    assert all(path.exists() for path in COLUMN_READERS)


#: The modules that may register a relation mutation listener: the
#: index plan, which follows writes into its built indexes, and the
#: imputation run (``Renuver``), which hooks a chaos injector's listener
#: up for its duration.
WRITE_LISTENERS = {SRC / "index" / "plan.py", SRC / "core" / "renuver.py"}


def mutation_listener_registrations(path):
    """Lines calling ``<something>.add_mutation_listener``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_mutation_listener"
    ]


def test_only_the_index_plan_listens_to_writes():
    # Every other reader reads the relation's live encoding; a second
    # listener would be a per-write cache beside it.
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path in WRITE_LISTENERS:
            continue
        lines = mutation_listener_registrations(path)
        if lines:
            offenders[str(path.relative_to(SRC))] = lines
    assert not offenders, (
        f"mutation listeners registered outside the index plan: "
        f"{offenders}"
    )
    assert all(path.exists() for path in WRITE_LISTENERS)
