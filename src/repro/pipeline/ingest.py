"""Append-only ingest directory scanning and batch loading.

The pipeline's input contract is deliberately narrow: an ingest
directory holds ``*.csv`` files sharing one header; files are only ever
*added*.  Scanning sorts by file name, so a run's input list — and
therefore the combined relation it builds — is a pure function of the
directory's contents, which is what makes a killed run reproducible
from its :class:`~repro.pipeline.state.RunRecord` alone.

Violations of the contract (a watermarked file deleted, a header that
diverges between files) are surfaced as located
:class:`~repro.exceptions.PipelineError`\\ s by the helpers here; the
runner chooses whether that degrades the run to FULL or fails it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.dataset.attribute import AttributeType
from repro.dataset.csv_io import read_csv_text, split_line
from repro.dataset.relation import Relation
from repro.exceptions import PipelineError


def scan_ingest(directory: str | Path) -> list[str]:
    """Names of every ``*.csv`` in ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise PipelineError(
            f"ingest directory {directory} does not exist"
        )
    return sorted(
        entry.name
        for entry in directory.iterdir()
        if entry.is_file() and entry.suffix == ".csv"
    )


def _read_file(directory: Path, name: str) -> str:
    path = directory / name
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PipelineError(
            f"cannot read ingest file {path}: {exc}"
        ) from exc


def _header_of(text: str, path: Path) -> list[str]:
    line = text.splitlines()[0] if text.splitlines() else ""
    if not line:
        raise PipelineError(f"ingest file {path} is empty (no header)")
    return split_line(line)


def combined_csv_text(
    directory: str | Path, files: Sequence[str]
) -> str:
    """The concatenation of ``files`` as one CSV (single header).

    Every file's header must equal the first file's, field for field —
    a mismatch is located down to the file name.  The result is byte-
    deterministic in the file order given, which the pipeline always
    derives from a sorted scan.
    """
    directory = Path(directory)
    if not files:
        raise PipelineError(
            f"no ingest files to combine in {directory}"
        )
    pieces: list[str] = []
    expected: list[str] | None = None
    for name in files:
        text = _read_file(directory, name)
        header = _header_of(text, directory / name)
        if expected is None:
            expected = header
            pieces.append(text if text.endswith("\n") else text + "\n")
            continue
        if header != expected:
            raise PipelineError(
                f"ingest file {directory / name} header {header} does "
                f"not match the directory's schema {expected}"
            )
        body = text.split("\n", 1)[1] if "\n" in text else ""
        if body and not body.endswith("\n"):
            body += "\n"
        pieces.append(body)
    return "".join(pieces)


def load_combined(
    directory: str | Path,
    files: Sequence[str],
    *,
    name: str = "ingest",
) -> Relation:
    """All of ``files`` as one relation (types inferred over the whole
    combined data — the FULL-run load path)."""
    return read_csv_text(combined_csv_text(directory, files), name=name)


def batch_rows(
    directory: str | Path,
    files: Sequence[str],
    base: Relation,
) -> list[tuple]:
    """Rows of ``files`` parsed under ``base``'s declared schema.

    The INCR-run load path: new rows must be typed exactly as the
    persistent store's columns are, or the incremental maintenance and
    the imputation engines would compare values across type domains.
    """
    declared: dict[str, AttributeType] = {
        attribute.name: attribute.type
        for attribute in base.attributes
    }
    expected = list(base.attribute_names)
    rows: list[tuple] = []
    for filename in files:
        batch = read_csv_text(
            _read_file(Path(directory), filename),
            name=filename,
            types=declared,
        )
        if list(batch.attribute_names) != expected:
            raise PipelineError(
                f"ingest file {Path(directory) / filename} header "
                f"{list(batch.attribute_names)} does not match the "
                f"store schema {expected}"
            )
        rows.extend(
            batch.row_values(index) for index in range(batch.n_tuples)
        )
    return rows


__all__ = [
    "batch_rows",
    "combined_csv_text",
    "load_combined",
    "scan_ingest",
]
