"""Crash-safe file writes: write to a temp file, then rename.

POSIX ``rename`` within one directory is atomic, so readers of the
target path either see the old complete content or the new complete
content — never a half-written file.  The CSV writer, run artifacts
and :mod:`repro.utils.envelope` use this so a run killed mid-write
cannot corrupt outputs it already produced.

Disk-fault seam
---------------
All writes funnel through :func:`check_disk_fault` before touching the
filesystem.  Production runs pay one ``None`` check; the chaos harness
(:meth:`repro.robustness.chaos.ChaosInjector.disk_faults`) installs a
seeded hook here that raises ``OSError(ENOSPC)`` deterministically, so
every consumer of atomic writes — the envelope stores, the CSV writer,
the checkpoint journal's appends — gets its full-disk behaviour
exercised in tests.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: When set, called with the target path before any disk write; raising
#: ``OSError`` from the hook simulates a full / failing disk.
_fault_hook: Callable[[Path], None] | None = None


def set_fault_hook(
    hook: Callable[[Path], None] | None,
) -> Callable[[Path], None] | None:
    """Install (or clear, with ``None``) the disk-fault hook.

    Returns the previously installed hook so callers can restore it.
    Prefer the :func:`disk_fault_injection` context manager, which
    restores automatically.
    """
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    return previous


@contextmanager
def disk_fault_injection(
    hook: Callable[[Path], None],
) -> Iterator[None]:
    """Scope the disk-fault hook to a ``with`` block (test helper)."""
    previous = set_fault_hook(hook)
    try:
        yield
    finally:
        set_fault_hook(previous)


def check_disk_fault(path: str | Path) -> None:
    """Give the installed fault hook a chance to fail this write.

    Called by :func:`atomic_write_text` and by the journal's append
    path.  A no-op unless the chaos harness installed a hook.
    """
    hook = _fault_hook
    if hook is not None:
        hook(Path(path))


def atomic_write_text(
    path: str | Path, text: str, *, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temp file lives in the target's directory so the final
    ``os.replace`` never crosses a filesystem boundary.  On any error
    the temp file is removed and the target is left untouched.
    """
    path = Path(path)
    check_disk_fault(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding, newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
