"""Every span target of perfbench resolves where perfbench looks for it.

``perfbench/spans.py`` wraps a method by reading ``owner.__dict__``, so
a method a class inherits (say, an ``update`` moved into a base class)
is not found, and only a traced benchmark run (``--trace 1``) would
fail.  This check reads the ``TARGETS`` table and fails in the tier-1
suite instead.  It loads ``spans.py`` as a file and changes nothing in
perfbench.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_is_the_owners_own_attribute():
    targets = span_targets()
    assert targets
    unresolved = []
    for module_name, owner_name, attribute, span in targets:
        module = importlib.import_module(module_name)
        if owner_name is None:
            found = vars(module).get(attribute)
        else:
            found = vars(getattr(module, owner_name)).get(attribute)
        if not callable(found):
            unresolved.append((module_name, owner_name, attribute, span))
    assert not unresolved, unresolved
