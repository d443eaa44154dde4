"""The benchmark tracer's hooks still name callables that exist where it looks.

``perfbench/tracing.py`` wraps callables by owner and attribute name, so a
function moved out of its owner's own namespace (or renamed) silently stops
being traced.  This checks every target without running a benchmark.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_callable_is_in_its_owners_own_namespace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    assert len(targets) == 31
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
               for owner, attr, name, _, _ in targets
               if not callable(vars(owner).get(attr))]
    assert missing == []
