"""The benchmark traces program functions by name from outside the program
(perfbench/workloads.py, `install_tracing`).  A rename or move of one of
those names must fail here, not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _LookupTracer:
    """Records what install_tracing would wrap, without wrapping it."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name):
        assert callable(owner.__dict__[attr]), (owner, attr)
        self.patched.append((owner.__name__, attr, name))


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    tracer = _LookupTracer()
    workloads.install_tracing(tracer)
    assert ("morphtag.rules", "apply_cascade", "rules.cascade") in tracer.patched
    assert ("morphtag.rules", "audit_precision", "rules.audit") in tracer.patched
