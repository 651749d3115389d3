"""The benchmark under perfbench/ calls into darboux by name: every traced
function and every check id or spec its workloads list must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import darboux.catalog
import darboux.verifier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod              # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve():
    tracer = _load("tracer")
    for modname, qual in tracer.TRACED:
        obj = importlib.import_module(f"darboux.{modname}")
        for part in qual.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, qual)


@pytest.mark.parametrize("workload", ["evaluations", "qseries", "algebra", "controls"])
def test_workload_ops_resolve(workload):
    workloads = _load("workloads")
    assert workload in workloads.WORKLOADS
    ops = workloads.build_ops(workload, 1, darboux.catalog, darboux.verifier)
    assert ops
    if workload == "controls":
        return      # build_ops looks every spec up by id and picks its exponent slots
    for op in ops:
        cid = op.id.rsplit("@", 1)[0]
        assert darboux.catalog.check_anchor(cid), cid
