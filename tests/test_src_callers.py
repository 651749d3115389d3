"""Every function and method in src/darboux is entered when the command line
and the negative-control API run, or is on ``ALLOWED`` with the reason it
stays and a test that needs it; and every dataclass field and ``__slots__``
entry is read as an attribute somewhere in src/.

The trace runs in a child process, so that it sees the package imported
afresh and an empty memo: ``python tests/test_src_callers.py`` prints what
it entered.
"""

import ast
import contextlib
import cProfile
import io
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "darboux"

# the command lines the trace runs through cli.main
CLI_RUNS = (
    ["all", "--order", "8"],
    ["all", "--order", "8", "--format", "json"],
    ["--list"],
    ["--dump", "j", "--order", "4"],
    ["--dump", "t7:x", "--order", "4"],
    ["--dump", "thm-3A-1.left", "--order", "4"],
    ["--spec", "thm-7A-1", "--order", "8", "--format", "json"],
    [],                                         # no suite
    ["--spec", "nosuch"],
    ["--dump", "nosuch"],
)
# identities whose first and last exponent slot the trace perturbs
CONTROL_SPECS = ("thm-3A-1", "thm-7A-1", "thm-omega-1")

# Never entered by the trace: the reason each stays and a test that needs it.
# Every __repr__ stays as a rule, because pytest and debuggers read it.
ALLOWED = {
    "Omega.__sub__": ("Q(w) field operation for expected values",
                      "tests/test_polyalg.py::test_divmod_matches_long_division"),
    "Omega.__truediv__": ("Q(w) field operation for expected values",
                          "tests/test_series.py::test_omega_division"),
    "Omega.__rtruediv__": ("Q(w) field operation for expected values",
                           "tests/test_series.py::test_omega_division"),
    "Omega.__pow__": ("Q(w) field operation for expected values",
                      "tests/test_series.py::test_omega_reduction_in_series"),
    "Omega.__hash__": ("must agree with the rational hash, since Omega(x) == x",
                       "tests/test_series.py::test_omega_hash_agrees_with_equal_rationals"),
    "Omega.__setattr__": ("the immutability guard of shared constants such as W",
                          "tests/test_series.py::test_omega_values_are_immutable"),
    "PuiseuxSeries.coeffs": ("the scalar tuple that perfbench's tracer and the oracles read",
                             "perfbench/test_perfbench.py::test_term_products_matches_a_direct_count"),
}


def _trace():
    """(file name, first line) of every code object in src/darboux entered
    by the entry points; call this before darboux is imported."""
    prefix = str(SRC) + os.sep
    # the profiler's C hook records each code object it enters, keyed on
    # (file, first line, name), with no Python call per event
    profile = cProfile.Profile()
    profile.enable()
    try:
        from darboux import catalog, cli, verifier
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in CLI_RUNS:
                cli.main(argv)
        results = []
        for sid in CONTROL_SPECS:
            spec = catalog.IDENTITY_BY_ID[sid]
            slots = verifier.exponent_slots(spec)
            for slot in (slots[0], slots[-1]):
                rep = verifier.verify_identity(verifier.perturb(spec, slot), 8)
                assert rep.first_mismatch is not None, (sid, slot)
                results.append({"id": sid, "anchor": spec.anchor, **rep.as_dict()})
        cli.format_text({"suite": "controls", "order": 8, "duration_ms": 0,
                         "results": results, "status": "fail"})
    finally:
        profile.disable()
    return sorted({(os.path.basename(path), line) for path, line, _ in pstats.Stats(profile).stats
                   if path.startswith(prefix)})


def _definitions():
    """Every function and method as {(file name, first line): qualified
    name}; the first line is that of the first decorator, as in the code
    object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path.name, first)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


@pytest.fixture(scope="module")
def entered():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC.parent), os.environ.get("PYTHONPATH", "")] if p))
    env.pop("DARBOUX_ORDER", None)
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {tuple(e) for e in json.loads(proc.stdout)}


def test_every_function_is_entered_or_allowed(entered):
    defs = _definitions()
    assert entered
    never = sorted(name for key, name in defs.items()
                   if key not in entered and not name.endswith(".__repr__"))
    assert never == sorted(ALLOWED)


def test_allowed_entries_name_a_test():
    for name, (reason, node) in ALLOWED.items():
        path, test = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert reason and test in {n.name for n in tree.body
                                   if isinstance(n, ast.FunctionDef)}, name


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in node.decorator_list)


def _fields_and_reads():
    """Every dataclass field and __slots__ entry as (name, file:line), and
    every attribute name read anywhere in src/."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                where = f"{path.name}:{stmt.lineno}"
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and _is_dataclass(node)):
                    fields.append((stmt.target.id, where))
                elif (isinstance(stmt, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "__slots__"
                              for t in stmt.targets)):
                    fields.extend((elt.value, where) for elt in stmt.value.elts)
    return fields, reads


def test_every_field_is_read_in_src():
    fields, reads = _fields_and_reads()
    assert fields
    unread = {name: where for name, where in fields if name not in reads}
    assert unread == {}, unread


if __name__ == "__main__":
    print(json.dumps(_trace()))
