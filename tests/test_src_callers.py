"""Every function, class and method in src/darboux is named somewhere in
src/ outside its own definition and ``__all__``, and every dataclass field
and ``__slots__`` entry is read as an attribute somewhere in src/: code and
state that nothing in the package uses do not stay in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "darboux"

# Named only from tests/ or perfbench/, one reason each.
ALLOWED = {
    "exponent_slots": "negative-control API that criterion 13 and the benchmark call",
    "perturb": "negative-control API that criterion 13 and the benchmark call",
}


def _definitions_and_uses():
    """Every definition as (name, file:line, node), and every name used as
    (name, the definitions it sits inside)."""
    defs, uses = [], []

    def walk(node, chain, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, f"{where}:{node.lineno}", node))
            chain = chain + (node,)
        elif isinstance(node, ast.Name):
            uses.append((node.id, chain))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, chain))
        for child in ast.iter_child_nodes(node):
            walk(child, chain, where)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), (), path.name)
    return defs, uses


def test_every_definition_has_a_caller_in_src():
    defs, uses = _definitions_and_uses()
    uncalled = {}
    for name, where, node in defs:
        if name.startswith("__") and name.endswith("__"):
            continue               # called by the interpreter
        if not any(n == name and node not in chain for n, chain in uses):
            uncalled[name] = where
    assert sorted(uncalled) == sorted(ALLOWED), uncalled


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
