"""Every function, class and method in src/darboux is named somewhere in
src/ outside its own definition and ``__all__``: code that nothing in the
package calls does not stay in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "darboux"

# Named only from tests/ or perfbench/, one reason each.
ALLOWED = {
    "passport": "BranchingPattern.passport, the sorted fibers criterion 1 compares",
    "isogeny_point_image": "the isogeny's map on points, tested to land on the target curve",
    "map_coefficients": "PuiseuxSeries coefficient map, the Q(w) conjugation the Omega tests apply",
    "hpg_coefficient": "closed-form 3F2 coefficient; its catalog check is an open item",
    "contiguous_apply": "3F2 contiguity relation; its catalog check is an open item",
    "shifted": "HpgParams.shifted, the parameter shift the contiguity tests compare against",
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
