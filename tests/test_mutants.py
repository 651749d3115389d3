"""scripts/mutants.py: its runner in a stub checkout, and the old text of
every listed mutant in this one."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))

from mutants import MUTANTS, PROFILE, ROOT, run  # noqa: E402

STUB = "def add(a, b):\n    return a + b\n\n\ndef unused():\n    return 1\n"
NODE = "tests/test_stub.py::test_add"


def stub(root, test="from stub import add\n\n\ndef test_add():\n    assert add(2, 3) == 5\n"):
    (root / "src").mkdir()
    (root / "src" / "stub.py").write_text(STUB)
    (root / "tests").mkdir()
    (root / "tests" / "test_stub.py").write_text(test)
    (root / "tests" / "conftest.py").write_text(
        f"from hypothesis import settings\n\nsettings.register_profile({PROFILE!r})\n")
    return root


def mutant(name, old, new):
    return {"name": name, "file": "src/stub.py", "old": old, "new": new, "nodes": [NODE]}


def test_killed_surviving_and_stale_mutants(tmp_path):
    lines, ok = run(stub(tmp_path), [mutant("sign", "a + b", "a - b"),
                                     mutant("dead", "return 1", "return 2"),
                                     mutant("gone", "a * b", "a / b")], limit=60)
    assert lines == ["stale: gone: old text found 0 times in src/stub.py",
                     "killed: sign: all 1 nodes fail",
                     f"survived: dead: passes {NODE}"]
    assert not ok
    assert (tmp_path / "src" / "stub.py").read_text() == STUB


def test_every_mutant_killed_exits_clean(tmp_path):
    assert run(stub(tmp_path), [mutant("sign", "a + b", "a - b")], limit=60) == (
        ["killed: sign: all 1 nodes fail"], True)


def test_a_node_that_fails_unmutated_stops_the_run(tmp_path):
    root = stub(tmp_path, test="def test_add():\n    assert False\n")
    lines, ok = run(root, [mutant("sign", "a + b", "a - b")], limit=60)
    assert lines == ["unmutated: the named nodes do not all pass on the unchanged copy"]
    assert not ok


def test_every_old_text_occurs_once():
    assert MUTANTS
    for m in MUTANTS:
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["name"]
