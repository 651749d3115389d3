"""CLI front end: suite runs, exit codes, report schema, series dumps."""

import json
import os
import resource
import subprocess
import sys

import pytest

from darboux.cli import ORDER_CEILING, dump_series, format_text, main, run_suite
from darboux.scalars import QQ

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_suite_document_shape():
    doc = run_suite("klein-invariants", 16)
    assert set(doc) == {"version", "backend", "suite", "order", "results", "duration_ms",
                        "status"}
    assert doc["status"] == "pass"
    ids = [r["id"] for r in doc["results"]]
    assert ids == sorted(ids)
    for r in doc["results"]:
        assert {"id", "anchor", "status"} <= set(r)


def test_json_roundtrip():
    doc = run_suite("modular-level5", 12)
    blob = json.dumps(doc, sort_keys=True)
    assert json.loads(blob) == json.loads(json.dumps(json.loads(blob), sort_keys=True))


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope", 16)


def test_order_minimum():
    with pytest.raises(ValueError):
        run_suite("genus0", 4)


def test_exit_codes(capsys):
    assert main(["--spec", "thm-3A-1", "--order", "12"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["--spec", "unknown-spec", "--order", "12"]) == 2
    capsys.readouterr()


def test_bad_order_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DARBOUX_ORDER", "abc")
    for argv in (["--list"], ["--spec", "thm-3A-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "DARBOUX_ORDER must be an integer, got 'abc'" in captured.err
        assert captured.out == ""
    # an explicit --order does not read the variable
    assert main(["--spec", "thm-3A-1", "--order", "12"]) == 0
    capsys.readouterr()


def test_list_contains_anchors(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "thm-3A-1" in out
    assert "klein-congruence" in out
    assert "[divisors]" in out


def test_dump_j_leading_terms():
    assert dump_series("j", 3) == "q^-1: 1, q^0: 744, q^1: 196884, q^2: 21493760"


def test_dump_x7_initial_coefficients():
    assert dump_series("x7", 6) == "q^1: -1, q^2: 2, q^4: -5, q^5: 4"


def test_dump_zero_series_is_empty():
    assert dump_series("r4-xyz-zero.right", 10) == ""


@pytest.mark.parametrize("name,order", [("j", -5), ("x:Phi3", -5), ("thm-3A-1.left", -9)])
def test_dump_with_a_negative_order_is_a_usage_error(capsys, name, order):
    assert main(["--dump", name, "--order", str(order)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_report_anchors_are_the_listed_anchors(capsys):
    from darboux.catalog import check_anchor
    assert main(["belyi", "--order", "12", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == 13
    for r in results:
        assert r["anchor"] == check_anchor(r["id"]), r


def test_dump_spec_side_and_chart_entry():
    assert dump_series("thm-3A-1.right", 3).startswith("x^0: 1")
    assert dump_series("t7:u", 5) == "t^2: 1, t^4: 11"
    with pytest.raises(KeyError):
        dump_series("thm-3A-1.middle", 3)


def test_text_format_alignment():
    doc = run_suite("klein-invariants", 16)
    text = format_text(doc)
    assert "overall: pass" in text
    assert "klein-congruence" in text


def test_failed_spec_nonzero_exit(capsys, monkeypatch):
    import darboux.catalog as cat
    from darboux.verifier import IdentitySpec, Term, Pw, verify_identity
    bad = IdentitySpec("bogus-check", "synthetic failing identity", "x",
                       (Term(1, (Pw("x", 1),)),), (Term(1, (Pw("one_minus_x", 1),)),))
    monkeypatch.setitem(cat.CHECKS, "bogus-check",
                        cat.Check(bad.id, bad.anchor, lambda order: verify_identity(bad, order)))
    code = main(["--spec", "bogus-check", "--order", "12"])
    out = capsys.readouterr().out
    assert code == 1
    assert "first mismatch" in out


def test_raising_checks_are_errors_and_the_run_goes_on(capsys, monkeypatch):
    import darboux.catalog as cat

    def raises(exc):
        def run(order):
            raise exc
        return run

    for cid, exc in (("bridge-1", ZeroDivisionError("division by zero")),
                     ("div-e7-u", KeyError("missing"))):
        monkeypatch.setitem(cat.CHECKS, cid, cat.Check(cid, cat.CHECKS[cid].anchor, raises(exc)))
    code = main(["divisors", "--order", "12", "--format", "json"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert "ZeroDivisionError: division by zero" in captured.err   # the traceback
    assert doc["status"] == "fail"
    results = {r["id"]: r for r in doc["results"]}
    assert sorted(results) == sorted(cat.SUITES["divisors"])
    assert results["bridge-1"]["status"] == "error"
    assert results["bridge-1"]["detail"] == "ZeroDivisionError: division by zero"
    assert results["div-e7-u"]["status"] == "error"
    assert results["div-e7-u"]["detail"] == "KeyError: 'missing'"
    others = [r for cid, r in results.items() if cid not in ("bridge-1", "div-e7-u")]
    assert others and all(r["status"] == "pass" for r in others)


def test_unwritable_output_is_a_usage_error_before_any_check(capsys, monkeypatch, tmp_path):
    import darboux.catalog as cat
    ran = []
    monkeypatch.setattr(cat, "run_check", lambda cid, order: ran.append(cid))
    path = tmp_path / "missing" / "x.json"
    assert main(["belyi", "--order", "12", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err


def test_dump_with_a_huge_order_is_a_usage_error(capsys):
    assert main(["--dump", "j", "--order", "100000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _limit_address_space():
    limit = 1536 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv,bound", [
    (["--dump", "x7", "--order", "100000000000000000000"], str(ORDER_CEILING)),
    (["--spec", "h7-x7", "--order", "100000000000000000000"], str(ORDER_CEILING)),
    (["all", "--order", str(ORDER_CEILING + 1)], str(ORDER_CEILING)),
    (["--list", "--order", str(ORDER_CEILING + 1)], str(ORDER_CEILING)),
    (["--dump", "x7", "--order", "-3"], "at least 1"),
    (["--dump", "x7", "--order", "0"], "at least 1"),
])
def test_out_of_range_orders_are_usage_errors(argv, bound):
    """Run under a 1.5 GB address-space limit, so that an order that gets
    through to the series code fails fast instead of taking the memory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "darboux", *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert bound in proc.stderr


def test_order_at_the_ceiling_is_accepted(capsys):
    assert main(["--dump", "j", "--order", str(ORDER_CEILING)]) == 0
    assert capsys.readouterr().out.startswith("q^-1: 1, q^0: 744")


def test_json_report_names_backend_and_durations(capsys):
    assert main(["klein-invariants", "--order", "16", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == ("fractions" if QQ.__module__ == "fractions" else "gmpy2")
    assert doc["results"]
    for r in doc["results"]:
        assert isinstance(r["duration_ms"], int) and r["duration_ms"] >= 0
    assert sum(r["duration_ms"] for r in doc["results"]) <= doc["duration_ms"]


def test_full_verification_script_imports_without_pythonpath(tmp_path):
    script = os.path.join(ROOT, "scripts", "run_full_verification.py")
    code = ("import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('rfv', {script!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "import darboux\n"
            "print(module.run_suite.__module__, darboux.__file__)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    module, path = proc.stdout.split()
    assert module == "darboux.cli"
    assert os.path.realpath(path) == os.path.realpath(os.path.join(ROOT, "src", "darboux",
                                                                   "__init__.py"))
