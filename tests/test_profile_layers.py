"""scripts/profile_layers.py: a per-layer profile of one check."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "profile_layers.py")


def _run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True,
                          timeout=300)


def test_profile_of_one_check_names_its_layers():
    proc = _run("--spec", "thm-7A-1", "--order", "8")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
    for layer in ("hypergeom.hpg_series", "ellcurve.local_expansion"):
        calls, self_s = rows[layer]
        assert int(calls) >= 1 and float(self_s) >= 0
    assert int(rows["scalars.max_bits"][0]) > 0
    assert rows["layer"] == ["calls", "self_s"]


def test_profile_refuses_an_unknown_check_and_a_missing_target():
    assert _run("--spec", "no-such-check").returncode == 2
    assert _run().returncode == 2
