"""Smoke runs of the scripts under scripts/, which call the library directly."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_make_month_data(tmp_path):
    proc = run_script("make_month_data.py", "--out", "tmp", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "tmp"
    assert sorted(p.name for p in out.iterdir()) == [
        "model_1.json", "model_2.json", "model_3.json", "model_4.json", "month_panel.json"]


def test_run_month_study(tmp_path):
    proc = run_script("run_month_study.py", "--sims", "5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "selected by BIC" in proc.stdout
