"""Smoke runs of the scripts under scripts/, which call the library directly,
and the synthetic presets they read."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynetlogit import ModelSpec, TermSpec
from dynetlogit.synth import default_coefficients, month_risk_set, nested_model_specs

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


def test_default_coefficients_cover_the_nested_models():
    specs = nested_model_specs(month_risk_set())
    assert specs[0].column_names == ("v:intercept", "e:intercept")
    assert default_coefficients(specs[0]).tolist() == [-3.1, -4.2]
    for spec in specs:
        assert len(default_coefficients(spec)) == len(spec.column_names)
    group2 = ModelSpec([TermSpec("vertex", "attr_dummy", params={"attr": "group2"})], [])
    assert default_coefficients(group2).tolist() == [0.2]


def test_default_coefficients_refuse_an_unknown_column():
    spec = ModelSpec([TermSpec("vertex", "lag_indicator", lag=2)], [])
    with pytest.raises(KeyError, match="no default coefficient for column v:lag2"):
        default_coefficients(spec)
