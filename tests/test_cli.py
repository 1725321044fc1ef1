import csv
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dynetlogit import load_panel, save_panel, save_model_spec, ModelSpec, TermSpec
from dynetlogit.cli import (
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEPARATION,
    EXIT_VALIDATION,
    main,
)
from dynetlogit.synth import make_month_panel, month_risk_set, nested_model_specs

from conftest import random_panel, stream


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Panel + spec files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(77)
    panel = random_panel(rng, n=10, T=8, presence=0.7, density=0.35)
    save_panel(panel, root / "panel.json")
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)],
    )
    save_model_spec(spec, root / "spec.json")
    return root


def run(args):
    return main([str(a) for a in args])


def test_fit_writes_report(workdir, tmp_path):
    code = run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", tmp_path])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "spec_fit.json").read_text())
    assert report["fit"]["convergence"]["converged"]
    assert report["manifest"]["command"] == "fit"
    assert len(report["fit"]["coefficients"]) == 4
    assert set(report["parts"]) == {"vertex", "edge"}
    v, e = report["parts"]["vertex"], report["parts"]["edge"]
    assert v["n_obs"] + e["n_obs"] == report["fit"]["n_obs"]
    assert v["deviance"] + e["deviance"] == pytest.approx(report["fit"]["deviance"])


def test_fit_default_prior_is_cauchy(workdir, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", out1]) == EXIT_OK
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--prior", "cauchy:scale=2.5,df=1", "--out-dir", out2]) == EXIT_OK
    assert (out1 / "spec_fit.json").read_bytes() == (out2 / "spec_fit.json").read_bytes()


def test_fit_rerun_byte_identical(workdir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                    "--format", "csv", "--out-dir", out]) == EXIT_OK
    for name in ("spec_fit.json", "spec_coefficients.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fit_separated_data_exits_with_separation_code(tmp_path, capsys):
    # a vertex that never re-appears plus one that always does => lag separates
    from dynetlogit import NetworkPanel, RiskSet, Snapshot
    rs = RiskSet(["a", "b"])
    snaps = [Snapshot(t, [0], [], n=2) for t in range(1, 12)]
    panel = NetworkPanel(rs, snaps)
    save_panel(panel, tmp_path / "p.json")
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [],
    )
    save_model_spec(spec, tmp_path / "s.json")
    code = run(["fit", tmp_path / "p.json", tmp_path / "s.json",
                "--prior", "none", "--out-dir", tmp_path])
    assert code == EXIT_SEPARATION
    report = json.loads((tmp_path / "s_fit.json").read_text())
    assert report["fit"]["convergence"]["separation"]
    # the lag column separates (b never appears, a always re-appears)
    lag = spec.column_names[1]
    assert any(lag in note for note in report["fit"]["convergence"]["notes"])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "separation"
    assert err["message"].startswith("s: the data separate along ")
    assert lag in err["message"]


def test_separation_names_every_diverging_column(tmp_path, capsys):
    """On the separated two-vertex panel the fit sends the intercept to -inf
    and the lag to +inf; the note and the exit-6 message name both."""
    from dynetlogit import NetworkPanel, RiskSet, Snapshot
    panel = NetworkPanel(RiskSet(["a", "b"]), [Snapshot(t, [0], [], n=2) for t in range(1, 12)])
    save_panel(panel, tmp_path / "p.json")
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)], [])
    save_model_spec(spec, tmp_path / "s.json")
    assert run(["fit", tmp_path / "p.json", tmp_path / "s.json",
                "--prior", "none", "--out-dir", tmp_path]) == EXIT_SEPARATION
    fit = json.loads((tmp_path / "s_fit.json").read_text())["fit"]
    intercept, lag = fit["coefficients"]
    assert intercept < -15 and lag > 15
    assert fit["convergence"]["notes"] == [
        "separation: no finite maximum likelihood estimate along v:intercept, v:lag1"]
    message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
    assert "v:intercept" in message and "v:lag1" in message


def test_fit_ranking_richest_wins(tmp_path):
    panel = make_month_panel()
    save_panel(panel, tmp_path / "month.json")
    for k, spec in enumerate(nested_model_specs(month_risk_set()), start=1):
        save_model_spec(spec, tmp_path / f"m{k}.json")
    code = run(["fit", tmp_path / "month.json",
                *[tmp_path / f"m{k}.json" for k in (1, 2, 3, 4)],
                "--out-dir", tmp_path])
    assert code == EXIT_OK
    ranking = json.loads((tmp_path / "ranking.json").read_text())["models"]
    assert ranking[0]["spec"] == "m4"
    bics = [r["bic"] for r in ranking]
    assert bics == sorted(bics)
    assert len({r["n_obs"] for r in ranking}) == 1  # aligned rows


def test_adequacy_deterministic_and_shaped(workdir, tmp_path):
    fit_dir = tmp_path / "fit"
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", fit_dir]) == EXIT_OK
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    for out in (out1, out2):
        assert run(["adequacy", workdir / "panel.json", workdir / "spec.json",
                    fit_dir / "spec_fit.json", "--sims", "50", "--alpha", "0.95",
                    "--seed", "7", "--out-dir", out]) == EXIT_OK
    assert (out1 / "adequacy.json").read_bytes() == (out2 / "adequacy.json").read_bytes()
    assert (out1 / "adequacy.csv").read_bytes() == (out2 / "adequacy.csv").read_bytes()
    blob = json.loads((out1 / "adequacy.json").read_text())
    glis = blob["adequacy"]["glis"]
    assert len(glis) == 9
    steps = glis["density"]["steps"]
    assert len(steps) == 7  # 8 days, lag 1
    assert glis["density"]["summary"]["total"] == 7


def test_adequacy_fixed_vertex_set_flag(workdir, tmp_path):
    fit_dir = tmp_path / "fit"
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", fit_dir]) == EXIT_OK
    assert run(["adequacy", workdir / "panel.json", workdir / "spec.json",
                fit_dir / "spec_fit.json", "--sims", "20", "--seed", "1",
                "--fixed-vertex-set", "--out-dir", tmp_path]) == EXIT_OK
    blob = json.loads((tmp_path / "adequacy.json").read_text())
    size = blob["adequacy"]["glis"]["size"]["steps"]
    assert all(rec["lower"] == 10 and rec["upper"] == 10 for rec in size)


@pytest.mark.parametrize("command", ["adequacy", "project"])
def test_negative_seed_fails_naming_the_seed(workdir, tmp_path, capsys, command):
    fit_dir = tmp_path / "fit"
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", fit_dir]) == EXIT_OK
    capsys.readouterr()
    assert run([command, workdir / "panel.json", workdir / "spec.json",
                fit_dir / "spec_fit.json", "--seed", "-1",
                "--out-dir", tmp_path / "out"]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation",
                   "message": "seed must be a non-negative integer, got -1"}


def test_project_writes_paths_and_graphs(workdir, tmp_path):
    fit_dir = tmp_path / "fit"
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", fit_dir]) == EXIT_OK
    assert run(["project", workdir / "panel.json", workdir / "spec.json",
                fit_dir / "spec_fit.json", "--horizon", "5", "--sims", "1",
                "--seed", "3", "--dump-graphs", "--out-dir", tmp_path]) == EXIT_OK
    lines = (tmp_path / "project_gli.csv").read_text().splitlines()
    # comment + header + 5 steps * 9 glis
    assert len(lines) == 2 + 45
    dumped = load_panel(tmp_path / "project_rep000.json")
    assert len(dumped.snapshots) == 5
    assert dumped.observed_times[0] == 9  # panel ends at t=8


def test_project_horizon_one_matches_one_step(workdir, tmp_path):
    from types import SimpleNamespace
    from dynetlogit import one_step_sample
    from dynetlogit.terms import load_model_spec

    fit_dir = tmp_path / "fit"
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", fit_dir]) == EXIT_OK
    assert run(["project", workdir / "panel.json", workdir / "spec.json",
                fit_dir / "spec_fit.json", "--horizon", "1", "--sims", "1",
                "--seed", "11", "--dump-graphs", "--out-dir", tmp_path]) == EXIT_OK
    dumped = load_panel(tmp_path / "project_rep000.json")

    report = json.loads((fit_dir / "spec_fit.json").read_text())
    fit = SimpleNamespace(coefficients=np.array(report["fit"]["coefficients"]),
                          column_names=tuple(report["fit"]["columns"]))
    spec = load_model_spec(workdir / "spec.json")
    panel = load_panel(workdir / "panel.json")
    direct = one_step_sample(fit, spec, panel, 8, stream(11, 0, 9, panel.t_min))
    assert np.array_equal(dumped.at(9).codes, direct.codes)
    assert dumped.at(9).present.tolist() == direct.present.tolist()


@pytest.mark.parametrize("seed", [0, 17])
def test_project_outputs_equal_the_per_replicate_oracle(tmp_path, seed):
    """The lockstep projection's paths and trajectory files are those of
    the per-replicate oracle, and each file is its trajectory's canonical
    panel text."""
    from types import SimpleNamespace
    import oracles
    from dynetlogit import NetworkPanel, SimConfig
    from dynetlogit.panel import panel_to_json
    panel = make_month_panel()
    spec = nested_model_specs(month_risk_set())[3]
    save_panel(panel, tmp_path / "month.json")
    save_model_spec(spec, tmp_path / "m4.json")
    assert run(["fit", tmp_path / "month.json", tmp_path / "m4.json",
                "--out-dir", tmp_path / "fit"]) == EXIT_OK
    assert run(["project", tmp_path / "month.json", tmp_path / "m4.json",
                tmp_path / "fit" / "m4_fit.json", "--horizon", "5", "--sims", "20",
                "--seed", str(seed), "--dump-graphs", "--out-dir", tmp_path / "out"]) == EXIT_OK

    report = json.loads((tmp_path / "fit" / "m4_fit.json").read_text())["fit"]
    fit = SimpleNamespace(coefficients=np.array(report["coefficients"]),
                          column_names=tuple(report["columns"]))
    expected = oracles.project_by_replicate(
        fit, spec, load_panel(tmp_path / "month.json"),
        SimConfig(replicates=20, horizon=5, seed=seed))
    rows = (tmp_path / "out" / "project_gli.csv").read_text().splitlines()[2:]
    assert [row.split(",")[3] for row in rows] == \
        [repr(float(x)) for x in expected.gli_paths.ravel()]
    files = sorted((tmp_path / "out").glob("project_rep*.json"))
    assert len(files) == 20
    for path, traj in zip(files, expected.snapshots):
        traj_panel = NetworkPanel(panel.risk_set, traj)
        text = path.read_text(encoding="utf-8")
        assert text == panel_to_json(traj_panel) == oracles.panel_json_by_dumps(traj_panel)


def test_gli_subcommand(workdir, capsys):
    assert run(["gli", workdir / "panel.json", "--t", "1"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {
        "size", "density", "mean_degree", "degree_centralization", "connectedness",
        "triad_census_0", "triad_census_1", "triad_census_2", "triad_census_3",
    }


def test_convert_round_trip(tmp_path):
    (tmp_path / "edges.csv").write_text("1,a,b\n2,b,c\n")
    (tmp_path / "presence.csv").write_text("1,a\n1,b\n2,b\n2,c\n")
    out = tmp_path / "panel.json"
    assert run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", out]) == EXIT_OK
    panel = load_panel(out)
    assert len(panel.risk_set) == 3
    assert panel.at(1).edge_count == 1


# (edge rows, presence rows, risk-set labels, each time's edges by label)
_QUOTED_TABLES = {
    "quoted comma": ('1,"a,b",c\n', '1,"a,b"\n1,c\n', ["a,b", "c"], {1: [("a,b", "c")]}),
    "quoted spaces": ('1," a ",c\n', '1," a "\n1,c\n', [" a ", "c"], {1: [(" a ", "c")]}),
    "quoted quote": ('1,"q""x",c\n', '1,"q""x"\n1,c\n', ['q"x', "c"], {1: [('q"x', "c")]}),
    "unquoted spaces": ("1, a , c\n", "1, a \n 1,c\n", ["a", "c"], {1: [("a", "c")]}),
    "whitespace rows": ("1 a c\n2\tc  d\n", "1 a\n1 c\n2 c\n2\td\n", ["a", "c", "d"],
                        {1: [("a", "c")], 2: [("c", "d")]}),
    "quoted line break": ('1,"a\nb",c\n', '1,"a\nb"\n1,c\n', ["a\nb", "c"],
                          {1: [("a\nb", "c")]}),
    "quoted CRLF": ('1,"a\r\nb",c\r\n', '1,"a\r\nb"\r\n1,c\r\n', ["a\r\nb", "c"],
                    {1: [("a\r\nb", "c")]}),
    "quoted line break then comments": ('1,"a\n#b",c\n# note\n\n2 c d\n',
                                        '1,"a\n#b"\n\n1,c\n# note\n2,c\n2,d\n',
                                        ["a\n#b", "c", "d"],
                                        {1: [("a\n#b", "c")], 2: [("c", "d")]}),
    "byte-order mark": ("\ufeff1,a,c\n", "\ufeff1,a\n1,c\n", ["a", "c"], {1: [("a", "c")]}),
}


@pytest.mark.parametrize("name", sorted(_QUOTED_TABLES))
def test_convert_reads_quoted_fields(tmp_path, name):
    """Comma-separated rows are CSV: a quoted field keeps its text, commas,
    spaces and doubled quotes included, and an unquoted field is stripped,
    as a whitespace-separated one is."""
    edges, presence, labels, by_time = _QUOTED_TABLES[name]
    (tmp_path / "edges.csv").write_text(edges)
    (tmp_path / "presence.csv").write_text(presence)
    out = tmp_path / "panel.json"
    assert run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", out]) == EXIT_OK
    panel = load_panel(out)
    assert sorted(panel.risk_set.labels) == sorted(labels)
    for t, pairs in by_time.items():
        got = [(panel.risk_set.labels[i], panel.risk_set.labels[j]) for i, j in panel.at(t).edges]
        assert sorted(tuple(sorted(p)) for p in got) == sorted(tuple(sorted(p)) for p in pairs)


def test_convert_bad_edge_exits_validation(tmp_path):
    (tmp_path / "edges.csv").write_text("1,a,zz\n")
    (tmp_path / "presence.csv").write_text("1,a\n")
    code = run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", tmp_path / "out.json"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("command, flag", [
    ("convert", "--seed"), ("convert", "--out-dir"), ("convert", "--format"),
    ("convert", "--timestamps"), ("gli", "--seed"), ("gli", "--out-dir"),
    ("gli", "--timestamps"), ("adequacy", "--format"), ("project", "--format"),
    ("fit", "--seed"), ("fit", "--gap-policy"),
])
def test_flags_a_command_does_not_read_are_refused(workdir, tmp_path, capsys, command,
                                                   flag):
    files = {
        "fit": [workdir / "panel.json", workdir / "spec.json"],
        "convert": [tmp_path / "edges.csv", tmp_path / "presence.csv", "-o",
                    tmp_path / "out.json"],
        "gli": [workdir / "panel.json", "--t", "1"],
        "adequacy": [workdir / "panel.json", workdir / "spec.json", tmp_path / "fit.json"],
        "project": [workdir / "panel.json", workdir / "spec.json", tmp_path / "fit.json"],
    }[command]
    value = [] if flag == "--timestamps" else ["csv" if flag == "--format" else "1"]
    with pytest.raises(SystemExit) as exc:
        run([command, *files, flag, *value])
    assert exc.value.code == EXIT_PARSE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["gli", bad, "--t", "1"]) == EXIT_PARSE


@pytest.fixture(scope="module")
def bridge_run(tmp_path_factory):
    """A 3-vertex panel with a gap at t=3, a spec whose gap policy is
    ``bridge``, and the fit report of that spec."""
    from dynetlogit import NetworkPanel, RiskSet, Snapshot
    root = tmp_path_factory.mktemp("bridge")
    rs = RiskSet(["a", "b", "c"])
    rng = np.random.default_rng(5)
    snaps = []
    for t in (1, 2, 4, 5, 6):
        bits = rng.random(3) < 0.8
        idx = np.flatnonzero(bits)
        edges = [(int(idx[a]), int(idx[b])) for a in range(len(idx))
                 for b in range(a + 1, len(idx)) if rng.random() < 0.5]
        snaps.append(Snapshot(t, bits, edges, n=3))
    save_panel(NetworkPanel(rs, snaps, gaps=[3]), root / "p.json")
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)],
        gap_policy="bridge",
    )
    save_model_spec(spec, root / "s.json")
    assert run(["fit", root / "p.json", root / "s.json", "--out-dir", root]) == EXIT_OK
    return root


def test_bridge_spec_fits_and_checks_the_same_steps(bridge_run, tmp_path):
    report = json.loads((bridge_run / "s_fit.json").read_text())
    assert report["model"]["gap_policy"] == "bridge"
    assert report["manifest"]["settings"]["gap_policy"] == "bridge"
    # t=4 follows the gap: bridged, its lag reads t=2
    assert report["design"]["usable_steps"] == [2, 4, 5, 6]
    assert run(["adequacy", bridge_run / "p.json", bridge_run / "s.json",
                bridge_run / "s_fit.json", "--sims", "20", "--out-dir", tmp_path]) == EXIT_OK
    glis = json.loads((tmp_path / "adequacy.json").read_text())["adequacy"]["glis"]
    assert [rec["step"] for rec in glis["size"]["steps"]] == [2, 4, 5, 6]


def test_project_accepts_the_bridge_spec_and_its_fit(bridge_run, tmp_path):
    assert run(["project", bridge_run / "p.json", bridge_run / "s.json",
                bridge_run / "s_fit.json", "--horizon", "3", "--sims", "2",
                "--out-dir", tmp_path]) == EXIT_OK
    lines = (tmp_path / "project_gli.csv").read_text().splitlines()
    assert len(lines) == 2 + 2 * 3 * 9  # comment + header + replicates * steps * glis


@pytest.mark.parametrize("command", ["adequacy", "project"])
@pytest.mark.parametrize("fitted, checked, where", [
    (ModelSpec([TermSpec("vertex", "intercept")], [], gap_policy="bridge"),
     ModelSpec([TermSpec("vertex", "intercept")], []), "gap_policy"),
    (ModelSpec([TermSpec("vertex", "seasonal", params={"day": "Friday", "key": "day"})], []),
     ModelSpec([TermSpec("vertex", "seasonal", params={"day": "Friday", "key": "weekday"})],
               []), "vertex_terms[0].params.key"),
    (ModelSpec([TermSpec("vertex", "intercept")], []),
     ModelSpec([TermSpec("vertex", "intercept"), TermSpec("vertex", "intercept")], []),
     "vertex_terms[1]"),
])
def test_spec_unlike_the_fitted_model_is_refused(workdir, tmp_path, capsys, command,
                                                 fitted, checked, where):
    report = {"model": fitted.to_dict(),
              "fit": {"coefficients": [0.0] * len(fitted.column_names),
                      "columns": list(fitted.column_names)}}
    (tmp_path / "fit.json").write_text(json.dumps(report))
    save_model_spec(checked, tmp_path / "spec.json")
    assert run([command, workdir / "panel.json", tmp_path / "spec.json",
                tmp_path / "fit.json", "--out-dir", tmp_path / "out"]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["message"].endswith(f"first at {where}")


@pytest.fixture(scope="module")
def workdir_fit(workdir):
    """The fit report of the shared spec."""
    assert run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", workdir / "fit"]) == EXIT_OK
    return workdir / "fit" / "spec_fit.json"


# (file, key path to replace, new value, the end of the parse error)
_MALFORMED = {
    "spec top level": ("spec", (), [1],
                       "top level of a model spec must be an object, got a list"),
    "terms not a list": ("spec", ("vertex_terms",), "intercept",
                         'vertex_terms must be a list of terms, got "intercept"'),
    "term a string": ("spec", ("vertex_terms", 0), "intercept",
                      'vertex_terms[0] must be an object, got "intercept"'),
    "params a number": ("spec", ("edge_terms", 0, "params"), 5,
                        "params in edge_terms[0] must be an object, got 5"),
    "param a list": ("spec", ("vertex_terms", 0), {"kind": "attr_dummy",
                                                   "params": {"attr": ["regular"]}},
                     'vertex_terms[0]: params.attr must be a string, got a list'),
    "lag a string": ("spec", ("vertex_terms", 1, "lag"), "1",
                     'vertex_terms[1]: lag_indicator term lag must be an integer, got "1"'),
    "lag a fraction": ("spec", ("edge_terms", 1, "lag"), 1.5,
                       "edge_terms[1]: lag_indicator term lag must be an integer, got 1.5"),
    "kind a list": ("spec", ("vertex_terms", 0, "kind"), ["intercept"],
                    "vertex_terms[0]: kind ['intercept'] not valid for vertex terms"),
    "param misspelt": ("spec", ("vertex_terms", 0),
                       {"kind": "seasonal", "params": {"day": "Tuesday", "kye": "weekday"}},
                       "vertex_terms[0]: seasonal term does not take params.kye"),
    "param undeclared": ("spec", ("edge_terms", 0, "params"), {"attr": "nosuch"},
                         "edge_terms[0]: intercept term does not take params.attr"),
    "max_len a string": ("spec", ("edge_terms", 1),
                         {"kind": "lag_cycle_embed", "lag": 1, "params": {"max_len": "x"}},
                         'edge_terms[1]: lag_cycle_embed max_len must be an integer, got "x"'),
    "snapshot a number": ("panel", ("snapshots", 2), 5,
                          "snapshots[2] must be an object, got 5"),
    "risk-set entry a number": ("panel", ("risk_set", 1), 5,
                                "risk_set[1] must be an object, got 5"),
    "risk set an object": ("panel", ("risk_set",), {"a": {}},
                           "risk_set in panel file must be a list, got an object"),
    "vertex attrs a number": ("panel", ("risk_set", 0, "attrs"), 5,
                              "attrs in risk_set[0] must be an object, got 5"),
    "snapshot attrs a number": ("panel", ("snapshots", 1, "attrs"), 5,
                                "attrs in snapshots[1] must be an object, got 5"),
    "t a string": ("panel", ("snapshots", 0, "t"), "x",
                   't in snapshots[0] must be an integer, got "x"'),
    "t a fraction": ("panel", ("snapshots", 0, "t"), 1.5,
                     "t in snapshots[0] must be an integer, got 1.5"),
    "fit report top level": ("fit", (), [1],
                             "top level of a fit report must be an object, got a list"),
    "fit block a number": ("fit", ("fit",), 5, "fit must be an object, got 5"),
    "coefficient a string": ("fit", ("fit", "coefficients", 1), "x",
                             "fit.coefficients must be a list of numbers"),
    "coefficients missing": ("fit", ("fit",), {"columns": ["v:intercept"]},
                             "fit report lacks key 'coefficients'"),
    "column a number": ("fit", ("fit", "columns", 0), 5,
                        "fit.columns must be a list of strings"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_input_is_a_parse_error(workdir, workdir_fit, tmp_path, capsys, name):
    part, path, value, message = _MALFORMED[name]
    files = {"panel": workdir / "panel.json", "spec": workdir / "spec.json",
             "fit": workdir_fit}
    obj = json.loads(files[part].read_text())
    if path:
        *head, last = path
        target = obj
        for key in head:
            target = target[key]
        target[last] = value
    else:
        obj = value
    files[part] = tmp_path / f"{part}.json"
    files[part].write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["adequacy", files["panel"], files["spec"], files["fit"], "--sims", "2",
                "--out-dir", tmp_path / "out"]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "parse"
    assert err["message"].endswith(message)


def test_fit_report_of_invalid_json_is_a_parse_error(workdir, tmp_path, capsys):
    bad = tmp_path / "fit.json"
    bad.write_text("{not json")
    capsys.readouterr()
    assert run(["adequacy", workdir / "panel.json", workdir / "spec.json", bad, "--sims", "2",
                "--out-dir", tmp_path / "out"]) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert err["message"].startswith(f"{bad}: invalid JSON: ")


# --prior value: the parse error it stops the fit with
_BAD_PRIORS = {
    "gauss:scale=1": "unknown prior 'gauss' (use none, cauchy, or t)",
    "t:scale=1,width=2": "unknown prior parameter 'width'",
    "t:scale=wide": "prior parameter scale needs a number, got 'wide'",
    "cauchy:df=2": "a cauchy prior has df=1; use t:df=... for other df",
    "t:scale=0": "prior scale must be positive",
    "cauchy:scale=-2.5": "prior scale must be positive",
    "cauchy:scale=nan": "prior scale must be finite, got nan",
    "cauchy:scale=inf": "prior scale must be finite, got inf",
    "cauchy:center=inf": "prior center must be finite, got inf",
    "t:df=inf": "prior df must be finite, got inf",
    "t:df=nan": "prior df must be finite, got nan",
}


@pytest.mark.parametrize("prior", sorted(_BAD_PRIORS))
def test_malformed_prior_is_a_parse_error(workdir, tmp_path, capsys, prior):
    capsys.readouterr()
    assert run(["fit", workdir / "panel.json", workdir / "spec.json", "--prior", prior,
                "--out-dir", tmp_path]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err) == {"error": "parse",
                                                   "message": _BAD_PRIORS[prior]}
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--tolerance", "inf"], "--tolerance must be a positive finite number, got inf"),
    (["--tolerance", "nan"], "--tolerance must be a positive finite number, got nan"),
    (["--tolerance", "-1"], "--tolerance must be a positive finite number, got -1.0"),
    (["--tolerance", "0"], "--tolerance must be a positive finite number, got 0.0"),
    (["--max-iter", "-3"], "--max-iter must be non-negative, got -3"),
])
def test_fit_refuses_a_stopping_rule_that_cannot_stop_right(workdir, tmp_path, capsys,
                                                            flags, message):
    capsys.readouterr()
    assert run(["fit", workdir / "panel.json", workdir / "spec.json", *flags,
                "--out-dir", tmp_path]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err) == {"error": "parse", "message": message}
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["--prior", "normal"], ["--tolerance", "0"],
                                   ["--max-iter", "-1"]])
def test_a_refused_fit_creates_no_out_dir(workdir, tmp_path, flags):
    out = tmp_path / "out"
    assert run(["fit", workdir / "panel.json", workdir / "spec.json", *flags,
                "--out-dir", out]) == EXIT_PARSE
    assert not out.exists()


def test_csv_files_read_back_labels_that_need_quoting(tmp_path):
    """A label holding a comma, a quote or a line break is one quoted field
    in every CSV file, so ``csv.reader`` reads each row back whole."""
    from dynetlogit import NetworkPanel, RiskSet

    labels = ["a,b", 'q"x', "n\nl", "c\rr", "plain"]
    drawn = random_panel(np.random.default_rng(5), n=5, T=5, presence=0.9, density=0.5)
    save_panel(NetworkPanel(RiskSet(labels), drawn.snapshots), tmp_path / "panel.json")
    spec = ModelSpec([TermSpec("vertex", "intercept")],
                     [TermSpec("edge", "intercept")]
                     + [TermSpec("edge", "individual_dummy", params={"label": label})
                        for label in labels[:4]])
    save_model_spec(spec, tmp_path / "spec.json")
    out = tmp_path / "out"
    assert run(["fit", tmp_path / "panel.json", tmp_path / "spec.json", "--format", "csv",
                "--dump-design", "--out-dir", out]) == EXIT_OK

    def read(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    coefficients = read("spec_coefficients.csv")
    assert coefficients[0] == ["# manifest: spec_fit.json"]
    assert [row[0] for row in coefficients[2:]] == list(spec.column_names)
    assert {len(row) for row in coefficients[1:]} == {5}
    assert read("spec_design_columns.csv")[1:] == [
        [str(c), name] for c, name in enumerate(spec.column_names)]
    tags = read("spec_design_tags.csv")[1:]
    assert {len(row) for row in tags} == {6}
    assert {row[3] for row in tags} | {row[4] for row in tags} == set(labels) | {""}


def test_gli_at_a_gap_day_exits_validation(bridge_run, capsys):
    capsys.readouterr()
    assert run(["gli", bridge_run / "p.json", "--t", "3"]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {"error": "validation",
                                                   "message": "no snapshot at t=3"}


def test_gli_csv_holds_the_json_values(workdir, capsys):
    from dynetlogit import GLI_NAMES
    capsys.readouterr()
    assert run(["gli", workdir / "panel.json", "--t", "2"]) == EXIT_OK
    values = json.loads(capsys.readouterr().out)
    assert run(["gli", workdir / "panel.json", "--t", "2", "--format", "csv"]) == EXIT_OK
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "gli,value"
    assert [row.split(",") for row in rows] == [[name, repr(values[name])]
                                                for name in GLI_NAMES]


# (edge rows, presence rows, exit code, the end of the error message)
_BAD_TABLES = {
    "edge row of two columns": ("1,a,b\n1,b\n", "1,a\n1,b\n", EXIT_PARSE,
                                "edges.csv:2: expected 3 columns in edge row, got 2"),
    "time not an integer": ("1,a,b\n", "1,a\n1.5,b\n", EXIT_PARSE,
                            "presence.csv:2: first column must be an integer time index"),
    "edge at an unrecorded time": ("1,a,b\n2,a,b\n", "1,a\n1,b\n", EXIT_VALIDATION,
                                   "edge row 2: time 2 has no presence records"),
    "loop edge": ("1,a,b\n1,b,b\n", "1,a\n1,b\n", EXIT_VALIDATION,
                  "edge row 2: loop edge at t=1"),
    "unclosed quote": ('1,"a,b\n', "1,a\n1,b\n", EXIT_PARSE,
                       "edges.csv:1: edge row is not valid CSV: unexpected end of data"),
    "short row after a quoted line break": (
        '1,"a\nb",c\n\n1,b\n', '1,"a\nb"\n1,c\n', EXIT_PARSE,
        "edges.csv:4: expected 3 columns in edge row, got 2"),
}


@pytest.mark.parametrize("name", sorted(_BAD_TABLES))
def test_convert_refuses_bad_rows(tmp_path, capsys, name):
    edges, presence, code, message = _BAD_TABLES[name]
    (tmp_path / "edges.csv").write_text(edges)
    (tmp_path / "presence.csv").write_text(presence)
    capsys.readouterr()
    assert run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", tmp_path / "out.json"]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == ("parse" if code == EXIT_PARSE else "validation")
    assert err["message"].endswith(message)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("gaps", ["x", "1.5", "2,x"])
def test_convert_refuses_a_malformed_gaps_entry(tmp_path, capsys, gaps):
    """A ``--gaps`` entry that is not an integer is a parse error naming the
    flag and the entry."""
    (tmp_path / "edges.csv").write_text("1,a,b\n")
    (tmp_path / "presence.csv").write_text("1,a\n1,b\n")
    capsys.readouterr()
    assert run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", tmp_path / "out.json", "--gaps", gaps]) == EXIT_PARSE
    bad = gaps.split(",")[-1]
    assert json.loads(capsys.readouterr().err) == {
        "error": "parse", "message": f"--gaps must list integer time indices, got {bad!r}"}
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("gaps", ["-5", "4", "2,0"])
def test_convert_refuses_a_gap_outside_the_observed_span(tmp_path, capsys, gaps):
    """A gap before the first or after the last observed time would move the
    panel's time span, and with it every simulation stream: it is a
    validation error naming the gap, and no panel is written."""
    (tmp_path / "edges.csv").write_text("1,a,b\n3,a,b\n")
    (tmp_path / "presence.csv").write_text("1,a\n1,b\n3,a\n3,b\n")
    capsys.readouterr()
    assert run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", tmp_path / "out.json", "--gaps", gaps]) == EXIT_VALIDATION
    bad = gaps.split(",")[-1]
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "message": f"gap {bad} lies outside the observed time span 1..3"}
    assert not (tmp_path / "out.json").exists()


def test_convert_keeps_a_gap_inside_the_observed_span(tmp_path):
    (tmp_path / "edges.csv").write_text("1,a,b\n3,a,b\n")
    (tmp_path / "presence.csv").write_text("1,a\n1,b\n3,a\n3,b\n")
    out = tmp_path / "out.json"
    assert run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", out, "--gaps", "2"]) == EXIT_OK
    panel = load_panel(out)
    assert panel.gaps == (2,)
    assert (panel.t_min, panel.t_max) == (1, 3)


def test_convergence_exit_code(workdir, tmp_path):
    code = run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--max-iter", "1", "--out-dir", tmp_path])
    assert code == EXIT_CONVERGENCE
    report = json.loads((tmp_path / "spec_fit.json").read_text())
    assert not report["fit"]["convergence"]["converged"]


def test_io_error_exit_code(workdir, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = run(["fit", workdir / "panel.json", workdir / "spec.json",
                "--out-dir", blocker / "sub"])
    assert code == EXIT_IO


def test_validation_error_exit_code(workdir, tmp_path):
    spec = ModelSpec([TermSpec("vertex", "attr_dummy", params={"attr": "zzz"})], [])
    save_model_spec(spec, tmp_path / "bad_spec.json")
    code = run(["fit", workdir / "panel.json", tmp_path / "bad_spec.json",
                "--out-dir", tmp_path])
    assert code == EXIT_VALIDATION


def test_cycle_budget_exceeded_exits_validation(tmp_path, capsys):
    """A dense lagged snapshot fails fast instead of counting for hours."""
    from dynetlogit import NetworkPanel, RiskSet, Snapshot
    n = 60
    k60 = [(i, j) for i in range(n) for j in range(i + 1, n)]
    panel = NetworkPanel(RiskSet([f"v{k}" for k in range(n)]),
                         [Snapshot(1, range(n), k60, n=n),
                          Snapshot(2, range(n), k60[:50], n=n)])
    save_panel(panel, tmp_path / "k60.json")
    spec = ModelSpec([TermSpec("vertex", "intercept")],
                     [TermSpec("edge", "intercept"),
                      TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 9})])
    save_model_spec(spec, tmp_path / "cycles.json")
    start = time.perf_counter()
    code = run(["fit", tmp_path / "k60.json", tmp_path / "cycles.json",
                "--out-dir", tmp_path / "out"])
    assert code == EXIT_VALIDATION
    assert time.perf_counter() - start < 10
    message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
    assert "t=1" in message and "|V_t|=60" in message and "|E_t|=1770" in message


def test_console_entry_point(workdir, tmp_path):
    # the subprocess imports the package the tests import, installed or not
    import dynetlogit
    path = [str(Path(dynetlogit.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "dynetlogit.cli", "fit", str(workdir / "panel.json"),
         str(workdir / "spec.json"), "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "spec_fit.json").exists()


# Run in a fresh interpreter: the import, simulation and index steps, and
# every command but fit, on the files under argv[1]; the last line printed
# is their exit codes and the scipy modules loaded.
_NON_FIT_STEPS = """
import json, sys
from pathlib import Path

import dynetlogit
import dynetlogit.cli as cli
from dynetlogit import SimConfig, generate_panel, load_model_spec, load_panel
from dynetlogit import one_step_intervals, project
from dynetlogit.gli import gli_matrix

root = Path(sys.argv[1])
panel_path, spec_path, fit_path = (str(root / name) for name in
                                   ("panel.json", "spec.json", "spec_fit.json"))
panel, spec = load_panel(panel_path), load_model_spec(spec_path)
fit = cli._load_fit_report(fit_path, spec)
generate_panel(spec, fit.coefficients, panel.risk_set, 10, seed=1)
one_step_intervals(fit, spec, panel, SimConfig(replicates=5))
project(fit, spec, panel, SimConfig(replicates=3, horizon=2))
gli_matrix(panel.snapshots[-1])
codes = [cli.main(args) for args in (
    ["gli", panel_path, "--t", str(panel.observed_times[-1])],
    ["convert", str(root / "edges.csv"), str(root / "presence.csv"),
     "-o", str(root / "converted.json")],
    ["adequacy", panel_path, spec_path, fit_path, "--sims", "5", "--out-dir", str(root)],
    ["project", panel_path, spec_path, fit_path, "--horizon", "2", "--sims", "2",
     "--out-dir", str(root)],
)]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""

_FIT_STEP = """
import json, sys
import dynetlogit.cli as cli
root = sys.argv[1]
code = cli.main(["fit", root + "/panel.json", root + "/spec.json", "--out-dir", root])
print(json.dumps({"code": code, "scipy": "scipy.linalg" in sys.modules}))
"""


def test_only_fit_loads_scipy(workdir, tmp_path):
    """Importing the package, simulating, computing indices and every command
    but fit run on numpy alone; fit, in a fresh interpreter of its own,
    loads scipy when it needs it and succeeds."""
    import dynetlogit
    path = [str(Path(dynetlogit.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for name in ("panel.json", "spec.json"):
        shutil.copy(workdir / name, tmp_path / name)
    (tmp_path / "edges.csv").write_text("1,a,b\n3,a,b\n")
    (tmp_path / "presence.csv").write_text("1,a\n1,b\n3,a\n3,b\n")

    def fresh(script):
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    assert fresh(_FIT_STEP) == {"code": EXIT_OK, "scipy": True}
    assert fresh(_NON_FIT_STEPS) == {"codes": [EXIT_OK] * 4, "scipy": []}


@pytest.mark.parametrize("prior", ["none", "cauchy:scale=2.5,df=1"])
def test_fit_of_an_all_zero_design_pins_every_column(tmp_path, prior):
    """An edge lag whose lagged ties are never among present vertices is
    zero on every row: both priors fit it, pinned at 0, and exit 0."""
    from dynetlogit import NetworkPanel, RiskSet, Snapshot
    panel = NetworkPanel(RiskSet(["a", "b", "c"]), [
        Snapshot(1, [0, 1, 2], [], n=3),
        Snapshot(2, [0, 1, 2], [(0, 1)], n=3),
        Snapshot(3, [0, 2], [], n=3),
    ])
    save_panel(panel, tmp_path / "p.json")
    save_model_spec(ModelSpec([], [TermSpec("edge", "lag_indicator", lag=1)]),
                    tmp_path / "s.json")
    assert run(["fit", tmp_path / "p.json", tmp_path / "s.json",
                "--prior", prior, "--out-dir", tmp_path]) == EXIT_OK
    fit = json.loads((tmp_path / "s_fit.json").read_text())["fit"]
    assert fit["coefficients"] == [0.0] and fit["std_errors"] == [None]
    assert fit["convergence"]["notes"] == ["all-zero columns pinned at 0: e:lag1"]
    assert fit["convergence"]["converged"] and not fit["convergence"]["separation"]


@pytest.mark.parametrize("gaps, span", [([-5], "1..3"), ([2, 4], "1..3"), ([2], None)])
def test_loader_refuses_a_gap_outside_the_observed_span(tmp_path, capsys, gaps, span):
    """A panel file's gap outside its snapshots' time span, or any gap of a
    file without snapshots, is refused as ``convert`` refuses it: exit 3,
    naming the gap."""
    path = tmp_path / "panel.json"
    (tmp_path / "edges.csv").write_text("1,a,b\n3,a,b\n")
    (tmp_path / "presence.csv").write_text("1,a\n1,b\n3,a\n3,b\n")
    assert run(["convert", tmp_path / "edges.csv", tmp_path / "presence.csv",
                "-o", path]) == EXIT_OK
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["gaps"] = gaps
    if span is None:
        obj["snapshots"] = []
    path.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert run(["gli", path, "--t", "1"]) == EXIT_VALIDATION
    bad = [g for g in gaps if span is None or not 1 <= g <= 3][0]
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "message": f"gap {bad} lies outside the observed time span "
                                          + (span or "(no snapshots)")}


class _ClosedPipe:
    """A standard output whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("command", ["gli", "fit"])
def test_a_closed_stdout_is_not_an_io_failure(workdir, tmp_path, capsys, monkeypatch, command):
    """Output to a reader that stopped early is dropped: the command runs to
    its end, writes its files and exits with its own code, reporting
    nothing."""
    def argv(out):
        if command == "gli":
            return ["gli", workdir / "panel.json", "--t", "2"]
        return ["fit", workdir / "panel.json", workdir / "spec.json", "--out-dir", out]

    expected = run(argv(tmp_path / "open"))
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(argv(tmp_path / "closed")) == expected == EXIT_OK
    assert capsys.readouterr().err == ""
    written = sorted(p.name for p in (tmp_path / "open").glob("*"))
    assert sorted(p.name for p in (tmp_path / "closed").glob("*")) == written


def test_a_pipe_closed_before_the_output_exits_quietly(workdir):
    """A real pipe whose reader is gone before the command prints."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    child = subprocess.Popen([sys.executable, "-m", "dynetlogit.cli", "gli",
                              str(workdir / "panel.json"), "--t", "2"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (EXIT_OK, b"")
