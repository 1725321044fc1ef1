"""Inputs, CLI sessions and output checks of the three benchmark workloads.

Every workload starts from one fixed draw of its panel (the "base draw").
The workload seed permutes the order of the risk set, so each seed writes
different input files that describe the same graphs.  Every seed therefore
does the same amount of work, which a fresh draw cannot promise: the cost
of the cycle statistic grows exponentially with density, and fresh draws
of the `cycles` panel moved the cycle work between 3 s and 14 s.  What the
permutation does change is everything that depends on vertex order: row
order in the design, pair order, and which vertex each simulated draw
lands on.

Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from dynetlogit import (
    ModelSpec,
    NetworkPanel,
    RiskSet,
    Snapshot,
    TermSpec,
    generate_panel,
    save_model_spec,
    save_panel,
)
from dynetlogit.synth import make_month_panel, nested_model_specs

DEFAULT_SEED = 0

# the criterion-8 setting of the acceptance suite
MILLION_THETA = (-1.45, 0.5, -5.2, 1.0, 0.3)
# the same process with a denser edge model, so lagged ties form cycles
CYCLES_THETA = (-1.45, 0.5, -3.8, 1.0, 0.3)
BASE_SEED = 31


def _million_spec() -> ModelSpec:
    return ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1),
         TermSpec("edge", "log_size")],
    )


def _cycles_spec() -> ModelSpec:
    return ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1),
         TermSpec("vertex", "lag_triangle", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1),
         TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 9})],
    )


def _base_draw(name: str):
    """(panel, {spec stem: spec}) of the workload's fixed draw."""
    if name == "month":
        panel = make_month_panel()
        specs = nested_model_specs(panel.risk_set)
        return panel, {f"model_{k}": s for k, s in enumerate(specs, 1)}
    if name == "million":
        risk = RiskSet([f"v{k:04d}" for k in range(1000)])
        panel = generate_panel(_million_spec(), np.array(MILLION_THETA), risk, 51,
                               seed=BASE_SEED, init_presence=0.2, init_density=0.02)
        return panel, {"million": _million_spec()}
    if name == "cycles":
        risk = RiskSet([f"v{k:03d}" for k in range(300)])
        panel = generate_panel(_million_spec(), np.array(CYCLES_THETA), risk, 12,
                               seed=BASE_SEED, init_presence=0.2, init_density=0.02)
        return panel, {"cycles": _cycles_spec()}
    raise ValueError(f"unknown workload {name!r}")


def _permuted(panel: NetworkPanel, seed: int) -> NetworkPanel:
    """The same panel with its risk set listed in a seeded random order."""
    rs = panel.risk_set
    order = np.random.default_rng(seed).permutation(len(rs))
    new_index = np.empty_like(order)
    new_index[order] = np.arange(len(order))
    labels = [rs.labels[k] for k in order]
    attrs = [{a: rs.attrs[a][k] for a in rs.attrs} for k in order]
    snaps = [
        Snapshot(s.t, s.present[order],
                 [(new_index[i], new_index[j]) for i, j in s.edges], s.time_attrs)
        for s in panel.snapshots
    ]
    return NetworkPanel(RiskSet(labels, attrs), snaps, gaps=panel.gaps)


def write_inputs(name: str, seed: int, directory: Path) -> None:
    """Write `panel.json` and one `<stem>.json` per model spec."""
    panel, specs = _base_draw(name)
    directory.mkdir(parents=True, exist_ok=True)
    save_panel(_permuted(panel, seed), directory / "panel.json")
    for stem, spec in specs.items():
        save_model_spec(spec, directory / f"{stem}.json")


def spec_stems(name: str):
    return ("model_1", "model_2", "model_3", "model_4") if name == "month" else (name,)


# Commands short enough to drown in timing noise run several times
# per pass, each into a fresh directory, so their medians rest on more samples.
REPEATS = {"month": {"fit": 5, "project": 5}}


def session(name: str, inputs: Path, out: Path):
    """The commands a user types for this workload, as (stage, argv, out dir).

    A stage listed several times in a row is one command repeated; later
    stages read the first fit report.
    """
    panel = str(inputs / "panel.json")
    specs = [str(inputs / f"{stem}.json") for stem in spec_stems(name)]
    report = str(out / "fit0" / f"{spec_stems(name)[-1]}_fit.json")
    adequacy = ["adequacy", panel, specs[-1], report, "--sims", "100", "--alpha", "0.95",
                "--seed", "6"]
    commands = {
        "fit": ["fit", panel, *specs],
        "adequacy": adequacy,
        "adequacy_fixed": adequacy + ["--fixed-vertex-set"],
        "project": ["project", panel, specs[-1], report, "--horizon", "5", "--sims", "20",
                    "--seed", "17", "--dump-graphs"],
    }
    stages = ("fit", "adequacy", "adequacy_fixed", "project") if name == "month" else ("fit",)
    out_list = []
    for stage in stages:
        for rep in range(REPEATS.get(name, {}).get(stage, 1)):
            target = out / f"{stage}{rep}"
            out_list.append((stage, commands[stage] + ["--out-dir", str(target)], target))
    return out_list


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def expected_rows(panel_obj: dict, max_lag: int) -> int:
    """n·|steps| + Σ_t C(|V_t|, 2) over the usable steps, from the panel file."""
    present = {s["t"]: len(s["present"]) for s in panel_obj["snapshots"]}
    steps = [t for t in present if all(t - k in present for k in range(1, max_lag + 1))]
    n = len(panel_obj["risk_set"])
    return sum(n + math.comb(present[t], 2) for t in steps)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Checker:
    """Checks one command's outputs; returns a list of failure messages."""

    def __init__(self, name: str, seed: int, inputs: Path, reference: dict | None):
        self.name = name
        self.seed = seed
        self.panel_obj = _read(inputs / "panel.json")
        self.max_lag = {stem: ModelSpec.from_dict(_read(inputs / f"{stem}.json")).max_lag
                        for stem in spec_stems(name)}
        self.reference = reference or {}

    def check(self, stage: str, out: Path) -> list:
        """Failures in the outputs one `stage` command wrote to `out`."""
        return getattr(self, f"_check_{stage}")(out)

    def _check_fit(self, out: Path) -> list:
        errors = []
        aligned = max(self.max_lag.values())
        rows = expected_rows(self.panel_obj, aligned)
        ref_fits = self.reference.get("fits", {})
        for stem in spec_stems(self.name):
            report = _read(out / f"{stem}_fit.json")
            fit = report["fit"]
            if not fit["convergence"]["converged"]:
                errors.append(f"{stem}: not converged")
            if any(se is None or not math.isfinite(se) for se in fit["std_errors"]):
                errors.append(f"{stem}: non-finite standard error")
            if report["design"]["rows"] != rows:
                errors.append(f"{stem}: {report['design']['rows']} design rows, "
                              f"expected {rows} from the panel file")
            ref = ref_fits.get(stem)
            if ref is not None:
                for key in ("coefficients", "std_errors"):
                    if len(fit[key]) != len(ref[key]) or not all(
                            _close(a, b, 1e-6) for a, b in zip(fit[key], ref[key])):
                        errors.append(f"{stem}: {key} differ from the reference by >1e-6")
        if self.name == "million":
            fit = _read(out / "million_fit.json")["fit"]
            for col, est, se, true in zip(fit["columns"], fit["coefficients"],
                                          fit["std_errors"], MILLION_THETA):
                if abs(est - true) > 3 * se:
                    errors.append(f"million: {col}={est:.4f} is more than 3 SE "
                                  f"({se:.4f}) from the generating {true}")
        if self.name == "month":
            ranking = _read(out / "ranking.json")["models"]
            if ranking[0]["spec"] != "model_4":
                errors.append(f"month: {ranking[0]['spec']} ranks first, not model_4")
        return errors

    def _adequacy(self, out: Path, stage: str) -> tuple:
        glis = _read(out / "adequacy.json")["adequacy"]["glis"]
        errors = []
        if len(glis) != 9 or any(len(g["steps"]) != 28 for g in glis.values()):
            errors.append(f"{stage}: expected 28 steps x 9 indices")
        covered = {k: g["summary"]["covered"] for k, g in glis.items()}
        ref = self.reference.get(stage)
        if self.seed == DEFAULT_SEED and ref is not None and covered != ref["covered"]:
            errors.append(f"{stage}: covered counts {covered} differ from the reference")
        return errors, covered

    def _check_adequacy(self, out: Path) -> list:
        return self._adequacy(out, "adequacy")[0]

    def _check_adequacy_fixed(self, out: Path) -> list:
        errors, covered = self._adequacy(out, "adequacy_fixed")
        if covered.get("size") != 0:
            errors.append(f"adequacy_fixed: size covers {covered.get('size')} of 28, not 0")
        return errors

    def _check_project(self, out: Path) -> list:
        errors = []
        values = read_projection(out)
        if len(values) != 20 * 5 * 9:
            errors.append(f"project: {len(values)} GLI values, expected 20 x 5 x 9")
        if len(list(out.glob("project_rep*.json"))) != 20:
            errors.append("project: expected 20 trajectory files")
        ref = self.reference.get("project")
        if self.seed == DEFAULT_SEED and ref is not None:
            if len(ref["gli_paths"]) != len(values) or not all(
                    _close(a, b, 1e-9) for a, b in zip(values, ref["gli_paths"])):
                errors.append("project: GLI paths differ from the reference by >1e-9")
        return errors


def read_projection(out: Path) -> list:
    """GLI path values from `project_gli.csv`, in file order."""
    lines = (out / "project_gli.csv").read_text(encoding="utf-8").splitlines()
    return [float(line.rsplit(",", 1)[1]) for line in lines[2:]]
