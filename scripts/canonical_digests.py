#!/usr/bin/env python3
"""Write the sha256 of every canonical output to tests/canonical_digests.json.

The command set runs in-process, on inputs from the repo's own generators
(`scripts/make_month_data.py` and `bench/workloads.write_inputs`):

- month `fit --dump-design --format csv` of model_1..4;
- month `adequacy` of model_4 at `--sims 100 --seed 6`: plain,
  `--fixed-vertex-set`, `--threshold50` and both flags together;
- month `project --sims 20 --seed 17 --dump-graphs` of model_4, at
  `--horizon 5` and, with `--fixed-vertex-set`, at `--horizon 1` (its
  replicates share one vertex set there, laid out once, and read the same
  observed lag ties);
- month `project --horizon 5 --sims 20 --seed 17 --fixed-vertex-set
  --dump-graphs` of model_2, whose replicates share one vertex set while
  their lag-1 ties differ from the second step on;
- month `fit --dump-design --format csv` of a `bridge` spec with terms at
  lags 1 and 2 (`lag2_bridge.json`);
- month `fit --dump-design --format csv` of model_4 on the month panel
  written with its edges reversed, duplicated and out of order
  (`messy_panel.json`), which the loader normalizes;
- the `million` and `cycles` fits;
- `project --horizon 3 --sims 30 --seed 2 --fixed-vertex-set` on `cycles`,
  which a cycle budget refuses;
- `gli --t 1` on the month panel with an unknown present label in
  `snapshots[3]` and a float `t` in `snapshots[5]` (`refused_panel.json`),
  which the loader refuses naming the first bad record.

Every command's exit code, stdout and stderr are recorded with its files.
Paths are relative to one working directory, so the fit manifests, which
name their inputs, have the same bytes wherever it is.  The table also
records the numpy, scipy and BLAS versions it was made with:
`tests/test_digests.py` fails on another version rather than compare bits
another build may round differently.  Regenerate the table only with a
change that means to change output bytes, and say why:

    PYTHONPATH=src python scripts/canonical_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "canonical_digests.json"


def versions() -> dict:
    """numpy, scipy and the BLAS each was built against."""
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commands():
    """(name, argv) of the command set, paths relative to the working
    directory; outputs go to ``out/<name>``."""
    month = ["month/month_panel.json", "month/model_4.json", "out/month_fit/model_4_fit.json"]
    adequacy = ["adequacy", *month, "--sims", "100", "--seed", "6"]
    cycles = ["cycles/panel.json", "cycles/cycles.json", "out/cycles_fit/cycles_fit.json"]
    return [
        ("month_fit", ["fit", "month/month_panel.json",
                       *(f"month/model_{k}.json" for k in range(1, 5)),
                       "--dump-design", "--format", "csv"]),
        ("month_fit_lag2_bridge", ["fit", "month/month_panel.json", "month/lag2_bridge.json",
                                   "--dump-design", "--format", "csv"]),
        ("month_fit_messy_edges", ["fit", "month/messy_panel.json", "month/model_4.json",
                                   "--dump-design", "--format", "csv"]),
        ("month_adequacy", adequacy),
        ("month_adequacy_fixed", adequacy + ["--fixed-vertex-set"]),
        ("month_adequacy_threshold50", adequacy + ["--threshold50"]),
        ("month_adequacy_fixed_threshold50", adequacy + ["--fixed-vertex-set",
                                                         "--threshold50"]),
        ("month_project", ["project", *month, "--horizon", "5", "--sims", "20",
                           "--seed", "17", "--dump-graphs"]),
        ("month_project_fixed", ["project", *month, "--horizon", "1", "--sims", "20",
                                 "--seed", "17", "--fixed-vertex-set", "--dump-graphs"]),
        ("month_project_fixed_lags", ["project", "month/month_panel.json",
                                      "month/model_2.json", "out/month_fit/model_2_fit.json",
                                      "--horizon", "5", "--sims", "20", "--seed", "17",
                                      "--fixed-vertex-set", "--dump-graphs"]),
        ("million_fit", ["fit", "million/panel.json", "million/million.json"]),
        ("cycles_fit", ["fit", "cycles/panel.json", "cycles/cycles.json"]),
        ("cycles_budget_refusal", ["project", *cycles, "--horizon", "3", "--sims", "30",
                                   "--seed", "2", "--fixed-vertex-set"]),
        ("month_load_refusal", ["gli", "month/refused_panel.json", "--t", "1"]),
    ]


def _write_inputs() -> None:
    from dynetlogit import ModelSpec, TermSpec, save_model_spec

    sys.path.insert(0, str(ROOT / "scripts"))
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import make_month_data
        import workloads
    finally:
        del sys.path[:2]
    with contextlib.redirect_stdout(io.StringIO()):
        make_month_data.main(["--out", "month"])
    save_model_spec(ModelSpec(
        [TermSpec("vertex", "intercept"),
         TermSpec("vertex", "lag_indicator", lag=1),
         TermSpec("vertex", "lag_indicator", lag=2),
         TermSpec("vertex", "lag_triangle", lag=2),
         TermSpec("vertex", "seasonal", params={"day": "Saturday"})],
        [TermSpec("edge", "intercept"),
         TermSpec("edge", "lag_indicator", lag=1),
         TermSpec("edge", "lag_indicator", lag=2),
         TermSpec("edge", "lag_cycle_embed", lag=2, params={"max_len": 6}),
         TermSpec("edge", "log_size"),
         TermSpec("edge", "mixing", params={"attr": "regular", "pair": "both"})],
        gap_policy="bridge"), "month/lag2_bridge.json")
    _write_messy_panel(Path("month/month_panel.json"), Path("month/messy_panel.json"))
    _write_refused_panel(Path("month/month_panel.json"), Path("month/refused_panel.json"))
    for name in ("million", "cycles"):
        workloads.write_inputs(name, workloads.DEFAULT_SEED, Path(name))


def _write_messy_panel(src: Path, dst: Path) -> None:
    """``src`` with each snapshot's edges listed in reverse order, every
    other edge's labels swapped and every third edge listed again."""
    obj = json.loads(src.read_text(encoding="utf-8"))
    for snap in obj["snapshots"]:
        edges = [e[::-1] if k % 2 else e for k, e in enumerate(snap["edges"])]
        snap["edges"] = (edges + snap["edges"][::3])[::-1]
    dst.write_text(json.dumps(obj), encoding="utf-8")


def _write_refused_panel(src: Path, dst: Path) -> None:
    """``src`` with an unknown label present in ``snapshots[3]`` and a
    float ``t`` in ``snapshots[5]``."""
    obj = json.loads(src.read_text(encoding="utf-8"))
    obj["snapshots"][3]["present"].append("no-such-vertex")
    obj["snapshots"][5]["t"] = float(obj["snapshots"][5]["t"])
    dst.write_text(json.dumps(obj), encoding="utf-8")


def digests(directory) -> dict:
    """Write the inputs into the empty ``directory``, run the command set
    there and return {command: {"exit", "stdout", "stderr", "files"}}, each
    file's sha256 keyed by its name."""
    from dynetlogit import cli

    table = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        _write_inputs()
        for name, argv in _commands():
            out = Path("out") / name
            stdout, stderr = io.StringIO(), io.StringIO()
            writes = [] if argv[0] == "gli" else ["--out-dir", str(out)]  # gli only prints
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, *writes])
            files = sorted(out.iterdir()) if out.is_dir() else []
            table[name] = {
                "exit": code,
                "stdout": _sha256(stdout.getvalue().encode()),
                "stderr": _sha256(stderr.getvalue().encode()),
                "files": {p.name: _sha256(p.read_bytes()) for p in files},
            }
    finally:
        os.chdir(cwd)
    return table


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"versions": versions(), "commands": digests(tmp)}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE.relative_to(ROOT)}: {len(table['commands'])} commands, "
          f"{sum(len(c['files']) for c in table['commands'].values())} files")


if __name__ == "__main__":
    main()
