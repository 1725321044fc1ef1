"""Command-line surface: fit, adequacy, project, convert, gli.

Every command is a pure function of its input files, flags, and seed;
repeated invocations write byte-identical outputs.  Wall-clock timestamps
therefore go into reports only when --timestamps is passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .design import DesignError, _csv_line, build_design, dump_design
from .gli import GLI_NAMES, gli_vector
from .panel import (
    NetworkPanel,
    PanelFormatError,
    PanelValidationError,
    _typed,
    load_panel,
    panel_from_edge_presence,
    read_edge_presence_tables,
    save_panel,
)
from .simulate import SimConfig, one_step_intervals, project
from .solver import PriorSpec, block_summaries, fit_posterior_mode
from .terms import GapError, SpecError, load_model_spec, validate_model

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5
EXIT_SEPARATION = 6


def _fail(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _say(text: str) -> None:
    """``text`` as a line of standard output.  A reader that closed it early
    (``| head``) fails nothing: the rest of the output is dropped and the
    command runs to its end and its own exit code."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    """Send the rest of standard output, its flush at exit included, to the
    null device."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stream without a descriptor
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    else:
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows, manifest_name: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if manifest_name:
            fh.write(f"# manifest: {manifest_name}\n")
        # str() first: csv would write a numpy float by its repr
        fh.writelines(_csv_line(map(str, row)) for row in rows)


def _manifest(args, command: str, inputs: dict, settings: dict) -> dict:
    m = {
        "command": command,
        "tool": "dynetlogit",
        "version": __version__,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "settings": settings,
        "seed": getattr(args, "seed", None),
    }
    if getattr(args, "timestamps", False):
        m["started"] = datetime.now(timezone.utc).isoformat()
    return m


def _parse_prior(text: str) -> PriorSpec:
    text = text.strip()
    if text == "none":
        return PriorSpec.none()
    head, _, tail = text.partition(":")
    if head not in ("cauchy", "t", "student_t"):
        raise SpecError(f"unknown prior {head!r} (use none, cauchy, or t)")
    kwargs = {}
    if tail:
        for part in tail.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in ("scale", "df", "center"):
                raise SpecError(f"unknown prior parameter {key!r}")
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise SpecError(f"prior parameter {key} needs a number, got {val!r}") from None
    if head == "cauchy":
        if kwargs.get("df", 1.0) != 1.0:
            raise SpecError("a cauchy prior has df=1; use t:df=... for other df")
        kwargs["df"] = 1.0
    try:
        return PriorSpec(kind="student_t", **kwargs)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


_MISSING = object()


def _first_difference(a, b, where=""):
    """The key path at which the JSON values ``a`` and ``b`` first differ, in
    sorted key order, or None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        items = [(f"{where}.{k}" if where else k, a.get(k, _MISSING), b.get(k, _MISSING))
                 for k in sorted(a.keys() | b.keys())]
    elif isinstance(a, list) and isinstance(b, list):
        items = [(f"{where}[{k}]", a[k] if k < len(a) else _MISSING,
                  b[k] if k < len(b) else _MISSING) for k in range(max(len(a), len(b)))]
    else:
        return None if a == b else where
    for path, x, y in items:
        found = _first_difference(x, y, path)
        if found is not None:
            return found
    return None


def _load_fit_report(path, spec) -> SimpleNamespace:
    """Coefficients and column names from a fit report written by cmd_fit,
    whose ``model`` block, when it has one, must be ``spec``."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PanelFormatError(f"{path}: invalid JSON: {exc.msg}") from exc
    _typed(obj, dict, f"{path}: top level of a fit report")
    block = _typed(obj.get("fit", obj), dict, f"{path}: fit")
    try:
        coefficients, columns = block["coefficients"], block["columns"]
    except KeyError as exc:
        raise PanelFormatError(f"{path}: fit report lacks key {exc}") from None
    if not isinstance(coefficients, list) or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in coefficients):
        raise PanelFormatError(f"{path}: fit.coefficients must be a list of numbers")
    if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
        raise PanelFormatError(f"{path}: fit.columns must be a list of strings")
    if "model" in obj:
        key = _first_difference(json.loads(json.dumps(spec.to_dict())), obj["model"])
        if key is not None:
            raise ValueError(f"{path}: the model spec differs from the one the fit was "
                             f"made under, first at {key or 'the top level'}")
    return SimpleNamespace(coefficients=np.asarray(coefficients, dtype=float),
                           column_names=tuple(columns))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _coefficient_csv_rows(fit):
    yield ("term", "estimate", "std_error", "z", "significant")
    z = fit.z_scores
    for c, name in enumerate(fit.column_names):
        se = fit.std_errors[c]
        zc = z[c]
        star = "*" if np.isfinite(zc) and abs(zc) > 1.959963984540054 else ""
        yield (name, repr(float(fit.coefficients[c])),
               "" if not np.isfinite(se) else repr(float(se)),
               "" if not np.isfinite(zc) else repr(float(zc)), star)


def cmd_fit(args) -> int:
    prior = _parse_prior(args.prior)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise SpecError(f"--tolerance must be a positive finite number, got {args.tolerance}")
    if args.max_iter < 0:
        raise SpecError(f"--max-iter must be non-negative, got {args.max_iter}")
    panel = load_panel(args.panel)
    out = _out_dir(args)

    specs = [(Path(p).stem, load_model_spec(p), p) for p in args.spec]
    align = max(spec.max_lag for _, spec, _ in specs) if len(specs) > 1 else None

    worst = EXIT_OK
    ranking = []
    for stem, spec, spec_path in specs:
        report_path = out / f"{stem}_fit.json"
        vr = validate_model(spec, panel)
        for w in vr.warnings:
            print(f"warning: {stem}: {w}", file=sys.stderr)
        if not vr.ok:
            for e in vr.errors:
                _fail("validation", f"{stem}: {e}")
            return EXIT_VALIDATION

        dm = build_design(panel, spec, align_to_lag=align)
        if args.dump_design:  # reads the rows: over the row budget, exit 3 before the fit
            dump_design(dm, panel.risk_set, out / f"{stem}_design.txt",
                        out / f"{stem}_design_columns.csv",
                        out / f"{stem}_design_tags.csv")
        fit = fit_posterior_mode(dm, prior, tolerance=args.tolerance,
                                 max_iter=args.max_iter)

        manifest = _manifest(
            args, "fit",
            {"panel": args.panel, "spec": spec_path},
            {
                "prior": prior.to_dict(),
                "tolerance": args.tolerance,
                "max_iter": args.max_iter,
                "gap_policy": spec.gap_policy,
                "aligned_max_lag": align,
            },
        )
        if args.timestamps:
            manifest["finished"] = datetime.now(timezone.utc).isoformat()
        report = {
            "manifest": manifest,
            "model": spec.to_dict(),
            "design": {
                "rows": dm.n_rows,
                "vertex_rows": dm.n_vertex_rows,
                "edge_rows": dm.n_rows - dm.n_vertex_rows,
                "columns": dm.n_cols,
                # steps actually present in the design (lag alignment may
                # drop more than this spec alone requires)
                "usable_steps": list(dm.steps),
            },
            "fit": fit.to_dict(),
            "parts": block_summaries(dm, fit.coefficients),
        }
        _write_json(report_path, report)
        if args.format == "csv":
            _write_csv(out / f"{stem}_coefficients.csv", _coefficient_csv_rows(fit),
                       manifest_name=report_path.name)
        ranking.append({
            "spec": stem,
            "bic": fit.bic,
            "aic": fit.aic,
            "deviance": fit.deviance,
            "parameters": dm.n_cols,
            "n_obs": fit.n_obs,
            "converged": fit.converged,
            "separation": fit.separation,
        })
        if fit.separation:  # flagged by maximum likelihood only
            _fail("separation", f"{stem}: the data separate along "
                  f"{', '.join(fit.separating_columns)}; no finite maximum likelihood "
                  "estimate (fit with a prior instead)")
            worst = max(worst, EXIT_SEPARATION)
        elif not fit.converged:
            worst = max(worst, EXIT_CONVERGENCE)

    if len(ranking) > 1:
        ranking.sort(key=lambda r: r["bic"])
        _write_json(out / "ranking.json", {"criterion": "bic", "models": ranking})
        rows = [("spec", "bic", "aic", "deviance", "parameters", "n_obs", "converged")]
        rows += [
            (r["spec"], repr(r["bic"]), repr(r["aic"]), repr(r["deviance"]),
             r["parameters"], r["n_obs"], r["converged"])
            for r in ranking
        ]
        _write_csv(out / "ranking.csv", rows, manifest_name="ranking.json")
        for r in ranking:
            _say(f"{r['spec']}: BIC={r['bic']:.4f} AIC={r['aic']:.4f}")
    else:
        r = ranking[0]
        _say(f"{r['spec']}: BIC={r['bic']:.4f} AIC={r['aic']:.4f} "
             f"converged={r['converged']}")
    return worst


# ---------------------------------------------------------------------------
# adequacy
# ---------------------------------------------------------------------------

def cmd_adequacy(args) -> int:
    panel = load_panel(args.panel)
    spec = load_model_spec(args.spec)
    fit = _load_fit_report(args.fit, spec)
    out = _out_dir(args)

    config = SimConfig(
        replicates=args.sims,
        alpha=args.alpha,
        seed=args.seed,
        mode="threshold50" if args.threshold50 else "stochastic",
        fixed_vertex_set=args.fixed_vertex_set,
    )
    _samples, report = one_step_intervals(fit, spec, panel, config)

    manifest = _manifest(
        args, "adequacy",
        {"panel": args.panel, "spec": args.spec, "fit": args.fit},
        {
            "sims": args.sims,
            "alpha": args.alpha,
            "fixed_vertex_set": args.fixed_vertex_set,
            "mode": config.mode,
        },
    )
    if args.timestamps:
        manifest["finished"] = datetime.now(timezone.utc).isoformat()
    json_path = out / "adequacy.json"
    _write_json(json_path, {"manifest": manifest, "adequacy": report.to_dict()})
    _write_csv(out / "adequacy.csv", report.csv_rows(), manifest_name=json_path.name)

    cov = report.covered
    for g, name in enumerate(report.names):
        _say(f"{name}: {int(cov[g])}/{report.total}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def cmd_project(args) -> int:
    panel = load_panel(args.panel)
    spec = load_model_spec(args.spec)
    fit = _load_fit_report(args.fit, spec)
    out = _out_dir(args)

    config = SimConfig(replicates=args.sims, horizon=args.horizon, seed=args.seed,
                       fixed_vertex_set=args.fixed_vertex_set)
    result = project(fit, spec, panel, config)

    manifest = _manifest(
        args, "project",
        {"panel": args.panel, "spec": args.spec, "fit": args.fit},
        {"horizon": args.horizon, "sims": args.sims,
         "fixed_vertex_set": args.fixed_vertex_set},
    )
    if args.timestamps:
        manifest["finished"] = datetime.now(timezone.utc).isoformat()
    json_path = out / "project.json"
    _write_json(json_path, {
        "manifest": manifest,
        "steps": list(result.steps),
        "glis": list(result.names),
    })
    rows = [("replicate", "step", "gli", "value")]
    for rep in range(config.replicates):
        for h, s in enumerate(result.steps):
            for g, name in enumerate(result.names):
                rows.append((rep, int(s), name, repr(float(result.gli_paths[rep, h, g]))))
    _write_csv(out / "project_gli.csv", rows, manifest_name=json_path.name)

    if args.dump_graphs:
        for rep, traj in enumerate(result.snapshots):
            traj_panel = NetworkPanel(panel.risk_set, traj)
            save_panel(traj_panel, out / f"project_rep{rep:03d}.json")
    _say(f"projected {config.horizon} step(s) x {config.replicates} replicate(s) "
         f"from t={result.steps[0] - 1}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert / gli
# ---------------------------------------------------------------------------

def cmd_convert(args) -> int:
    gaps = []
    for entry in filter(None, args.gaps.split(",")):
        try:
            gaps.append(int(entry))
        except ValueError:
            raise PanelFormatError(
                f"--gaps must list integer time indices, got {entry!r}") from None
    edge_rows, presence_rows = read_edge_presence_tables(args.edges, args.presence)
    panel = panel_from_edge_presence(edge_rows, presence_rows, gaps=gaps)
    save_panel(panel, args.out)
    _say(f"wrote {args.out}: {len(panel.snapshots)} snapshots, "
         f"{len(panel.risk_set)} vertices")
    return EXIT_OK


def cmd_gli(args) -> int:
    panel = load_panel(args.panel)
    snap = panel.at(args.t)
    if snap is None:
        raise PanelValidationError(f"no snapshot at t={args.t}")
    vec = gli_vector(snap)
    if args.format == "csv":
        _say("gli,value")
        for name, val in zip(GLI_NAMES, vec):
            _say(f"{name},{float(val)!r}")
    else:
        _say(json.dumps({name: float(val) for name, val in zip(GLI_NAMES, vec)},
                        indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    # the flags of the commands that write reports, and of those that draw;
    # each command takes only the flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--timestamps", action="store_true",
                        help="embed wall-clock timestamps (breaks byte-identical reruns)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="root RNG seed")

    parser = argparse.ArgumentParser(
        prog="dynetlogit",
        description="Dynamic network logistic regression for joint edge/vertex dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit one or more model specs to a panel")
    p_fit.add_argument("panel")
    p_fit.add_argument("spec", nargs="+")
    p_fit.add_argument("--prior", default="cauchy:scale=2.5,df=1",
                       help="none, cauchy:scale=..., or t:scale=...,df=...")
    p_fit.add_argument("--tolerance", type=float, default=1e-8)
    p_fit.add_argument("--max-iter", type=int, default=100)
    p_fit.add_argument("--dump-design", action="store_true",
                       help="write the design as triplets + column/tag CSVs")
    p_fit.add_argument("--format", choices=("json", "csv"), default="json",
                       help="csv also writes the coefficients as a CSV table")
    p_fit.set_defaults(func=cmd_fit)

    p_adq = sub.add_parser("adequacy", parents=[seeded],
                           help="one-step simulation intervals and GLI coverage")
    p_adq.add_argument("panel")
    p_adq.add_argument("spec")
    p_adq.add_argument("fit", help="fit report JSON from the fit command")
    p_adq.add_argument("--sims", type=int, default=100)
    p_adq.add_argument("--alpha", type=float, default=0.95)
    p_adq.add_argument("--fixed-vertex-set", action="store_true",
                       help="pin the simulated vertex set to the whole risk set")
    p_adq.add_argument("--threshold50", action="store_true",
                       help="use the deterministic 50-percent rule instead of sampling")
    p_adq.set_defaults(func=cmd_adequacy)

    p_prj = sub.add_parser("project", parents=[seeded],
                           help="n-step forward projection past the panel end")
    p_prj.add_argument("panel")
    p_prj.add_argument("spec")
    p_prj.add_argument("fit")
    p_prj.add_argument("--horizon", type=int, default=5)
    p_prj.add_argument("--sims", type=int, default=1)
    p_prj.add_argument("--fixed-vertex-set", action="store_true")
    p_prj.add_argument("--dump-graphs", action="store_true",
                       help="also write each trajectory as a panel file")
    p_prj.set_defaults(func=cmd_project)

    p_cnv = sub.add_parser("convert",
                           help="build a panel file from edge + presence tables")
    p_cnv.add_argument("edges", help="rows: t,label_i,label_j")
    p_cnv.add_argument("presence", help="rows: t,label")
    p_cnv.add_argument("-o", "--out", required=True)
    p_cnv.add_argument("--gaps", default="",
                       help="comma-separated unobserved time indices")
    p_cnv.set_defaults(func=cmd_convert)

    p_gli = sub.add_parser("gli", help="print the GLI vector of one snapshot")
    p_gli.add_argument("panel")
    p_gli.add_argument("--t", type=int, required=True)
    p_gli.add_argument("--format", choices=("json", "csv"), default="json",
                       help="print a CSV table instead of JSON")
    p_gli.set_defaults(func=cmd_gli)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PanelFormatError, SpecError) as exc:
        _fail("parse", str(exc))
        return EXIT_PARSE
    except (PanelValidationError, DesignError, GapError) as exc:
        _fail("validation", str(exc))
        return EXIT_VALIDATION
    except ValueError as exc:
        _fail("validation", str(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        _fail("io", str(exc))
        return EXIT_IO
    finally:
        try:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        except BrokenPipeError:
            _drop_stdout()


if __name__ == "__main__":
    sys.exit(main())
