"""Benchmark of dynetlogit CLI sessions: timed end to end, traced per layer.

    python3 bench/run.py --workload month --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  The run writes the workload's inputs
from the seed, then repeats the workload's CLI session (the commands a user
types, called in-process through `dynetlogit.cli.main`) until the next
pass would overrun `--seconds`.  Every command's outputs are checked, and
every command is timed between runs of a speed probe (`speed.py`).

With `--trace 0` the last line of standard output is a JSON result with the
end-to-end metrics; with `--trace 1`, untraced and traced passes alternate
and the result holds the per-layer metrics and the tracing overhead.  The
full run record goes to `.bench_runs/<run>.json`, and the spans of the last
traced pass to `.bench_runs/<run>.spans.json.gz`.  See `bench/README.md`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 5
REFERENCE = HERE / "reference.json"

# one BLAS thread: the designs are at most a few dozen columns wide, so
# BLAS threads buy nothing and add scheduling noise on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402  (loads numpy, so it comes after the BLAS settings)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("month", "million", "cycles"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the reference for the workload "
                         "(default seed only)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads(package) -> int | None:
    libdir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def run_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "commit": _git("rev-parse", "HEAD") if in_git else None,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if in_git else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {"numpy": _blas_threads(numpy), "scipy": _blas_threads(scipy)},
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, work: Path, probe):
    """Write the inputs SETUP_REPEATS times, each in a fresh process, with a
    speed probe before and after each.

    Returns the inputs and [(seconds, start, end)] per repeat.
    """
    timed = []
    probe.run()
    for k in range(SETUP_REPEATS):
        target = work / f"inputs{k}"
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), workload, str(seed), str(target)],
            capture_output=True, text=True, timeout=120, check=True)
        timed.append((float(out.stdout.split()[-1]), start, time.perf_counter()))
        probe.run()
        if k:
            shutil.rmtree(target)
    return work / "inputs0", timed


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_command(cli, argv, log: Path) -> int:
    """One CLI command in-process; a crash counts as a failed command."""
    with open(log, "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - reported as a failed command
            traceback.print_exc(file=fh)
            return 1


def run_pass(cli, session, checker, out: Path, probe, tracer=None):
    """Run the session once, with a speed probe before every command and
    after the last.

    Returns ({stage: [(seconds, start, end)]}, {command: [failures]}).
    """
    out.mkdir(parents=True)
    times, failures = {}, {}
    for stage, argv, target in session:
        probe.run()
        log = out / f"{target.name}.log"
        gc.collect()
        with tracer.command(stage) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            code = run_command(cli, argv, log)
            t1 = time.perf_counter()
        times.setdefault(stage, []).append((t1 - t0, t0, t1))
        if code != 0:
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-1:]
            errors = [f"exit code {code} {' '.join(tail)}"]
        else:
            try:
                errors = checker.check(stage, target)
            except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if errors:
            failures.setdefault(target.name, []).extend(errors)
    probe.run()
    shutil.rmtree(out)
    return times, failures


def summarize(values) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, n."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            out[f"p{p}"] = xs[rank - 1]
            break
    return out


# ---------------------------------------------------------------------------
# inputs as described by the library, outside the timed passes
# ---------------------------------------------------------------------------

def _distinct_rows(x) -> int:
    import numpy as np

    dense = np.ascontiguousarray(x.toarray())
    rows = dense.view(np.dtype((np.void, dense.itemsize * dense.shape[1])))
    return len(np.unique(rows))


def describe_inputs(workload: str, inputs: Path) -> tuple:
    """(input descriptors, cycle column keyed by labels) from one build."""
    from dynetlogit import build_design, load_model_spec, load_panel
    from workloads import spec_stems

    panel = load_panel(inputs / "panel.json")
    specs = [load_model_spec(inputs / f"{stem}.json") for stem in spec_stems(workload)]
    align = max(s.max_lag for s in specs) if len(specs) > 1 else None
    rows = nnz = distinct = 0
    for spec in specs:
        dm = build_design(panel, spec, align_to_lag=align)
        rows += dm.n_rows
        nnz += int(dm.features.nnz)
        distinct += _distinct_rows(dm.features)
    # lagged ties and the cycle column come from the richest (last) spec
    names = list(dm.column_names)
    x = dm.features.tocsc()
    lagged = x[:, names.index("e:lag1")].toarray().ravel() == 1
    labels = panel.risk_set.labels
    cycles = []
    if "e:cycles9_lag1" in names:
        col = x[:, names.index("e:cycles9_lag1")].toarray().ravel()
        for r in map(int, sorted(lagged.nonzero()[0])):
            a, b = sorted((labels[dm.tags.i[r]], labels[dm.tags.j[r]]))
            cycles.append([int(dm.tags.t[r]), a, b, int(round(math.expm1(col[r])))])
        cycles.sort()
    steps = sorted({int(t) for t in dm.tags.t})
    lag_degree = [2 * panel.at(t - 1).edge_count / max(1, panel.at(t - 1).n_present)
                  for t in steps]
    sizes = [s.n_present for s in panel.snapshots]
    desc = {
        "risk_set": len(panel.risk_set),
        "slots": panel.t_max - panel.t_min + 1,
        "present_range": [min(sizes), max(sizes)],
        "lagged_mean_degree": round(statistics.fmean(lag_degree), 6),
        "rows": rows,
        "nnz": nnz,
        "distinct_row_ratio": round(distinct / rows, 9),
        "lagged_ties": int(lagged.sum()),
    }
    return desc, cycles


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(args, cli, workloads, tracing, inputs: Path, checker, work: Path, probe) -> dict:
    """Repeat the session until the next pass would overrun `args.seconds`.

    With tracing, untraced and traced passes alternate, starting untraced.
    """
    tracer = tracing.Tracer() if args.trace else None
    m = {"times": {False: [], True: []},  # traced?: [{stage: [seconds]}]
         "commands": [], "spans": [], "failures": [], "attempted": 0, "failed": 0}
    start = time.perf_counter()
    while True:
        k = len(m["times"][False]) + len(m["times"][True])
        traced = bool(args.trace) and k % 2 == 1
        out = work / f"pass{k:03d}"
        session = workloads.session(args.workload, inputs, out)
        m["attempted"] += len(session)
        pass_start = time.perf_counter()
        if traced:
            tracer.install()
        try:
            times, failures = run_pass(cli, session, checker, out, probe,
                                       tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        if traced:
            m["spans"] = tracer.take()
            m["commands"] += tracing.command_sums(m["spans"])
        m["times"][traced].append(times)
        m["failed"] += len(failures)
        m["failures"] += [f"pass {k} {cmd}: {msg}" for cmd, msgs in failures.items()
                          for msg in msgs]
        now = time.perf_counter()
        if (not args.trace or m["times"][True]) and \
                now + (now - pass_start) - start > args.seconds:
            break
    m["measured_s"] = time.perf_counter() - start
    m["missing"] = tracer.missing if tracer else set()
    for passes in m["times"].values():
        for times in passes:
            for stage, xs in times.items():
                times[stage] = [(raw, probe.scaled(raw, t0, t1)) for raw, t0, t1 in xs]
    return m


def stage_samples(passes, which: int) -> dict:
    """{stage: every sample of the stage over the passes}; `which` picks
    seconds (0) or reference seconds (1)."""
    out = {}
    for times in passes:
        for stage, xs in times.items():
            out.setdefault(stage, []).extend(x[which] for x in xs)
    return out


def session_seconds(times: dict) -> float:
    """Reference seconds of one session, each command once, from one pass."""
    return sum(statistics.median(x[1] for x in xs) for xs in times.values())


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"fit_s": "s", "session_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = {"fit": "fit_s", "adequacy": "adequacy_s",
                 "adequacy_fixed": "adequacy_fixed_s", "project": "project_s"}

# (stage, layer metrics whose sum should exceed half of the stage's time)
CHOSEN_FOR = {
    "month": [("project", ("terms.lag_cycle_embed_s",)),
              ("adequacy_fixed", ("gli.s", "simulate.self_s", "panel.snapshot_s"))],
    "million": [("fit", ("design.build_s", "solver.fit_s"))],
    "cycles": [("fit", ("terms.lag_cycle_embed_s",))],
}


def _fmt(summary: dict, unit: str) -> str:
    tail = next((f"{k} {v:.6g} {unit}" for k, v in summary.items() if k[0] == "p"),
                "no tail percentile (n < 20)")
    return f"median {summary['median']:.6g} {unit}, {tail}, n={summary['n']}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dynetlogit" / "__init__.py").is_file():
        print(f"no dynetlogit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dynetlogit.cli as cli
    import spans as tracing
    import workloads

    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        print(f"--write-reference needs the default seed {workloads.DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = RUNS / run_id
    work.mkdir(parents=True)
    try:
        probe = speed.SpeedProbe()
        inputs, setup = set_up(args.workload, args.seed, work, probe)
        setup = [(raw, probe.scaled(raw, t0, t1)) for raw, t0, t1 in setup]
        references = json.loads(REFERENCE.read_text(encoding="utf-8")) \
            if REFERENCE.is_file() else {}
        reference = None if args.write_reference else references.get(args.workload)
        checker = workloads.Checker(args.workload, args.seed, inputs, reference)
        m = measure(args, cli, workloads, tracing, inputs, checker, work, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        descriptors, cycle_column = describe_inputs(args.workload, inputs)
        ref_cycles = (reference or {}).get("cycle_column")
        if ref_cycles is not None and cycle_column != ref_cycles:
            m["failures"].append("cycle column differs from the reference")
        if args.write_reference:
            references[args.workload] = _reference(args.workload, inputs, work, cli,
                                                   workloads, cycle_column)
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(args.workload, args.seed)
    record["inputs"] = descriptors
    untraced = m["times"][False]
    result = {
        "record": record,
        "seconds": args.seconds,
        "measured_s": m["measured_s"],
        "passes": {"untraced": len(untraced), "traced": len(m["times"][True])},
        "reference_probe_s": speed.REFERENCE_S,
        # reference seconds: what the JSON result reports
        "setup_s": summarize([ref for _, ref in setup]),
        "stages": {STAGE_METRICS[s]: summarize(xs)
                   for s, xs in stage_samples(untraced, 1).items()},
        "session_s": summarize([session_seconds(t) for t in untraced]),
        # seconds as the clock read them
        "raw": {"setup_s": summarize([raw for raw, _ in setup]),
                **{STAGE_METRICS[s]: summarize(xs)
                   for s, xs in stage_samples(untraced, 0).items()}},
        "peak_rss_mb": peak_rss_mb,
        "pass_times": untraced,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failures": m["failures"],
    }

    print(f"run {run_id}: " + ", ".join(f"{k}={v}" for k, v in record.items()
                                         if k != "inputs"))
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in descriptors.items()))
    print(f"times in reference seconds (the speed probe taking {speed.REFERENCE_S} s); "
          "raw clock seconds in brackets")
    for name, summary in [*result["stages"].items(), ("session_s", result["session_s"]),
                          ("setup_s", result["setup_s"])]:
        raw = result["raw"].get(name)
        print(f"{name:<18} {_fmt(summary, 's')}"
              + (f" [raw median {raw['median']:.6g} s]" if raw else ""))
    print(f"{'peak_rss_mb':<18} {peak_rss_mb:.1f} MB")
    print(f"{'error_rate':<18} {m['failed'] / m['attempted']:.4g} "
          f"({m['failed']} of {m['attempted']} commands failed)")
    for msg in m["failures"]:
        print(f"FAILED {msg}")

    if args.trace:
        metrics = _trace_report(args.workload, m, tracing, result)
        metrics["design.distinct_row_ratio"] = {
            "value": descriptors["distinct_row_ratio"], "unit": "ratio"}
        spans_path = RUNS / f"{run_id}.spans.json.gz"
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            json.dump([[n, st, a, b, p, {k: v for k, v in (attrs or {}).items()
                                         if k not in ("key", "history")}]
                       for n, st, a, b, p, attrs in m["spans"]], fh)
        result["spans_file"] = spans_path.name
    else:
        metrics = {
            "fit_s": result["stages"]["fit_s"]["median"],
            "session_s": result["session_s"]["median"],
            "setup_s": result["setup_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result["metrics"] = metrics
    record_path = RUNS / f"{run_id}.json"
    record_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not m["failures"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


def _trace_report(workload, m, tracing, result) -> dict:
    """Per-layer numbers of one session (medians over traced commands),
    tracing overhead and what the workload was chosen for; fills `result`
    and returns the JSON metrics."""
    by_stage = {}
    for stage, sums in m["commands"]:
        by_stage.setdefault(stage, []).append(sums)
    stage_sums, session_sums = {}, {}
    for stage, cmds in by_stage.items():
        keys = set().union(*cmds)
        stage_sums[stage] = {k: statistics.median(c.get(k, 0.0) for c in cmds) for k in keys}
        for k, v in stage_sums[stage].items():
            session_sums[k] = session_sums.get(k, 0.0) + v
    missing = frozenset(m["missing"])
    layers = {stage: tracing.derive(sums, missing) for stage, sums in stage_sums.items()}
    session = tracing.derive(session_sums, missing)

    def medians(passes, which):
        return {s: statistics.median(xs) for s, xs in stage_samples(passes, which).items()}

    traced = medians(m["times"][True], 0)
    # overhead in reference seconds, so that drift in machine speed between
    # traced and untraced passes does not count as overhead
    plain_ref = medians(m["times"][False], 1)
    overhead = {s: t - plain_ref[s] for s, t in medians(m["times"][True], 1).items()}
    result.update(layers=layers, session_layers=session, traced_stage_s=traced,
                  trace_overhead_s=overhead, missing_bindings=sorted(missing))

    print("per-layer numbers of one session (medians over traced commands):")
    for name, value in session.items():
        print(f"  {name:<34} {value:.6g} {tracing.METRICS[name][0]}")
    for s in overhead:
        print(f"tracing overhead {s}: {overhead[s]:+.4f} reference s "
              f"({overhead[s] / plain_ref[s]:+.1%} of {plain_ref[s]:.4f} untraced)")
    result["chosen_for"] = {}
    for stage, parts in CHOSEN_FOR[workload]:
        share = sum(layers[stage].get(p, math.nan) for p in parts) / traced[stage]
        print(f"chosen for: {' + '.join(parts)} = {share:.1%} of traced {stage} "
              f"-> more than half: {'yes' if share > 0.5 else 'NO'}")
        result["chosen_for"][f"{stage}: {' + '.join(parts)}"] = share

    metrics = {n: {"value": v, "unit": tracing.METRICS[n][0]} for n, v in session.items()}
    metrics["trace.overhead_s"] = {"value": sum(overhead.values()), "unit": "s"}
    return metrics


def _reference(workload, inputs, work, cli, workloads, cycle_column) -> dict:
    """Outputs of one session at the default seed, as stored in reference.json."""
    out = work / "reference"
    out.mkdir(parents=True)
    for stage, argv, target in workloads.session(workload, inputs, out):
        if run_command(cli, argv, out / f"{target.name}.log") != 0:
            raise RuntimeError(f"{stage} failed; no reference written")
    ref = {"fits": {}}
    for stem in workloads.spec_stems(workload):
        fit = json.loads((out / "fit0" / f"{stem}_fit.json").read_text())["fit"]
        ref["fits"][stem] = {k: fit[k] for k in ("coefficients", "std_errors")}
    for stage in ("adequacy", "adequacy_fixed"):
        if (out / f"{stage}0").is_dir():
            report = json.loads((out / f"{stage}0" / "adequacy.json").read_text())
            ref[stage] = {"covered": {k: g["summary"]["covered"]
                                      for k, g in report["adequacy"]["glis"].items()}}
    if (out / "project0").is_dir():
        ref["project"] = {"gli_paths": workloads.read_projection(out / "project0")}
    if cycle_column:
        ref["cycle_column"] = cycle_column
    return ref


if __name__ == "__main__":
    sys.exit(main())
