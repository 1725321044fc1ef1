"""Compare two benchmark run records, metric by metric.

    python3 bench/compare.py .bench_runs/BEFORE.json .bench_runs/AFTER.json

Refuses (exit 1) unless both runs have the same run record apart from the
commit and the dirty flag: same workload, seed, inputs, machine size and
library versions.  Prints each metric and stage time from both runs, the
relative change, and for end-to-end metrics whether the change is worse
than the bound in BENCHMARK.json.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAY_DIFFER = ("commit", "dirty")


def _load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (_load(p) for p in argv)
    ra, rb = before["record"], after["record"]
    differ = sorted(k for k in set(ra) | set(rb)
                    if k not in MAY_DIFFER and ra.get(k) != rb.get(k))
    if differ:
        for k in differ:
            print(f"refused: {k} differs: {ra.get(k)!r} vs {rb.get(k)!r}", file=sys.stderr)
        return 1
    bench = _load(ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    rows = [(k, v["median"], after["stages"][k]["median"])
            for k, v in before["stages"].items() if k in after["stages"]]
    rows += [(k, before["metrics"][k]["value"], after["metrics"][k]["value"])
             for k in before["metrics"]
             if k in after["metrics"] and k not in before["stages"]]
    print(f"{ra['workload']} seed {ra['seed']}: {ra['commit']} -> {rb['commit']}")
    for name, a, b in rows:
        change = (b - a) / a if a else float("nan")
        verdict = ""
        if name in bounds:
            m = bounds[name]
            worse = change if m["better"] == "lower" else -change
            verdict = "WORSE than bound" if worse > m["bound"] else "within bound"
        print(f"{name:<34} {a:>12.6g} {b:>12.6g} {change:+8.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
