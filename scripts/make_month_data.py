#!/usr/bin/env python3
"""Write the synthetic month panel and its four candidate model specs.

The outputs are ready for the CLI, e.g.:

    python scripts/make_month_data.py --out data/
    dynetlogit fit data/month_panel.json data/model_*.json --out-dir runs/
"""

import argparse
from pathlib import Path

from dynetlogit import save_model_spec, save_panel
from dynetlogit.synth import make_month_panel, month_risk_set, nested_model_specs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="data", help="output directory")
    ap.add_argument("--seed", type=int, default=20230828)
    ap.add_argument("--days", type=int, default=31)
    ap.add_argument("--gap-day", type=int, default=25)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    panel = make_month_panel(seed=args.seed, n_days=args.days, gap_day=args.gap_day)
    panel_path = out / "month_panel.json"
    save_panel(panel, panel_path)
    sizes = [s.n_present for s in panel.snapshots]
    print(f"{panel_path}: {len(panel.snapshots)} days, gap at {list(panel.gaps)}, "
          f"attendance {min(sizes)}..{max(sizes)}")

    for k, spec in enumerate(nested_model_specs(month_risk_set()), start=1):
        spec_path = out / f"model_{k}.json"
        save_model_spec(spec, spec_path)
        print(f"{spec_path}: {len(spec.vertex_terms)} vertex terms, "
              f"{len(spec.edge_terms)} edge terms")


if __name__ == "__main__":
    main()
