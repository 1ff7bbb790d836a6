#!/usr/bin/env python3
"""End-to-end experiment on a synthetic market.

Generates trades, trains the fusion model, evaluates it, runs the naive
and feature baselines, and aggregates everything into one report table.

Usage:
    python3 scripts/run_synth_experiment.py --out runs/demo [--seed 0] [--days 60]
"""

import argparse
import sys
from pathlib import Path

from orderfusion.cli import dispatch

RUN_CONFIG = """\
market = DE
index = 1
hidden_dim = 8
interaction_degree = 1
cutoff_exponent = 4
t_max = 32
epochs = {epochs}
batch_size = 512
lr0 = 7e-4
decay = 0.95
seed = {seed}
"""

SYNTH_CONFIG = """\
n_days = {days}
arrival_rate_per_min = 0.15
session_minutes = 240
vol_hour_amplitude = 0.5
seed = {seed}
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--days", type=int, default=60)
    parser.add_argument("--epochs", type=int, default=50)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.cfg").write_text(RUN_CONFIG.format(seed=args.seed, epochs=args.epochs))
    (out / "synth.cfg").write_text(SYNTH_CONFIG.format(seed=args.seed, days=args.days))

    steps = [
        ["synth", "--config", str(out / "synth.cfg"), "--out", str(out / "data")],
        ["ingest", "--config", str(out / "run.cfg"),
         "--data", str(out / "data" / "trades.csv"), "--out", str(out / "ingest")],
        ["train", "--config", str(out / "run.cfg"),
         "--data", str(out / "data" / "trades.csv"), "--out", str(out / "model")],
        ["evaluate", "--checkpoint", str(out / "model" / "checkpoint.json"),
         "--data", str(out / "data" / "trades.csv"), "--out", str(out / "eval")],
    ]
    for variant in ("naive1", "naive2", "naive3", "vwap15", "last_price"):
        steps.append(["baseline", "--config", str(out / "run.cfg"),
                      "--data", str(out / "data" / "trades.csv"),
                      "--variant", variant, "--out", str(out / f"baseline_{variant}")])
    steps.append(["report", "--out", str(out / "report")]
                 + [str(out / f"baseline_{v}" / "baseline_results.csv")
                    for v in ("naive1", "naive2", "naive3", "vwap15", "last_price")])

    for argv in steps:
        print(f"== orderfusion {' '.join(argv)}")
        code = dispatch(argv)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"done; see {out / 'eval' / 'metrics.json'} and {out / 'report' / 'report.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
