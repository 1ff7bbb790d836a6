#!/usr/bin/env python3
"""Train and evaluate every ablation variant on one synthetic market.

Each variant (mask family, fusion removal, aggregation and pooling
alternatives, head alternatives) trains on the same data and lands in one
aggregated report, mirroring an ablation-table workflow.

Usage:
    python3 scripts/run_ablations.py --out runs/ablations [--seeds 0 1 2]
"""

import argparse
import sys
from pathlib import Path

from orderfusion.cli import ABLATION_VARIANTS, dispatch

# interaction_degree stays at the model default, 2: at 1 the k1 and
# no_residual arms would repeat the dual_mask arm bit for bit.
RUN_CONFIG = """\
market = DE
index = 1
hidden_dim = 8
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
seed = 11
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--days", type=int, default=60)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--variants", nargs="+", default=sorted(ABLATION_VARIANTS))
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "synth.cfg").write_text(SYNTH_CONFIG.format(days=args.days))
    code = dispatch(["synth", "--config", str(out / "synth.cfg"), "--out", str(out / "data")])
    if code != 0:
        return code

    result_files = []
    for seed in args.seeds:
        cfg_path = out / f"run_seed{seed}.cfg"
        cfg_path.write_text(RUN_CONFIG.format(seed=seed, epochs=args.epochs))
        for variant in args.variants:
            run_dir = out / f"{variant}_seed{seed}"
            print(f"== ablate {variant} (seed {seed})")
            code = dispatch(["ablate", "--config", str(cfg_path),
                             "--data", str(out / "data" / "trades.csv"),
                             "--variant", variant, "--out", str(run_dir)])
            if code != 0:
                print(f"variant {variant} failed with exit code {code}", file=sys.stderr)
                return code
            result_files.append(str(run_dir / "ablation_results.csv"))

    code = dispatch(["report", "--out", str(out / "report")] + result_files)
    if code == 0:
        print(f"done; see {out / 'report' / 'report.csv'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
