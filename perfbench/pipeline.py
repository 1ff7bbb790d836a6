"""Workloads, command runners, setup, timed iterations and output checks.

One single-process, closed-loop client runs ``orderfusion`` CLI commands one
after another, each waiting for the previous one. The untimed runner starts
every command as its own process (``python -m orderfusion.cli``) and reads
its peak RSS from ``wait4``; the traced runner calls ``orderfusion.cli.dispatch``
in this process.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

TRAIN_FRAC, VAL_FRAC = 0.70, 0.15     # train's default chronological split


@dataclass(frozen=True)
class Workload:
    name: str
    n_days: int
    trades_per_min: float          # per side
    hidden_dim: int
    degree: int
    alpha: int
    t_max: int
    batch_size: int
    epochs: int
    scoring_pass: bool = False     # traced run also runs the data-path commands (score_pass)
    baseline_epochs: int = 20      # MLP epochs of the vwap15 baseline

    def smoke(self) -> "Workload":
        return dataclasses.replace(self, n_days=3, epochs=1, baseline_epochs=1)


WORKLOADS = {w.name: w for w in (
    Workload("train_small", n_days=40, trades_per_min=0.15, hidden_dim=8, degree=1, alpha=4,
             t_max=32, batch_size=512, epochs=20, scoring_pass=True),
    Workload("train_wide", n_days=10, trades_per_min=0.8, hidden_dim=64, degree=2, alpha=6,
             t_max=128, batch_size=128, epochs=2),
)}


@dataclass
class Cmd:
    argv: list
    rc: int
    wall_s: float
    rss_mb: float


@dataclass
class Ledger:
    """Every command and output check made, for ``attempted``/``failed``."""
    commands: list = field(default_factory=list)
    checks: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    @property
    def attempted(self) -> int:
        return len(self.commands) + self.checks

    @property
    def failed(self) -> int:
        return sum(c.rc != 0 for c in self.commands) + len(self.failures)


def _tail(path: Path, n: int = 20) -> str:
    try:
        return "".join(path.read_text(encoding="utf-8", errors="replace").splitlines(True)[-n:])
    except OSError:
        return ""


class SubprocessRunner:
    """Runs each command as its own process; kills it at the run's deadline."""

    def __init__(self, env: dict, root: Path, deadline: float, ledger: Ledger):
        self.env, self.root, self.deadline, self.ledger = env, root, deadline, ledger

    def __call__(self, argv: list, log_path: Path) -> Cmd:
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "orderfusion.cli", *argv],
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = Cmd(argv, proc.returncode, wall, usage.ru_maxrss / 1024.0)
        self.ledger.commands.append(cmd)
        if cmd.rc != 0:
            print(f"command failed ({cmd.rc}): orderfusion {' '.join(argv)}\n{_tail(log_path)}",
                  file=sys.stderr)
        return cmd


class InProcessRunner:
    """Runs each command through ``orderfusion.cli.dispatch`` in this process,
    inside a ``cli.<command>`` span when a tracer is set."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.tracer = None
        self.command = None

    def __call__(self, argv: list, log_path: Path) -> Cmd:
        from orderfusion import cli

        self.command = argv[0]
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                rc = cli.dispatch(argv)
        except Exception:          # a crash is a failed command; the run goes on
            log_path.write_text(traceback.format_exc(), encoding="utf-8")
            print(f"command crashed: orderfusion {' '.join(argv)}\n{_tail(log_path)}",
                  file=sys.stderr)
            rc = -1
        wall = time.perf_counter() - t0
        self.command = None
        cmd = Cmd(argv, rc, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.ledger.commands.append(cmd)
        return cmd


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def write_configs(work: Path, w: Workload, seed: int) -> dict[str, Path]:
    configs = {
        "synth.cfg": {"seed": seed, "n_days": w.n_days, "arrival_rate_per_min": w.trades_per_min},
        "run.cfg": {"seed": seed, "market": "DE", "index": 1, "hidden_dim": w.hidden_dim,
                    "interaction_degree": w.degree, "cutoff_exponent": w.alpha,
                    "t_max": w.t_max, "batch_size": w.batch_size, "epochs": w.epochs},
        "baseline.cfg": {"seed": seed, "market": "DE", "index": 1,
                         "epochs": w.baseline_epochs},
    }
    paths = {}
    for name, cfg in configs.items():
        paths[name] = work / name
        paths[name].write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Market:
    trades_csv: Path
    sha: str
    n_trades: int
    deliveries: list          # delivery_start strings with an index-1 label, sorted
    labels: dict              # delivery_start string -> label

    @property
    def split(self) -> tuple[int, int, int]:
        n = len(self.deliveries)
        i, j = int(n * TRAIN_FRAC), int(n * (TRAIN_FRAC + VAL_FRAC))
        return i, j - i, n - j


def read_market(trades_csv: Path) -> Market:
    with open(trades_csv, encoding="utf-8") as fh:
        n_trades = sum(1 for _ in fh) - 1
    labels = {}
    with open(trades_csv.parent / "labels.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["index_x"] == "1":
                labels[row["delivery_start"]] = float(row["label"])
    return Market(trades_csv, sha256(trades_csv), n_trades, sorted(labels), labels)


def write_test_csv(market: Market, path: Path) -> int:
    """Trades of the deliveries after the validation range only; samples are
    built per delivery, so these score exactly the test split."""
    train, val, _ = market.split
    test = set(market.deliveries[train + val:])
    with open(market.trades_csv, encoding="utf-8") as src, \
            open(path, "w", encoding="utf-8") as dst:
        dst.write(src.readline())
        for line in src:
            if line.split(",", 1)[0] in test:
                dst.write(line)
    return len(test)


# ---------------------------------------------------------------------------
# setup, timed iterations and checks
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    wall_s: float
    market: Market


def setup(run, work: Path, cfg: dict) -> Setup:
    """Synth plus CSV write of the market."""
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    run(["synth", "--config", str(cfg["synth.cfg"]), "--out", str(work / "market")],
        work / "synth.log")
    wall = time.perf_counter() - t0
    return Setup(wall, read_market(work / "market" / "trades.csv"))


def check_same_market(ledger: Ledger, written: Path, market: Market) -> None:
    if ledger.check(written.exists(), f"{written} missing"):
        ledger.check(sha256(written) == market.sha,
                     f"{written} differs from the set-up trades.csv")


def check_forecasts(ledger: Ledger, path: Path, market: Market, n_expected: int) -> None:
    """Every row's quantiles are non-decreasing and its truth is the labeler's."""
    if not ledger.check(path.exists(), f"{path} missing"):
        return
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    ledger.check(len(rows) == n_expected, f"{path}: {len(rows)} rows, expected {n_expected}")
    crossed = [r[0] for r in rows if any(float(a) > float(b) for a, b in zip(r[2:], r[3:]))]
    ledger.check(not crossed, f"{path}: {len(crossed)} rows with crossing quantiles")
    wrong = [r[0] for r in rows if market.labels.get(r[0]) != float(r[1])]
    ledger.check(not wrong, f"{path}: {len(wrong)} rows whose y_true is not the index label")


def check_metrics(ledger: Ledger, path: Path, n_expected: int) -> float:
    if not ledger.check(path.exists(), f"{path} missing"):
        return math.nan
    report = json.loads(path.read_text(encoding="utf-8"))
    ledger.check(report["n_samples"] == n_expected,
                 f"{path}: n_samples {report['n_samples']}, expected {n_expected}")
    ledger.check(report["aqcr"] == 0.0, f"{path}: AQCR {report['aqcr']} != 0")
    ledger.check(math.isfinite(report["aql"]), f"{path}: AQL not finite")
    return report["aql"]


def check_ingest(ledger: Ledger, path: Path, market: Market) -> dict:
    if not ledger.check(path.exists(), f"{path} missing"):
        return {}
    report = json.loads(path.read_text(encoding="utf-8"))
    ledger.check(report["n_trades"] == market.n_trades,
                 f"{path}: n_trades {report['n_trades']}, expected {market.n_trades}")
    ledger.check(report["n_samples"] == len(market.deliveries),
                 f"{path}: n_samples {report['n_samples']}, expected {len(market.deliveries)}")
    return report


def check_training_log(ledger: Ledger, out: Path, epochs: int) -> None:
    log = out / "training_log.csv"
    ok = log.exists() and (out / "checkpoint.json").exists()
    if not ledger.check(ok, f"{out}: checkpoint or training log missing"):
        return
    with open(log, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ledger.check(len(rows) == epochs, f"{log}: {len(rows)} epochs, expected {epochs}")
    ledger.check(all(math.isfinite(float(r["train_aql"])) and math.isfinite(float(r["val_aql"]))
                     for r in rows), f"{log}: non-finite loss")


def check_baseline(ledger: Ledger, path: Path, n_rows: int) -> None:
    if not ledger.check(path.exists(), f"{path} missing"):
        return
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ledger.check(len(rows) == n_rows and all(math.isfinite(float(r["aql"])) for r in rows),
                 f"{path}: expected {n_rows} rows with finite AQL")


def iteration(run, ledger: Ledger, work: Path, w: Workload, cfg: dict, base: Setup) -> dict:
    """One pass of the workload's timed command, ``train``, then its checks.

    Returns the command by step, its ``wall_s`` and the checkpoint it wrote.
    """
    work.mkdir(parents=True)
    train = run(["train", "--config", str(cfg["run.cfg"]), "--data", str(base.market.trades_csv),
                 "--out", str(work / "train")], work / "train.log")
    check_training_log(ledger, work / "train", w.epochs)
    return {"wall_s": train.wall_s, "cmds": {"train": train},
            "checkpoint": work / "train" / "checkpoint.json"}


def score_pass(run, ledger: Ledger, work: Path, cfg: dict, market: Market,
               checkpoint: Path) -> dict:
    """The data-path commands, then their checks: ``synth`` writes the market
    again, and ``ingest``, ``evaluate``, ``predict`` and two baselines each
    re-parse it; the two scoring commands use ``checkpoint``.

    Returns the commands by step and their summed ``wall_s``.
    """
    work.mkdir(parents=True)
    n = len(market.deliveries)
    data = str(work / "market" / "trades.csv")
    ckpt = str(checkpoint)
    steps = {
        "synth": ["synth", "--config", str(cfg["synth.cfg"]), "--out", str(work / "market")],
        "ingest": ["ingest", "--config", str(cfg["run.cfg"]), "--data", data,
                   "--out", str(work / "ingest")],
        "evaluate": ["evaluate", "--checkpoint", ckpt, "--data", data, "--out", str(work / "eval")],
        "predict": ["predict", "--checkpoint", ckpt, "--data", data, "--out", str(work / "pred")],
        "naive1": ["baseline", "--variant", "naive1", "--config", str(cfg["run.cfg"]),
                   "--data", data, "--out", str(work / "naive1")],
        "vwap15": ["baseline", "--variant", "vwap15", "--config", str(cfg["baseline.cfg"]),
                   "--data", data, "--out", str(work / "vwap15")],
    }
    cmds = {step: run(argv, work / f"{step}.log") for step, argv in steps.items()}
    check_same_market(ledger, work / "market" / "trades.csv", market)
    check_ingest(ledger, work / "ingest" / "ingest_report.json", market)
    check_metrics(ledger, work / "eval" / "metrics.json", n)
    check_forecasts(ledger, work / "eval" / "predictions.csv", market, n)
    check_forecasts(ledger, work / "pred" / "predictions.csv", market, n)
    check_baseline(ledger, work / "naive1" / "baseline_results.csv", 1)
    check_baseline(ledger, work / "vwap15" / "baseline_results.csv", 2)
    return {"wall_s": sum(c.wall_s for c in cmds.values()), "cmds": cmds}


def score_test(run, ledger: Ledger, work: Path, market: Market, checkpoint: Path) -> float:
    """AQL of ``checkpoint`` on the deliveries after the validation range,
    scored with ``evaluate``."""
    work.mkdir(parents=True)
    n_test = write_test_csv(market, work / "test_trades.csv")
    run(["evaluate", "--checkpoint", str(checkpoint), "--data", str(work / "test_trades.csv"),
         "--out", str(work / "eval")], work / "eval.log")
    test_aql = check_metrics(ledger, work / "eval" / "metrics.json", n_test)
    check_forecasts(ledger, work / "eval" / "predictions.csv", market, n_test)
    ledger.check(math.isfinite(test_aql), "test AQL is not finite")
    return test_aql
