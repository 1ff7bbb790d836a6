"""orderfusion benchmark: two CLI training workloads, end-to-end metrics, traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke        # every workload once at smoke size

``--trace 0`` runs every command as its own ``orderfusion`` process and
prints the end-to-end metrics; ``--trace 1`` runs the same sequence in this
process through ``orderfusion.cli.dispatch`` with every public function
traced (on ``train_small`` also the data-path commands), then a block
microbench, and prints the per-layer metrics. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_BUDGET_S = 170.0            # every command is killed past this, to exit within 180 s
SETUP_REPS = 3
NOTE = ("CPU frequency, caches and neighbours on the shared machine are not controlled; "
        "the benchmark reads system limits and changes none.")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def run_metadata() -> dict:
    import ctypes
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in {ln.split()[-1] for ln in open("/proc/self/maps") if "openblas" in ln and ".so" in ln}:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "orderfusion").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    meminfo = _read("/proc/meminfo") or ""
    mem_total = next((ln.split(":")[1].strip() for ln in meminfo.splitlines()
                      if ln.startswith("MemTotal")), None)
    cgroup = {p: _read(p) for p in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/memory.max",
                                    "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                                    "/sys/fs/cgroup/memory/memory.limit_in_bytes")}
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": _nproc(),
        "mem_total": mem_total,
        "cgroup_limits": {k: v for k, v in cgroup.items() if v is not None},
        "note": NOTE,
    }


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _market_info(w, market) -> dict:
    n_train, n_val, n_test = market.split
    return {"days": w.n_days, "trades_per_min_per_side": w.trades_per_min,
            "trades": market.n_trades, "samples": len(market.deliveries),
            "train": n_train, "val": n_val, "test": n_test}


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


def end_to_end(args, w, work: Path, deadline: float):
    """Untraced run: every command is its own process."""
    import pipeline as P

    ledger = P.Ledger()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = P.SubprocessRunner(env, ROOT, deadline, ledger)
    cfg = P.write_configs(work, w, args.seed)
    new_setup = lambda i: P.setup(run, work / f"setup{i}", cfg)

    # The first set-up feeds every iteration. The repeats that only measure
    # setup_s run after the first iteration and after the loop, so that the
    # machine's slow drift is sampled across the run.
    setups = [new_setup(0)]
    base = setups[0]
    iterations = []
    loop_start = time.monotonic()
    while time.monotonic() < deadline - 60:
        iterations.append(P.iteration(run, ledger, work / f"it{len(iterations)}", w, cfg, base))
        if len(setups) == 1:
            setups.append(new_setup(1))
        spent = time.monotonic() - loop_start
        if ledger.failed or spent + spent / len(iterations) > args.seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(new_setup(len(setups)))
    for s in setups[1:]:
        P.check_same_market(ledger, s.market.trades_csv, base.market)
    checkpoints = [it["checkpoint"] for it in iterations]
    ledger.check(all(c.exists() for c in checkpoints)
                 and len({P.sha256(c) for c in checkpoints}) == 1,
                 "iterations wrote different checkpoints")
    test_aql = P.score_test(run, ledger, work / "test", base.market, checkpoints[-1])

    metrics = {
        "setup_s": _median([s.wall_s for s in setups]),
        "wall_s": _median([it["wall_s"] for it in iterations]),
        "peak_rss_mb": max(c.rss_mb for it in iterations for c in it["cmds"].values()),
    }
    info = {"iterations": len(iterations),
            "command_walls_s": {step: [it["cmds"][step].wall_s for it in iterations]
                                for step in iterations[0]["cmds"]},
            "setup_walls_s": [s.wall_s for s in setups],
            "test_aql": test_aql, "market": _market_info(w, base.market)}
    return ledger, metrics, info


def traced(args, w, work: Path, results: Path):
    """Traced run in this process, plus the block microbench."""
    import layers
    import microbench
    import pipeline as P
    from tracing import Tracer, load_modules

    import orderfusion.cli  # noqa: F401  (import cost stays out of the untraced baseline)

    ledger = P.Ledger()
    run = P.InProcessRunner(ledger)
    cfg = P.write_configs(work, w, args.seed)

    def passes(tag: str, base) -> tuple[dict, float]:
        """The timed iteration, plus the data-path commands where the workload
        has them; returns the iteration and the summed command wall time."""
        it = P.iteration(run, ledger, work / f"it{tag}", w, cfg, base)
        wall = it["wall_s"]
        if w.scoring_pass:
            wall += P.score_pass(run, ledger, work / f"score{tag}", cfg, base.market,
                                 it["checkpoint"])["wall_s"]
        return it, wall

    # The first untraced pass warms the process up; the second one, after
    # the traced pass, is the untraced reference for the tracing overhead.
    plain_setup = P.setup(run, work / "setup_plain", cfg)
    passes("_warm", plain_setup)

    counts = layers.Counts(run)
    tracer = Tracer(on_result=counts)
    run.tracer = tracer
    tracer.install(load_modules())
    first = len(ledger.commands)
    try:
        base = P.setup(run, work / "setup", cfg)
        it, traced_wall = passes("", base)
    finally:
        tracer.uninstall()
        run.tracer = None
    traced_cmds = ledger.commands[first:]
    tracer.dump(results.with_suffix(".spans.jsonl"))
    plain, plain_wall = passes("_plain", plain_setup)

    missing = layers.missing_calls(tracer.spans, w.name)
    ledger.check(not missing, f"traced run recorded no call of: {' '.join(missing)}")
    if w.scoring_pass:
        report = P.check_ingest(ledger, work / "score" / "ingest" / "ingest_report.json",
                                base.market)
        seen = counts.samples_by_command.get("ingest", [])
        ledger.check(seen == [report.get("n_samples")],
                     f"ingest_report n_samples {report.get('n_samples')} != build_dataset {seen}")
    test_aql = P.score_test(run, ledger, work / "test", base.market, it["checkpoint"])
    plain_aql = P.score_test(run, ledger, work / "test_plain", base.market, plain["checkpoint"])
    ledger.check(test_aql == plain_aql, f"test AQL traced {test_aql} != untraced {plain_aql}")

    metrics = layers.layer_metrics(tracer.spans, counts, traced_cmds)
    metrics.update(layers.command_rates(traced_cmds, base.market, w.epochs))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["training.test_aql"] = test_aql
    micro, steps = microbench.run(w.hidden_dim, w.degree, w.alpha, w.t_max, w.batch_size)
    metrics.update(micro)
    info = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "microbench_steps": steps, "market": _market_info(w, base.market)}
    return ledger, metrics, info


def run_workload(args) -> int:
    import pipeline as P

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = P.WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    base_dir = ROOT / ".perfbench_work"
    work, results = base_dir / tag, base_dir / "results" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.parent.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            ledger, values, info = traced(args, w, work, results)
            declared = spec["per_layer"]
        else:
            ledger, values, info = end_to_end(args, w, work, deadline)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = {m["name"]: m["unit"] for m in declared}
    ledger.check(set(values) == set(names),
                 f"metrics {sorted(set(names) ^ set(values))} are missing or undeclared")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names.items() if name in values}
    meta = dict(run_metadata(), workload=w.name, seed=args.seed, seconds=args.seconds,
                trace=args.trace, smoke=args.smoke,
                model={"hidden_dim": w.hidden_dim, "interaction_degree": w.degree,
                       "cutoff_exponent": w.alpha, "t_max": w.t_max,
                       "batch_size": w.batch_size, "epochs": w.epochs},
                failures=ledger.failures, **info)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    results.with_suffix(".json").write_text(json.dumps({"meta": meta, "result": result},
                                                       indent=1), encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke() -> int:
    """Every workload once at smoke size, untraced and traced; asserts that
    every metric named in BENCHMARK.json is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = subprocess.run([sys.executable, str(Path(__file__)), "--workload",
                                  workload["name"], "--seed", "0", "--seconds", "1",
                                  "--trace", str(trace), "--smoke"],
                                 capture_output=True, text=True, timeout=180)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            want = {m["name"]: m["unit"] for m in declared}
            good = out.returncode == 0 and result.get("correct") is True and printed == want
            print(f"{'ok  ' if good else 'FAIL'} {workload['name']} trace={trace} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')}")
            if not good:
                print(out.stderr[-2000:], file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["train_small", "train_wide"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke size (3 days, 1 epoch); without --workload, run all")
    args = parser.parse_args()
    if not (SRC / "orderfusion" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"orderfusion sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    # One closed-loop client on one BLAS thread. On a 2-vCPU guest whose vCPUs
    # share one physical core, a second BLAS thread made a 1500x1500 matmul
    # slower (144 ms against 118 ms) and its spinning workers contend with
    # the Python thread, which adds run-to-run noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["ORDERFUSION_LOG"] = "error"
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
