"""The grounddial benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or `all` of them) against the package in `src/`, in fresh
worker processes, one at a time. With `--trace 0` it reports the end-to-end
metrics; set-up time is the median over several worker processes, each timed
from its spawn to its first timed call. With `--trace 1` it reports the
per-layer metrics of a traced run and the tracing overhead. It prints a table,
the run record as one JSON line, and the result as the last line. Records,
repeat records and spans go to `--out-dir`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, layer_metric_names, layer_metric_unit

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 5
BLAS_THREADS = "1"  # the matrices are at most 64 wide; more threads only add noise
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "units_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "val_mrr": "fraction",
    "val_grounding_top1": "fraction",
}
# Recorded beside the metrics: throughput per kind of call (at the reference
# speed), and the wall-time values before scaling with the host speed that scaled them.
FIGURES = {"train_units_per_s": "1/s", "eval_gen_units_per_s": "1/s",
           "eval_disc_units_per_s": "1/s", "units_per_s_raw": "1/s", "setup_s_raw": "s",
           "host_speed": "ratio"}


class WorkerError(RuntimeError):
    pass


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def spawn(args, setup_only: bool, timeout: float) -> tuple[float, dict]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", args.out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return t_spawn, json.loads(lines[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_workload(args) -> tuple[dict, dict]:
    """(result, record) of one workload run."""
    setup_raw, setup = [], []
    probes = []
    if not args.trace:
        probes = [spawn(args, setup_only=True, timeout=60)
                  for _ in range((2 if args.tiny else SETUP_SAMPLES) - 1)]
    probes.append(spawn(args, setup_only=False, timeout=60 + 3 * args.seconds))
    for t_spawn, probe in probes:
        setup_raw.append(probe["t_ready"] - t_spawn)
        setup.append(setup_raw[-1] * probe["speed"])
    out = probes[-1][1]

    samples = out["samples"]
    stats = {
        "units_per_s": summary(samples.get("units_per_s", [])),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([out["peak_rss_mb"]]),
        "val_mrr": summary([out["val_mrr"]]),
        "val_grounding_top1": summary([out["val_grounding_top1"]]),
    }
    figures = {name: summary(samples[name]) for name in FIGURES if name in samples}
    figures["setup_s_raw"] = summary(setup_raw)
    if args.trace:
        metrics = {name: {"value": out["per_layer"].get(name, 0.0),
                          "unit": layer_metric_unit(name)}
                   for name in layer_metric_names()}
    else:
        metrics = {name: {"value": stats[name]["median"] or 0.0, "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "commit": git_commit(), "source_sha256": out["source_sha256"],
        "python": platform.python_version(), "numpy": out["numpy"],
        "blas_threads": {k: BLAS_THREADS for k in BLAS_ENV},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "end_to_end": {name: dict(stats[name], unit=unit) for name, unit in END_TO_END.items()},
        "figures": {name: dict(s, unit=FIGURES[name]) for name, s in figures.items()},
        "attempted": out["attempted"], "failed": out["failed"], "failures": out["failures"],
        "ranks_checked": out["ranks_checked"], "posterior_calls": out["posterior_calls"],
        "absent": out.get("absent", []), "spans_file": out.get("spans_file"),
    }
    return result, record


def print_table(workload: str, result: dict, record: dict) -> None:
    absent = set(record["absent"])
    print(f"# {workload}: {result['attempted']} calls, {result['failed']} failed")
    for name, m in result["metrics"].items():
        mark = "  (absent)" if name.rsplit(".", 1)[0] in absent or name in absent else ""
        print(f"{workload:24s} {name:56s} {m['value']:14.6g} {m['unit']}{mark}")
    if not record["trace"]:
        for name, s in record["figures"].items():
            print(f"{workload:24s} {name:56s} {s['median']:14.6g} {s['unit']}  "
                  f"(n={s['n']}, q1={s['q1']:.6g}, q3={s['q3']:.6g})")
    for failure in record["failures"]:
        print(f"# failed: {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="seconds-long sizes, for the self-tests")
    p.add_argument("--out-dir", default=str(ROOT / ".bench_out"))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "grounddial" / "__init__.py").is_file():
        print(f"no grounddial package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**vars(args))
            one.workload = name
            result, record = run_workload(one)
            results[name] = result
            path = Path(args.out_dir) / "records" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(record, indent=1) + "\n")
            print_table(name, result, record)
            print(json.dumps(record, separators=(",", ":")))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
