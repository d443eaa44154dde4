"""Run sets of untraced benchmark runs and summarise their end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 301-310 [--seeds 401-410]
                                  [--workloads representations,mesh_io]
                                  [--seconds 30] [--out perfbench/BENCH_seed.json]

Each ``--seeds`` range is one set: every workload runs once per seed, one run
at a time.  For each set, workload and metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median, plus the worst accuracy records and ``fail_frac``.
The summary goes to ``--out`` (default: standard output only).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
    detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "runs": len(values)}


def summarise(runs):
    """Summary of one workload's (result, detail) pairs."""
    units = {k: m["unit"] for k, m in runs[0][0]["metrics"].items()}
    out = {k: {"unit": unit, **spread([r["metrics"][k]["value"] for r, _ in runs])}
           for k, unit in units.items()}
    out["raw_wall_s"] = {"unit": "s", **spread(
        [statistics.median(raw for raw, _ in d["passes"]["untraced_raw_scaled_s"]) for _, d in runs])}
    out["fail_frac"] = sum(r["failed"] for r, _ in runs) / sum(r["attempted"] for r, _ in runs)
    out["invalid_frac_median"] = statistics.median(d["invalid_frac"] for _, d in runs)
    worst = {}
    for _, d in runs:
        for family, acc in d["accuracy"].items():
            cur = worst.setdefault(family, {"max_abs_err": 0.0, "err_to_tol": 0.0})
            for key in cur:
                cur[key] = max(cur[key], acc[key])
    out["accuracy_worst"] = worst
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", action="append", type=seed_range, required=True)
    ap.add_argument("--workloads", default=",".join(inputs.WORKLOADS))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out")
    args = ap.parse_args()
    sets = []
    for seeds in args.seeds:
        per_workload = {}
        for workload in args.workloads.split(","):
            runs = [one_run(workload, seed, args.seconds) for seed in seeds]
            per_workload[workload] = summarise(runs)
            row = per_workload[workload]
            print(f"seeds {seeds[0]}-{seeds[-1]} {workload}: " + ", ".join(
                f"{k} {v['median']:.4g} ({v['iqr_over_median']:.1%})"
                for k, v in row.items() if isinstance(v, dict) and "median" in v), flush=True)
        sets.append({"seeds": seeds, "workloads": per_workload})
    summary = {"claim": None, "run_seconds": args.seconds,
               "command": f"python3 perfbench/run.py --workload <w> --seed <n> "
                          f"--seconds {args.seconds} --trace 0",
               "environment": runs[-1][1]["environment"], "sets": sets}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
