"""Regenerate the per-stage Baseline table from traced benchmark runs.

    python3 benchmarks/baseline.py [--seeds 1,2,3]

Runs ``benchmarks/run.py --trace 1`` once per workload and seed, maps the
per-module metrics onto the stages listed in ``benchmarks/mapping.json``
(parse, index, derive, ratings I/O, ALS per half-step, objective, evaluate,
recommend per user), and prints a Markdown table of each stage's median over
the seeds, with the untraced wall time and peak RSS of every workload.
Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def _traced_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    *_, record_line, result_line = done.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    mapping = json.loads((BENCH_DIR / "mapping.json").read_text(encoding="utf-8"))
    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    workloads = sorted({stage["workload"] for stage in mapping["baseline_stages"]})
    metrics: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    untraced: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    record = {}
    for workload in workloads:
        for seed in seeds:
            record, result = _traced_run(workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed its output checks")
            for name, metric in result["metrics"].items():
                metrics[workload].setdefault(name, []).append(metric["value"])
            for name, value in record["untraced"].items():
                untraced[workload].setdefault(name, []).append(value)

    rows = []
    for stage in mapping["baseline_stages"]:
        values = metrics[stage["workload"]]
        per_seed = []
        for n in range(len(seeds)):
            total = sum(values[name][n] for name in stage["sum"])
            per = values[stage["per"]][n] if "per" in stage else 1.0
            per_seed.append(total / per if per else 0.0)
        rows.append({"stage": stage["stage"], "workload": stage["workload"],
                     "seconds": statistics.median(per_seed),
                     "per_label": stage.get("per_label")})

    print(f"seeds {seeds}, {seconds} s per run; "
          f"{record['environment']['python']} / numpy {record['environment']['numpy']} / "
          f"scipy {record['environment']['scipy']}, {record['nproc']} CPUs\n")
    print("| stage | workload | median time |")
    print("|---|---|---|")
    for row in rows:
        scale, unit = (1e3, "ms") if row["seconds"] < 1 else (1.0, "s")
        suffix = f" per {row['per_label']}" if row["per_label"] else ""
        time_text = f"{row['seconds'] * scale:.3g} {unit}{suffix}"
        print(f"| {row['stage']} | {row['workload']} | {time_text} |")
    for workload in workloads:
        wall = statistics.median(untraced[workload]["wall_s"])
        rss = statistics.median(untraced[workload]["peak_rss_mb"])
        print(f"| untraced wall_s | {workload} | {wall:.3g} s (peak RSS {rss:.0f} MiB) |")


if __name__ == "__main__":
    main()
