"""Steam-shaped benchmark of steamrec: three workloads, end-to-end and per-module metrics.

    python3 benchmarks/run.py --workload steam-pipeline --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads (``BENCHMARK.json`` records why each was chosen):

- ``steam-pipeline``: ``steamrec.cli.main(["pipeline", ...])`` on the raw
  Python-literal dumps: sentiment strategy, rank 10, 3 sweeps, top-10 for 24
  users.
- ``rank-sweep``: ``steamrec sweep`` (``read_ratings_csv`` + ``evaluation.sweep``)
  over ranks 8, 16 and 32, 2 sweeps each, with the program's default
  ``workers``, on the ``ratings.csv`` a pipeline run derived from the dump.
- ``recommend-serve``: a closed loop with one caller, one
  ``batch_recommend(model, table, [user], k=10)`` per call, walking a seeded
  sample of 1100 users; loading the pipeline's ``model.bin`` and
  ``interactions.jsonl`` is set-up.

Each run generates its inputs from ``--seed`` (``benchmarks/synth.py``) and,
for ``rank-sweep`` and ``recommend-serve``, prepares its fixture with one
``steamrec pipeline`` run over the same dumps before anything is timed.

A run starts ``SETUP_SAMPLES`` fresh worker processes (``benchmarks/worker.py``)
one after another, each timed from launch until it is ready for the
workload's first call; ``setup_s`` is their median.  All but the last stop
there.  The last runs one untimed warm-up pipeline run or sweep, then the
timed work for ``--seconds`` (at least five pipeline runs or sweeps).  In
``steam-pipeline`` and ``rank-sweep``, for the per-user latencies, it serves
a slice of the user sample on a pipeline's artifacts after each timed
operation, outside its time, so that the sample is served about once.

End-to-end metrics: ``setup_s`` as above; ``wall_s``, the mean seconds per
pipeline run or per sweep without the fastest and the slowest one, and for
``recommend-serve`` the seconds to serve the user sample once at the
90th-percentile per-call latency (see ``_wall_s``); ``peak_rss_mb``,
``ru_maxrss`` of the measured process after its timed work, which in
``steam-pipeline`` and ``rank-sweep`` includes the loaded serving state;
``heldout_rmse``, ``eval.json``'s RMSE (for ``rank-sweep`` the
lowest RMSE of the sweep); ``user_p95_ms`` over at least 1100 calls, whose
p50, p90 and p99 go into the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the timed
work once untraced and once traced, each in one process, and prints the
per-module metrics with the tracing overhead (traced minus untraced
``wall_s``).  The last line of standard output is the result object; the
line before it is the run's record (environment, generated shape, fixture
digests, samples), also written under ``.bench_out/`` with the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import synth
from checks import check_pipeline_dir

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("steam-pipeline", "rank-sweep", "recommend-serve")
SETUP_SAMPLES = 5
SERVE_USERS = 1100  # latency samples per run: >= 10 of them above p99
WARMUP_CALLS = 100  # untimed serving calls before latencies are taken
PIPELINE_USERS = 24
K = 10
RANKS = [8, 16, 32]
SPLIT_FRACTION = 0.8
PIPELINE_FLAGS = ["--strategy", "sentiment", "--rank", "10", "--iters", "3", "--lambda", "0.1",
                  "--seed", "42", "--split", str(SPLIT_FRACTION), "--split-seed", "42",
                  "--k", str(K)]
SWEEP_FLAGS = ["--ranks", ",".join(map(str, RANKS)), "--iters", "2", "--lambda", "0.1",
               "--seed", "42", "--split", str(SPLIT_FRACTION), "--split-seed", "42"]
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure: no program, or its fixture failed."""


def _tree_digest(root: Path, top: str) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / top).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _run_process(argv: list[str], root: Path) -> float:
    """Run a child to completion; returns its launch time (time.monotonic)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    launched = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=PROCESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{' '.join(argv[:4])} ... exited with code {code}")
    return launched


def _worker(spec: dict, root: Path, **overrides) -> dict:
    """Start a fresh worker process; returns its result with ``setup_s`` added."""
    spec = dict(spec, **overrides)
    work = Path(spec["work"])
    spec["result"] = str(work / f"result-{time.monotonic_ns()}.json")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    launched = _run_process([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)], root)
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - launched
    return result


def _prepare_fixture(spec: dict, root: Path) -> tuple[dict, dict]:
    """One program pipeline run over the dump; its artifacts are the fixture."""
    fixture = Path(spec["fixture"])
    argv = [sys.executable, "-m", "steamrec", "pipeline",
            "--items", spec["items"], "--reviews", spec["reviews"],
            "--out-dir", str(fixture), *PIPELINE_FLAGS,
            "--users", ",".join(spec["pipeline_users"])]
    _run_process(argv, root)
    problems, digests, rmse = check_pipeline_dir(
        fixture, spec["shape"]["interactions"], spec["pipeline_users"]
    )
    if not digests:
        raise BenchError(f"fixture pipeline run failed its checks: {problems}")
    with open(fixture / "ratings.csv", encoding="utf-8") as handle:
        rows = sum(1 for _ in handle) - 1
    spec["test_size"] = rows - math.floor(SPLIT_FRACTION * rows)
    op = {"kind": "fixture-pipeline", "ok": not problems, "problems": problems}
    return {"digests": digests, "heldout_rmse": rmse}, op


def _check_ledger(out_dir: Path, key: str, entry: dict) -> list[str]:
    """Artifacts of one commit and seed must repeat across runs (C5 from outside)."""
    path = out_dir / "digests.json"
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    previous = ledger.setdefault(key, entry)
    if previous != entry:
        return [f"artifacts differ from an earlier run of this commit and seed: {previous}"]
    tmp = path.with_name(f"digests.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return []


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    if not (root / "src" / "steamrec" / "__init__.py").is_file():
        raise BenchError(f"no steamrec package under {root / 'src'}; run from a checkout root")
    out_dir = root / ".bench_out"
    work = root / ".bench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        t0 = time.perf_counter()
        raw = work / "raw"
        shape = synth.generate(seed, raw)
        picks = np.random.default_rng([seed, 7]).choice(synth.USERS, SERVE_USERS, replace=False)
        serve_users = [synth.user_id(int(u)) for u in picks]
        spec = {
            "root": str(root), "workload": workload, "trace": False, "work": str(work),
            "items": str(raw / "user_items.json"), "reviews": str(raw / "user_reviews.json"),
            "fixture": str(work / "fixture"), "shape": shape, "k": K,
            "warmup_calls": WARMUP_CALLS, "pipeline_flags": PIPELINE_FLAGS,
            "pipeline_users": serve_users[:PIPELINE_USERS], "serve_users": serve_users,
            "sweep_flags": SWEEP_FLAGS, "ranks": RANKS, "seconds": seconds,
            "setup_only": False, "latency_pass": not trace,
            "spans": str(out_dir / f"spans-{workload}-s{seed}.json"),
        }
        fixture, ops = {}, []
        if workload != "steam-pipeline":
            fixture, op = _prepare_fixture(spec, root)
            ops.append(op)
        prepare_s = time.perf_counter() - t0

        if trace:
            untraced = _worker(spec, root)
            traced = _worker(spec, root, trace=True)
            results = [untraced, traced]
            setup_samples = [r["setup_s"] for r in results]
        else:
            setup_samples = [_worker(spec, root, setup_only=True)["setup_s"]
                             for _ in range(SETUP_SAMPLES - 1)]
            results = [_worker(spec, root)]
            setup_samples.append(results[0]["setup_s"])
        ops += [op for r in results for op in r["ops"]]

        rmses = [x for r in results for x in r.get("rmse", [])]
        if workload != "recommend-serve" and not rmses:
            failures = [op for op in ops if not op["ok"]][:3]
            raise BenchError(f"no {workload} operation gave checked output: {failures}")
        digests = [d for r in results for d in r.get("digests", [])] or [fixture["digests"]]
        if any(d != digests[0] for d in digests) or len(set(rmses)) > 1:
            ops.append({"kind": "rerun", "ok": False,
                        "problems": ["artifacts or RMSE differ between runs in this run"]})
        src_digest = _tree_digest(root, "src")
        eval_rmse = fixture.get("heldout_rmse", rmses[0] if rmses else math.nan)
        if math.isfinite(eval_rmse):
            key = f"{src_digest}/{_tree_digest(root, 'benchmarks')}/seed-{seed}"
            problems = _check_ledger(out_dir, key, {"digests": digests[0], "eval_rmse": eval_rmse})
            ops.append({"kind": "digest-ledger", "ok": not problems, "problems": problems})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if not op["ok"])
    latencies_ms = [x * 1000.0 for x in results[0].get("latencies", [])]
    if trace:
        metrics = dict(traced["trace"])
        metrics["trace.overhead_s"] = _wall_s(workload, traced) - _wall_s(workload, untraced)
    else:
        percentiles = statistics.quantiles(latencies_ms, n=100)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": _wall_s(workload, results[0]),
            "peak_rss_mb": results[0]["peak_rss_mb"],
            "heldout_rmse": rmses[0] if workload != "recommend-serve" else eval_rmse,
            "user_p95_ms": percentiles[94],
        }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(root), "src_digest": src_digest,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "environment": results[-1]["environment"],
        "shape": shape,
        "fixture_digests": digests[0],
        "prepare_s": prepare_s,
        "setup_samples": setup_samples,
        "op_samples": results[0].get("op_times", []),
        "latency_samples": len(latencies_ms),
        "serve_mean_s": (
            statistics.fmean(latencies_ms) * SERVE_USERS / 1000.0 if latencies_ms else None
        ),
        # Only p95 is gated.  On a shared 2-vCPU machine the per-call cost flips
        # between two speeds about 2x apart for seconds at a time, and in busy
        # spells stalls from outside the process hit 1-4% of calls: across seeds
        # p50 spread up to 53%, p90 up to 36% and p99 up to 50% in some spells.
        "latency_p50_ms": None if trace else percentiles[49],
        "latency_p90_ms": None if trace else percentiles[89],
        "latency_p99_ms": None if trace else percentiles[98],
        "latency_samples_above_p99": (
            None if trace else sum(1 for x in latencies_ms if x > percentiles[98])
        ),
        "failed_frac": failed / len(ops),
        "failures": [op for op in ops if not op["ok"]][:20],
        "trace_missing": results[-1].get("trace_missing", []),
    }
    if trace:
        record["untraced"] = {"wall_s": _wall_s(workload, untraced),
                              "peak_rss_mb": untraced["peak_rss_mb"]}
    if not all(math.isfinite(value) for value in metrics.values()):
        raise BenchError(f"a metric could not be measured: {metrics}")
    if record["trace_missing"]:
        print(f"benchmark: not traced, gone from the package: {record['trace_missing']}",
              file=sys.stderr)
    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return record, summary


def _wall_s(workload: str, result: dict) -> float:
    """Seconds per operation; for recommend-serve, seconds to serve the sample once.

    Per operation it is the mean without the fastest and the slowest, so that
    one operation hit by a stall from outside the process does not move it.

    For recommend-serve it is the 90th-percentile call latency times the
    sample size.  On a shared 2-vCPU VM the per-call cost switches between two states about 2x
    apart for seconds at a time (within one run, the slow share of 200-call
    windows ranged from 14% to 100%), and the share changes from run to run.
    Over blocks of ten seeds, statistics that mix the two states spread (IQR
    over median) 19-37% for the mean, 22-33% for a 10% trimmed mean, 26-60%
    for the median and 10-40% for the lower decile; the 90th percentile,
    which stays in the slow state a run always visits, spread 6-10%.  The
    mean goes into the record.
    """
    if workload == "recommend-serve":
        return statistics.quantiles(result["latencies"], n=10)[8] * SERVE_USERS
    middle = sorted(result["op_times"])[1:-1]
    return statistics.fmean(middle)


def _with_units(metrics: dict, trace: bool, root: Path) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must list exactly these."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        mismatch = sorted(set(units) ^ set(metrics))
        raise BenchError(f"metrics do not match BENCHMARK.json: {mismatch}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Steam-shaped steamrec benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        record, summary = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
        summary["metrics"] = _with_units(summary["metrics"], bool(args.trace), root)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": summary}, indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
