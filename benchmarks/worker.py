"""One fresh measured process: set up, run the timed work, check it.

``benchmarks/run.py`` starts it as ``python3 benchmarks/worker.py SPEC.json``
and reads the JSON result it writes to ``spec["result"]``.  The process
reports when it became ready for the workload's first call (``setup_s``).
With ``spec["setup_only"]`` it stops there.  Otherwise it runs one untimed
warm-up operation, then operations until ``spec["seconds"]`` of timed work
have passed (at least ``MIN_OPS``).  When ``spec["latency_pass"]`` is set, it
serves a slice of the user sample on a pipeline's artifacts after each timed
operation, and the rest of the sample at the end, to measure per-user latency.  With ``spec["trace"]``
the package's public functions are wrapped before set-up and the per-module
metrics come back in the result.

Every call into the package goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import checks

# Timed operations per run at least, so that the trimmed mean ``run.py`` takes
# of their times still averages three.
MIN_OPS = 5


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import steamrec
    import steamrec.cli

    where = Path(steamrec.__file__).resolve()
    if root.resolve() / "src" not in where.parents:
        raise SystemExit(f"steamrec imported from {where}, not from {root / 'src'}")
    return steamrec


def _quiet_cli(steamrec, argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``steamrec.cli.main(argv)``; returns (exit code, stdout, error)."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = steamrec.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return None, buffer.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buffer.getvalue(), ""


def _environment(steamrec) -> dict:
    import ctypes

    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": config.get("name"), "version": config.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    threads = {}
    try:  # the BLAS libraries this process has loaded
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            libs = sorted({
                line.split()[-1] for line in handle
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(lib_path).name] = int(getattr(lib, symbol)())
                break
    default_workers = getattr(steamrec.cli, "_default_workers", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "steamrec": getattr(steamrec, "__version__", None),
        "blas": blas,
        "blas_threads": threads,
        "workers": default_workers() if callable(default_workers) else None,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _as_pairs(result) -> tuple | None:
    if result is None or len(result) != 1 or result[0].error is not None:
        return None
    (entry,) = result
    return entry.user_id, tuple((rec.item_id, rec.score) for rec in entry.items)


class _Server:
    """Closed loop, one caller: ``batch_recommend`` for one user per call.

    Loads a pipeline's artifacts, then walks the user sample in order,
    wrapping around, a slice at a time.  It keeps the first output for each
    user, as plain tuples, and counts the later calls whose output differs
    from it, so that its memory does not grow with the number of calls a run
    makes (``peak_rss_mb`` would follow the machine's speed); ``finish``
    checks the first outputs against the brute-force oracle.
    """

    def __init__(self, steamrec, spec: dict, artifacts: Path):
        self.steamrec, self.spec, self.artifacts = steamrec, spec, artifacts
        self.model, self.table = _load_serving(steamrec, spec, artifacts)
        self.latencies = array("d")
        self.first: dict[str, tuple | None] = {}
        self.calls: Counter = Counter()
        self.differing: Counter = Counter()

    def serve(self, calls: int = 0, seconds: float = 0.0) -> None:
        """Make at least ``calls`` calls, and go on until ``seconds`` have passed."""
        users, k = self.spec["serve_users"], self.spec["k"]
        start, stop = time.perf_counter(), len(self.latencies) + calls
        while len(self.latencies) < stop or time.perf_counter() - start < seconds:
            user = users[len(self.latencies) % len(users)]
            t0 = time.perf_counter()
            try:
                result = self.steamrec.recommend.batch_recommend(
                    self.model, self.table, [user], k=k
                )
            except Exception:  # a failed call is a failed operation
                result = None
            self.latencies.append(time.perf_counter() - t0)
            pairs = _as_pairs(result)
            self.calls[user] += 1
            if self.first.setdefault(user, pairs) != pairs:
                self.differing[user] += 1

    def finish(self, out: dict) -> None:
        """Serve the rest of the sample once, then check every call's output."""
        self.serve(len(self.spec["serve_users"]) - len(self.latencies))
        index = checks.InteractionIndex(self.artifacts / "interactions.jsonl")
        model, k = self.model, self.spec["k"]
        out["latencies"] = list(self.latencies)
        for user, pairs in self.first.items():
            first_ok = pairs is not None and not checks.check_recommendations(
                [pairs], model.user_factors, model.item_factors, index, k
            )
            failed = self.differing[user] if first_ok else self.calls[user]
            out["ops"] += [{"kind": "recommend", "ok": n >= failed}
                           for n in range(self.calls[user])]


def _load_serving(steamrec, spec: dict, artifacts: Path):
    """Load the artifacts and make untimed warm-up calls, so that lazy work
    and the collector's first passes after loading miss the latencies."""
    model = steamrec.als.load_model(artifacts / "model.bin")
    table = steamrec.ingest.build_table(
        steamrec.ingest.read_interactions_any(artifacts / "interactions.jsonl")
    )
    users = spec["serve_users"]
    for n in range(spec["warmup_calls"]):
        steamrec.recommend.batch_recommend(model, table, [users[-1 - n % len(users)]], k=spec["k"])
    return model, table


def _latency_server(steamrec, spec: dict, artifacts: Path | None) -> _Server | None:
    """A server for the per-user latencies of ``steam-pipeline`` and ``rank-sweep``,
    or None when they are not measured or the artifacts do not load."""
    if not spec["latency_pass"] or artifacts is None:
        return None
    try:
        return _Server(steamrec, spec, artifacts)
    except Exception:  # broken artifacts: the pipeline run's own checks report them
        return None


def _timed_ops(op, seconds: float, make_server) -> tuple[list[float], _Server | None]:
    """Run ``op`` once untimed, then until ``seconds`` of timed work have passed,
    at least ``MIN_OPS`` times.

    The first pipeline run in a process is 10-25% slower than the next, so it
    is the warm-up; its output is checked too.  ``make_server()``, called after
    it, may return a server, which then serves an untimed slice of the user
    sample after each timed operation, sized from the warm-up's time to cover
    the sample about once.  So the latencies sample the whole run rather than
    one moment of it: on a shared machine the speed of a call drifts over tens
    of seconds.
    """
    t0 = time.perf_counter()
    op(0)
    expected_ops = max(MIN_OPS, math.ceil(seconds / (time.perf_counter() - t0)))
    server = make_server()
    times: list[float] = []
    while len(times) < MIN_OPS or sum(times) < seconds:
        t0 = time.perf_counter()
        op(len(times) + 1)
        times.append(time.perf_counter() - t0)
        if server is not None:
            server.serve(math.ceil(len(server.spec["serve_users"]) / expected_ops))
    return times, server


def _finish_timed(out: dict, spec: dict, pipeline_dirs: list[Path]) -> None:
    """Record peak RSS and, when tracing, stop it and collect its metrics."""
    out["peak_rss_mb"] = _peak_rss_mb()
    tracer = spec.get("_tracer")
    if tracer is None:
        return
    tracer.uninstall()
    sizes = [
        sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()) / 2**20
        for out_dir in pipeline_dirs if out_dir.is_dir()
    ]
    out["trace"] = tracer.metrics(sum(sizes) / len(sizes) if sizes else 0.0)
    out["trace_missing"] = tracer.missing
    tracer.dump(spec["spans"])


def run_steam_pipeline(steamrec, spec: dict, state, out: dict) -> None:
    runs = []

    def op(n: int) -> None:
        out_dir = Path(spec["work"]) / f"pipeline-{n}"
        argv = ["pipeline", "--items", spec["items"], "--reviews", spec["reviews"],
                "--out-dir", str(out_dir), *spec["pipeline_flags"],
                "--users", ",".join(spec["pipeline_users"])]
        runs.append((out_dir, *_quiet_cli(steamrec, argv)))

    out["op_times"], server = _timed_ops(op, spec["seconds"], lambda: _latency_server(
        steamrec, spec, runs[0][0] if runs[0][1] == 0 else None
    ))
    _finish_timed(out, spec, [run[0] for run in runs])
    served = None
    for out_dir, code, _, error in runs:
        problems = [f"exit code {code} {error}".strip()] if code != 0 else []
        if not problems:
            found, digests, rmse = checks.check_pipeline_dir(
                out_dir, spec["shape"]["interactions"], spec["pipeline_users"]
            )
            problems += found
            if digests:
                out.setdefault("digests", []).append(digests)
                served = served or out_dir
            if digests and math.isfinite(rmse):
                out.setdefault("rmse", []).append(rmse)
        out["ops"].append({"kind": "pipeline", "ok": not problems, "problems": problems})
    server = server or _latency_server(steamrec, spec, served)
    if server is not None:
        server.finish(out)


def run_rank_sweep(steamrec, spec: dict, state, out: dict) -> None:
    argv = ["sweep", "--ratings", str(Path(spec["fixture"]) / "ratings.csv"), *spec["sweep_flags"]]
    runs = []

    def op(n: int) -> None:
        runs.append(_quiet_cli(steamrec, argv))

    out["op_times"], server = _timed_ops(
        op, spec["seconds"], lambda: _latency_server(steamrec, spec, Path(spec["fixture"]))
    )
    _finish_timed(out, spec, [])
    ranks = spec["ranks"]
    for code, text, error in runs:
        if code != 0:
            per_rank = [[f"exit code {code} {error}".strip()] for _ in ranks]
        else:
            per_rank, rmses = checks.check_sweep_csv(text, ranks, spec["test_size"])
            if not any(per_rank):
                out.setdefault("rmse", []).append(min(rmses))
        out["ops"] += [{"kind": "sweep-rank", "ok": not p, "problems": p} for p in per_rank]
    if server is not None:
        server.finish(out)


def setup_recommend_serve(steamrec, spec: dict):
    return _Server(steamrec, spec, Path(spec["fixture"]))


def run_recommend_serve(steamrec, spec: dict, server: _Server, out: dict) -> None:
    server.serve(len(spec["serve_users"]), spec["seconds"])
    _finish_timed(out, spec, [])
    server.finish(out)


WORKLOADS = {
    "steam-pipeline": (None, run_steam_pipeline),
    "rank-sweep": (None, run_rank_sweep),
    "recommend-serve": (setup_recommend_serve, run_recommend_serve),
}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    steamrec = _import_package(Path(spec["root"]))
    if spec["trace"]:
        from tracing import Tracer

        spec["_tracer"] = Tracer()
        spec["_tracer"].install()
    setup, run = WORKLOADS[spec["workload"]]
    state = setup(steamrec, spec) if setup is not None else None
    out = {"ready": time.monotonic(), "ops": []}
    if not spec["setup_only"]:
        run(steamrec, spec, state, out)
        out["environment"] = _environment(steamrec)
    Path(spec["result"]).write_text(json.dumps(out) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
