"""Spans and counters around the package's public functions, from outside.

``Tracer.install`` replaces each named function at every module attribute
that refers to it (``evaluation.train`` and ``als.train`` are one function),
so calls from inside the package are seen too; ``uninstall`` puts the
originals back.  No source file changes.

A timed function records a span (name, start, end, parent) in memory.  Hot
per-element functions (``predict``, ``playtime_rating``, ``classify``) are
only counted, never timed.  A name that a later refactor removed is listed in
``missing`` instead of raising.  ``metrics`` turns the spans and counts into
the per-module metrics named in ``benchmarks/mapping.json``; a layer's self
time is its span minus the spans of its direct traced children.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

PACKAGE = "steamrec"

# Functions that get a span, keyed "<module>.<function>".
TIMED = (
    "cli.main", "cli.run_pipeline",
    "ingest.parse_user_items", "ingest.read_reviews_any", "ingest.write_interactions_jsonl",
    "ingest.build_table", "ingest.read_interactions_any",
    "sentiment.score",
    "ratings.derive", "ratings.median_playtime", "ratings.match_reviews",
    "ratings.write_ratings_csv", "ratings.read_ratings_csv",
    "als.train", "als.group_by_user", "als.group_by_item", "als.solve_half_step",
    "als.objective", "als.save_model", "als.load_model",
    "evaluation.split", "evaluation.rmse", "evaluation.evaluate", "evaluation.sweep",
    "recommend.top_k",
)
# Hot per-element functions: counted only.
COUNTED = ("als.predict", "ratings.playtime_rating", "sentiment.classify")


class _CountingLines:
    """Iterates a line stream, counting non-empty lines and item entries."""

    def __init__(self, lines, counts: Counter):
        self._lines = lines
        self._counts = counts

    def __iter__(self):
        counts = self._counts
        for line in self._lines:
            if line.strip():
                counts["ingest.parse_user_items.lines"] += 1
                counts["ingest.parse_user_items.entries"] += (
                    line.count("'item_id'") + line.count('"item_id"')
                )
            yield line


def _solve_flop(groups, rank: int) -> tuple[int, float]:
    """Rows solved and computed flop of one half-step from its row degrees.

    Per row of degree n > 0: 2nk^2 for the normal matrix, 2nk for the
    right-hand side, k^3/3 for the Cholesky factor and 2k^2 for the solves.
    """
    degrees = [len(group[0]) for group in groups]
    solved = [n for n in degrees if n > 0]
    total_n = sum(solved)
    rows = len(solved)
    k = rank
    flop = 2.0 * total_n * k * k + 2.0 * total_n * k + rows * (k ** 3 / 3.0 + 2.0 * k * k)
    return rows, flop


class Tracer:
    def __init__(self):
        self.spans: list[list[Any]] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._half_steps: dict[int, int] = defaultdict(int)

    # -- installation ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _lookup(self, qualname: str):
        module_name, func_name = qualname.rsplit(".", 1)
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(module, func_name, None) if module is not None else None
        if not callable(original):
            self.missing.append(qualname)
            return None
        return original

    def install(self) -> None:
        for qualname in TIMED:
            original = self._lookup(qualname)
            if original is not None:
                self._replace(original, self._timed(qualname, original))
        for qualname in COUNTED:
            original = self._lookup(qualname)
            if original is not None:
                self._replace(original, self._counted(qualname, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, qualname: str, original: Callable) -> Callable:
        before = getattr(self, "_before_" + qualname.replace(".", "_"), None)
        after = getattr(self, "_after_" + qualname.replace(".", "_"), None)
        spans = self.spans

        def wrapper(*args, **kwargs):
            name = qualname
            if before is not None:
                try:
                    name, args, kwargs = before(args, kwargs)
                except Exception as exc:  # a changed signature must not break the run
                    self._hook_failed(qualname, exc)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, parent])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                try:
                    after(result)
                except Exception as exc:
                    self._hook_failed(qualname, exc)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counted(self, qualname: str, original: Callable) -> Callable:
        counts = self.counts
        if qualname == "als.predict":
            spans = self.spans

            def wrapper(*args, **kwargs):
                stack = self._stack()
                if stack and spans[stack[-1]][0] == "recommend.top_k":
                    counts["recommend.predict.calls"] += 1
                else:
                    counts["als.predict.calls"] += 1
                return original(*args, **kwargs)
        elif qualname == "sentiment.classify":

            def wrapper(*args, **kwargs):
                label = original(*args, **kwargs)
                counts["sentiment.labels." + str(getattr(label, "value", label)).lower()] += 1
                return label
        else:
            key = qualname + ".calls"

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _hook_failed(self, qualname: str, exc: Exception) -> None:
        entry = f"{qualname} (counter hook: {type(exc).__name__})"
        if entry not in self.missing:
            self.missing.append(entry)

    # Per-function hooks: ``_before_*`` may rename the span or replace the
    # arguments; ``_after_*`` reads the result.  Both run outside the span.

    def _before_ingest_parse_user_items(self, args, kwargs):
        if args:
            args = (_CountingLines(args[0], self.counts),) + tuple(args[1:])
        return "ingest.parse_user_items", args, kwargs

    def _after_ingest_parse_user_items(self, result):
        self.counts["ingest.parse_user_items.kept"] += len(result)

    def _after_ratings_match_reviews(self, result):
        self.counts["ratings.match_reviews.skipped"] += int(result[1])

    def _before_als_solve_half_step(self, args, kwargs):
        # train() alternates user and item half-steps, user first.
        stack = self._stack()
        parent = stack[-1] if stack else -1
        side = "user" if self._half_steps[parent] % 2 == 0 else "item"
        self._half_steps[parent] += 1
        fixed, groups = args[0], args[1]
        rows, flop = _solve_flop(groups, int(fixed.shape[1]))
        self.counts["als.solve_half_step.rows_solved"] += rows
        self.counts["als.solve_half_step.flop"] += flop
        return f"als.solve_half_step.{side}", args, kwargs

    def _after_evaluation_rmse(self, report):
        self.counts["evaluation.rmse.evaluated"] += int(report.evaluated)
        self.counts["evaluation.rmse.dropped"] += int(report.dropped)

    def _before_recommend_top_k(self, args, kwargs):
        model, table, user_index = args[0], args[1], args[2]
        exclude_seen = kwargs.get("exclude_seen", args[4] if len(args) > 4 else True)
        seen = len(table.seen_items(user_index)) if exclude_seen else 0
        self.counts["recommend.top_k.candidates"] += model.num_items - seen
        return "recommend.top_k", args, kwargs

    # -- results -----------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds, self seconds and call count per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - children[index]
        return inclusive, self_time, calls

    def metrics(self, artifacts_mb: float) -> dict[str, float]:
        """Per-module metrics; the caller adds ``trace.overhead_s``."""
        inclusive, self_time, calls = self.span_totals()
        counts = self.counts
        parse_s = inclusive["ingest.parse_user_items"]
        entries = counts["ingest.parse_user_items.entries"]
        busy = inclusive["als.solve_half_step.user"] + inclusive["als.solve_half_step.item"]
        gflop = counts["als.solve_half_step.flop"] / 1e9
        top_k_calls = calls["recommend.top_k"]
        out = {
            "ingest.parse_user_items.s": parse_s,
            "ingest.parse_user_items.lines_per_s":
                counts["ingest.parse_user_items.lines"] / parse_s if parse_s else 0.0,
            "ingest.parse_user_items.kept_ratio":
                counts["ingest.parse_user_items.kept"] / entries if entries else 0.0,
            "ingest.read_reviews_any.s": inclusive["ingest.read_reviews_any"],
            "ingest.write_interactions_jsonl.s": inclusive["ingest.write_interactions_jsonl"],
            "ingest.build_table.s": inclusive["ingest.build_table"],
            "ingest.read_interactions_any.s": inclusive["ingest.read_interactions_any"],
            "sentiment.score.calls": calls["sentiment.score"],
            "sentiment.score.s": inclusive["sentiment.score"],
            "sentiment.labels.positive": counts["sentiment.labels.positive"],
            "sentiment.labels.neutral": counts["sentiment.labels.neutral"],
            "sentiment.labels.negative": counts["sentiment.labels.negative"],
            "ratings.derive.s": self_time["ratings.derive"],
            "ratings.median_playtime.s": inclusive["ratings.median_playtime"],
            "ratings.match_reviews.s": inclusive["ratings.match_reviews"],
            "ratings.match_reviews.skipped": counts["ratings.match_reviews.skipped"],
            "ratings.playtime_rating.calls": counts["ratings.playtime_rating.calls"],
            "ratings.write_ratings_csv.s": inclusive["ratings.write_ratings_csv"],
            "ratings.read_ratings_csv.s": inclusive["ratings.read_ratings_csv"],
            "als.train.s": self_time["als.train"],
            "als.group.s": inclusive["als.group_by_user"] + inclusive["als.group_by_item"],
            "als.solve_half_step.user.s": inclusive["als.solve_half_step.user"],
            "als.solve_half_step.item.s": inclusive["als.solve_half_step.item"],
            "als.solve_half_step.calls":
                calls["als.solve_half_step.user"] + calls["als.solve_half_step.item"],
            "als.solve_half_step.rows_solved": counts["als.solve_half_step.rows_solved"],
            "als.solve_half_step.gflop": gflop,
            "als.solve_half_step.gflops": gflop / busy if busy else 0.0,
            "als.objective.s": inclusive["als.objective"],
            "als.objective.calls": calls["als.objective"],
            "als.save_model.s": inclusive["als.save_model"],
            "als.load_model.s": inclusive["als.load_model"],
            "evaluation.split.s": inclusive["evaluation.split"],
            "evaluation.rmse.s": inclusive["evaluation.rmse"],
            "evaluation.rmse.evaluated": counts["evaluation.rmse.evaluated"],
            "evaluation.rmse.dropped": counts["evaluation.rmse.dropped"],
            "evaluation.sweep.s": self_time["evaluation.sweep"],
            "evaluation.evaluate.s": self_time["evaluation.evaluate"],
            "recommend.top_k.s": inclusive["recommend.top_k"],
            "recommend.top_k.calls": top_k_calls,
            "recommend.top_k.candidates":
                counts["recommend.top_k.candidates"] / top_k_calls if top_k_calls else 0.0,
            "recommend.predict.calls": counts["recommend.predict.calls"],
            "cli.main.s": inclusive["cli.main"],
            "cli.main.calls": calls["cli.main"],
            "cli.run_pipeline.s": inclusive["cli.run_pipeline"],
            "cli.run_pipeline.self_s": self_time["cli.run_pipeline"],
            "cli.artifacts_mb": artifacts_mb,
            "trace.spans": len(self.spans),
            "trace.missing": len(self.missing),
        }
        return {name: float(value) for name, value in out.items()}

    def dump(self, path: str | Path) -> None:
        """Write the spans, counts and missing names as JSON."""
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
