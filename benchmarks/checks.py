"""Output checks, written against the documented file formats only.

Nothing here imports the package: the checks read the artifacts the way a
user would, and the recommendation oracle scores items with plain numpy.
Each check reports a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

PIPELINE_ARTIFACTS = (
    "interactions.jsonl", "reviews.jsonl", "ratings.csv", "model.bin", "eval.json",
    "recommendations.json",
)
# Artifacts that must be byte-identical across runs of one commit.
DETERMINISTIC_ARTIFACTS = ("interactions.jsonl", "ratings.csv", "model.bin", "recommendations.json")
# Two scores closer than this count as tied, so the oracle accepts either order.
SCORE_TOL = 1e-9


def sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class InteractionIndex:
    """First-appearance user/item indices and seen sets from interactions.jsonl."""

    def __init__(self, path: str | Path):
        self.user_pos: dict[str, int] = {}
        self.item_pos: dict[int, int] = {}
        self.seen: list[set[int]] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                u = self.user_pos.setdefault(record["user_id"], len(self.user_pos))
                i = self.item_pos.setdefault(record["item_id"], len(self.item_pos))
                if u == len(self.seen):
                    self.seen.append(set())
                self.seen[u].add(i)

    @property
    def pairs(self) -> int:
        return sum(len(items) for items in self.seen)


def check_recommendations(
    recs: list[tuple[str, list[tuple[int, float]]]],
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    index: InteractionIndex,
    k: int,
) -> list[str]:
    """Compare (user_id, [(item_id, score), ...]) lists with a brute-force oracle.

    The oracle scores every item, masks the user's seen items and stable-sorts
    by (-score, item index).  A position may hold a different item than the
    oracle's only when the two scores tie within ``SCORE_TOL``.
    """
    problems = []
    for user_id, items in recs:
        u = index.user_pos.get(user_id)
        if u is None:
            problems.append(f"{user_id}: not in interactions")
            continue
        scores = item_factors @ user_factors[u]
        unseen = np.ones(len(scores), dtype=bool)
        unseen[list(index.seen[u])] = False
        candidates = np.flatnonzero(unseen)
        order = candidates[np.lexsort((candidates, -scores[candidates]))][:k]
        if len(items) != len(order):
            problems.append(f"{user_id}: {len(items)} items, oracle has {len(order)}")
            continue
        for pos, ((item_id, score), expected) in enumerate(zip(items, order), start=1):
            i = index.item_pos.get(item_id)
            if i is None or i in index.seen[u]:
                problems.append(f"{user_id}: position {pos} item {item_id} is seen or unknown")
                break
            tol = SCORE_TOL * max(1.0, abs(float(scores[expected])))
            if abs(score - scores[i]) > tol or abs(scores[i] - scores[expected]) > tol:
                problems.append(f"{user_id}: position {pos} has item {item_id}, oracle {expected}")
                break
        if len({item_id for item_id, _ in items}) != len(items):
            problems.append(f"{user_id}: repeated item")
    return problems


def check_order(
    recs: list[tuple[str, list[tuple[int, float]]]], index: InteractionIndex
) -> list[str]:
    """Each list excludes seen items and is ordered by (-score, item index)."""
    problems = []
    for user_id, items in recs:
        u = index.user_pos.get(user_id)
        if u is None:
            problems.append(f"{user_id}: not in interactions")
            continue
        keys = []
        for item_id, score in items:
            i = index.item_pos.get(item_id)
            if i is None or i in index.seen[u]:
                problems.append(f"{user_id}: item {item_id} is seen or unknown")
            keys.append((-score, i if i is not None else -1))
        if keys != sorted(keys):
            problems.append(f"{user_id}: not ordered by (-score, item index)")
    return problems


def read_recommendations_json(path: str | Path) -> list[tuple[str, list[tuple[int, float]]]]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return [
        (entry["user_id"], [(rec["item_id"], rec["score"]) for rec in entry.get("items", [])])
        for entry in data
    ]


def check_ratings_csv(path: str | Path, kept_pairs: int) -> list[str]:
    """One row per kept (user, item) pair, every rating in 1..5."""
    problems = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["user_index", "item_index", "rating"]:
            return [f"ratings.csv header {header}"]
        rows = 0
        pairs = set()
        for user, item, rating in reader:
            rows += 1
            pairs.add((int(user), int(item)))
            if rating not in ("1", "2", "3", "4", "5"):
                problems.append(f"ratings.csv row {rows}: rating {rating!r}")
                break
    if rows != kept_pairs or len(pairs) != kept_pairs:
        problems.append(f"ratings.csv has {rows} rows ({len(pairs)} pairs), expected {kept_pairs}")
    return problems


def check_pipeline_dir(
    out_dir: str | Path, kept_pairs: int, users: list[str]
) -> tuple[list[str], dict[str, str], float]:
    """Artifacts present, ratings.csv rows, recommendation lists, eval.json.

    Returns the problems, the sha256 of each deterministic artifact, and the
    held-out RMSE from eval.json (NaN when it is unreadable).
    """
    out = Path(out_dir)
    missing = [name for name in PIPELINE_ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], {}, math.nan
    problems = check_ratings_csv(out / "ratings.csv", kept_pairs)
    index = InteractionIndex(out / "interactions.jsonl")
    if index.pairs != kept_pairs:
        problems.append(f"interactions.jsonl has {index.pairs} pairs, expected {kept_pairs}")
    recs = read_recommendations_json(out / "recommendations.json")
    if [user for user, _ in recs] != users:
        problems.append("recommendations.json does not list the requested users in order")
    problems += check_order(recs, index)
    with open(out / "eval.json", "r", encoding="utf-8") as handle:
        rmse = float(json.load(handle).get("rmse", math.nan))
    if not math.isfinite(rmse):
        problems.append(f"eval.json rmse {rmse}")
    digests = {name: sha256(out / name) for name in DETERMINISTIC_ARTIFACTS}
    return problems, digests, rmse


def check_sweep_csv(text: str, ranks: list[int], test_size: int) -> tuple[list[list[str]], list]:
    """Per rank: a finite RMSE and evaluated + dropped == the test size.

    Returns one problem list per requested rank and the RMSE of each rank found.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "rank,rmse,evaluated,dropped":
        return [["sweep output has no CSV header"] for _ in ranks], []
    rows = {}
    for line in lines[1:]:
        rank, rmse, evaluated, dropped = line.split(",")
        rows[int(rank)] = (float(rmse), int(evaluated), int(dropped))
    result = []
    for rank in ranks:
        if rank not in rows:
            result.append([f"rank {rank} missing"])
            continue
        rmse, evaluated, dropped = rows[rank]
        problems = []
        if not math.isfinite(rmse):
            problems.append(f"rank {rank}: rmse {rmse}")
        if evaluated + dropped != test_size:
            problems.append(f"rank {rank}: {evaluated} + {dropped} != test size {test_size}")
        result.append(problems)
    return result, [row[0] for row in rows.values()]
