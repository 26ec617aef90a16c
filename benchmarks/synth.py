"""Seeded generator of Steam-shaped raw dumps.

Writes a user-items dump and a user-reviews dump in the Python-literal line
format of the UCSD Australian Steam files (single quotes, ``None``/``True``,
string ``item_id``s).  The shape follows that dataset at a smaller scale:

- Zipf item popularity, so a few items carry a large share of interactions;
- a log-normal (heavy-tailed) number of owned games per user, scaled so the
  dump holds exactly ``interactions`` distinct (user, item) pairs;
- log-normal playtime around a per-item scale, with about 10% zeros;
- a planted rank-4 user x item affinity that drives playtime, review text and
  recommend flags, so held-out RMSE responds to the quality of the solver;
- reviews on about 1% of pairs, a few of them on games the user does not own;
- a few duplicate (user, item) entries and ``None`` or missing
  ``playtime_2weeks`` fields.

Every line is one the package's readers accept.  The malformed lines real
dumps can hold are left out on purpose: ``parse_user_items`` stops at the
first bad line, so one of them would make every run of the benchmark fail.

Run ``python3 benchmarks/synth.py --seed 1 --out-dir DIR`` to write a dump
and print its shape.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

USERS = 2_000
ITEMS = 1_000
INTERACTIONS = 30_000
PLANTED_RANK = 4
ZIPF_EXPONENT = 1.0
REVIEW_SHARE = 0.01
UNMATCHED_REVIEW_SHARE = 0.05
ZERO_PLAYTIME_SHARE = 0.10
DUPLICATE_SHARE = 0.005

POSITIVE_WORDS = ("great", "amazing", "fun", "awesome", "beautiful", "love",
                  "masterpiece", "excellent", "addictive", "enjoy", "good")
NEGATIVE_WORDS = ("boring", "bad", "awful", "broken", "buggy", "waste", "hate",
                  "worst", "disappointing", "refund", "mediocre")
FILLER_WORDS = ("the", "game", "story", "controls", "maps", "soundtrack", "levels",
                "players", "hours", "update", "price", "it", "with", "friends")
POSTED = ("Posted November 5, 2011.", "Posted July 15, 2015.", "Posted March 2.")


def user_id(u: int) -> str:
    """Raw id of generated user ``u``: Steam-id digits or a vanity name."""
    return f"7656119{800000000 + 37 * u:010d}" if u % 3 else f"player_{u:05d}"


def _user_degrees(rng: np.random.Generator, users: int, items: int, total: int) -> np.ndarray:
    """Log-normal degrees in [1, items // 2] that sum to exactly ``total``."""
    cap = items // 2
    raw = rng.lognormal(mean=0.0, sigma=1.1, size=users)
    degrees = np.clip(np.floor(raw * total / raw.sum()), 1, cap).astype(np.int64)
    while (gap := total - int(degrees.sum())) != 0:
        step = 1 if gap > 0 else -1
        room = degrees < cap if step > 0 else degrees > 1
        eligible = np.flatnonzero(room)
        picks = rng.choice(eligible, size=min(abs(gap), len(eligible)), replace=False)
        degrees[picks] += step
    return degrees


def _review_text(rng: np.random.Generator, affinity: float) -> str:
    if affinity > 0.4:
        pool, lead = POSITIVE_WORDS, ("really", "very", "so", "")
    elif affinity < -0.4:
        pool, lead = NEGATIVE_WORDS, ("really", "not even", "so", "")
    else:
        pool, lead = FILLER_WORDS, ("",)
    words = [str(w) for w in rng.choice(FILLER_WORDS, size=rng.integers(3, 9))]
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(words) + 1))
        phrase = f"{rng.choice(lead)} {rng.choice(pool)}".strip()
        words.insert(pos, phrase)
    text = " ".join(words).capitalize() + ("!" if affinity > 0.4 else ".")
    return text + " Don't buy." if affinity < -1.2 else text


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")


def generate(seed: int, out_dir: str | Path) -> dict:
    """Write ``user_items.json`` and ``user_reviews.json`` under ``out_dir``.

    Returns the generated shape.  The same seed gives byte-identical files.
    """
    users, items, interactions = USERS, ITEMS, INTERACTIONS
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    item_ids = np.sort(rng.choice(np.arange(10, 900_000, 10), size=items, replace=False))
    log_pop = -ZIPF_EXPONENT * np.log1p(rng.permutation(items)).astype(np.float64)
    item_scale = rng.lognormal(mean=5.0, sigma=1.0, size=items)
    names = [
        f"Tom's Quest {i}" if i % 97 == 0 else f"Café Racer {i}" if i % 89 == 0 else f"Game {i}"
        for i in range(items)
    ]
    user_f = rng.normal(size=(users, PLANTED_RANK))
    item_f = rng.normal(size=(items, PLANTED_RANK))
    degrees = _user_degrees(rng, users, items, interactions)
    user_ids = [user_id(u) for u in range(users)]

    item_records: list[dict] = []
    review_records: list[dict] = []
    duplicates = reviews = unmatched = 0
    item_counts = np.zeros(items, dtype=np.int64)
    for u in range(users):
        d = int(degrees[u])
        keys = log_pop + rng.gumbel(size=items)
        owned = np.argpartition(-keys, d - 1)[:d]
        owned = owned[np.argsort(-keys[owned], kind="stable")]
        item_counts[owned] += 1
        affinity = item_f[owned] @ user_f[u] / np.sqrt(PLANTED_RANK)
        minutes = np.rint(
            item_scale[owned] * np.exp(0.9 * affinity + 0.5 * rng.normal(size=d))
        ).astype(np.int64)
        minutes[rng.random(d) < ZERO_PLAYTIME_SHARE] = 0
        recent_draw = rng.random(d)
        entries = []
        for j, i in enumerate(owned):
            entry = {
                "item_id": str(item_ids[i]),
                "item_name": names[i],
                "playtime_forever": int(minutes[j]),
            }
            if recent_draw[j] < 0.80:
                entry["playtime_2weeks"] = 0
            elif recent_draw[j] < 0.90:
                entry["playtime_2weeks"] = int(minutes[j] // 7)
            elif recent_draw[j] < 0.97:
                entry["playtime_2weeks"] = None
            entries.append(entry)
        for j in np.flatnonzero(rng.random(d) < DUPLICATE_SHARE):
            dup = dict(entries[j], playtime_forever=int(minutes[j] // 2))
            entries.insert(int(rng.integers(0, len(entries) + 1)), dup)
            duplicates += 1
        item_records.append({
            "user_id": user_ids[u],
            "items_count": len(entries),
            "steam_id": user_ids[u],
            "user_url": f"http://steamcommunity.com/id/{user_ids[u]}",
            "items": entries,
        })

        user_reviews = []
        for j in np.flatnonzero(rng.random(d) < REVIEW_SHARE):
            i = owned[j]
            if rng.random() < UNMATCHED_REVIEW_SHARE:
                i = int(rng.integers(0, items))
                if i in owned:
                    continue
                unmatched += 1
            aff = float(item_f[i] @ user_f[u] / np.sqrt(PLANTED_RANK))
            user_reviews.append({
                "funny": "" if rng.random() < 0.8 else f"{int(rng.integers(1, 40))} people laughed",
                "posted": str(rng.choice(POSTED)),
                "last_edited": "",
                "item_id": str(item_ids[i]),
                "helpful": "No ratings yet",
                "recommend": bool(aff + 0.5 * rng.normal() > -0.3),
                "review": _review_text(rng, aff),
            })
        if user_reviews:
            reviews += len(user_reviews)
            review_records.append({
                "user_id": user_ids[u],
                "user_url": f"http://steamcommunity.com/id/{user_ids[u]}",
                "reviews": user_reviews,
            })

    for name, records in (("user_items", item_records), ("user_reviews", review_records)):
        _write_lines(out / f"{name}.json", map(repr, records))
    top = np.sort(item_counts)[::-1][: max(1, items // 100)]
    return {
        "users": users,
        "items": int(np.count_nonzero(item_counts)),
        "interactions": int(degrees.sum()),
        "item_entries": int(degrees.sum()) + duplicates,
        "duplicates_dropped": duplicates,
        "reviews": reviews,
        "reviews_unmatched": unmatched,
        "user_degree_median": float(np.median(degrees)),
        "user_degree_max": int(degrees.max()),
        "top1pct_item_share": float(top.sum() / item_counts.sum()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.seed, args.out_dir), indent=2))


if __name__ == "__main__":
    main()
