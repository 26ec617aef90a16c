"""Derive 1-5 rating triples from interactions, sentiment, and recommend flags.

Three strategies: playtime-only bucketing against the per-item median,
playtime with a +-1 sentiment nudge, and playtime with a +-2 adjustment from
the explicit recommend flag.
"""

from __future__ import annotations

import logging
import re
from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .als import _triples
from .ingest import InteractionTable, Review, undecodable_line
from .sentiment import Lexicon, SentimentClass, classify, score

logger = logging.getLogger(__name__)

RATINGS_CSV_HEADER = ["user_index", "item_index", "rating"]
_CSV_CHUNK = 4096
_UNICODE_SPACE = re.compile(r"(?![\x00-\x7f])\s")  # whitespace that is not ASCII


class Strategy(str, Enum):
    PLAYTIME_ONLY = "playtime"
    PLAYTIME_SENTIMENT = "sentiment"
    PLAYTIME_RECOMMEND = "recommend"


class RatingTriple(namedtuple("RatingTriple", RATINGS_CSV_HEADER)):
    """One (user_index, item_index, rating) row with a 1..5 rating.

    Being a tuple, a list of them converts to an (N, 3) array with ``np.asarray``."""

    __slots__ = ()

    def __new__(cls, user_index: int, item_index: int, rating: int):
        _check_rating(rating)
        return super().__new__(cls, user_index, item_index, rating)

    @classmethod
    def _make(cls, iterable) -> RatingTriple:
        """Checked like the constructor; ``_replace`` goes through here too."""
        return cls(*iterable)


def _item_medians(items: np.ndarray, playtimes: np.ndarray, num_items: int) -> np.ndarray:
    """Median playtime per item index, NaN for an item without interactions.

    One sort by (item, playtime); each item's median is its segment's middle
    value, or for an even count ``(a + b) / 2`` of the two middle values, the
    arithmetic of ``statistics.median``.  Where ``a + b`` overflows, the
    median is ``a / 2 + b / 2`` instead of infinite.
    """
    ordered = playtimes[np.lexsort((playtimes, items))]
    counts = np.bincount(items, minlength=num_items)
    present = counts > 0
    starts = (np.cumsum(counts) - counts)[present]
    low = ordered[starts + (counts[present] - 1) // 2]
    high = ordered[starts + counts[present] // 2]
    with np.errstate(over="ignore"):
        mean = (low + high) / 2
    spilled = np.isinf(mean)  # two finite values whose sum overflows
    mean[spilled] = low[spilled] / 2 + high[spilled] / 2
    medians = np.full(num_items, np.nan)
    medians[present] = np.where(counts[present] % 2 == 1, low, mean)
    return medians


def playtime_rating(playtime: float, item_median: float) -> int:
    """Bucket a playtime against its item's median playtime.

    Upper bounds are inclusive: above the median rates 5, then (0.8m, m] -> 4,
    (0.5m, 0.8m] -> 3, (0.2m, 0.5m] -> 2, and at or below 0.2m -> 1.  A zero
    median rates 5 for any play at all, else 1.
    """
    if playtime < 0 or item_median < 0:
        raise ValueError("playtime and median must be non-negative")
    if item_median == 0:
        return 5 if playtime > 0 else 1
    if playtime > item_median:
        return 5
    if playtime > 0.8 * item_median:
        return 4
    if playtime > 0.5 * item_median:
        return 3
    if playtime > 0.2 * item_median:
        return 2
    return 1


def _check_rating(rating: int) -> None:
    if rating not in (1, 2, 3, 4, 5):
        raise ValueError(f"rating {rating} outside 1..5")


def adjust_with_sentiment(rating: int, label: SentimentClass | None) -> int:
    """Nudge a rating one step toward the review's sentiment, clamped to 1..5."""
    _check_rating(rating)
    if label is SentimentClass.POSITIVE:
        return min(rating + 1, 5)
    if label is SentimentClass.NEGATIVE:
        return max(rating - 1, 1)
    return rating


def adjust_with_recommendation(rating: int, recommended: bool | None) -> int:
    """Apply the explicit-flag adjustment: +2 below 4 when recommended, -2 at
    4 or 5 when explicitly not recommended; otherwise unchanged."""
    _check_rating(rating)
    if recommended is True and rating <= 3:
        return min(rating + 2, 5)
    if recommended is False and rating >= 4:
        return max(rating - 2, 1)
    return rating


def match_reviews(
    table: InteractionTable, reviews: Iterable[Review]
) -> tuple[dict[tuple[int, int], Review], int]:
    """Key reviews by (user_index, item_index); count the unmatchable ones.

    A review is unmatchable when its (user, item) pair has no interaction in
    the table.
    """
    index, num_items = table.index, table.num_items
    reviews = list(reviews)
    known = [r for r in reviews if index.has_user(r.user_id) and index.has_item(r.item_id)]
    keys = [index.user_index(r.user_id) * num_items + index.item_index(r.item_id) for r in known]
    found = np.isin(keys, table.users * num_items + table.items).tolist()
    matched = {divmod(key, num_items): r for key, r, ok in zip(keys, known, found) if ok}
    return matched, len(reviews) - sum(found)


def derive_array(
    table: InteractionTable,
    reviews: Iterable[Review] = (),
    lexicon: Lexicon | None = None,
    strategy: Strategy = Strategy.PLAYTIME_ONLY,
) -> np.ndarray:
    """(N, 3) int64 rows of (user_index, item_index, rating), in interaction order.

    The playtime bucket is always computed first; the sentiment strategy then
    applies the matching review's class (scored with ``lexicon``) and the
    recommend strategy the review's explicit flag.  Interactions without a
    review are left at their playtime rating; reviews without a matching
    interaction are skipped with a counted warning.  Each rating equals
    :func:`playtime_rating` followed by :func:`adjust_with_sentiment` or
    :func:`adjust_with_recommendation`, computed over whole columns.
    """
    strategy = Strategy(strategy)
    if strategy is Strategy.PLAYTIME_SENTIMENT and lexicon is None:
        raise ValueError("sentiment strategy needs a lexicon")
    users, items, playtimes = table.users, table.items, table.playtime
    medians = _item_medians(items, playtimes, table.num_items)[items]
    # One plus the number of thresholds exceeded is the bucket of
    # playtime_rating; a zero median gives 5 for any play and 1 for none.
    rating = 1 + (
        (playtimes > 0.2 * medians).astype(np.int64)
        + (playtimes > 0.5 * medians)
        + (playtimes > 0.8 * medians)
        + (playtimes > medians)
    )
    if strategy is not Strategy.PLAYTIME_ONLY:
        matched, skipped = match_reviews(table, reviews)
        if skipped:
            logger.warning("skipped %d review(s) with no matching interaction", skipped)
        keys = users * table.num_items + items
        review_keys = np.fromiter(
            (u * table.num_items + i for u, i in matched), np.int64, len(matched)
        )
        order = np.argsort(review_keys)
        found = np.flatnonzero(np.isin(keys, review_keys))
        review_of = order[np.searchsorted(review_keys, keys[found], sorter=order)]
        reviewed = list(matched.values())
        if strategy is Strategy.PLAYTIME_SENTIMENT:
            step = {SentimentClass.POSITIVE: 1, SentimentClass.NEGATIVE: -1}
            delta = np.array(
                [step.get(classify(score(review.text, lexicon)), 0) for review in reviewed],
                dtype=np.int64,
            )
            rating[found] = np.clip(rating[found] + delta[review_of], 1, 5)
        else:
            flags = [review.recommended for review in reviewed]
            up = np.array([flag is True for flag in flags], dtype=bool)[review_of]
            down = np.array([flag is False for flag in flags], dtype=bool)[review_of]
            current = rating[found]
            rating[found] = current + 2 * (up & (current <= 3)) - 2 * (down & (current >= 4))
    return np.column_stack([users, items, rating])


def derive(
    table: InteractionTable,
    reviews: Iterable[Review] = (),
    lexicon: Lexicon | None = None,
    strategy: Strategy = Strategy.PLAYTIME_ONLY,
) -> list[RatingTriple]:
    """One RatingTriple per interaction, in interaction order: :func:`derive_array`
    as a list."""
    return [
        RatingTriple(u, i, r) for u, i, r in derive_array(table, reviews, lexicon, strategy).tolist()
    ]


def write_ratings_csv(triples, path: str | Path) -> None:
    """Write ``ratings.csv`` from an (N, 3) array-like of integer rows.

    A row that is not a triple is a ValueError, raised before the file is opened.
    """
    triples = _triples(triples)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(RATINGS_CSV_HEADER) + "\n")
        for lo in range(0, len(triples), _CSV_CHUNK):
            chunk = triples[lo : lo + _CSV_CHUNK]
            handle.write(("%d,%d,%d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_ratings_array(path: str | Path) -> np.ndarray:
    """Read ``ratings.csv`` into an (N, 3) int64 array of (user, item, rating).

    Each row is three comma-separated ASCII decimal integers (see
    :func:`_int_rows`).  Raises ``ValueError`` for a wrong header, and naming
    the line for a row that is not three integers, has a negative index or a
    rating outside 1..5.
    """
    try:
        # Universal newlines read \r and \r\n as \n, so lines split at \n alone
        # are the lines iterating the file gives, as the messages count them.
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        lineno, problem = undecodable_line(path, exc)
        raise ValueError(f"{path}: line {lineno}: {problem}") from None
    all_ascii, lines = text.isascii(), text.split("\n")
    del text  # the lines hold it all from here
    if lines[-1] == "":
        lines.pop()  # the last line's end, or an empty file
    if not lines or lines[0].split(",") != RATINGS_CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(RATINGS_CSV_HEADER)}")
    body = lines[1:]
    if not body:
        return np.empty((0, 3), dtype=np.int64)
    rows = _int_rows(body, all_ascii)
    if rows is None:
        raise _bad_row(path, body)
    bad = np.flatnonzero((rows[:, :2] < 0).any(axis=1) | (rows[:, 2] < 1) | (rows[:, 2] > 5))
    if bad.size:
        user, item, rating = rows[bad[0]].tolist()
        problem = (
            f"user index {user} is negative" if user < 0
            else f"item index {item} is negative" if item < 0
            else f"rating {rating} outside 1..5"
        )
        raise ValueError(f"{path}: line {bad[0] + 2}: {problem}")
    return rows


def _int_rows(lines: list[str], all_ascii: bool) -> np.ndarray | None:
    """``lines`` as an (N, 3) int64 array, or None when one of them is not
    three comma-separated integers.

    An integer is an optional sign and ASCII digits, with any whitespace
    ``str.strip`` removes around it; ``all_ascii`` says whether every line is
    ASCII.  ``np.loadtxt`` parses them in one pass, but it is given ASCII only:
    it misreads some other characters as digits (``'1,2,\\u01fe'`` reads as
    ``[1, 2, 462]``).  So other whitespace becomes a space first, and a line
    still not ASCII is refused.  ``loadtxt`` skips empty lines, and the shape
    check refuses them.
    """
    if not all_ascii:
        lines = [_UNICODE_SPACE.sub(" ", line) for line in lines]
        if not all(line.isascii() for line in lines):
            return None
    if not any(lines):  # only empty lines, for which loadtxt would warn of no data
        return None
    try:
        rows = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (len(lines), 3) else None


def _bad_row(path: str | Path, body: list[str]) -> ValueError:
    """The error naming the first line of ``body`` that :func:`_int_rows` refuses.

    A chunk of lines parses only if each of its lines does, so whole chunks
    are parsed until one fails, then that chunk's lines one at a time.
    """
    for lo in range(0, len(body), _CSV_CHUNK):
        chunk = body[lo : lo + _CSV_CHUNK]
        if _int_rows(chunk, False) is None:
            for lineno, line in enumerate(chunk, start=lo + 2):
                if _int_rows([line], False) is None:
                    return ValueError(f"{path}: line {lineno}: {line!r} is not three integers")
    return ValueError(f"{path}: rows are not three integers each")
