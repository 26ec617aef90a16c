"""Train/test splitting, RMSE evaluation, rank sweeps, and dataset statistics."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .als import FactorModel, TrainConfig, _columns, _fit, _grouped, _squared_error, _triples
from .errors import ConfigError, EvaluationError
from .ingest import InteractionTable, Review
from .sentiment import ClassCounts, Lexicon, bundled_lexicon, class_counts

TOP_N = 10


@dataclass(frozen=True)
class SplitConfig:
    fraction: float = 0.8
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ConfigError(f"train fraction must be in (0, 1), got {self.fraction}")
        if self.seed < 0:
            raise ConfigError(f"split seed must be non-negative, got {self.seed}")


@dataclass
class EvalReport:
    rmse: float
    evaluated: int
    dropped: int
    strategy: str
    rank: int
    regularization: float
    cold_start_policy: str = "drop"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def split(ratings: Sequence, config: SplitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle, then cut at floor(fraction * N).

    Returns the train and test rows as arrays, whatever array-like of rows
    came in; a row that is not a triple is a ValueError.  Both sides must be
    nonempty; a fraction that empties one side is a ConfigError.  The same
    seed always produces the same partition.
    """
    rows = _triples(ratings)
    train, test = _partition(len(rows), config)
    return rows[train], rows[test]


def _partition(n: int, config: SplitConfig) -> tuple[np.ndarray, np.ndarray]:
    """The positions of ``split``'s train and test rows among ``n`` rows."""
    if n < 2:
        raise ConfigError("need at least 2 ratings to split")
    cut = math.floor(config.fraction * n)
    if cut == 0 or cut == n:
        raise ConfigError(
            f"fraction {config.fraction} leaves an empty side for {n} ratings"
        )
    perm = np.random.default_rng(config.seed).permutation(n)
    return perm[:cut], perm[cut:]


def rmse(
    model: FactorModel,
    test: Sequence,
    train_ratings: Sequence,
    strategy: str = "",
) -> EvalReport:
    """RMSE over test triples whose user and item both appeared in training.

    Cold-start triples are dropped and counted; if everything is dropped the
    evaluation fails.
    """
    return _WarmTest(_columns(test), *_columns(train_ratings)[:2]).report(model, strategy)


class _WarmTest:
    """The test triples whose user and item both appear in training, and the
    number of the others: the part of ``rmse`` that the model does not change.
    ``test`` is ``_columns`` output."""

    def __init__(self, test, train_users: np.ndarray, train_items: np.ndarray):
        test_users, test_items, test_values = test
        warm = np.isin(test_users, train_users) & np.isin(test_items, train_items)
        if not warm.any():
            raise EvaluationError("every test triple was cold (unseen user or item)")
        self.columns = test_users[warm], test_items[warm], test_values[warm]
        self.evaluated, self.dropped = int(warm.sum()), int((~warm).sum())

    def report(self, model: FactorModel, strategy: str) -> EvalReport:
        squared = _squared_error(model.user_factors, model.item_factors, self.columns)
        return EvalReport(
            rmse=float(np.sqrt(squared / self.evaluated)),
            evaluated=self.evaluated,
            dropped=self.dropped,
            strategy=strategy,
            rank=model.rank,
            regularization=model.regularization,
        )


def _held_out(ratings: Sequence, dims: tuple[int, int] | None, configs: list[TrainConfig],
              split_config: SplitConfig, strategy: str) -> list[EvalReport]:
    """Convert ``ratings`` once, split its columns, group the train side and find
    the warm test triples once, then fit each config on the train side and report it.

    ``dims`` is (num_users, num_items), or None for one past each largest index.
    """
    columns = _columns(ratings)
    num_users, num_items = dims or (int(columns[0].max()) + 1, int(columns[1].max()) + 1)
    train, test = _partition(len(columns[2]), split_config)
    by_user, by_item = _grouped([column[train] for column in columns], num_users, num_items)
    seen = (np.flatnonzero(np.diff(rows.indptr)) for rows in (by_user, by_item))
    warm = _WarmTest([column[test] for column in columns], *seen)
    del columns, train, test  # the fits need only the grouping and the warm triples
    return [warm.report(_fit(by_user, by_item, config), strategy) for config in configs]


def evaluate(
    ratings: Sequence,
    num_users: int,
    num_items: int,
    train_config: TrainConfig,
    split_config: SplitConfig,
    strategy: str = "",
) -> EvalReport:
    """Split, train on the train side, and report held-out RMSE.

    The model is the one ``train`` gives on the train side, bit for bit.
    """
    return _held_out(ratings, (num_users, num_items), [train_config], split_config, strategy)[0]


def sweep(
    ratings: Sequence,
    ranks: Sequence[int],
    train_config: TrainConfig,
    split_config: SplitConfig,
    strategy: str = "",
) -> list[EvalReport]:
    """One evaluation per rank, reusing the same split, its grouping and its
    warm test triples for every rank.  Every rank's config is checked before
    the split."""
    if not ranks:
        raise ConfigError("ranks must be nonempty")
    configs = [dataclasses.replace(train_config, rank=rank) for rank in ranks]
    return _held_out(ratings, None, configs, split_config, strategy)


def sweep_csv(reports: Iterable[EvalReport]) -> str:
    lines = ["rank,rmse,evaluated,dropped"]
    for report in reports:
        lines.append(f"{report.rank},{report.rmse},{report.evaluated},{report.dropped}")
    return "\n".join(lines) + "\n"


@dataclass
class DatasetStats:
    num_interactions: int
    num_users: int
    num_items: int
    num_reviews: int
    sparsity: float
    total_playtime: float
    avg_playtime_per_user: float
    avg_playtime_per_item: float
    top_items: list[tuple[int, str, float]]
    top_users: list[tuple[str, float]]
    sentiment: ClassCounts


def stats(
    table: InteractionTable,
    reviews: Sequence[Review] = (),
    lexicon: Lexicon | None = None,
) -> DatasetStats:
    """Dataset report: counts, sparsity, playtime totals, sentiment classes.

    Average playtime per user/item is total playtime divided by the user/item
    count; top lists rank by total playtime with index order breaking ties.
    """
    if lexicon is None:
        lexicon = bundled_lexicon()
    # bincount adds each index's weights in interaction order, as a Python
    # sum over the user's or item's interactions would.
    user_totals = np.bincount(table.users, weights=table.playtime, minlength=table.num_users)
    item_totals = np.bincount(table.items, weights=table.playtime, minlength=table.num_items)
    total = float(sum(user_totals.tolist()))

    top_items = [
        (table.index.item_id(i), table.item_names[i], float(item_totals[i]))
        for i in np.argsort(-item_totals, kind="stable")[:TOP_N].tolist()
    ]
    top_users = [
        (table.index.user_id(u), float(user_totals[u]))
        for u in np.argsort(-user_totals, kind="stable")[:TOP_N].tolist()
    ]
    return DatasetStats(
        num_interactions=len(table.users),
        num_users=table.num_users,
        num_items=table.num_items,
        num_reviews=len(reviews),
        sparsity=table.sparsity,
        total_playtime=total,
        avg_playtime_per_user=total / table.num_users if table.num_users else 0.0,
        avg_playtime_per_item=total / table.num_items if table.num_items else 0.0,
        top_items=top_items,
        top_users=top_users,
        sentiment=class_counts((r.text for r in reviews), lexicon),
    )


def format_stats(report: DatasetStats) -> str:
    lines = [
        f"interactions:          {report.num_interactions}",
        f"users:                 {report.num_users}",
        f"items:                 {report.num_items}",
        f"reviews:               {report.num_reviews}",
        f"sparsity:              {report.sparsity:.6f}",
        f"total playtime (min):  {report.total_playtime:.0f}",
        f"avg playtime per user: {report.avg_playtime_per_user:.1f}",
        f"avg playtime per item: {report.avg_playtime_per_item:.1f}",
        "top items by total playtime:",
    ]
    for item_id, name, minutes in report.top_items:
        lines.append(f"  {item_id:>10}  {minutes:>12.0f}  {name}")
    lines.append("top users by total playtime:")
    for user_id, minutes in report.top_users:
        lines.append(f"  {user_id:>20}  {minutes:>12.0f}")
    lines.append(
        "review sentiment:      "
        f"{report.sentiment.positive} positive / {report.sentiment.neutral} neutral / "
        f"{report.sentiment.negative} negative"
    )
    return "\n".join(lines) + "\n"
