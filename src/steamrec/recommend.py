"""Deterministic top-K item lists from a trained factor model.

``top_k`` scores the whole catalogue with ``row_dots``, the kernel
``predict`` uses, so every returned score is a ``predict`` value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .als import FactorModel, row_dots
from .ingest import InteractionTable


class Recommendation(NamedTuple):
    position: int
    item_index: int
    item_id: int
    item_name: str
    score: float

    def to_dict(self) -> dict:
        return {
            "position": self.position,
            "item_id": self.item_id,
            "item_name": self.item_name,
            "score": self.score,
        }


@dataclass
class UserRecommendations:
    user_id: str
    items: list[Recommendation]
    error: str | None = None

    def to_dict(self) -> dict:
        if self.error is not None:
            return {"user_id": self.user_id, "error": self.error}
        return {"user_id": self.user_id, "items": [rec.to_dict() for rec in self.items]}


def _check_shapes(model: FactorModel, table: InteractionTable) -> None:
    """A model serves only the table it was trained on: the counts must match."""
    if (model.num_users, model.num_items) != (table.num_users, table.num_items):
        raise ValueError(
            f"model has {model.num_users} users and {model.num_items} items, but the "
            f"interactions have {table.num_users} users and {table.num_items} items"
        )


def top_k(
    model: FactorModel,
    table: InteractionTable,
    user_index: int,
    k: int,
    exclude_seen: bool = True,
) -> list[Recommendation]:
    """The k highest-scoring items for a user, ties broken by item index.

    Scores are ``predict`` values, bit for bit; with ``exclude_seen`` the
    user's own interactions are removed from the candidate set, so a user
    who owns the whole catalog gets an empty list.  Raises ``ValueError``
    when the model's user or item count differs from the table's.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_shapes(model, table)
    if not 0 <= user_index < model.num_users:
        raise IndexError(f"user index {user_index} out of range")
    return _ranked(model, table, user_index, k, exclude_seen)


def _ranked(
    model: FactorModel, table: InteractionTable, user_index: int, k: int, exclude_seen: bool
) -> list[Recommendation]:
    """``top_k`` for arguments already checked."""
    negated = -row_dots(model.item_factors, model.user_factors[user_index])
    seen = table.seen_items(user_index) if exclude_seen else []
    negated[seen] = np.inf
    kth = np.partition(negated, k - 1)[k - 1] if k < len(negated) else np.inf
    if np.isfinite(kth):
        # The k-th best unseen score: seen items, at +inf, all fall past it.
        # Keep every item tied with it, then order by (-score, index) and cut.
        candidates = np.flatnonzero(negated <= kth)
        negated = negated[candidates]
    else:
        # A non-finite cut (fewer than k unseen items, or overflowed or NaN
        # scores) could tie with or sort among the seen items' +inf, so rank
        # the unseen items alone.
        unseen = np.ones(len(negated), dtype=bool)
        unseen[seen] = False
        candidates = np.flatnonzero(unseen)
        negated = negated[candidates]
        if k < len(candidates):
            kth = np.partition(negated, k - 1)[k - 1]
            keep = negated <= kth
            candidates, negated = candidates[keep], negated[keep]
    order = np.lexsort((candidates, negated))[:k]
    item_ids, item_names = table.index.item_ids, table.item_names
    return [
        Recommendation(pos, i, item_ids[i], item_names[i], score)
        for pos, (i, score) in enumerate(
            zip(candidates[order].tolist(), (-negated[order]).tolist()), start=1
        )
    ]


def batch_recommend(
    model: FactorModel,
    table: InteractionTable,
    user_ids: Sequence[str],
    k: int,
    exclude_seen: bool = True,
) -> list[UserRecommendations]:
    """Apply top_k per raw user id, preserving input order.

    Unknown ids produce a flagged entry without affecting the others.  Raises
    ``ValueError`` when the model's user or item count differs from the
    table's.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_shapes(model, table)
    results = []
    for user_id in user_ids:
        try:
            user_index = table.index.user_index(user_id)
        except KeyError:
            results.append(
                UserRecommendations(user_id=user_id, items=[], error="unknown user id")
            )
            continue
        results.append(
            UserRecommendations(
                user_id=user_id, items=_ranked(model, table, user_index, k, exclude_seen)
            )
        )
    return results
