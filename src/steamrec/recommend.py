"""Deterministic top-K item lists from a trained factor model.

``top_k`` scores in two passes.  One matrix-vector product ranks the whole
catalogue approximately; every item within a proven error bound of the
k-th best approximate score is then rescored with ``row_dots``, the kernel
``predict`` uses, and only those exact scores are ranked and returned.  The
approximate pass decides which items are rescored, never a score or an order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .als import FactorModel, row_dots
from .ingest import InteractionTable

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# Bounds the absolute error of a product that underflows to a subnormal.
_TINY = np.finfo(np.float64).tiny
# Below this, no product or partial sum of a score can overflow.
_SCALE_MAX = np.finfo(np.float64).max / 4


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
    user, items = model.user_factors[user_index], model.item_factors
    seen = table.seen_items(user_index) if exclude_seen else np.empty(0, np.intp)
    candidates = _candidates(user, items, seen, k)
    negated = -row_dots(items[candidates], user)
    if k < len(candidates):
        # Keep every candidate tied with the k-th best, then order by
        # (-score, index) and cut.
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


def _candidates(user: np.ndarray, items: np.ndarray, seen: np.ndarray, k: int) -> np.ndarray:
    """Increasing indices of the unseen items that ``row_dots`` must rescore.

    They include every unseen item whose ``row_dots`` score is at least the
    k-th best, so ranking their exact scores gives the exact top k: an item
    whose ``items @ user`` value is more than ``_gemv_tolerance`` below the
    k-th best such value cannot be among them.  When that cut is not finite
    (factors near overflow or not finite, or fewer than k unseen items),
    every unseen item is returned.
    """
    approx = items @ user
    approx[seen] = -np.inf
    n = len(approx)
    if k < n:
        cut = np.partition(approx, n - k)[n - k] - _gemv_tolerance(user, items)
        if np.isfinite(cut):
            return np.flatnonzero(approx >= cut)
    return np.delete(np.arange(n), seen)


def _gemv_tolerance(user: np.ndarray, items: np.ndarray) -> float:
    """How far below the k-th best gemv value an exact top-k item can fall; inf
    when a product or partial sum could overflow.

    Any order of summing r products, with or without fused multiply-adds, is
    within gamma_r * sum_j |v_j u_j| + r * tiny of the exact dot product,
    where gamma_r = r u / (1 - r u), u is the unit roundoff and tiny bounds
    the error of a product that underflows (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 3.1).  So gemv and ``row_dots``
    differ by at most delta = 2 (gamma_r ||u||_1 max|V| + r * tiny).  An
    exact top-k item scores at least the k-th best exact score, which is at
    least the k-th best gemv value minus delta, so its own gemv value is at
    least that value minus 2 delta.  The result is 4 delta: a factor 2 covers
    the rounding of the bound itself.
    """
    r = len(user)
    scale = float(np.abs(user).sum()) * float(np.abs(items).max(initial=0.0))
    if not scale <= _SCALE_MAX:
        return np.inf
    gamma = r * _UNIT_ROUNDOFF / (1 - r * _UNIT_ROUNDOFF)
    return 8 * (gamma * scale + r * _TINY)


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
        if not table.index.has_user(user_id):
            results.append(
                UserRecommendations(user_id=user_id, items=[], error="unknown user id")
            )
            continue
        user_index = table.index.user_index(user_id)
        results.append(
            UserRecommendations(
                user_id=user_id,
                items=top_k(model, table, user_index, k, exclude_seen=exclude_seen),
            )
        )
    return results
