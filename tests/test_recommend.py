import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steamrec import batch_recommend, top_k
from steamrec.als import FactorModel, predict
from steamrec.recommend import Recommendation

from .conftest import make_interaction, table_from_playtimes
from steamrec import build_table


def _catalog_table():
    # 3 users, 4 items; user "a" has seen items 0 and 1 (ids 10, 20)
    interactions = [
        make_interaction(user="a", item=10, name="Alpha", forever=50),
        make_interaction(user="a", item=20, name="Beta", forever=10),
        make_interaction(user="b", item=30, name="Gamma", forever=70),
        make_interaction(user="c", item=40, name="Delta", forever=5),
    ]
    return build_table(interactions)


def _model(user_rows, item_rows):
    return FactorModel(
        user_factors=np.array(user_rows, dtype=float),
        item_factors=np.array(item_rows, dtype=float),
        rank=len(user_rows[0]),
        regularization=0.0,
    )


def test_top_k_orders_by_score_and_excludes_seen():
    table = _catalog_table()
    model = _model([[1.0], [1.0], [1.0]], [[4.0], [3.0], [2.0], [1.0]])
    recs = top_k(model, table, user_index=0, k=5)
    # items 0 and 1 are seen by user 0; 2 and 3 remain, ranked by score
    assert [r.item_index for r in recs] == [2, 3]
    assert [r.position for r in recs] == [1, 2]
    assert [r.item_id for r in recs] == [30, 40]
    assert [r.item_name for r in recs] == ["Gamma", "Delta"]
    assert recs[0].score >= recs[1].score


def test_top_k_all_seen_gives_empty_list():
    interactions = [
        make_interaction(user="a", item=10, forever=1),
        make_interaction(user="a", item=20, forever=2),
    ]
    table = build_table(interactions)
    model = _model([[1.0]], [[1.0], [2.0]])
    assert top_k(model, table, 0, 5) == []


def test_top_k_larger_than_catalog_returns_all_unseen():
    table = _catalog_table()
    model = _model([[1.0], [1.0], [1.0]], [[4.0], [3.0], [2.0], [1.0]])
    recs = top_k(model, table, user_index=1, k=100)
    assert len(recs) == 3  # user "b" has seen one of four items
    assert [r.position for r in recs] == [1, 2, 3]


def test_top_k_includes_seen_when_asked():
    table = _catalog_table()
    model = _model([[1.0], [1.0], [1.0]], [[4.0], [3.0], [2.0], [1.0]])
    recs = top_k(model, table, 0, 10, exclude_seen=False)
    assert [r.item_index for r in recs] == [0, 1, 2, 3]


def test_equal_scores_break_ties_by_item_index():
    table = _catalog_table()
    # items 1 and 2 have bit-identical factor rows -> bit-equal scores
    model = _model(
        [[1.0, 2.0], [1.0, 0.0], [0.5, 0.5]],
        [[0.0, 0.1], [0.3, 0.7], [0.3, 0.7], [0.2, 0.2]],
    )
    recs = top_k(model, table, user_index=1, k=4, exclude_seen=False)
    scores = {r.item_index: r.score for r in recs}
    assert scores[1] == scores[2]
    order = [r.item_index for r in recs]
    assert order.index(1) < order.index(2)


def test_scores_match_predict_exactly():
    table = _catalog_table()
    rng = np.random.default_rng(3)
    model = _model(rng.random((3, 4)), rng.random((4, 4)))
    for rec in top_k(model, table, 2, 4):
        assert rec.score == predict(model, 2, rec.item_index)


def test_top_k_is_repeatable():
    table = _catalog_table()
    rng = np.random.default_rng(5)
    model = _model(rng.random((3, 2)), rng.random((4, 2)))
    assert top_k(model, table, 0, 4) == top_k(model, table, 0, 4)


def test_top_k_validates_inputs():
    table = _catalog_table()
    model = _model([[1.0], [1.0], [1.0]], [[1.0], [1.0], [1.0], [1.0]])
    with pytest.raises(ValueError):
        top_k(model, table, 0, 0)
    with pytest.raises(IndexError):
        top_k(model, table, 3, 1)


def test_batch_preserves_input_order_and_flags_unknown():
    table = _catalog_table()
    model = _model([[1.0], [1.0], [1.0]], [[4.0], [3.0], [2.0], [1.0]])
    results = batch_recommend(model, table, ["c", "ghost", "a"], k=2)
    assert [r.user_id for r in results] == ["c", "ghost", "a"]
    assert results[1].error == "unknown user id"
    assert results[1].items == []
    assert results[0].error is None
    assert len(results[0].items) == 2
    assert {r.item_index for r in results[2].items} <= {2, 3}


def test_batch_empty_user_list():
    table = _catalog_table()
    model = _model([[1.0], [1.0], [1.0]], [[1.0], [1.0], [1.0], [1.0]])
    assert batch_recommend(model, table, [], k=5) == []


def test_recommendations_exclude_all_seen_items():
    rng = np.random.default_rng(9)
    playtimes = {
        item: [(f"u{u}", int(rng.integers(1, 100))) for u in rng.choice(8, 4, replace=False)]
        for item in range(12)
    }
    table = table_from_playtimes(playtimes)
    model = _model(rng.random((table.num_users, 3)), rng.random((table.num_items, 3)))
    for u in range(table.num_users):
        seen = table.seen_items(u)
        for rec in top_k(model, table, u, 5):
            assert rec.item_index not in seen


def test_to_dict_shapes():
    table = _catalog_table()
    model = _model([[1.0], [1.0], [1.0]], [[4.0], [3.0], [2.0], [1.0]])
    results = batch_recommend(model, table, ["a", "ghost"], k=1)
    ok = results[0].to_dict()
    assert set(ok) == {"user_id", "items"}
    assert set(ok["items"][0]) == {"position", "item_id", "item_name", "score"}
    flagged = results[1].to_dict()
    assert set(flagged) == {"user_id", "error"}


def _oracle_top_k(model, table, user_index, k, exclude_seen):
    """Brute force: every candidate scored by predict, sorted by (-score, index)."""
    seen = table.seen_items(user_index) if exclude_seen else set()
    scored = sorted(
        (-predict(model, user_index, i), i) for i in range(model.num_items) if i not in seen
    )
    return [(i, -neg) for neg, i in scored[:k]]


@pytest.mark.parametrize("exclude_seen", [True, False])
def test_top_k_matches_oracle_with_ties_at_the_cut(exclude_seen):
    rng = np.random.default_rng(11)
    playtimes = {
        item: [(f"u{u}", 1 + int(u)) for u in rng.choice(6, 3, replace=False)]
        for item in range(30)
    }
    table = table_from_playtimes(playtimes)
    # three distinct item rows repeated, so every score is shared by ~10 items
    # and ties straddle every cut position
    distinct = rng.random((3, 4))
    item_rows = distinct[rng.integers(0, 3, size=table.num_items)]
    model = _model(rng.random((table.num_users, 4)), item_rows)
    for u in range(table.num_users):
        candidates = table.num_items - (len(table.seen_items(u)) if exclude_seen else 0)
        for k in (1, 4, 7, 12, candidates, candidates + 5):
            got = [(r.item_index, r.score) for r in top_k(model, table, u, k, exclude_seen)]
            assert got == _oracle_top_k(model, table, u, k, exclude_seen)


def test_top_k_with_a_cut_at_minus_infinity():
    # 1e200 * 1e200 overflows: items 0-2 score +inf, so the negated cut is -inf,
    # and user 0 has seen two of the +inf items
    table = _catalog_table()
    model = _model([[1e200], [1e200], [1e200]], [[1e200], [1e200], [1e200], [1.0]])
    assert [(r.item_index, r.score) for r in top_k(model, table, 0, 1)] == [(2, np.inf)]
    assert [(r.item_index, r.score) for r in top_k(model, table, 0, 2)] == [
        (2, np.inf), (3, 1e200)]
    for u, exclude_seen in ((0, True), (0, False), (1, True)):
        for k in (1, 2, 3, 4, 5):
            got = [(r.item_index, r.score) for r in top_k(model, table, u, k, exclude_seen)]
            assert got == _oracle_top_k(model, table, u, k, exclude_seen)


def test_model_and_table_shapes_must_match():
    table = _catalog_table()  # 3 users, 4 items
    for users, items in ((3, 5), (3, 3), (2, 4), (4, 4)):
        model = _model(np.ones((users, 1)), np.ones((items, 1)))
        with pytest.raises(ValueError, match="items"):
            top_k(model, table, 0, 2)
        with pytest.raises(ValueError, match="items"):
            batch_recommend(model, table, ["a"], k=2)


# Factor magnitudes: 1e-160 squared gives subnormal products, 1e154 squared
# sums past the largest float, and 1e200 squared overflows every product.
_SCALES = (1.0, 1e-160, 1e154, 1e200)


@st.composite
def _adversarial_catalogs(draw):
    """A table and a model whose scores crowd the cut of the top k.

    Item rows are a few distinct rows, repeated or nudged by one or two ulps
    in one coordinate, so many scores tie or sit ulps apart.  The interaction
    list repeats some (user, item) pairs, so seen entries repeat.  Where
    products can overflow, every product of a score has one sign, which keeps
    scores free of NaN.
    """
    num_users = draw(st.integers(1, 4))
    num_items = draw(st.integers(1, 30))
    rank = draw(st.sampled_from([1, 2, 3, 8, 10, 13, 40]))
    user_scale, item_scale = draw(st.sampled_from(_SCALES)), draw(st.sampled_from(_SCALES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    distinct = rng.standard_normal((draw(st.integers(1, 4)), rank))
    items = distinct[rng.integers(0, len(distinct), num_items)]
    for row in items[rng.random(num_items) < 0.5]:
        j = rng.integers(rank)
        for _ in range(rng.integers(1, 3)):
            row[j] = np.nextafter(row[j], np.inf if rng.random() < 0.5 else -np.inf)
    users = rng.standard_normal((num_users, rank))
    if user_scale * item_scale > 1e300:
        items = np.abs(items)
        users = np.abs(users) * rng.choice([-1.0, 1.0], size=(num_users, 1))

    order = rng.permutation(num_items)
    pairs = [(j % num_users, int(order[j % num_items])) for j in range(max(num_users, num_items))]
    extra = rng.integers(0, [num_users, num_items], size=(3 * num_items, 2))
    pairs += [(int(u), int(i)) for u, i in extra if rng.random() < 0.3]
    pairs += [pairs[int(j)] for j in rng.integers(0, len(pairs), draw(st.integers(0, 5)))]
    table = build_table(
        [make_interaction(user=f"u{u}", item=i, name=f"game-{i}", forever=1) for u, i in pairs]
    )
    model = _model(users * user_scale, items * item_scale)
    return model, table


@settings(max_examples=300, deadline=None)
@given(_adversarial_catalogs(), st.booleans(), st.booleans())
def test_top_k_matches_oracle_on_adversarial_factors(catalog, exclude_seen, fortran):
    model, table = catalog
    if fortran:
        model.user_factors = np.asfortranarray(model.user_factors)
        model.item_factors = np.asfortranarray(model.item_factors)
    for u in range(table.num_users):
        unseen = model.num_items - len(set(table.seen_items(u).tolist()))
        candidates = unseen if exclude_seen else model.num_items
        for k in {1, 2, 3, candidates - 1, candidates, candidates + 1, candidates + 4} - {0, -1}:
            got = [(r.item_index, r.score.hex()) for r in top_k(model, table, u, k, exclude_seen)]
            expected = _oracle_top_k(model, table, u, k, exclude_seen)
            assert got == [(i, score.hex()) for i, score in expected]


def test_batch_recommend_equals_one_top_k_per_user():
    rng = np.random.default_rng(17)
    playtimes = {
        item: [(f"u{u}", 1 + int(u)) for u in rng.choice(20, 4, replace=False)]
        for item in range(60)
    }
    table = table_from_playtimes(playtimes)
    model = _model(rng.normal(size=(table.num_users, 10)), rng.normal(size=(table.num_items, 10)))
    user_ids = table.index.user_ids + ["ghost"]
    for k in (1, 10, 60):
        results = batch_recommend(model, table, user_ids, k)
        assert [r.user_id for r in results] == user_ids
        for user_id, result in zip(user_ids[:-1], results):
            expected = top_k(model, table, table.index.user_index(user_id), k)
            assert result.error is None
            assert len(result.items) == len(expected)
            for got, want in zip(result.items, expected):
                assert got == want  # fields compare with ==, the score as a float
                assert type(got.score) is float and got.score == want.score
        assert (results[-1].error, results[-1].items) == ("unknown user id", [])


def test_recommendation_is_a_row_with_a_dataclass_repr():
    rec = Recommendation(position=1, item_index=2, item_id=30, item_name="Gamma", score=0.5)
    assert repr(rec) == (
        "Recommendation(position=1, item_index=2, item_id=30, item_name='Gamma', score=0.5)"
    )
    assert rec.to_dict() == {"position": 1, "item_id": 30, "item_name": "Gamma", "score": 0.5}
    assert tuple(rec) == (1, 2, 30, "Gamma", 0.5)


def test_a_rank_zero_model_ranks_unseen_items_by_index():
    table = _catalog_table()
    model = _model(np.zeros((3, 0)), np.zeros((4, 0)))
    recs = top_k(model, table, user_index=0, k=1)
    assert [(r.item_index, r.score) for r in recs] == [(2, 0.0)]
    assert [r.item_index for r in top_k(model, table, 1, 4, exclude_seen=False)] == [0, 1, 2, 3]
