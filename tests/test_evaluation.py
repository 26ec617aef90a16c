import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steamrec import (
    ConfigError,
    EvaluationError,
    RatingTriple,
    Review,
    SplitConfig,
    split,
    stats,
    write_ratings_csv,
)
from steamrec import als, evaluation
from steamrec.als import FactorModel, TrainConfig, predict, train
from steamrec.evaluation import evaluate, format_stats, rmse, sweep, sweep_csv
from steamrec.ratings import read_ratings_array
from steamrec.sentiment import Lexicon

from .conftest import planted_ratings, random_rating_array, table_from_playtimes


# -- split -----------------------------------------------------------------------

def test_split_sizes():
    ratings = [RatingTriple(u, 0, 3) for u in range(10)]
    train_part, test_part = split(ratings, SplitConfig(fraction=0.8, seed=42))
    assert len(train_part) == 8 and len(test_part) == 2


def test_split_deterministic_per_seed():
    ratings = [RatingTriple(u, 0, 3) for u in range(30)]
    a = split(ratings, SplitConfig(seed=7))
    b = split(ratings, SplitConfig(seed=7))
    assert all(map(np.array_equal, a, b))
    c = split(ratings, SplitConfig(seed=8))
    assert not all(map(np.array_equal, a, c))


def test_split_is_a_partition():
    ratings = [RatingTriple(u, i, 1 + (u + i) % 5) for u in range(6) for i in range(5)]
    train_part, test_part = split(ratings, SplitConfig(fraction=0.7, seed=1))
    rows = np.concatenate([train_part, test_part]).tolist()
    assert sorted(map(tuple, rows)) == sorted(ratings)
    assert not set(map(tuple, train_part.tolist())) & set(map(tuple, test_part.tolist()))


@pytest.mark.parametrize(
    "rows",
    [[(0, 0, 4, 99)] * 4, [(0, 0, 4), (1, 1, 3, 99)] * 2, np.array([[0, 0, 4, 99]] * 4)],
    ids=["wide", "ragged", "wide-array"],
)
def test_split_rejects_rows_that_are_not_triples(rows):
    message = r"ratings must be triples of \(user_index, item_index, rating\)"
    with pytest.raises(ValueError, match=message):
        split(rows, SplitConfig())


_rating_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 5)), min_size=2, max_size=30
)


@settings(max_examples=60, deadline=None)
@given(rows=_rating_rows, seed=st.integers(0, 2**32 - 1))
def test_every_form_of_the_same_rows_gives_the_same_results(rows, seed):
    int_rows = np.array(rows, dtype=np.int64)
    forms = [int_rows, int_rows.astype(np.float64), [RatingTriple(*r) for r in rows], rows]
    config = TrainConfig(rank=2, iterations=2, regularization=0.1, seed=seed % 1000)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, form in enumerate(forms):
            model, trace = train(form, 6, 6, config)
            path = Path(tmp) / f"ratings{n}.csv"
            write_ratings_csv(form, path)
            results.append((
                model, trace.values, split(form, SplitConfig(fraction=0.5, seed=seed)),
                rmse(model, form, form).to_dict(), path.read_bytes(),
            ))
    model, trace, parts, report, csv_bytes = results[0]
    for other_model, other_trace, other_parts, other_report, other_bytes in results[1:]:
        assert np.array_equal(other_model.user_factors, model.user_factors)
        assert np.array_equal(other_model.item_factors, model.item_factors)
        assert other_trace == trace
        assert all(map(np.array_equal, other_parts, parts))
        assert other_report == report
        assert other_bytes == csv_bytes


def test_split_single_rating_is_config_error():
    with pytest.raises(ConfigError):
        split([RatingTriple(0, 0, 3)], SplitConfig())


def test_split_empty_side_is_config_error():
    ratings = [RatingTriple(u, 0, 3) for u in range(3)]
    with pytest.raises(ConfigError):
        split(ratings, SplitConfig(fraction=0.01, seed=1))  # floor(0.03) == 0


def test_split_fraction_bounds_checked_at_construction():
    with pytest.raises(ConfigError):
        SplitConfig(fraction=0.0)
    with pytest.raises(ConfigError):
        SplitConfig(fraction=1.0)


# -- rmse -------------------------------------------------------------------------

def _rank1_model(user_values, item_values):
    return FactorModel(
        user_factors=np.array(user_values, dtype=float).reshape(-1, 1),
        item_factors=np.array(item_values, dtype=float).reshape(-1, 1),
        rank=1,
        regularization=0.0,
    )


def test_rmse_zero_when_exact():
    model = _rank1_model([1, 2], [2, 4])
    train_part = [(0, 0, 2.0), (1, 1, 8.0)]
    test_part = [(0, 1, 4.0), (1, 0, 4.0)]
    report = rmse(model, test_part, train_part)
    assert report.rmse == 0.0
    assert report.evaluated == 2 and report.dropped == 0


def test_rmse_unit_example():
    # predictions [1, 3] against ratings [2, 4]
    model = _rank1_model([1, 3], [1])
    train_part = [(0, 0, 2.0), (1, 0, 4.0)]
    report = rmse(model, train_part, train_part)
    assert report.rmse == pytest.approx(1.0)


def test_rmse_drops_cold_start():
    model = _rank1_model([1, 2], [2, 4])
    train_part = [(0, 0, 2.0)]
    test_part = [(0, 0, 2.0), (1, 0, 99.0), (0, 1, 99.0)]
    report = rmse(model, test_part, train_part)
    assert report.evaluated == 1
    assert report.dropped == 2
    assert report.evaluated + report.dropped == len(test_part)
    assert report.cold_start_policy == "drop"


def test_rmse_all_cold_is_evaluation_error():
    model = _rank1_model([1, 2], [2, 4])
    with pytest.raises(EvaluationError):
        rmse(model, [(1, 1, 3.0)], [(0, 0, 2.0)])


def test_rmse_invariant_to_test_ordering():
    rng = np.random.default_rng(0)
    model = _rank1_model(rng.random(6), rng.random(5))
    triples = [(u, i, float(rng.integers(1, 6))) for u in range(6) for i in range(5)]
    forward = rmse(model, triples, triples).rmse
    backward = rmse(model, triples[::-1], triples).rmse
    assert backward == pytest.approx(forward, rel=1e-12)


def _loop_rmse(model, test, train_part):
    """Per-triple reference: predict each warm triple, count the cold ones."""
    seen_users = {u for u, _, _ in train_part}
    seen_items = {i for _, i, _ in train_part}
    errors, dropped = [], 0
    for u, i, value in test:
        if u in seen_users and i in seen_items:
            errors.append(predict(model, u, i) - value)
        else:
            dropped += 1
    return float(np.sqrt(np.mean(np.square(errors)))), len(errors), dropped


def test_rmse_matches_per_triple_loop():
    rng = np.random.default_rng(21)
    model = FactorModel(rng.random((40, 3)), rng.random((25, 3)), rank=3, regularization=0.1)
    # training touches only users < 30 and items < 20, so some test triples are cold
    train_part = [(int(u), int(i), 3.0) for u, i in zip(rng.integers(0, 30, 200),
                                                         rng.integers(0, 20, 200))]
    test_part = [(int(u), int(i), float(v)) for u, i, v in zip(rng.integers(0, 40, 300),
                                                                rng.integers(0, 25, 300),
                                                                rng.integers(1, 6, 300))]
    expected, evaluated, dropped = _loop_rmse(model, test_part, train_part)
    assert 0 < dropped < len(test_part)
    report = rmse(model, test_part, train_part)
    assert (report.evaluated, report.dropped) == (evaluated, dropped)
    assert report.rmse == pytest.approx(expected, rel=1e-12)


# -- sweep -----------------------------------------------------------------------

def test_sweep_single_rank_single_report():
    # two observations of one pair, so the held-out triple is never cold
    ratings = [RatingTriple(0, 0, 3), RatingTriple(0, 0, 4)]
    reports = sweep(
        ratings, [1], TrainConfig(rank=1, iterations=2), SplitConfig(fraction=0.5, seed=0)
    )
    assert len(reports) == 1
    assert reports[0].rank == 1


def test_sweep_planted_rank_beats_rank_one():
    arr = planted_ratings(seed=42)
    reports = sweep(
        arr,
        [1, 3],
        TrainConfig(rank=1, iterations=60, regularization=0.01, seed=42),
        SplitConfig(fraction=0.8, seed=42),
    )
    by_rank = {r.rank: r.rmse for r in reports}
    assert by_rank[3] < by_rank[1]


def test_sweep_bit_reproducible():
    arr = planted_ratings(num_users=40, num_items=25, seed=5)
    args = (
        arr,
        [1, 2],
        TrainConfig(rank=1, iterations=3, regularization=0.1, seed=9),
        SplitConfig(fraction=0.8, seed=9),
    )
    first = sweep(*args)
    second = sweep(*args)
    assert [r.rmse for r in first] == [r.rmse for r in second]


def test_sweep_rejects_empty_ranks():
    with pytest.raises(ConfigError):
        sweep([RatingTriple(0, 0, 3)], [], TrainConfig(rank=1), SplitConfig())


def test_sweep_checks_every_rank_before_it_fits(monkeypatch):
    fits = []
    fit = evaluation._fit

    def counting(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(evaluation, "_fit", counting)
    arr = planted_ratings(num_users=30, num_items=20, seed=6)
    config, split_config = TrainConfig(iterations=2, seed=1), SplitConfig(seed=1)
    with pytest.raises(ConfigError, match="^rank must be in 1..200, got 0$"):
        sweep(arr, [2, 3, 0], config, split_config)
    assert fits == []
    sweep(arr, [2, 3], config, split_config)
    assert len(fits) == 2  # the patch is live


def test_sweep_csv_format():
    arr = planted_ratings(num_users=30, num_items=20, seed=3)
    reports = sweep(
        arr,
        [2],
        TrainConfig(rank=2, iterations=2, regularization=0.1, seed=4),
        SplitConfig(fraction=0.8, seed=4),
    )
    text = sweep_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "rank,rmse,evaluated,dropped"
    assert lines[1].startswith("2,")


def test_evaluate_splits_trains_and_reports():
    arr = planted_ratings(num_users=50, num_items=30, seed=10)
    report = evaluate(
        arr,
        50,
        30,
        TrainConfig(rank=3, iterations=5, regularization=0.01, seed=1),
        SplitConfig(fraction=0.8, seed=2),
        strategy="playtime",
    )
    assert report.strategy == "playtime"
    assert report.evaluated + report.dropped == len(arr) - int(0.8 * len(arr))


def test_evaluate_and_sweep_rmse_equal_train_then_rmse_bit_for_bit():
    arr = planted_ratings(num_users=50, num_items=30, seed=12)
    num_users, num_items = int(arr[:, 0].max()) + 1, int(arr[:, 1].max()) + 1
    split_config = SplitConfig(fraction=0.8, seed=3)
    train_part, test_part = split(arr, split_config)
    base = TrainConfig(rank=1, iterations=4, regularization=0.05, seed=7)
    ranks = [1, 3, 6]
    swept = sweep(arr, ranks, base, split_config, strategy="playtime")
    for rank, report in zip(ranks, swept):
        config = TrainConfig(rank=rank, iterations=4, regularization=0.05, seed=7)
        expected = rmse(train(train_part, num_users, num_items, config)[0], test_part, train_part,
                        strategy="playtime")
        assert report == expected and report.rmse.hex() == expected.rmse.hex()
        got = evaluate(arr, num_users, num_items, config, split_config, strategy="playtime")
        assert got == expected and got.rmse.hex() == expected.rmse.hex()


def test_evaluate_and_sweep_never_compute_the_objective(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the objective was computed")

    monkeypatch.setattr(als, "_loss", refuse)
    arr = planted_ratings(num_users=30, num_items=20, seed=4)
    config, split_config = TrainConfig(rank=2, iterations=3, seed=1), SplitConfig(seed=1)
    evaluate(arr, 30, 20, config, split_config)
    sweep(arr, [1, 2], config, split_config)
    with pytest.raises(AssertionError, match="objective"):
        train(arr, 30, 20, config)  # the patch is live


def test_train_evaluate_and_sweep_convert_the_train_ratings_once(monkeypatch):
    calls = []
    columns = als._columns

    def counting(ratings):
        calls.append(len(ratings))
        return columns(ratings)

    monkeypatch.setattr(als, "_columns", counting)
    monkeypatch.setattr(evaluation, "_columns", counting)
    arr = planted_ratings(num_users=30, num_items=20, seed=5)
    config, split_config = TrainConfig(rank=2, iterations=2, seed=1), SplitConfig(seed=1)
    for call in (
        lambda: train(arr, 30, 20, config),
        lambda: evaluate(arr, 30, 20, config, split_config),
        lambda: sweep(arr, [1, 2], config, split_config),
    ):
        calls.clear()
        call()
        assert calls == [len(arr)]  # all rows, once, before the split


def _checked_fits(monkeypatch, tracked):
    """Patch ``evaluation._fit`` to assert that every weak reference in ``tracked``
    is dead; returns the list of ranks it fits."""
    fitted, original_fit = [], evaluation._fit

    def checked_fit(*args, **kwargs):
        assert tracked and all(ref() is None for ref in tracked), "a converted array is alive"
        fitted.append(args[2].rank)
        return original_fit(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_fit", checked_fit)
    return fitted


def test_evaluate_and_sweep_free_both_split_halves_before_the_first_fit(monkeypatch):
    halves = []
    original_partition = evaluation._partition
    original_grouped, original_warm = evaluation._grouped, evaluation._WarmTest

    def tracked_partition(n, config):
        positions = original_partition(n, config)
        halves[:] = [weakref.ref(part.base) for part in positions]  # the permutation they view
        return positions

    def tracked_grouped(columns, *args):
        assert len(halves) == 2
        halves.extend(weakref.ref(column) for column in columns)
        return original_grouped(columns, *args)

    def tracked_warm(columns, *args):
        assert len(halves) == 5
        halves.extend(weakref.ref(column) for column in columns)
        return original_warm(columns, *args)

    monkeypatch.setattr(evaluation, "_partition", tracked_partition)
    monkeypatch.setattr(evaluation, "_grouped", tracked_grouped)
    monkeypatch.setattr(evaluation, "_WarmTest", tracked_warm)
    fitted = _checked_fits(monkeypatch, halves)
    arr = planted_ratings(num_users=30, num_items=20, seed=6)
    config, split_config = TrainConfig(rank=2, iterations=2, seed=1), SplitConfig(seed=1)
    evaluate(arr, 30, 20, config, split_config)
    sweep(arr, [1, 3], config, split_config)
    assert fitted == [2, 1, 3] and len(halves) == 8


def test_evaluate_and_sweep_free_the_float_copy_before_the_first_fit(monkeypatch, tmp_path):
    converted = []
    original_columns = evaluation._columns

    def tracked_columns(ratings):
        columns = original_columns(ratings)
        floats = columns[2].base  # the float64 copy the rating column views
        # int64 rows, as read_ratings_array gives, are copied
        assert floats is not None and floats.dtype == np.float64 and floats is not ratings
        converted[:] = [weakref.ref(array) for array in (*columns, floats)]
        return columns

    monkeypatch.setattr(evaluation, "_columns", tracked_columns)
    fitted = _checked_fits(monkeypatch, converted)
    path = tmp_path / "ratings.csv"
    write_ratings_csv(random_rating_array(np.random.default_rng(3), 30, 20, 200), path)
    rows = read_ratings_array(path)
    config, split_config = TrainConfig(rank=2, iterations=2, seed=1), SplitConfig(seed=1)
    evaluate(rows, 30, 20, config, split_config)
    sweep(rows, [1, 3], config, split_config)
    assert fitted == [2, 1, 3]


def test_every_residual_sum_matches_one_numpy_pass_across_chunks(monkeypatch):
    monkeypatch.setattr(als, "_OBJECTIVE_CHUNK", 7)
    rng = np.random.default_rng(17)
    arr = planted_ratings(num_users=40, num_items=25, seed=9)
    arr = arr[rng.permutation(len(arr))]  # not user-major: the fit term sums in CSR order
    arr[:, 2] += rng.normal(scale=0.3, size=len(arr))
    users, items, values = arr[:, 0].astype(np.intp), arr[:, 1].astype(np.intp), arr[:, 2]
    config = TrainConfig(rank=3, iterations=3, regularization=0.1, seed=2)
    split_config = SplitConfig(seed=4)
    model, _ = train(arr, 40, 25, config)
    x, y = model.user_factors, model.item_factors

    def squared(u, i, r):
        return np.sum((r - np.sum(x[u] * y[i], axis=1)) ** 2)

    fit = squared(users, items, values)
    reg = 0.1 * (np.bincount(users, minlength=40) @ np.sum(x**2, axis=1)
                 + np.bincount(items, minlength=25) @ np.sum(y**2, axis=1))
    assert als.objective(x, y, arr, 0.1) == pytest.approx(fit + reg, rel=1e-12, abs=0)
    assert als.train_rmse(model, arr) == pytest.approx(np.sqrt(fit / len(arr)), rel=1e-12, abs=0)

    train_part, test_part = split(arr, split_config)
    model, _ = train(train_part, 40, 25, config)
    x, y = model.user_factors, model.item_factors
    warm = np.isin(test_part[:, 0], train_part[:, 0]) & np.isin(test_part[:, 1], train_part[:, 1])
    assert 7 < warm.sum() < len(warm)
    warm_rows = test_part[warm]
    expected = np.sqrt(squared(*warm_rows[:, :2].astype(np.intp).T, warm_rows[:, 2]) / warm.sum())
    for report in (rmse(model, test_part, train_part), evaluate(arr, 40, 25, config, split_config)):
        assert report.rmse == pytest.approx(expected, rel=1e-12, abs=0)
        assert (report.evaluated, report.dropped) == (warm.sum(), len(warm) - warm.sum())


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0.5, 0, 4.0), (1, 1, 3.0)], "whole numbers"),
        ([(0, 0, 4.0), (1, 0.25, 3.0)], "whole numbers"),
        ([(np.nan, 0, 4.0), (1, 1, 3.0)], "finite"),
        ([(0, np.inf, 4.0), (1, 1, 3.0)], "finite"),
        ([(0, 0, np.nan), (1, 1, 3.0)], "finite"),
        ([(0, 0, 4.0), (1, 1, -np.inf)], "finite"),
        # no float64 at or past 2**53 is an exact integer, and 2**63 - 1 rounds past intp
        ([(2**63 - 1, 0, 4.0), (1, 1, 3.0)], r"below 2\*\*53"),
        ([(0, 0, 4.0), (1, 2**53, 3.0)], r"below 2\*\*53"),
        (np.array([[0, 0, 4], [1, -(2**63), 3]]), r"below 2\*\*53"),
    ],
)
def test_fractional_or_non_finite_rows_are_one_value_error(rows, message):
    config, split_config = TrainConfig(rank=1, iterations=1), SplitConfig(fraction=0.5, seed=0)
    model = FactorModel(np.ones((2, 1)), np.ones((2, 1)), rank=1, regularization=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the error
        for call in (
            lambda: train(rows, 2, 2, config),
            lambda: evaluate(rows, 2, 2, config, split_config),
            lambda: sweep(rows, [1], config, split_config),
            lambda: rmse(model, rows, [(0, 0, 4.0), (1, 1, 3.0)]),
        ):
            with pytest.raises(ValueError, match=message):
                call()


# -- stats -----------------------------------------------------------------------

LEX = Lexicon({"great": 3.0, "terrible": -3.0})


def test_stats_hand_example():
    table = table_from_playtimes({1: [("a", 10), ("b", 30)]})
    report = stats(table, lexicon=LEX)
    assert report.num_interactions == 2
    assert report.num_users == 2 and report.num_items == 1
    assert report.total_playtime == 40.0
    assert report.top_items[0][2] == 40.0
    assert report.avg_playtime_per_user == 20.0
    assert report.avg_playtime_per_item == 40.0
    assert [(u, t) for u, t in report.top_users] == [("b", 30.0), ("a", 10.0)]


def test_stats_empty_dataset():
    table = table_from_playtimes({})
    report = stats(table, lexicon=LEX)
    assert report.num_interactions == 0
    assert report.num_users == 0
    assert report.sparsity == 0.0
    assert report.avg_playtime_per_user == 0.0
    assert report.top_items == [] and report.top_users == []


def test_stats_counts_review_sentiment():
    table = table_from_playtimes({1: [("a", 10)]})
    reviews = [
        Review("a", 1, "great", True),
        Review("a", 1, "terrible", False),
        Review("a", 1, "whatever", True),
    ]
    report = stats(table, reviews, LEX)
    assert report.num_reviews == 3
    assert (report.sentiment.positive, report.sentiment.neutral, report.sentiment.negative) == (
        1,
        1,
        1,
    )


def test_stats_top_lists_capped_at_ten():
    table = table_from_playtimes(
        {item: [(f"u{item}{n}", 10 * item + n) for n in range(2)] for item in range(15)}
    )
    report = stats(table, lexicon=LEX)
    assert len(report.top_items) == 10
    assert len(report.top_users) == 10
    totals = [t for _, _, t in report.top_items]
    assert totals == sorted(totals, reverse=True)


def test_format_stats_renders_text():
    table = table_from_playtimes({1: [("a", 10), ("b", 30)]})
    text = format_stats(stats(table, lexicon=LEX))
    assert "interactions:" in text
    assert "sparsity:" in text
    assert "game-1" in text
