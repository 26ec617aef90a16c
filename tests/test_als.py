import json
import math

import numpy as np
import pytest

from steamrec import ConfigError, SolveError, als
from steamrec.als import (
    _BLOCK_ELEMENTS,
    FactorModel,
    RatingCSR,
    TrainConfig,
    _columns,
    _grouped,
    init_model,
    load_model,
    objective,
    predict,
    row_dots,
    save_model,
    solve_half_step,
    train,
    train_rmse,
)

from .conftest import planted_ratings, random_rating_array


# -- config and init -------------------------------------------------------------

def test_config_rejects_zero_rank():
    with pytest.raises(ConfigError):
        TrainConfig(rank=0)


def test_config_rejects_oversized_rank():
    with pytest.raises(ConfigError):
        TrainConfig(rank=201)


def test_config_rejects_bad_iterations_and_lambda():
    with pytest.raises(ConfigError):
        TrainConfig(rank=1, iterations=0)
    with pytest.raises(ConfigError):
        TrainConfig(rank=1, regularization=-0.1)
    with pytest.raises(ConfigError, match="regularization must be finite and >= 0, got inf"):
        TrainConfig(rank=1, regularization=math.inf)


def test_config_defaults_are_the_documented_ones():
    assert TrainConfig() == TrainConfig(rank=30, iterations=10, regularization=0.1, seed=42)


def test_init_is_deterministic():
    config = TrainConfig(rank=1, seed=7)
    a = init_model(2, 3, config)
    b = init_model(2, 3, config)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.item_factors, b.item_factors)


def test_init_scale_bound():
    model = init_model(50, 60, TrainConfig(rank=4, seed=3))
    for factors in (model.user_factors, model.item_factors):
        assert factors.min() >= 0.0
        assert factors.max() < 0.5  # uniform [0,1) / sqrt(4)


def test_init_rejects_empty_sides():
    with pytest.raises(ConfigError):
        init_model(0, 3, TrainConfig(rank=1))


# -- grouping ---------------------------------------------------------------------

def test_grouping_by_both_sides():
    arr = np.array([[0, 1, 5.0], [1, 0, 3.0], [0, 0, 4.0]])
    by_user, by_item = _grouped(_columns(arr), 2, 3)
    assert by_user[0][0].tolist() == [1, 0] and by_user[0][1].tolist() == [5.0, 4.0]
    assert by_user[1][0].tolist() == [0]
    assert by_item[0][0].tolist() == [1, 0]
    assert by_item[2][0].tolist() == []
    assert by_user.indptr.tolist() == [0, 2, 3] and by_item.indptr.tolist() == [0, 2, 3, 3]
    assert [p.tolist() for p, _ in by_item] == [[1, 0], [0], []]


# -- half-step solves ----------------------------------------------------------------

def _csr(groups):
    """The RatingCSR of hand-built per-row (partners, values) pairs."""
    indptr = np.cumsum([0] + [len(p) for p, _ in groups]).astype(np.intp)
    partners = np.concatenate([np.asarray(p, dtype=np.intp) for p, _ in groups])
    values = np.concatenate([np.asarray(v, dtype=np.float64) for _, v in groups])
    return RatingCSR(indptr, partners, values)


def test_half_step_hand_example_unregularized():
    fixed = np.array([[1.0], [1.0]])
    groups = [(np.array([0, 1]), np.array([3.0, 5.0]))]
    out = solve_half_step(fixed, _csr(groups), 0.0, np.zeros((1, 1)))
    assert out[0, 0] == pytest.approx(4.0, rel=1e-14)


def test_half_step_hand_example_weighted_lambda():
    fixed = np.array([[1.0], [1.0]])
    groups = [(np.array([0, 1]), np.array([3.0, 5.0]))]
    out = solve_half_step(fixed, _csr(groups), 0.5, np.zeros((1, 1)))
    assert out[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_half_step_empty_row_keeps_current_value():
    fixed = np.array([[1.0], [2.0]])
    groups = [(np.array([0]), np.array([2.0])), (np.array([], dtype=int), np.array([]))]
    current = np.array([[9.0], [7.0]])
    out = solve_half_step(fixed, _csr(groups), 0.1, current)
    assert out[1, 0] == 7.0
    assert current[0, 0] == 9.0  # input untouched


def test_half_step_singular_names_row():
    # one observation, k=2, lambda=0: rank-deficient normal matrix
    fixed = np.array([[1.0, 2.0], [1.0, 1.0]])
    groups = [
        (np.array([0, 1]), np.array([1.0, 2.0])),
        (np.array([0]), np.array([1.0])),
    ]
    with pytest.raises(SolveError, match="row 1"):
        solve_half_step(fixed, _csr(groups), 0.0, np.zeros((2, 2)))


def _reference_half_step(fixed, groups, regularization, current):
    """One np.linalg.solve per row: the solver's arithmetic without batching."""
    out = current.copy()
    k = fixed.shape[1]
    for row, (partners, values) in enumerate(groups):
        if len(partners):
            y = fixed[partners]
            normal = y.T @ y + regularization * len(partners) * np.eye(k)
            out[row] = np.linalg.solve(normal, y.T @ values)
    return out


def _power_law_groups(rng, rows, partners, max_degree):
    """Zipf-like row degrees, about a fifth of the rows empty."""
    degrees = np.minimum(rng.zipf(1.6, size=rows), max_degree)
    degrees[rng.random(rows) < 0.2] = 0
    return [
        (
            np.sort(rng.choice(partners, size=int(d), replace=False)),
            rng.integers(1, 6, size=int(d)).astype(np.float64),
        )
        for d in degrees
    ]


def _assert_rows_close(got, expected, rtol):
    scale = np.linalg.norm(expected, axis=1)
    assert np.all(np.linalg.norm(got - expected, axis=1) <= rtol * scale)


@pytest.mark.parametrize("rank", [1, 3, 12, 32, 64])
def test_batched_half_step_matches_per_row_solve(rank):
    rng = np.random.default_rng(100 + rank)
    groups = _power_law_groups(rng, rows=400, partners=150, max_degree=150)
    widths = {_bucket(len(p)) for p, _ in groups if len(p)}
    assert len(widths) >= 5 and any(len(p) == 0 for p, _ in groups)
    fixed = rng.random((150, rank))
    current = rng.random((400, rank))
    got = solve_half_step(fixed, _csr(groups), 0.1, current)
    _assert_rows_close(got, _reference_half_step(fixed, groups, 0.1, current), 1e-12)
    empty = [row for row, (p, _) in enumerate(groups) if len(p) == 0]
    assert np.array_equal(got[empty], current[empty])


def test_batched_half_step_spans_blocks_at_rank_200():
    rank, width = 200, 256
    rng = np.random.default_rng(7)
    rows_per_block = _BLOCK_ELEMENTS // (width * rank)
    # 3 blocks' worth of rows with degrees in (128, 256], plus short rows
    degrees = list(rng.integers(129, 257, size=3 * rows_per_block + 1)) + [1, 2, 5, 0, 40]
    groups = [
        (np.sort(rng.choice(300, size=int(d), replace=False)),
         rng.integers(1, 6, size=int(d)).astype(np.float64))
        for d in degrees
    ]
    fixed = rng.random((300, rank)) / np.sqrt(rank)
    current = rng.random((len(groups), rank))
    got = solve_half_step(fixed, _csr(groups), 0.1, current)
    _assert_rows_close(got, _reference_half_step(fixed, groups, 0.1, current), 1e-12)
    assert np.array_equal(got[-2], current[-2])


@pytest.mark.parametrize(
    "fixed, groups",
    [
        # rank 1: partner 1 is a zero row, so row 2's normal matrix is [[0]]
        (
            np.array([[1.0], [0.0], [2.0]]),
            [(np.array([0]), np.array([1.0])), (np.array([2]), np.array([4.0])),
             (np.array([1]), np.array([3.0])), (np.array([0]), np.array([2.0]))],
        ),
        # rank 2, width-2 bucket: row 2 sees only the first coordinate
        (
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            [(np.array([0, 1]), np.array([1.0, 2.0])), (np.array([1, 0]), np.array([3.0, 1.0])),
             (np.array([0, 2]), np.array([4.0, 5.0])), (np.array([0, 1]), np.array([2.0, 2.0]))],
        ),
    ],
)
def test_half_step_singular_row_named_within_shared_block(fixed, groups):
    with pytest.raises(SolveError, match=r"row 2\b"):
        solve_half_step(fixed, _csr(groups), 0.0, np.zeros((4, fixed.shape[1])))


def _bucket(degree):
    """A row's padded width: the nearest 2^e or 3 * 2^(e - 2) at or above its degree."""
    power = 1 << max(degree - 1, 0).bit_length()
    return power if degree > power * 3 // 4 else power * 3 // 4


def _counting_solves(monkeypatch):
    """Record the number of systems of each _cholesky_solve call."""
    batches = []
    original = als._cholesky_solve

    def counted(normal, rhs, rows):
        batches.append(len(rows))
        return original(normal, rhs, rows)

    monkeypatch.setattr(als, "_cholesky_solve", counted)
    return batches


def test_a_solve_batch_spanning_buckets_gives_each_bucket_its_own_bits(monkeypatch):
    rank = 3
    rng = np.random.default_rng(21)
    degrees = [1, 2, 3, 4, 5, 8, 1, 7, 2, 0, 6, 16, 9]
    groups = [
        (rng.choice(20, size=d, replace=False), rng.integers(1, 6, size=d).astype(np.float64))
        for d in degrees
    ]
    buckets = sorted({_bucket(d) for d in degrees if d})
    assert len(buckets) >= 3
    fixed = rng.random((20, rank))
    current = rng.random((len(groups), rank))
    batches = _counting_solves(monkeypatch)
    together = solve_half_step(fixed, _csr(groups), 0.1, current)
    widths = [_bucket(d) for d in degrees if d]
    # each bucket narrower than the rank in its own call, the others in one batch
    assert batches == [widths.count(w) for w in buckets if w < rank] + [
        sum(w >= rank for w in widths)
    ]
    for width in buckets:
        alone = [(p, v) if len(p) and _bucket(len(p)) == width else (p[:0], v[:0])
                 for p, v in groups]
        rows = [row for row, d in enumerate(degrees) if d and _bucket(d) == width]
        got = solve_half_step(fixed, _csr(alone), 0.1, current)
        assert together[rows].tobytes() == got[rows].tobytes()


def test_a_bucket_narrower_than_the_rank_gives_the_same_bits_alone(monkeypatch):
    rank = 16
    rng = np.random.default_rng(33)
    # width-1 rows over three blocks (a dual block holds _BLOCK_ELEMENTS // (1 * rank)
    # rows), and rows of every width up to 64
    degrees = [1] * (2 * _BLOCK_ELEMENTS // rank + 5)
    degrees += rng.integers(0, 50, size=300).tolist()
    rng.shuffle(degrees)
    groups = [
        (rng.choice(60, size=d, replace=False), rng.integers(1, 6, size=d).astype(np.float64))
        for d in degrees
    ]
    fixed = rng.random((60, rank)) / np.sqrt(rank)
    current = rng.random((len(groups), rank))
    sizes = []
    original = als._cholesky_solve

    def sized(normal, rhs, rows):
        sizes.append(normal.shape[-1])
        return original(normal, rhs, rows)

    monkeypatch.setattr(als, "_cholesky_solve", sized)
    together = solve_half_step(fixed, _csr(groups), 0.1, current)
    narrow = sorted({_bucket(d) for d in degrees if d and _bucket(d) < rank})
    assert narrow == [1, 2, 3, 4, 6, 8, 12]
    # w x w systems below the rank, width 1 over three blocks
    assert sizes == [1, 1] + narrow + [rank]
    for width in narrow:
        alone = [(p, v) if len(p) and _bucket(len(p)) == width else (p[:0], v[:0])
                 for p, v in groups]
        rows = [row for row, d in enumerate(degrees) if d and _bucket(d) == width]
        got = solve_half_step(fixed, _csr(alone), 0.1, current)
        assert together[rows].tobytes() == got[rows].tobytes()


@pytest.mark.parametrize("regularization", [0.1, 0.0])
def test_half_step_bits_do_not_depend_on_the_block_and_batch_bounds(monkeypatch, regularization):
    rank = 4
    rng = np.random.default_rng(44)
    groups = _power_law_groups(rng, rows=600, partners=400, max_degree=300)
    if regularization == 0:  # a row narrower than the rank is singular at lambda 0
        groups = [(p, v) if len(p) == 0 or len(p) >= rank else
                  (rng.choice(400, size=rank, replace=False), rng.integers(1, 6, size=rank))
                  for p, v in groups]
    fixed = rng.random((400, rank)) / np.sqrt(rank)
    current = rng.random((len(groups), rank))
    widths = [_bucket(len(p)) for p, _ in groups if len(p)]
    results = []
    # (_BLOCK_ELEMENTS, _SOLVE_ELEMENTS): tiny bounds, the bounds in use, and 2^18 for both
    for block_elements, solve_elements in [(1 << 8, 1 << 8), (1 << 16, 1 << 17), (1 << 18, 1 << 18)]:
        monkeypatch.setattr(als, "_BLOCK_ELEMENTS", block_elements)
        monkeypatch.setattr(als, "_SOLVE_ELEMENTS", solve_elements)
        batches = _counting_solves(monkeypatch)
        results.append(solve_half_step(fixed, _csr(groups), regularization, current).tobytes())
        if not results[1:]:
            # many blocks and batches, and a row wider than a block
            assert len(batches) > 10 and max(widths) * rank > block_elements
        monkeypatch.undo()
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("chunk", [als._OBJECTIVE_CHUNK, 50])
def test_squared_error_does_not_depend_on_the_gather_bound(monkeypatch, chunk):
    rank = 6
    rng = np.random.default_rng(45)
    user_factors, item_factors = rng.random((70, rank)), rng.random((90, rank))
    users, items = rng.integers(0, 70, size=3001), rng.integers(0, 90, size=3001)
    values = rng.integers(1, 6, size=3001).astype(np.float64)
    monkeypatch.setattr(als, "_OBJECTIVE_CHUNK", chunk)
    expected = 0.0  # each chunk's residuals gathered whole, as one sum
    for lo in range(0, len(values), chunk):
        at = slice(lo, lo + chunk)
        preds = row_dots(user_factors[users[at]], item_factors[items[at]])
        expected += float(np.sum((values[at] - preds) ** 2))
    # sub-blocks of 1, 1, 3 and 10922 ratings
    for block_elements in (1, rank, 3 * rank + 1, 1 << 16):
        monkeypatch.setattr(als, "_BLOCK_ELEMENTS", block_elements)
        got = als._squared_error(user_factors, item_factors, (users, items, values))
        assert got == expected


def test_a_solve_batch_spanning_buckets_names_its_singular_row(monkeypatch):
    # rank 2, lambda 0: rows of degree 2, 3 and 5 in buckets 2, 4 and 8; row 3's
    # five partners are all multiples of (1, 2), so its normal matrix is singular
    fixed = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0],
                      [1.0, 2.0], [2.0, 4.0], [-1.0, -2.0], [3.0, 6.0], [0.5, 1.0]])
    groups = [
        (np.array([0, 1]), np.array([1.0, 2.0])),
        (np.array([0, 1, 2]), np.array([3.0, 1.0, 2.0])),
        (np.array([0, 1, 2, 3, 4]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])),
        (np.array([4, 5, 6, 7, 8]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])),
        (np.array([2, 3]), np.array([4.0, 5.0])),
    ]
    batches = _counting_solves(monkeypatch)
    with pytest.raises(SolveError, match=r"row 3\b"):
        solve_half_step(fixed, _csr(groups), 0.0, np.zeros((5, 2)))
    assert batches == [5]


def test_half_step_is_blockwise_optimal():
    rng = np.random.default_rng(8)
    arr = random_rating_array(rng, 12, 9, 40)
    config = TrainConfig(rank=3, iterations=1, regularization=0.1, seed=5)
    model = init_model(12, 9, config)
    groups, _ = _grouped(_columns(arr), 12, 9)
    solved = solve_half_step(model.item_factors, groups, 0.1, model.user_factors)
    base = objective(solved, model.item_factors, arr, 0.1)
    eps = 1e-3
    for row in range(12):
        for col in range(3):
            for sign in (+eps, -eps):
                bumped = solved.copy()
                bumped[row, col] += sign
                assert objective(bumped, model.item_factors, arr, 0.1) >= base - 1e-9


# -- train -----------------------------------------------------------------------------

def test_train_one_by_one_exact():
    config = TrainConfig(rank=1, iterations=1, regularization=0.0, seed=0)
    initial = FactorModel(
        user_factors=np.array([[0.5]]),
        item_factors=np.array([[0.5]]),
        rank=1,
        regularization=0.0,
        seed=0,
    )
    model, trace = train([(0, 0, 4.0)], 1, 1, config, initial=initial)
    assert model.user_factors[0, 0] == 8.0
    assert model.item_factors[0, 0] == 0.5
    assert predict(model, 0, 0) == 4.0
    assert trace.values == [0.0, 0.0]


def test_train_fits_full_rank_two_by_two():
    arr = np.array([[0, 0, 4.0], [0, 1, 2.0], [1, 0, 1.0], [1, 1, 5.0]])
    config = TrainConfig(rank=2, iterations=10, regularization=1e-6, seed=42)
    model, _ = train(arr, 2, 2, config)
    assert train_rmse(model, arr) < 1e-3


def test_loss_trace_non_increasing_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(10):
        num_users = int(rng.integers(3, 30))
        num_items = int(rng.integers(3, 30))
        arr = random_rating_array(rng, num_users, num_items, int(rng.integers(10, 120)))
        config = TrainConfig(
            rank=int(rng.integers(1, 5)),
            iterations=5,
            regularization=float(rng.choice([0.01, 0.1, 1.0])),
            seed=int(rng.integers(0, 1000)),
        )
        _, trace = train(arr, num_users, num_items, config)
        assert len(trace.values) == 2 * config.iterations
        assert trace.is_non_increasing(rel_tol=1e-9)


def test_loss_trace_equals_public_objective_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(8)
    cases = ((12, 9, 60), (40, 25, 300), (7, 30, 90), (40, 25, 300))
    chunks = (als._OBJECTIVE_CHUNK,) * 3 + (7,)  # the last case sums 7 rows at a time
    for (num_users, num_items, count), chunk in zip(cases, chunks):
        monkeypatch.setattr(als, "_OBJECTIVE_CHUNK", chunk)
        arr = random_rating_array(rng, num_users, num_items, count)
        config = TrainConfig(rank=3, iterations=3, regularization=0.1, seed=5)
        _, trace = train(arr, num_users, num_items, config)
        model = init_model(num_users, num_items, config)
        user_factors, item_factors = model.user_factors, model.item_factors
        by_user, by_item = _grouped(_columns(arr), num_users, num_items)
        expected = []
        for _ in range(config.iterations):
            user_factors = solve_half_step(item_factors, by_user, 0.1, user_factors)
            expected.append(objective(user_factors, item_factors, arr, 0.1))
            item_factors = solve_half_step(user_factors, by_item, 0.1, item_factors)
            expected.append(objective(user_factors, item_factors, arr, 0.1))
        assert trace.values == expected


def test_loss_trace_matches_the_minimiser_identity():
    """At a user half-step's minimiser (Y_u'Y_u + lam n_u I) x_u = b_u with
    b_u = Y_u' r_u, so J = sum r^2 - sum_u x_u . b_u + lam sum_i n_i ||y_i||^2.
    The item half-step gives the same identity with the sides swapped."""
    rng = np.random.default_rng(31)
    for lam in (0.01, 0.1, 1.0):
        for _ in range(4):
            num_users = int(rng.integers(3, 30))
            num_items = int(rng.integers(3, 30))
            arr = random_rating_array(rng, num_users, num_items, int(rng.integers(10, 200)))
            users, items = arr[:, 0].astype(np.intp), arr[:, 1].astype(np.intp)
            dense = np.zeros((num_users, num_items))
            dense[users, items] = arr[:, 2]
            user_counts = np.bincount(users, minlength=num_users)
            item_counts = np.bincount(items, minlength=num_items)
            total = float(arr[:, 2] @ arr[:, 2])
            rank, seed, sweeps = int(rng.integers(1, 6)), int(rng.integers(0, 1000)), 4
            _, trace = train(arr, num_users, num_items, TrainConfig(rank, sweeps, lam, seed))
            # the factors after t sweeps; training is deterministic, so these
            # are the factors of the full run at that point
            models = [init_model(num_users, num_items, TrainConfig(rank, 1, lam, seed))] + [
                train(arr, num_users, num_items, TrainConfig(rank, t, lam, seed))[0]
                for t in range(1, sweeps + 1)
            ]
            for t in range(1, sweeps + 1):
                x, y = models[t].user_factors, models[t].item_factors
                y_before = models[t - 1].item_factors
                item_reg = lam * item_counts @ np.sum(y_before**2, 1)
                user_reg = lam * user_counts @ np.sum(x**2, 1)
                after_users = total - np.sum(x * (dense @ y_before)) + item_reg
                after_items = total - np.sum(y * (dense.T @ x)) + user_reg
                assert abs(trace.values[2 * t - 2] - after_users) <= 1e-12 * total
                assert abs(trace.values[2 * t - 1] - after_items) <= 1e-12 * total


def test_train_deterministic_across_runs():
    rng = np.random.default_rng(4)
    arr = random_rating_array(rng, 25, 18, 150)
    config = TrainConfig(rank=4, iterations=4, regularization=0.1, seed=11)
    models = [train(arr, 25, 18, config)[0] for _ in range(4)]
    for other in models[1:]:
        assert np.array_equal(models[0].user_factors, other.user_factors)
        assert np.array_equal(models[0].item_factors, other.item_factors)


def test_scaling_ratings_scales_predictions_at_lambda_zero():
    rng = np.random.default_rng(9)
    arr = random_rating_array(rng, 8, 6, 40)
    config = TrainConfig(rank=1, iterations=6, regularization=0.0, seed=21)
    base, _ = train(arr, 8, 6, config)
    scaled_arr = arr.copy()
    scaled_arr[:, 2] *= 3.0
    scaled, _ = train(scaled_arr, 8, 6, config)
    for u in range(8):
        for i in range(6):
            assert predict(scaled, u, i) == pytest.approx(3.0 * predict(base, u, i), rel=1e-6)


def test_train_cold_rows_keep_initial_values():
    config = TrainConfig(rank=2, iterations=2, regularization=0.1, seed=6)
    initial = init_model(3, 3, config)
    # user 2 and item 2 never observed
    arr = np.array([[0, 0, 4.0], [1, 1, 2.0], [0, 1, 3.0], [1, 0, 5.0]])
    model, _ = train(arr, 3, 3, config, initial=initial)
    assert np.array_equal(model.user_factors[2], initial.user_factors[2])
    assert np.array_equal(model.item_factors[2], initial.item_factors[2])


def test_train_validates_inputs():
    config = TrainConfig(rank=1)
    with pytest.raises(ValueError):
        train([], 1, 1, config)
    with pytest.raises(ValueError, match="user index out of range"):
        train([(5, 0, 3.0)], 2, 2, config)
    with pytest.raises(ValueError, match="item index out of range"):
        train([(0, -1, 3.0)], 2, 2, config)
    bad_initial = init_model(2, 2, TrainConfig(rank=3))
    with pytest.raises(ConfigError):
        train([(0, 0, 3.0)], 2, 2, config, initial=bad_initial)


@pytest.mark.parametrize(
    "rows",
    [[(0, 0, 4.0, 99)], np.array([[0, 0, 4.0, 99]]), [(0, 0, 4.0), (0, 0, 4.0, 99)]],
    ids=["list", "array", "ragged"],
)
def test_a_row_with_extra_fields_is_rejected_in_every_form(rows):
    model = init_model(1, 1, TrainConfig(rank=1))
    for call in (
        lambda: train(rows, 1, 1, TrainConfig(rank=1)),
        lambda: objective(model.user_factors, model.item_factors, rows, 0.1),
        lambda: train_rmse(model, rows),
        lambda: _columns(rows),
    ):
        with pytest.raises(ValueError, match="ratings must be triples"):
            call()


def test_planted_rank_three_recovery():
    arr = planted_ratings(seed=42)
    config = TrainConfig(rank=3, iterations=10, regularization=0.01, seed=42)
    model, trace = train(arr, 200, 100, config)
    assert train_rmse(model, arr) < 0.05
    assert trace.is_non_increasing(rel_tol=1e-9)


# -- predict ------------------------------------------------------------------------

def test_predict_dot_product():
    model = FactorModel(
        user_factors=np.array([[1.0, 2.0]]),
        item_factors=np.array([[3.0, 0.5]]),
        rank=2,
        regularization=0.0,
    )
    assert predict(model, 0, 0) == 4.0


def test_predict_zero_vector_gives_zero():
    model = FactorModel(
        user_factors=np.zeros((1, 3)),
        item_factors=np.ones((4, 3)),
        rank=3,
        regularization=0.0,
    )
    assert all(predict(model, 0, i) == 0.0 for i in range(4))


def test_row_dots_gives_each_row_the_bits_of_its_own_call():
    rng = np.random.default_rng(5)
    flat = rng.standard_normal(20000 * 64 + 1)
    user = rng.standard_normal(64)
    for matrix in (
        flat[:-1].reshape(20000, 64),
        flat[1:].reshape(20000, 64),  # a view whose rows start one element in
        np.asfortranarray(flat[:-1].reshape(20000, 64)),
    ):
        rows = np.array([row_dots(row, user) for row in matrix])
        assert row_dots(matrix, user).tobytes() == rows.tobytes()


def test_predict_range_checks():
    model = init_model(2, 3, TrainConfig(rank=1, seed=0))
    with pytest.raises(IndexError):
        predict(model, 2, 0)
    with pytest.raises(IndexError):
        predict(model, -1, 0)
    with pytest.raises(IndexError):
        predict(model, 0, 3)


def test_factor_model_validates_shapes_and_finiteness():
    with pytest.raises(ValueError):
        FactorModel(np.zeros((2, 2)), np.zeros((2, 3)), rank=2, regularization=0.0)
    with pytest.raises(ValueError):
        FactorModel(
            np.array([[np.nan]]), np.array([[1.0]]), rank=1, regularization=0.0
        )


# -- persistence -----------------------------------------------------------------------

def test_model_round_trip_and_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(1)
    arr = random_rating_array(rng, 10, 7, 35)
    config = TrainConfig(rank=3, iterations=3, regularization=0.2, seed=5)
    model, _ = train(arr, 10, 7, config)

    path_a = tmp_path / "a.bin"
    path_b = tmp_path / "b.bin"
    save_model(model, path_a)
    save_model(model, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    loaded = load_model(path_a)
    assert np.array_equal(loaded.user_factors, model.user_factors)
    assert np.array_equal(loaded.item_factors, model.item_factors)
    assert loaded.rank == 3
    assert loaded.regularization == 0.2
    assert loaded.seed == 5


def _saved_model_bytes(tmp_path, rank=2):
    model = init_model(4, 3, TrainConfig(rank=rank, seed=1))
    path = tmp_path / "good.bin"
    save_model(model, path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "change",
    [{"num_users": 99}, {"num_items": 2}, {"rank": 3}, {"version": 7}, {"version": None}],
)
def test_load_model_rejects_header_that_disagrees(tmp_path, change):
    header, rest = _saved_model_bytes(tmp_path).split(b"\n", 1)
    fields = json.loads(header)
    fields.update(change)
    path = tmp_path / "bad.bin"
    path.write_bytes(json.dumps(fields).encode() + b"\n" + rest)
    with pytest.raises(ValueError):
        load_model(path)


def test_load_model_rejects_truncated_or_padded_file(tmp_path):
    data = _saved_model_bytes(tmp_path)
    header_end = data.index(b"\n") + 1
    path = tmp_path / "cut.bin"
    for cut in (1, header_end - 5, header_end, header_end + 30, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            load_model(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError):
        load_model(path)


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize(
    "rank, change",
    [
        (1, {"rank": True}),
        (2, {"num_users": 4.0}),
        (2, {"num_items": 3.0}),
        (2, {"regularization": "abc"}),
        (2, {"regularization": math.nan}),
        (2, {"regularization": math.inf}),
        (2, {"regularization": -1}),
        (2, {"regularization": True}),
        (2, {"seed": "x"}),
        (2, {"seed": -1}),
        (2, {"seed": 1.5}),
        (2, {"seed": False}),
    ],
)
def test_load_model_names_a_header_field_out_of_its_type_or_range(tmp_path, rank, change):
    header, rest = _saved_model_bytes(tmp_path, rank).split(b"\n", 1)
    fields = {**json.loads(header), **change}
    path = tmp_path / "bad.bin"
    path.write_bytes(json.dumps(fields).encode() + b"\n" + rest)
    (key,) = change
    with pytest.raises(ValueError, match=f"bad.bin: header field '{key}'"):
        load_model(path)


def test_load_model_takes_a_null_seed_and_a_zero_integer_lambda(tmp_path):
    path = tmp_path / "model.bin"
    save_model(FactorModel(np.ones((2, 1)), np.ones((3, 1)), rank=1, regularization=0), path)
    loaded = load_model(path)
    assert (loaded.regularization, loaded.seed) == (0, None)


def test_save_model_refuses_a_lambda_json_cannot_hold(tmp_path):
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match="JSON"):
        save_model(FactorModel(np.ones((2, 1)), np.ones((3, 1)), rank=1,
                               regularization=math.inf), path)
    assert not path.exists()


@pytest.mark.parametrize("field, value", [("regularization", -1.0), ("regularization", True),
                                          ("seed", -3), ("rank", 2.0)])
def test_save_model_refuses_a_header_load_model_refuses(tmp_path, field, value):
    path = tmp_path / "model.bin"
    hyper = {"rank": 2, "regularization": 0.1, "seed": 1, field: value}
    model = FactorModel(np.ones((2, 2)), np.ones((3, 2)), **hyper)
    with pytest.raises(ValueError, match=f"^{path}: header field '{field}' must be "):
        save_model(model, path)
    assert not path.exists()
