"""Train the alternating-least-squares factor model on planted low-rank data
and watch the objective fall monotonically, half-step by half-step."""

import numpy as np

from steamrec.als import TrainConfig, predict, train, train_rmse

rng = np.random.default_rng(42)
NUM_USERS, NUM_ITEMS, RANK = 120, 80, 3

# plant random rank-3 factors and reveal 25% of the grid, noise-free
user_factors = rng.normal(size=(NUM_USERS, RANK))
item_factors = rng.normal(size=(NUM_ITEMS, RANK))
users, items = np.nonzero(rng.random((NUM_USERS, NUM_ITEMS)) < 0.25)
values = np.einsum("ij,ij->i", user_factors[users], item_factors[items])
ratings = np.column_stack([users, items, values]).astype(float)
print(f"{len(ratings)} observed cells of a {NUM_USERS}x{NUM_ITEMS} grid "
      f"planted at rank {RANK}\n")

config = TrainConfig(rank=RANK, iterations=12, regularization=0.01, seed=7)
model, trace = train(ratings, NUM_USERS, NUM_ITEMS, config)

print("objective after each half-step (user solve, then item solve):")
for sweep_index in range(config.iterations):
    after_users = trace.values[2 * sweep_index]
    after_items = trace.values[2 * sweep_index + 1]
    print(f"  sweep {sweep_index + 1:>2}: {after_users:>12.4f} -> {after_items:>12.4f}")
assert trace.is_non_increasing(rel_tol=1e-9)

print(f"\ntrain RMSE: {train_rmse(model, ratings):.5f} (planted data is noise-free)")

u, i = int(users[0]), int(items[0])
print(f"spot check: predict({u}, {i}) = {predict(model, u, i):.4f} "
      f"vs planted value {values[0]:.4f}")

# same seed, same data -> bit-identical factors
redo, _ = train(ratings, NUM_USERS, NUM_ITEMS, config)
assert np.array_equal(redo.user_factors, model.user_factors)
print("retraining reproduced the factors bit-for-bit")
