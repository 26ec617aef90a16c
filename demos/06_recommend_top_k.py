"""Deterministic top-K lists: owned games are excluded and exact score ties
break toward the lower item index."""

import numpy as np

from steamrec import Interaction, build_table
from steamrec.als import TrainConfig, train
from steamrec.ratings import Strategy, derive
from steamrec.recommend import batch_recommend, top_k

rng = np.random.default_rng(3)
CATALOG = [(1000 + 10 * n, name) for n, name in enumerate(
    ["Star Forge", "Dungeon Run", "Rocket Rally", "Pixel Siege", "Night Harvest",
     "Iron Caravan", "Echo Diver", "Frost Citadel", "Turbo Gardens", "Moth Queen"])]

interactions = []
for user in [f"player{n}" for n in range(8)]:
    for pick in rng.choice(len(CATALOG), size=6, replace=False):
        item_id, name = CATALOG[pick]
        interactions.append(
            Interaction(user, item_id, name, float(rng.integers(0, 2000)), 0.0))

table = build_table(interactions)
triples = derive(table, strategy=Strategy.PLAYTIME_ONLY)
model, _ = train(triples, table.num_users, table.num_items,
                 TrainConfig(rank=4, iterations=10, regularization=0.1, seed=42))

for entry in batch_recommend(model, table, ["player0", "player5", "stranger"], k=3):
    if entry.error:
        print(f"{entry.user_id}: flagged ({entry.error})")
        continue
    print(f"{entry.user_id}:")
    for rec in entry.items:
        print(f"  {rec.position}. {rec.item_name:<15} (id {rec.item_id}, score {rec.score:.3f})")

owned = set(table.seen_items(0).tolist())
listed = {rec.item_index for rec in top_k(model, table, 0, k=10)}
assert not owned & listed
print(f"\nplayer0 owns {len(owned)} games; none of them appear in the list")
print("rerunning produces the identical list:",
      top_k(model, table, 0, k=3) == top_k(model, table, 0, k=3))
