"""Turn playtimes into 1-5 ratings against each game's median playtime, then
nudge them with review sentiment (model 2) or the recommend flag (model 3)."""

import numpy as np

from steamrec import (
    Interaction,
    Review,
    Strategy,
    build_table,
    bundled_lexicon,
    derive,
    playtime_rating,
)

print("bucket rules against a median of 100 minutes:")
for minutes in (150, 100, 90, 60, 30, 10, 0):
    print(f"  {minutes:>4} min -> rating {playtime_rating(minutes, 100)}")

interactions = [
    Interaction("alice", 1, "Star Forge", 500, 0),
    Interaction("bob", 1, "Star Forge", 100, 0),
    Interaction("carol", 1, "Star Forge", 40, 0),
    Interaction("alice", 2, "Moth Queen", 10, 0),
    Interaction("bob", 2, "Moth Queen", 60, 0),
]
table = build_table(interactions)
print(f"\nper-item medians: " + ", ".join(
    f"{table.index.item_ids[i]}={np.median(table.playtime[table.items == i]):.0f}"
    for i in range(table.num_items)))

reviews = [
    Review("alice", 1, "honestly kind of boring and repetitive", recommended=False),
    Review("carol", 1, "awesome, highly recommend", recommended=True),
    Review("alice", 2, "hidden gem, wonderful art", recommended=True),
]

lexicon = bundled_lexicon()
rows = {}
for strategy in Strategy:
    triples = derive(table, reviews, lexicon, strategy)
    rows[strategy] = [t.rating for t in triples]

print(f"\n{'user':<7}{'item':<12}" + "".join(f"{s.value:>12}" for s in Strategy))
for j, inter in enumerate(interactions):
    cells = "".join(f"{rows[s][j]:>12}" for s in Strategy)
    print(f"{inter.user_id:<7}{inter.item_name:<12}{cells}")

print("\nalice/Star Forge: playtime says 5, her grumpy review pulls it to 4,")
print("and her explicit 'not recommended' on a 5 drags it down to 3.")
