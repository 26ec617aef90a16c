"""Score review text with the bundled valence lexicon: negation windows,
booster words, and the compound squashing into [-1, 1]."""

from steamrec import analyze, bundled_lexicon, class_counts
from steamrec.sentiment import BOOSTERS, NEGATIONS

lexicon = bundled_lexicon()
print(f"bundled lexicon: {len(lexicon)} tokens, "
      f"{len(NEGATIONS)} negations, {len(BOOSTERS)} boosters\n")

SAMPLES = [
    "great game, really fun with friends",
    "not fun at all",                      # negation flips within 3 tokens
    "extremely fun",                       # booster pushes away from zero
    "slightly fun",                        # dampener pulls toward zero
    "buggy unplayable mess, refunded",
    "it runs on my toaster",               # no lexicon hits -> exactly 0
    "not bad actually",                    # negated negative turns mildly positive
]

print(f"{'text':<42} {'compound':>9}  class")
for text in SAMPLES:
    result = analyze(text, lexicon)
    print(f"{text:<42} {result.compound:>9.4f}  {result.label.value}")

counts = class_counts(SAMPLES, lexicon)
print(f"\nclass counts: {counts.positive} Positive / {counts.neutral} Neutral / "
      f"{counts.negative} Negative (total {counts.total})")
