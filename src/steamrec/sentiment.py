"""Rule-based valence scoring and three-way classification of review text.

A reduced lexicon-and-rules analyzer: token valences come from a plain
two-column text file, a negation word within the three preceding tokens
multiplies a valence by -0.74, booster words push a valence away from zero
by a fixed increment, and the summed score is squashed into [-1, 1] with
``s / sqrt(s^2 + 15)``.  No sentence splitting, punctuation emphasis, or
capitalization rules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .ingest import undecodable_line

NORMALIZATION_ALPHA = 15.0
NEGATION_FACTOR = -0.74
NEGATION_WINDOW = 3
POSITIVE_THRESHOLD = 0.05
NEGATIVE_THRESHOLD = -0.05

# Contraction stems appear alongside full forms because tokenization splits
# on apostrophes ("don't" -> "don", "t").  "won" is deliberately absent: it
# collides with the past tense of "win".
NEGATIONS = frozenset(
    """
    ain aint aren arent barely cannot cant couldn couldnt daren darent didn
    didnt doesn doesnt don dont hadn hadnt hardly hasn hasnt haven havent isn
    isnt mightn mightnt mustn mustnt needn neednt neither never no none nope
    nor not nothing nowhere oughtn oughtnt rarely scarcely seldom shan shant
    shouldn shouldnt wasn wasnt weren werent without wont wouldn wouldnt
    """.split()
)

BOOSTERS: Mapping[str, float] = {
    "very": 0.29,
    "really": 0.29,
    "extremely": 0.35,
    "incredibly": 0.35,
    "amazingly": 0.35,
    "absolutely": 0.35,
    "totally": 0.3,
    "utterly": 0.35,
    "completely": 0.3,
    "highly": 0.3,
    "super": 0.3,
    "so": 0.25,
    "truly": 0.3,
    "insanely": 0.35,
    "ridiculously": 0.35,
    "remarkably": 0.3,
    "exceptionally": 0.35,
    "especially": 0.25,
    "particularly": 0.25,
    "quite": 0.2,
    "pretty": 0.2,
    "damn": 0.25,
    # Dampeners: negative increments pull a valence toward zero.
    "slightly": -0.25,
    "somewhat": -0.25,
    "kinda": -0.25,
    "sorta": -0.25,
    "fairly": -0.15,
    "mildly": -0.25,
    "marginally": -0.3,
    "almost": -0.2,
    "partly": -0.2,
}

# Unicode alphanumeric runs (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class SentimentClass(str, Enum):
    POSITIVE = "Positive"
    NEUTRAL = "Neutral"
    NEGATIVE = "Negative"


@dataclass(frozen=True)
class SentimentResult:
    compound: float
    label: SentimentClass


@dataclass(frozen=True)
class Lexicon:
    """Token valences; the negation set and booster increments are the fixed
    module constants ``NEGATIONS`` and ``BOOSTERS``."""

    valences: Mapping[str, float]

    def __post_init__(self):
        for token, valence in self.valences.items():
            if token != token.lower() or any(ch.isspace() for ch in token):
                raise ValueError(f"lexicon token {token!r} must be lowercase and whitespace-free")
            if not math.isfinite(valence):
                raise ValueError(f"lexicon valence for {token!r} is not finite")

    def __len__(self) -> int:
        return len(self.valences)


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a ``token<TAB>valence`` file; ``#`` lines are comments."""
    valences: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'token<TAB>valence'")
                token, raw = parts
                valences[token.strip().lower()] = float(raw)
    except UnicodeDecodeError as exc:
        lineno, problem = undecodable_line(path, exc)
        raise ValueError(f"{path}:{lineno}: {problem}") from None
    if not valences:
        raise ValueError(f"{path}: lexicon has no entries")
    return Lexicon(valences=valences)


@lru_cache(maxsize=1)
def bundled_lexicon() -> Lexicon:
    """The game-review lexicon shipped with the package."""
    ref = resources.files("steamrec").joinpath("data/lexicon.txt")
    with resources.as_file(ref) as path:
        return load_lexicon(path)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def normalize(valence_sum: float) -> float:
    """Squash an unbounded valence sum into (-1, 1)."""
    return valence_sum / math.sqrt(valence_sum * valence_sum + NORMALIZATION_ALPHA)


def valence_sum(tokens: list[str], lexicon: Lexicon) -> float:
    """Sum token valences with negation and booster context applied.

    For each lexicon hit the three preceding tokens are scanned: booster
    increments are added toward the valence's sign first, then a negation
    anywhere in the window multiplies the result by -0.74.
    """
    total = 0.0
    for pos, token in enumerate(tokens):
        valence = lexicon.valences.get(token)
        if valence is None:
            continue
        window = tokens[max(0, pos - NEGATION_WINDOW) : pos]
        boost = sum(BOOSTERS.get(prev, 0.0) for prev in window)
        if boost:
            valence += boost if valence > 0 else -boost
        if any(prev in NEGATIONS for prev in window):
            valence *= NEGATION_FACTOR
        total += valence
    return total


def score(text: str, lexicon: Lexicon) -> float:
    """Compound score in [-1, 1]; empty or unmatched text scores 0."""
    total = valence_sum(tokenize(text), lexicon)
    if total == 0.0:
        return 0.0
    return normalize(total)


def classify(compound: float) -> SentimentClass:
    """Three-way class with the +-0.05 thresholds; raises outside [-1, 1]."""
    if not -1.0 <= compound <= 1.0:
        raise ValueError(f"compound {compound!r} outside [-1, 1]")
    if compound >= POSITIVE_THRESHOLD:
        return SentimentClass.POSITIVE
    if compound <= NEGATIVE_THRESHOLD:
        return SentimentClass.NEGATIVE
    return SentimentClass.NEUTRAL


def analyze(text: str, lexicon: Lexicon) -> SentimentResult:
    compound = score(text, lexicon)
    return SentimentResult(compound=compound, label=classify(compound))


@dataclass(frozen=True)
class ClassCounts:
    positive: int = 0
    neutral: int = 0
    negative: int = 0

    @property
    def total(self) -> int:
        return self.positive + self.neutral + self.negative


def class_counts(texts: Iterable[str], lexicon: Lexicon) -> ClassCounts:
    """Count the sentiment class of each text; counts sum to the input size."""
    positive = neutral = negative = 0
    for text in texts:
        label = classify(score(text, lexicon))
        if label is SentimentClass.POSITIVE:
            positive += 1
        elif label is SentimentClass.NEGATIVE:
            negative += 1
        else:
            neutral += 1
    return ClassCounts(positive=positive, neutral=neutral, negative=negative)
