"""Game recommendations from Steam playtime, review sentiment, and recommend flags.

The pipeline: parse the raw newline-delimited dumps into interaction/review
tables, derive 1-5 ratings from playtime (optionally nudged by review
sentiment or the explicit recommend flag), train an alternating-least-squares
factor model, evaluate held-out RMSE, and emit deterministic top-K
recommendations per user.
"""

from .als import (
    FactorModel,
    LossTrace,
    TrainConfig,
    init_model,
    load_model,
    objective,
    predict,
    save_model,
    solve_half_step,
    train,
    train_rmse,
)
from .errors import (
    ConfigError,
    EvaluationError,
    FieldError,
    ParseError,
    PipelineError,
    SolveError,
    SteamrecError,
)
from .evaluation import (
    DatasetStats,
    EvalReport,
    SplitConfig,
    evaluate,
    format_stats,
    rmse,
    split,
    stats,
    sweep,
)
from .ingest import (
    IdIndex,
    Interaction,
    InteractionTable,
    Interactions,
    Review,
    build_table,
    parse_reviews,
    parse_user_items,
    read_interactions_jsonl,
    read_reviews_jsonl,
    write_interactions_jsonl,
    write_reviews_jsonl,
)
from .ratings import (
    RatingTriple,
    Strategy,
    adjust_with_recommendation,
    adjust_with_sentiment,
    derive,
    playtime_rating,
    write_ratings_csv,
)
from .recommend import Recommendation, UserRecommendations, batch_recommend, top_k
from .sentiment import (
    ClassCounts,
    Lexicon,
    SentimentClass,
    SentimentResult,
    analyze,
    bundled_lexicon,
    class_counts,
    classify,
    load_lexicon,
    score,
)

__version__ = "0.1.0"
