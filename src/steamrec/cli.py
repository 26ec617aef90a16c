"""Command-line interface wiring the whole pipeline.

Subcommands: ingest, stats, sentiment, derive, train, evaluate, sweep,
recommend, pipeline.  The pipeline reads a JSON run configuration; every
config field is also a flag, and flags override file values.  Artifacts are
written to a temp name and renamed into place, so a failed run never leaves
a partial file under a final name.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import secrets
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import als, evaluation, ingest, ratings, recommend, sentiment
from .errors import ConfigError, PipelineError, SteamrecError

logger = logging.getLogger("steamrec")


def _default_workers() -> int:
    return os.cpu_count() or 1


def _atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    """Run ``writer`` on a fresh temp file beside ``path``, then rename it into place.

    The temp name is unique per call, so concurrent writes to one directory
    never share it; the temp file is removed when the writer raises.
    """
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    # O_EXCL claims the name; mode 0666 lets the umask give the mode open() would.
    os.close(os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _load_lexicon(path: str | None) -> sentiment.Lexicon:
    if path:
        return sentiment.load_lexicon(path)
    return sentiment.bundled_lexicon()


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@dataclass
class RunConfig:
    """Pipeline run configuration; mirrors the JSON config file."""

    items_path: str
    out_dir: str
    reviews_path: str | None = None
    lexicon_path: str | None = None
    strategy: ratings.Strategy = ratings.Strategy.PLAYTIME_ONLY
    train: als.TrainConfig = field(default_factory=lambda: als.TrainConfig(rank=30))
    split: evaluation.SplitConfig = field(default_factory=evaluation.SplitConfig)
    k: int = 5
    users: list[str] | None = None
    workers: int | None = None

    def __post_init__(self):
        self.strategy = ratings.Strategy(self.strategy)
        if not self.items_path:
            raise ConfigError("items path must be nonempty")
        if not self.out_dir:
            raise ConfigError("output directory must be nonempty")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.strategy is not ratings.Strategy.PLAYTIME_ONLY and not self.reviews_path:
            raise ConfigError(f"strategy {self.strategy.value!r} requires a reviews file")

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        train_cfg = dict(data.get("train", {}))
        if "lambda" in train_cfg:
            train_cfg["regularization"] = train_cfg.pop("lambda")
        split_cfg = dict(data.get("split", {}))
        try:
            train = als.TrainConfig(rank=train_cfg.pop("rank", 30), **train_cfg)
            split = evaluation.SplitConfig(**split_cfg)
            strategy = ratings.Strategy(data.get("strategy", "playtime"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad run configuration: {exc}") from exc
        return cls(
            items_path=data.get("items", ""),
            out_dir=data.get("out_dir", ""),
            reviews_path=data.get("reviews"),
            lexicon_path=data.get("lexicon"),
            strategy=strategy,
            train=train,
            split=split,
            k=data.get("k", 5),
            users=data.get("users"),
            workers=data.get("workers"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_mapping(json.load(handle))


def run_pipeline(config: RunConfig) -> dict[str, Path]:
    """ingest -> derive -> train -> evaluate -> recommend, writing artifacts.

    Returns the artifact paths.  Any stage failure raises
    :class:`PipelineError` naming the stage; artifacts are written atomically.
    The evaluation trains on the train split; the persisted model and the
    recommendations use all derived ratings.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = config.workers if config.workers is not None else _default_workers()
    artifacts: dict[str, Path] = {}

    def stage(name: str, fn: Callable):
        try:
            return fn()
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, exc) from exc

    def do_ingest():
        with open(config.items_path, "r", encoding="utf-8") as handle:
            interactions = ingest.parse_user_items(handle)
        reviews: list[ingest.Review] = []
        if config.reviews_path:
            reviews = ingest.read_reviews_any(config.reviews_path)
        path = out_dir / "interactions.jsonl"
        _atomic_write(path, lambda tmp: ingest.write_interactions_jsonl(interactions, tmp))
        artifacts["interactions"] = path
        if config.reviews_path:
            rpath = out_dir / "reviews.jsonl"
            _atomic_write(rpath, lambda tmp: ingest.write_reviews_jsonl(reviews, tmp))
            artifacts["reviews"] = rpath
        logger.info("ingested %d interactions, %d reviews", len(interactions), len(reviews))
        return interactions, reviews

    interactions, reviews = stage("ingest", do_ingest)
    table = stage("ingest", lambda: ingest.build_table(interactions))

    def do_derive():
        lexicon = _load_lexicon(config.lexicon_path)
        rows = ratings.derive_array(table, reviews, lexicon, config.strategy)
        path = out_dir / "ratings.csv"
        _atomic_write(path, lambda tmp: ratings.write_ratings_csv(rows, tmp))
        artifacts["ratings"] = path
        logger.info("derived %d ratings with strategy %s", len(rows), config.strategy.value)
        return rows

    rows = stage("derive", do_derive)

    def do_train():
        model, _ = als.train(
            rows, table.num_users, table.num_items, config.train, workers=workers
        )
        path = out_dir / "model.bin"
        _atomic_write(path, lambda tmp: als.save_model(model, tmp))
        artifacts["model"] = path
        return model

    model = stage("train", do_train)

    def do_evaluate():
        report = evaluation.evaluate(
            rows,
            table.num_users,
            table.num_items,
            config.train,
            config.split,
            strategy=config.strategy.value,
            workers=workers,
        )
        path = out_dir / "eval.json"
        _atomic_write_text(path, _json_dumps(report.to_dict()))
        artifacts["eval"] = path
        logger.info("held-out rmse %.4f (%d evaluated, %d dropped)",
                    report.rmse, report.evaluated, report.dropped)
        return report

    stage("evaluate", do_evaluate)

    def do_recommend():
        users = config.users
        if users is None:
            users = table.index.user_ids[: min(2, table.num_users)]
        results = recommend.batch_recommend(model, table, users, config.k)
        path = out_dir / "recommendations.json"
        _atomic_write_text(path, _json_dumps([r.to_dict() for r in results]))
        artifacts["recommendations"] = path

    stage("recommend", do_recommend)
    return artifacts


def cmd_ingest(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.items, "r", encoding="utf-8") as handle:
        interactions = ingest.parse_user_items(handle)
    _atomic_write(
        out_dir / "interactions.jsonl",
        lambda tmp: ingest.write_interactions_jsonl(interactions, tmp),
    )
    print(f"wrote {len(interactions)} interactions to {out_dir / 'interactions.jsonl'}")
    if args.reviews:
        reviews = ingest.read_reviews_any(args.reviews)
        _atomic_write(
            out_dir / "reviews.jsonl", lambda tmp: ingest.write_reviews_jsonl(reviews, tmp)
        )
        print(f"wrote {len(reviews)} reviews to {out_dir / 'reviews.jsonl'}")
    return 0


def cmd_stats(args) -> int:
    table = ingest.build_table(ingest.read_interactions_any(args.items))
    reviews = ingest.read_reviews_any(args.reviews) if args.reviews else []
    report = evaluation.stats(table, reviews, _load_lexicon(args.lexicon))
    sys.stdout.write(evaluation.format_stats(report))
    return 0


def cmd_sentiment_score(args) -> int:
    result = sentiment.analyze(args.text, _load_lexicon(args.lexicon))
    sys.stdout.write(
        _json_dumps({"compound": result.compound, "class": result.label.value})
    )
    return 0


def cmd_sentiment_report(args) -> int:
    reviews = ingest.read_reviews_any(args.reviews)
    counts = sentiment.class_counts(
        (review.text for review in reviews), _load_lexicon(args.lexicon)
    )
    print("class     count")
    print(f"Positive  {counts.positive}")
    print(f"Neutral   {counts.neutral}")
    print(f"Negative  {counts.negative}")
    print(f"total     {counts.total}")
    return 0


def cmd_derive(args) -> int:
    table = ingest.build_table(ingest.read_interactions_any(args.interactions))
    strategy = ratings.Strategy(args.strategy)
    reviews = ingest.read_reviews_any(args.reviews) if args.reviews else []
    if strategy is not ratings.Strategy.PLAYTIME_ONLY and not args.reviews:
        raise ConfigError(f"strategy {strategy.value!r} requires --reviews")
    rows = ratings.derive_array(table, reviews, _load_lexicon(args.lexicon), strategy)
    _atomic_write(Path(args.out), lambda tmp: ratings.write_ratings_csv(rows, tmp))
    print(f"wrote {len(rows)} ratings to {args.out}")
    return 0


def _read_ratings(path: str) -> tuple[np.ndarray, int, int]:
    """The (N, 3) rows of a ratings.csv and the user and item counts they imply."""
    rows = ratings.read_ratings_array(path)
    if not len(rows):
        raise ValueError(f"{path}: no ratings")
    num_users, num_items = (rows[:, :2].max(axis=0) + 1).tolist()
    return rows, num_users, num_items


def cmd_train(args) -> int:
    rows, num_users, num_items = _read_ratings(args.ratings)
    config = als.TrainConfig(
        rank=args.rank,
        iterations=args.iters,
        regularization=args.regularization,
        seed=args.seed,
    )
    model, trace = als.train(
        rows, num_users, num_items, config, workers=args.workers or _default_workers()
    )
    _atomic_write(Path(args.out), lambda tmp: als.save_model(model, tmp))
    print(
        f"trained rank-{config.rank} model on {len(rows)} ratings "
        f"(final objective {trace.values[-1]:.4f}); wrote {args.out}"
    )
    return 0


def cmd_evaluate(args) -> int:
    rows, num_users, num_items = _read_ratings(args.ratings)
    report = evaluation.evaluate(
        rows,
        num_users,
        num_items,
        als.TrainConfig(
            rank=args.rank,
            iterations=args.iters,
            regularization=args.regularization,
            seed=args.seed,
        ),
        evaluation.SplitConfig(fraction=args.split, seed=args.split_seed),
        strategy=args.strategy,
        workers=args.workers or _default_workers(),
    )
    sys.stdout.write(_json_dumps(report.to_dict()))
    return 0


def cmd_sweep(args) -> int:
    rows, _, _ = _read_ratings(args.ratings)
    ranks = [int(r) for r in args.ranks.split(",") if r.strip()]
    reports = evaluation.sweep(
        rows,
        ranks,
        als.TrainConfig(
            rank=ranks[0],
            iterations=args.iters,
            regularization=args.regularization,
            seed=args.seed,
        ),
        evaluation.SplitConfig(fraction=args.split, seed=args.split_seed),
        workers=args.workers or _default_workers(),
    )
    sys.stdout.write(evaluation.sweep_csv(reports))
    return 0


def cmd_recommend(args) -> int:
    model = als.load_model(args.model)
    table = ingest.build_table(ingest.read_interactions_any(args.interactions))
    users = [u for u in args.users.split(",") if u]
    results = recommend.batch_recommend(
        model, table, users, args.k, exclude_seen=not args.include_seen
    )
    sys.stdout.write(_json_dumps([r.to_dict() for r in results]))
    return 0


def cmd_pipeline(args) -> int:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    overrides = {
        "items": args.items,
        "reviews": args.reviews,
        "lexicon": args.lexicon,
        "out_dir": args.out_dir,
        "strategy": args.strategy,
        "k": args.k,
        "workers": args.workers,
    }
    data.update({key: value for key, value in overrides.items() if value is not None})
    if args.users is not None:
        data["users"] = [u for u in args.users.split(",") if u]
    train_cfg = dict(data.get("train", {}))
    for key, value in (
        ("rank", args.rank),
        ("iterations", args.iters),
        ("regularization", args.regularization),
        ("seed", args.seed),
    ):
        if value is not None:
            train_cfg[key] = value
    data["train"] = train_cfg
    split_cfg = dict(data.get("split", {}))
    if args.split is not None:
        split_cfg["fraction"] = args.split
    if args.split_seed is not None:
        split_cfg["seed"] = args.split_seed
    data["split"] = split_cfg

    artifacts = run_pipeline(RunConfig.from_mapping(data))
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return 0


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted for compatibility; the ALS solver is batched and single-threaded, "
        "so this changes neither results nor speed",
    )


def _add_train_flags(parser: argparse.ArgumentParser, with_defaults: bool) -> None:
    default = (lambda v: v) if with_defaults else (lambda v: None)
    parser.add_argument("--rank", type=int, default=default(30))
    parser.add_argument("--iters", type=int, default=default(10))
    parser.add_argument(
        "--lambda", dest="regularization", type=float, default=default(0.1)
    )
    parser.add_argument("--seed", type=int, default=default(42))


def _add_split_flags(parser: argparse.ArgumentParser, with_defaults: bool) -> None:
    default = (lambda v: v) if with_defaults else (lambda v: None)
    parser.add_argument("--split", type=float, default=default(0.8), help="train fraction")
    parser.add_argument("--split-seed", type=int, default=default(42))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steamrec",
        description="Derive game ratings from playtime/reviews, train ALS, recommend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize raw dumps into jsonl tables")
    p.add_argument("--items", required=True)
    p.add_argument("--reviews")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("--items", required=True)
    p.add_argument("--reviews")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sentiment", help="score text or report class counts")
    ssub = p.add_subparsers(dest="sentiment_command", required=True)
    ps = ssub.add_parser("score")
    ps.add_argument("--text", required=True)
    ps.add_argument("--lexicon")
    ps.set_defaults(func=cmd_sentiment_score)
    pr = ssub.add_parser("report")
    pr.add_argument("--reviews", required=True)
    pr.add_argument("--lexicon")
    pr.set_defaults(func=cmd_sentiment_report)

    p = sub.add_parser("derive", help="derive rating triples from interactions")
    p.add_argument("--interactions", required=True)
    p.add_argument("--reviews")
    p.add_argument("--lexicon")
    p.add_argument(
        "--strategy",
        choices=[s.value for s in ratings.Strategy],
        default="playtime",
    )
    p.add_argument("--out", default="ratings.csv")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("train", help="train an ALS factor model")
    p.add_argument("--ratings", required=True)
    _add_train_flags(p, with_defaults=True)
    p.add_argument("--out", default="model.bin")
    _add_workers(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="hold-out RMSE evaluation")
    p.add_argument("--ratings", required=True)
    _add_train_flags(p, with_defaults=True)
    _add_split_flags(p, with_defaults=True)
    p.add_argument("--strategy", default="", help="strategy label for the report")
    _add_workers(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="RMSE across latent-factor counts")
    p.add_argument("--ratings", required=True)
    p.add_argument("--ranks", required=True, help="comma-separated, e.g. 5,10,20,30,50")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--lambda", dest="regularization", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=42)
    _add_split_flags(p, with_defaults=True)
    _add_workers(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("recommend", help="top-K items per user")
    p.add_argument("--model", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--users", required=True, help="comma-separated raw user ids")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--include-seen", action="store_true")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--items")
    p.add_argument("--reviews")
    p.add_argument("--lexicon")
    p.add_argument("--out-dir")
    p.add_argument("--strategy", choices=[s.value for s in ratings.Strategy])
    _add_train_flags(p, with_defaults=False)
    _add_split_flags(p, with_defaults=False)
    p.add_argument("--k", type=int)
    p.add_argument("--users", help="comma-separated raw user ids to recommend for")
    _add_workers(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"steamrec: {exc}", file=sys.stderr)
        return 1
    except (SteamrecError, OSError, ValueError) as exc:
        print(f"steamrec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
