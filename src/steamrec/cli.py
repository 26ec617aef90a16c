"""Command-line interface wiring the whole pipeline.

Subcommands: ingest, stats, sentiment, derive, train, evaluate, sweep,
recommend, pipeline.  Each stage is one function that its subcommand and
:func:`run_pipeline` share.  The pipeline reads a JSON run configuration;
every config field is also a flag, and flags override file values.
Artifacts are written to a temp name and renamed into place, so a failed run
never leaves a partial file under a final name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import secrets
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np

from . import als, evaluation, ingest, ratings, recommend, sentiment
from .errors import ConfigError, PipelineError, SteamrecError, check_type

logger = logging.getLogger("steamrec")


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
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _check_reviews(strategy: ratings.Strategy, reviews_path: str | None) -> None:
    if strategy is not ratings.Strategy.PLAYTIME_ONLY and not reviews_path:
        raise ConfigError(f"strategy {strategy.value!r} requires a reviews file")


# flag -> config key, "section.key" for a key inside a section.  --lambda sets
# "lambda", which _sections prefers over "regularization", so the flag wins.
_CONFIG_FLAGS = {
    "items": "items", "reviews": "reviews", "lexicon": "lexicon", "out_dir": "out_dir",
    "strategy": "strategy", "k": "k", "users": "users", "rank": "train.rank",
    "iters": "train.iterations", "regularization": "train.lambda", "seed": "train.seed",
    "split": "split.fraction", "split_seed": "split.seed",
}
# The config file's top-level keys: the flags' and "workers", which is accepted and ignored.
_CONFIG_KEYS = {path.partition(".")[0] for path in _CONFIG_FLAGS.values()} | {"workers"}


@dataclass
class RunConfig:
    """Pipeline run configuration; mirrors the JSON config file.  Its defaults, with
    TrainConfig's and SplitConfig's, are the only place a run default is written."""

    items_path: str
    out_dir: str
    reviews_path: str | None = None
    lexicon_path: str | None = None
    strategy: ratings.Strategy = ratings.Strategy.PLAYTIME_ONLY
    train: als.TrainConfig = field(default_factory=als.TrainConfig)
    split: evaluation.SplitConfig = field(default_factory=evaluation.SplitConfig)
    k: int = 5
    users: list[str] | None = None

    def __post_init__(self):
        self.strategy = ratings.Strategy(self.strategy)
        if not self.items_path:
            raise ConfigError("items path must be nonempty")
        if not self.out_dir:
            raise ConfigError("output directory must be nonempty")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        _check_reviews(self.strategy, self.reviews_path)

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        """Build from the config file's JSON value; a value of the wrong type is a ConfigError."""
        check_type(data, dict, "the run configuration")
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown top-level keys: {unknown}")
        train_cfg, split_cfg = _sections(data)
        users = check_type(data.get("users"), list, "'users'", optional=True)
        for user in users or ():
            check_type(user, str, "each of 'users'")
        try:
            return cls(
                items_path=check_type(data.get("items", ""), str, "'items'"),
                out_dir=check_type(data.get("out_dir", ""), str, "'out_dir'"),
                reviews_path=check_type(data.get("reviews"), str, "'reviews'", optional=True),
                lexicon_path=check_type(data.get("lexicon"), str, "'lexicon'", optional=True),
                # cls.strategy and cls.k are the field defaults
                strategy=ratings.Strategy(data.get("strategy", cls.strategy)),
                train=als.TrainConfig(**train_cfg),
                split=evaluation.SplitConfig(**split_cfg),
                k=check_type(data.get("k", cls.k), int, "'k'"),
                users=users,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad run configuration: {exc}") from exc


def _sections(data: dict) -> tuple[dict, dict]:
    """The config's "train" and "split" objects as TrainConfig and SplitConfig keywords;
    a non-object, an unknown key or a value of the wrong type is a ConfigError."""
    train_cfg = dict(check_type(data.get("train", {}), dict, "'train'"))
    if "lambda" in train_cfg:
        train_cfg["regularization"] = train_cfg.pop("lambda")
    split_cfg = check_type(data.get("split", {}), dict, "'split'")
    for name, section, kind in (("train", train_cfg, als.TrainConfig),
                                ("split", split_cfg, evaluation.SplitConfig)):
        types = get_type_hints(kind)
        unknown = sorted(set(section) - set(types))
        if unknown:
            raise ConfigError(f"unknown {name!r} keys: {unknown}")
        for key, value in section.items():
            check_type(value, types[key], f"'{name}.{key}'")
    return train_cfg, split_cfg


def _overlay(data: dict, args) -> dict:
    """``data`` with the config key of each flag that ``args`` was given set to its value."""
    for flag, path in _CONFIG_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            section, _, key = path.rpartition(".")
            target = check_type(data.setdefault(section, {}), dict, repr(section)) if section else data
            target[key] = value
    return data


def _flag_configs(args) -> tuple[als.TrainConfig, evaluation.SplitConfig]:
    """The configs a subcommand's flags give, the split checked first."""
    train_cfg, split_cfg = _sections(_overlay({}, args))
    split = evaluation.SplitConfig(**split_cfg)
    return als.TrainConfig(**train_cfg), split


# -- stages: each is called by its subcommand and by run_pipeline -------------
def _ingest(items_path: str, reviews_path: str | None, out_dir: Path):
    """Read dumps or flat tables; write interactions.jsonl (and reviews.jsonl) into ``out_dir``."""
    interactions = ingest.read_interactions_any(items_path)
    reviews = ingest.read_reviews_any(reviews_path) if reviews_path else []
    _atomic_write(out_dir / "interactions.jsonl",
                  lambda tmp: ingest.write_interactions_jsonl(interactions, tmp))
    if reviews_path:
        _atomic_write(out_dir / "reviews.jsonl",
                      lambda tmp: ingest.write_reviews_jsonl(reviews, tmp))
    return interactions, reviews


def _derive(table, reviews, lexicon_path: str | None, strategy, out: Path) -> np.ndarray:
    """Derive the (N, 3) rating rows and write them to ``out`` as ratings.csv."""
    rows = ratings.derive_array(table, reviews, _load_lexicon(lexicon_path), strategy)
    _atomic_write(out, lambda tmp: ratings.write_ratings_csv(rows, tmp))
    return rows


def _train(rows, num_users: int, num_items: int, config: als.TrainConfig, out: Path):
    """Train on ``rows`` and save the model to ``out``; returns the model and loss trace."""
    model, trace = als.train(rows, num_users, num_items, config)
    _atomic_write(out, lambda tmp: als.save_model(model, tmp))
    return model, trace


def _evaluate(rows, num_users: int, num_items: int, train_config, split_config, strategy: str):
    """The held-out RMSE report and its JSON text."""
    report = evaluation.evaluate(rows, num_users, num_items, train_config, split_config, strategy)
    return report, _json_dumps(report.to_dict())


def _recommend(model, table, users: Sequence[str], k: int, exclude_seen: bool = True) -> str:
    """Top-``k`` recommendations for each user id, as JSON text."""
    results = recommend.batch_recommend(model, table, users, k, exclude_seen=exclude_seen)
    return _json_dumps([r.to_dict() for r in results])


_ARTIFACTS = {"interactions": "interactions.jsonl", "reviews": "reviews.jsonl",
              "ratings": "ratings.csv", "model": "model.bin", "eval": "eval.json",
              "recommendations": "recommendations.json"}


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a :class:`PipelineError` naming ``name``."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def run_pipeline(config: RunConfig) -> dict[str, Path]:
    """ingest -> derive -> train -> evaluate -> recommend, writing artifacts.

    Returns the artifact paths.  Any stage failure raises
    :class:`PipelineError` naming the stage; artifacts are written atomically.
    The evaluation trains on the train split; the persisted model and the
    recommendations use all derived ratings.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {name: out_dir / file_name for name, file_name in _ARTIFACTS.items()
                 if name != "reviews" or config.reviews_path}

    with _stage("ingest"):
        interactions, reviews = _ingest(config.items_path, config.reviews_path, out_dir)
        logger.info("ingested %d interactions, %d reviews", len(interactions), len(reviews))
        table = ingest.build_table(interactions)
    with _stage("derive"):
        rows = _derive(table, reviews, config.lexicon_path, config.strategy, artifacts["ratings"])
        logger.info("derived %d ratings with strategy %s", len(rows), config.strategy.value)
    with _stage("train"):
        model, _ = _train(rows, table.num_users, table.num_items, config.train, artifacts["model"])
    with _stage("evaluate"):
        report, text = _evaluate(rows, table.num_users, table.num_items, config.train,
                                 config.split, config.strategy.value)
        _atomic_write_text(artifacts["eval"], text)
        logger.info("held-out rmse %.4f (%d evaluated, %d dropped)",
                    report.rmse, report.evaluated, report.dropped)
    with _stage("recommend"):
        users = config.users if config.users is not None else table.index.user_ids[:2]
        _atomic_write_text(artifacts["recommendations"], _recommend(model, table, users, config.k))
    return artifacts


def cmd_ingest(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    interactions, reviews = _ingest(args.items, args.reviews, out_dir)
    print(f"wrote {len(interactions)} interactions to {out_dir / 'interactions.jsonl'}")
    if args.reviews:
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
    sys.stdout.write(_json_dumps({"compound": result.compound, "class": result.label.value}))
    return 0


def cmd_sentiment_report(args) -> int:
    reviews = ingest.read_reviews_any(args.reviews)
    counts = sentiment.class_counts((r.text for r in reviews), _load_lexicon(args.lexicon))
    print("class     count")
    print(f"Positive  {counts.positive}")
    print(f"Neutral   {counts.neutral}")
    print(f"Negative  {counts.negative}")
    print(f"total     {counts.total}")
    return 0


def cmd_derive(args) -> int:
    _check_reviews(ratings.Strategy(args.strategy), args.reviews)
    table = ingest.build_table(ingest.read_interactions_any(args.interactions))
    reviews = ingest.read_reviews_any(args.reviews) if args.reviews else []
    rows = _derive(table, reviews, args.lexicon, args.strategy, Path(args.out))
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
    config, _ = _flag_configs(args)
    _, trace = _train(rows, num_users, num_items, config, Path(args.out))
    print(f"trained rank-{config.rank} model on {len(rows)} ratings "
          f"(final objective {trace.values[-1]:.4f}); wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    rows, num_users, num_items = _read_ratings(args.ratings)
    train_config, split = _flag_configs(args)
    _, text = _evaluate(rows, num_users, num_items, train_config, split, args.strategy)
    sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    try:
        ranks = [int(r) for r in args.ranks.split(",") if r.strip()]
    except ValueError:
        raise ConfigError(f"--ranks {args.ranks!r} is not a list of integers") from None
    if not ranks:
        raise ConfigError(f"--ranks {args.ranks!r} names no rank")
    rows, _, _ = _read_ratings(args.ratings)
    train_config, split = _flag_configs(args)
    reports = evaluation.sweep(rows, ranks, train_config, split)
    sys.stdout.write(evaluation.sweep_csv(reports))
    return 0


def cmd_recommend(args) -> int:
    model = als.load_model(args.model)
    table = ingest.build_table(ingest.read_interactions_any(args.interactions))
    sys.stdout.write(_recommend(model, table, args.users, args.k, not args.include_seen))
    return 0


def cmd_pipeline(args) -> int:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = check_type(json.load(handle), dict, "the run configuration")
    artifacts = run_pipeline(RunConfig.from_mapping(_overlay(data, args)))
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return 0


def _comma_list(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def _add_fit_flags(parser: argparse.ArgumentParser, *then: tuple[str, dict],
                   rank: bool = True, split: bool = True) -> None:
    """--rank, --iters, --lambda, --seed, the split flags, the subcommand's ``then``
    (flag, keywords) pairs and --workers.  The fit flags default to None: a given
    one overlays the config, and TrainConfig and SplitConfig hold the defaults."""
    if rank:
        parser.add_argument("--rank", type=int)
    parser.add_argument("--iters", type=int)
    parser.add_argument("--lambda", dest="regularization", type=float)
    parser.add_argument("--seed", type=int)
    if split:
        parser.add_argument("--split", type=float, help="train fraction")
        parser.add_argument("--split-seed", type=int)
    for flag, options in then:
        parser.add_argument(flag, **options)
    parser.add_argument("--workers", type=int, help="accepted for compatibility; the ALS solver is "
                        "batched and single-threaded, so this changes neither results nor speed")


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
    p.add_argument("--strategy", choices=[s.value for s in ratings.Strategy],
                   default=RunConfig.strategy.value)
    p.add_argument("--out", default="ratings.csv")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("train", help="train an ALS factor model")
    p.add_argument("--ratings", required=True)
    _add_fit_flags(p, ("--out", {"default": "model.bin"}), split=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="hold-out RMSE evaluation")
    p.add_argument("--ratings", required=True)
    _add_fit_flags(p, ("--strategy", {"default": "", "help": "strategy label for the report"}))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="RMSE across latent-factor counts")
    p.add_argument("--ratings", required=True)
    p.add_argument("--ranks", required=True, help="comma-separated, e.g. 5,10,20,30,50")
    _add_fit_flags(p, rank=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("recommend", help="top-K items per user")
    p.add_argument("--model", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--users", type=_comma_list, required=True,
                   help="comma-separated raw user ids")
    p.add_argument("--k", type=int, default=RunConfig.k)
    p.add_argument("--include-seen", action="store_true")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", help="JSON run configuration")
    for flag in ("--items", "--reviews", "--lexicon", "--out-dir"):
        p.add_argument(flag)
    p.add_argument("--strategy", choices=[s.value for s in ratings.Strategy])
    _add_fit_flags(p, ("--k", {"type": int}), ("--users", {
        "type": _comma_list, "help": "comma-separated raw user ids to recommend for"}))
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
    except (SteamrecError, OSError, ValueError, MemoryError) as exc:
        print(f"steamrec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
