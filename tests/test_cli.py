import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import steamrec
from steamrec import als, cli, evaluation
from steamrec.als import FactorModel, save_model
from steamrec.cli import RunConfig, build_parser, main, run_pipeline
from steamrec.errors import ConfigError, PipelineError, SteamrecError
from steamrec.ratings import read_ratings_array, write_ratings_csv

from .conftest import DATA_DIR, random_rating_array

ARTIFACTS = ["interactions.jsonl", "ratings.csv", "model.bin", "eval.json", "recommendations.json"]


def _pipeline_args(tmp_path, out_name="out", extra=()):
    return [
        "pipeline",
        "--items", str(DATA_DIR / "pipeline_items.jsonl"),
        "--reviews", str(DATA_DIR / "pipeline_reviews.jsonl"),
        "--out-dir", str(tmp_path / out_name),
        "--strategy", "sentiment",
        "--rank", "4",
        "--iters", "4",
        "--seed", "42",
        "--k", "5",
        "--workers", "1",
        *extra,
    ]


def test_pipeline_writes_all_artifacts(tmp_path):
    assert main(_pipeline_args(tmp_path)) == 0
    out = tmp_path / "out"
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert not list(out.glob("*.tmp"))
    report = json.loads((out / "eval.json").read_text())
    assert report["strategy"] == "sentiment"
    assert report["evaluated"] + report["dropped"] == 20  # 20% of 100
    recs = json.loads((out / "recommendations.json").read_text())
    assert len(recs) == 2  # defaults to the first two users
    assert all(len(entry["items"]) <= 5 for entry in recs)


def test_pipeline_missing_items_file_names_path(tmp_path, capsys):
    code = main(
        [
            "pipeline",
            "--items", str(tmp_path / "nope.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code != 0
    err = capsys.readouterr().err
    assert "ingest" in err
    assert "nope.jsonl" in err


def test_pipeline_rerun_is_byte_identical(tmp_path):
    assert main(_pipeline_args(tmp_path, "first")) == 0
    assert main(_pipeline_args(tmp_path, "second")) == 0
    for name in ["ratings.csv", "model.bin", "recommendations.json", "eval.json"]:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, name


def test_pipeline_config_file_with_flag_override(tmp_path):
    config = {
        "items": str(DATA_DIR / "pipeline_items.jsonl"),
        "reviews": str(DATA_DIR / "pipeline_reviews.jsonl"),
        "out_dir": str(tmp_path / "out"),
        "strategy": "recommend",
        "train": {"rank": 3, "iterations": 3, "lambda": 0.2, "seed": 1},
        "split": {"fraction": 0.8, "seed": 42},
        "k": 5,
        "users": ["player01", "missing-user"],
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    # --k overrides the file value
    assert main(["pipeline", "--config", str(config_path), "--k", "2", "--workers", "1"]) == 0
    recs = json.loads((tmp_path / "out" / "recommendations.json").read_text())
    assert [entry["user_id"] for entry in recs] == ["player01", "missing-user"]
    assert len(recs[0]["items"]) == 2
    assert recs[1]["error"] == "unknown user id"


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(items_path="", out_dir="x")
    with pytest.raises(ConfigError):
        RunConfig(items_path="x", out_dir="x", strategy="sentiment")  # no reviews file
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"items": "x", "out_dir": "y", "k": 0})


def test_run_pipeline_wraps_stage_errors(tmp_path):
    config = RunConfig(items_path=str(tmp_path / "absent.jsonl"), out_dir=str(tmp_path / "o"))
    with pytest.raises(PipelineError) as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "ingest"


def test_stage_commands_roundtrip(tmp_path, capsys):
    items = str(DATA_DIR / "pipeline_items.jsonl")
    reviews = str(DATA_DIR / "pipeline_reviews.jsonl")
    work = tmp_path / "work"

    assert main(["ingest", "--items", items, "--reviews", reviews, "--out-dir", str(work)]) == 0
    capsys.readouterr()

    assert main(["stats", "--items", str(work / "interactions.jsonl"),
                 "--reviews", str(work / "reviews.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "interactions:          100" in out
    assert "users:                 10" in out

    ratings_csv = str(work / "ratings.csv")
    assert main(["derive", "--interactions", str(work / "interactions.jsonl"),
                 "--reviews", str(work / "reviews.jsonl"),
                 "--strategy", "recommend", "--out", ratings_csv]) == 0
    capsys.readouterr()

    model_path = str(work / "model.bin")
    assert main(["train", "--ratings", ratings_csv, "--rank", "3", "--iters", "3",
                 "--lambda", "0.1", "--seed", "7", "--out", model_path, "--workers", "1"]) == 0
    capsys.readouterr()

    assert main(["evaluate", "--ratings", ratings_csv, "--rank", "3", "--iters", "3",
                 "--split", "0.8", "--split-seed", "42", "--workers", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"rmse", "evaluated", "dropped", "rank", "regularization"}

    assert main(["sweep", "--ratings", ratings_csv, "--ranks", "1,2", "--iters", "2",
                 "--workers", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rank,rmse,evaluated,dropped"
    assert len(lines) == 3

    assert main(["recommend", "--model", model_path,
                 "--interactions", str(work / "interactions.jsonl"),
                 "--users", "player01,player02", "--k", "5"]) == 0
    recs = json.loads(capsys.readouterr().out)
    assert [entry["user_id"] for entry in recs] == ["player01", "player02"]


def test_ingest_writes_flat_tables_back_byte_for_byte(tmp_path, capsys):
    assert main(_pipeline_args(tmp_path)) == 0
    out, again = tmp_path / "out", tmp_path / "again"
    capsys.readouterr()
    assert main(["ingest", "--items", str(out / "interactions.jsonl"),
                 "--reviews", str(out / "reviews.jsonl"), "--out-dir", str(again)]) == 0
    reviews = len((out / "reviews.jsonl").read_text(encoding="utf-8").splitlines())
    assert capsys.readouterr().out == (
        f"wrote 100 interactions to {again / 'interactions.jsonl'}\n"
        f"wrote {reviews} reviews to {again / 'reviews.jsonl'}\n")
    for name in ("interactions.jsonl", "reviews.jsonl"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_sentiment_commands(tmp_path, capsys):
    assert main(["sentiment", "score", "--text", "great fun, highly recommend"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["class"] == "Positive"
    assert 0 < result["compound"] <= 1

    assert main(["sentiment", "report", "--reviews", str(DATA_DIR / "pipeline_reviews.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "Positive" in out and "total" in out


def test_derive_requires_reviews_for_sentiment(tmp_path, capsys):
    work = tmp_path / "w"
    assert main(["ingest", "--items", str(DATA_DIR / "pipeline_items.jsonl"),
                 "--out-dir", str(work)]) == 0
    capsys.readouterr()
    code = main(["derive", "--interactions", str(work / "interactions.jsonl"),
                 "--strategy", "sentiment", "--out", str(work / "r.csv")])
    assert code != 0
    assert "reviews" in capsys.readouterr().err


def test_parser_knows_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ["ingest", "stats", "sentiment", "derive", "train", "evaluate",
                  "sweep", "recommend", "pipeline"]:
        assert name in text


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "steamrec", "sentiment", "score", "--text", "boring mess"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"] == "Negative"


def test_recommend_with_model_from_other_table_is_one_line_error(tmp_path, capsys):
    assert main(_pipeline_args(tmp_path)) == 0
    out = tmp_path / "out"
    lines = (out / "interactions.jsonl").read_text(encoding="utf-8").splitlines()
    # drop every interaction of one item: the table has one item fewer than the model
    dropped_item = json.loads(lines[0])["item_id"]
    smaller = tmp_path / "smaller.jsonl"
    smaller.write_text(
        "".join(line + "\n" for line in lines if json.loads(line)["item_id"] != dropped_item),
        encoding="utf-8",
    )
    capsys.readouterr()
    code = main(["recommend", "--model", str(out / "model.bin"),
                 "--interactions", str(smaller), "--users", "player01", "--k", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "items" in captured.err


def test_recommend_with_corrupt_model_is_one_line_error(tmp_path, capsys):
    assert main(_pipeline_args(tmp_path)) == 0
    out = tmp_path / "out"
    data = (out / "model.bin").read_bytes()
    broken = tmp_path / "broken.bin"
    broken.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    code = main(["recommend", "--model", str(broken),
                 "--interactions", str(out / "interactions.jsonl"), "--users", "player01"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and "broken.bin" in captured.err


def test_recommend_with_a_nan_score_is_one_line_error(tmp_path, capsys):
    # finite factors whose products overflow to +inf and -inf: the score is NaN,
    # which JSON cannot hold
    flat = tmp_path / "interactions.jsonl"
    flat.write_text(
        "".join(
            json.dumps({"user_id": user, "item_id": item, "item_name": "x",
                        "playtime_forever": 5.0, "playtime_2weeks": 0.0}) + "\n"
            for user, item in (("u1", 10), ("u2", 20))
        ),
        encoding="utf-8",
    )
    model = tmp_path / "model.bin"
    save_model(FactorModel(user_factors=np.full((2, 2), 1e200),
                           item_factors=np.array([[1e200, -1e200]] * 2),
                           rank=2, regularization=0.1), model)
    capsys.readouterr()
    code = main(["recommend", "--model", str(model), "--interactions", str(flat),
                 "--users", "u1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("steamrec: error:")


def test_importing_the_cli_does_not_import_scipy():
    src = Path(steamrec.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", "import steamrec.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_bad_ratings_row_is_one_line_error_naming_the_line(tmp_path, capsys, command):
    path = tmp_path / "ratings.csv"
    path.write_text("user_index,item_index,rating\n0,0,5\n1,0,4\n0,1,7\n", encoding="utf-8")
    extra = ["--ranks", "1"] if command == "sweep" else []
    code = main([command, "--ratings", str(path), *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"steamrec: error: {path}: line 4: rating 7 outside 1..5\n"


def test_negative_ratings_index_is_one_line_error_naming_the_line(tmp_path, capsys):
    path = tmp_path / "ratings.csv"
    path.write_text("user_index,item_index,rating\n0,0,5\n-1,1,5\n", encoding="utf-8")
    code = main(["train", "--ratings", str(path), "--out", str(tmp_path / "model.bin")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"steamrec: error: {path}: line 3: user index -1 is negative\n"
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize(
    "name, record",
    [
        ("user_items.json", b"{'user_id': '%s', 'items': [{'item_id': '1', 'item_name': '%s'}]}"),
        ("interactions.jsonl", b'{"user_id": "%s", "item_id": 1, "item_name": "%s", '
                               b'"playtime_forever": 5.0, "playtime_2weeks": 0.0}'),
    ],
    ids=["raw", "flat"],
)
def test_stats_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, name, record):
    path = tmp_path / name
    path.write_bytes(b"\n".join([record % (b"a", b"ok"), record % (b"b", b"\xff"), b""]))
    code = main(["stats", "--items", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "steamrec: error: line 2: byte 0xff is not UTF-8\n"


def test_train_names_the_line_of_a_byte_that_is_not_utf8_in_ratings(tmp_path, capsys):
    path = tmp_path / "ratings.csv"
    path.write_bytes(b"user_index,item_index,rating\n0,0,5\n1,\xff1,4\n2,2,3\n")
    code = main(["train", "--ratings", str(path), "--out", str(tmp_path / "model.bin")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"steamrec: error: {path}: line 3: byte 0xff is not UTF-8\n"
    assert not (tmp_path / "model.bin").exists()


def test_pipeline_names_the_line_of_a_byte_that_is_not_utf8_in_a_lexicon(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_bytes(b"good\t2.0\nbad\xff\t-2.0\n")
    code = main(_pipeline_args(tmp_path, extra=["--lexicon", str(lexicon)]))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"steamrec: stage 'derive' failed: {lexicon}:2: byte 0xff is not UTF-8\n"
    )


def test_atomic_write_failure_leaves_no_temp_and_keeps_old_artifact(tmp_path):
    target = tmp_path / "ratings.csv"
    target.write_text("old\n", encoding="utf-8")

    def failing_writer(tmp):
        tmp.write_text("partial", encoding="utf-8")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        cli._atomic_write(target, failing_writer)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ratings.csv"]


def test_atomic_writes_to_one_directory_do_not_collide(tmp_path):
    target = tmp_path / "eval.json"
    temp_names = []

    def outer(tmp):
        temp_names.append(tmp.name)
        tmp.write_text("outer\n", encoding="utf-8")
        # a second run writing the same artifact while this one is in flight
        cli._atomic_write_text(target, "inner\n")
        assert tmp.read_text(encoding="utf-8") == "outer\n"

    cli._atomic_write(target, outer)
    assert target.read_text(encoding="utf-8") == "outer\n"
    assert not list(tmp_path.glob("*.tmp"))
    assert temp_names[0] != "eval.json.tmp"
    reference = tmp_path / "reference"
    reference.write_text("", encoding="utf-8")
    assert target.stat().st_mode == reference.stat().st_mode  # the mode open() gives


def test_sweep_with_no_ranks_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "ratings.csv"
    path.write_text("user_index,item_index,rating\n0,0,5\n1,0,4\n", encoding="utf-8")
    for ranks, message in ((",", "names no rank"), ("abc", "is not a list of integers"),
                           ("2.5", "is not a list of integers"),
                           ("2,x,4", "is not a list of integers")):
        code = main(["sweep", "--ratings", str(path), "--ranks", ranks])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"steamrec: error: --ranks {ranks!r} {message}\n"


_VALID_CONFIG = {"items": "items.jsonl", "out_dir": "out"}
# a config whose items file exists, so a value let through would write artifacts
_RUNNABLE_CONFIG = {"items": str(DATA_DIR / "pipeline_items.jsonl"), "out_dir": "out"}


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ([1], [], "the run configuration must be an object"),
        ({**_VALID_CONFIG, "train": 5}, [], "'train' must be an object"),
        ({**_VALID_CONFIG, "train": 5}, ["--rank", "3"], "'train' must be an object"),
        ({**_VALID_CONFIG, "split": [0.8]}, [], "'split' must be an object"),
        ({**_VALID_CONFIG, "split": {"fractoin": 0.5}}, [], "unknown 'split' keys"),
        ({**_RUNNABLE_CONFIG, "strategey": "sentiment"}, [], "unknown top-level keys"),
        ({**_VALID_CONFIG, "k": "5"}, [], "'k' must be an integer"),
        ({**_VALID_CONFIG, "k": True}, [], "'k' must be an integer"),
        ({**_VALID_CONFIG, "users": "player01"}, [], "'users' must be a list or null"),
        ({**_VALID_CONFIG, "users": ["player01", 2]}, [], "each of 'users' must be a string"),
        ({**_VALID_CONFIG, "items": 1}, [], "'items' must be a string"),
        ({**_RUNNABLE_CONFIG, "train": {"rank": 2.5}}, [], "'train.rank' must be an integer"),
        ({**_RUNNABLE_CONFIG, "train": {"iterations": 2.0}}, [],
         "'train.iterations' must be an integer"),
        ({**_RUNNABLE_CONFIG, "train": {"seed": True}}, [], "'train.seed' must be an integer"),
        ({**_RUNNABLE_CONFIG, "split": {"seed": 4.5}}, [], "'split.seed' must be an integer"),
        ({**_RUNNABLE_CONFIG, "train": {"lambda": "0.1"}}, [],
         "'train.regularization' must be a number"),
        ({**_RUNNABLE_CONFIG, "split": {"fraction": [0.5]}}, [],
         "'split.fraction' must be a number"),
    ],
)
def test_run_config_rejects_values_of_the_wrong_type(
    tmp_path, monkeypatch, capsys, config, flags, message
):
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_mapping(config)
    monkeypatch.chdir(tmp_path)  # the relative out_dir "out" lands here
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["pipeline", "--config", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not list((tmp_path / "out").glob("*"))


def test_run_config_ignores_workers_and_lambda_flag_beats_file(tmp_path):
    config = RunConfig.from_mapping({**_VALID_CONFIG, "workers": 8})
    assert not hasattr(config, "workers")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "items": str(DATA_DIR / "pipeline_items.jsonl"),
        "out_dir": str(tmp_path / "out"),
        "train": {"rank": 2, "iterations": 2, "lambda": 0.5},
    }), encoding="utf-8")
    assert main(["pipeline", "--config", str(path), "--lambda", "0.25", "--workers", "3"]) == 0
    report = json.loads((tmp_path / "out" / "eval.json").read_text(encoding="utf-8"))
    assert report["regularization"] == 0.25


_FLAT_INTERACTION = (
    '{"user_id": "u1", "item_id": 10, "item_name": "x", '
    '"playtime_forever": 5.0, "playtime_2weeks": 0.0}'
)
_FLAT_REVIEW = (
    '{"user_id": "u1", "item_id": 10, "text": "fun", "recommended": true, '
    '"funny": 0, "helpful": 0, "posted": ""}'
)


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ('{"foo": 1}', "line 3: missing required field"),
        ("[1, 2]", "line 3: record is not an object"),
        ("{not json", "line 3: not a JSON value"),
        ('{"user_id": null, "item_id": "abc", "item_name": "x", "playtime_forever": 1, '
         '"playtime_2weeks": 0}', "line 3: user_id must be a string, got None"),
        ('{"user_id": "u2", "item_id": true}', "line 3: item_id must be an integer, got True"),
    ],
)
@pytest.mark.parametrize("command", ["stats", "recommend", "sentiment report", "derive"])
def test_bad_flat_jsonl_line_is_one_line_error_naming_the_line(
    tmp_path, capsys, command, bad_line, message
):
    good = _FLAT_REVIEW if command == "sentiment report" else _FLAT_INTERACTION
    path = tmp_path / "flat.jsonl"
    path.write_text(f"{good}\n\n{bad_line}\n{good}\n", encoding="utf-8")
    if command == "stats":
        argv = ["stats", "--items", str(path)]
    elif command == "recommend":
        ratings_csv = tmp_path / "ratings.csv"
        ratings_csv.write_text("user_index,item_index,rating\n0,0,5\n", encoding="utf-8")
        model = tmp_path / "model.bin"
        assert main(["train", "--ratings", str(ratings_csv), "--rank", "1", "--iters", "1",
                     "--out", str(model)]) == 0
        argv = ["recommend", "--model", str(model), "--interactions", str(path), "--users", "u1"]
    elif command == "derive":
        argv = ["derive", "--interactions", str(path), "--out", str(tmp_path / "ratings.csv")]
    else:
        argv = ["sentiment", "report", "--reviews", str(path)]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_literal_line_with_an_unhashable_key_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "items.jsonl"
    path.write_text("{'user_id': 'u', 'items': {[1]}}\n", encoding="utf-8")
    code = main(["stats", "--items", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "steamrec: error: line 1: not strict JSON nor a Python literal\n"


@pytest.mark.parametrize(
    "second_line",
    [
        # json.loads refuses an integer of more than 4300 digits with a plain ValueError
        '{"user_id": "u2", "items": [{"item_id": "10", "playtime_forever": %s}]}' % ("9" * 5000),
        # and too deep a nesting with a RecursionError
        '{"user_id": "u2", "items": %s}' % ("[" * 100_000 + "]" * 100_000),
    ],
    ids=["huge-integer", "deep-nesting"],
)
def test_line_json_refuses_for_its_limits_is_one_line_error_naming_it(
    tmp_path, capsys, second_line
):
    path = tmp_path / "items.json"
    first_line = '{"user_id": "u1", "items": [{"item_id": "10", "playtime_forever": 5}]}'
    path.write_text(first_line + "\n" + second_line + "\n", encoding="utf-8")
    code = main(["stats", "--items", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "steamrec: error: line 2: not strict JSON nor a Python literal\n"


def test_flat_and_raw_reviews_with_a_repeated_pair_report_the_same_stats(tmp_path, capsys):
    items = tmp_path / "items.jsonl"
    items.write_text(_FLAT_INTERACTION + "\n", encoding="utf-8")
    texts = [("great fun", True), ("awful boring", False)]
    raw = tmp_path / "raw_reviews.json"
    raw.write_text(json.dumps({"user_id": "u1", "reviews": [
        {"item_id": "10", "review": text, "recommend": flag} for text, flag in texts
    ]}) + "\n", encoding="utf-8")
    flat = tmp_path / "reviews.jsonl"
    flat.write_text("".join(
        json.dumps({"user_id": "u1", "item_id": 10, "text": text, "recommended": flag,
                    "funny": 0, "helpful": 0, "posted": ""}) + "\n"
        for text, flag in texts
    ), encoding="utf-8")
    capsys.readouterr()
    outputs = []
    for reviews in (raw, flat):
        assert main(["stats", "--items", str(items), "--reviews", str(reviews)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # the pair keeps its last review
    assert "reviews:               1\n" in outputs[1]
    assert "0 positive / 0 neutral / 1 negative" in outputs[1]


def test_subcommand_chain_reproduces_pipeline_artifacts(tmp_path, capsys):
    assert main(_pipeline_args(tmp_path, "pipe")) == 0
    pipe = tmp_path / "pipe"
    work = tmp_path / "work"
    ratings_csv, model = str(work / "ratings.csv"), str(work / "model.bin")
    train_flags = ["--rank", "4", "--iters", "4", "--seed", "42"]
    assert main(["ingest", "--items", str(DATA_DIR / "pipeline_items.jsonl"),
                 "--reviews", str(DATA_DIR / "pipeline_reviews.jsonl"),
                 "--out-dir", str(work)]) == 0
    assert main(["derive", "--interactions", str(work / "interactions.jsonl"),
                 "--reviews", str(work / "reviews.jsonl"), "--strategy", "sentiment",
                 "--out", ratings_csv]) == 0
    assert main(["train", "--ratings", ratings_csv, *train_flags, "--out", model]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--ratings", ratings_csv, *train_flags,
                 "--strategy", "sentiment"]) == 0
    (work / "eval.json").write_text(capsys.readouterr().out, encoding="utf-8")
    # the pipeline recommends for the first two users when none are named
    assert main(["recommend", "--model", model, "--interactions", str(work / "interactions.jsonl"),
                 "--users", "player01,player02", "--k", "5"]) == 0
    (work / "recommendations.json").write_text(capsys.readouterr().out, encoding="utf-8")
    names = ["interactions.jsonl", "reviews.jsonl", "ratings.csv", "model.bin", "eval.json",
             "recommendations.json"]
    assert sorted(p.name for p in pipe.iterdir()) == sorted(names)
    for name in names:
        assert (work / name).read_bytes() == (pipe / name).read_bytes(), name


# JSON values for a run configuration.  Integers are small or of huge magnitude
# (past int64 and past every float); only "train.iterations" never draws a huge
# positive one, since the iteration count sets the run time, not whether main
# raises.  Paths are kept inside the working directory by leaving "/", "\\" and
# "." out of strings.
_TEXT = st.text(st.characters(blacklist_characters="/\\."), max_size=6)
_HUGE = [10**20, -10**20, 10**400, -10**400, 2**63]


def _json_values(integers):
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats() | _TEXT,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(_TEXT, children, max_size=3),
        max_leaves=6,
    )


_JSON = _json_values(st.integers(-2, 30) | st.sampled_from(_HUGE))
_ITERATIONS_JSON = _json_values(st.integers(-2, 30) | st.sampled_from([n for n in _HUGE if n < 0]))
_BASE_CONFIG = {
    "items": str((DATA_DIR / "pipeline_items.jsonl").resolve()),
    "reviews": str((DATA_DIR / "pipeline_reviews.jsonl").resolve()),
    "lexicon": None,
    "out_dir": "out",
    "strategy": "sentiment",
    "train": {"rank": 2, "iterations": 2, "lambda": 0.1, "seed": 1},
    "split": {"fraction": 0.8, "seed": 42},
    "k": 3,
    "users": ["player01", "nobody"],
    "workers": 1,
}


def _vary(draw, mapping):
    """Keep, drop or replace each key of ``mapping`` with any JSON value, recursively."""
    varied = {}
    for key, value in mapping.items():
        how = draw(st.sampled_from(["keep", "drop", "any"]))
        if how == "keep":
            varied[key] = _vary(draw, value) if isinstance(value, dict) else value
        elif how == "any":
            varied[key] = draw(_ITERATIONS_JSON if key == "iterations" else _JSON)
    return varied


@st.composite
def _run_configs(draw):
    return draw(_JSON) if draw(st.integers(0, 9)) == 0 else _vary(draw, _BASE_CONFIG)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_run_configs())
@example(config={**_BASE_CONFIG, "train": {"lambda": 10**400}})
@example(config={**_BASE_CONFIG, "train": {"lambda": 10**20}})
def test_any_json_config_exits_0_or_1_with_one_error_line(capsys, config):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("run.json").write_text(json.dumps(config), encoding="utf-8")
            capsys.readouterr()
            code = main(["pipeline", "--config", "run.json"])
            captured = capsys.readouterr()
        finally:
            os.chdir(cwd)
    assert code in (0, 1)
    if code == 1:
        assert captured.err.count("\n") == 1 and captured.err.startswith("steamrec: ")


def _flat_line(user, item, playtime):
    return json.dumps({"user_id": user, "item_id": item, "item_name": "CS",
                       "playtime_forever": playtime, "playtime_2weeks": 0.0}) + "\n"


def _derived_rows(tmp_path, name, lines):
    flat, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
    flat.write_text("".join(lines), encoding="utf-8")
    assert main(["derive", "--interactions", str(flat), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8").splitlines()[1:]


def test_flat_reader_merges_duplicate_pairs_like_the_raw_parser(tmp_path, capsys):
    u1_short, u1_long = _flat_line("u1", 10, 6), _flat_line("u1", 10, 90)
    u2 = _flat_line("u2", 10, 30)
    flat = tmp_path / "dup.jsonl"
    flat.write_text(u1_short + u1_long + u2, encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", "--items", str(flat)]) == 0
    out = capsys.readouterr().out
    assert "interactions:          2\n" in out
    assert "sparsity:              1.000000\n" in out

    merged = _derived_rows(tmp_path, "dup", [u1_short, u1_long, u2])
    assert len(merged) == 2
    # the pair is rated from playtime 90, not 6
    assert merged == _derived_rows(tmp_path, "long", [u1_long, u2])
    assert merged[0] != _derived_rows(tmp_path, "short", [u1_short, u2])[0]


def test_data_path_makes_no_interaction(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an Interaction was made on the data path")

    monkeypatch.setattr(steamrec.ingest.Interaction, "__post_init__", refuse)
    assert main(_pipeline_args(tmp_path)) == 0
    out = tmp_path / "out"
    flat, reviews = str(out / "interactions.jsonl"), str(out / "reviews.jsonl")
    assert main(["stats", "--items", flat, "--reviews", reviews]) == 0
    assert main(["derive", "--interactions", flat, "--reviews", reviews,
                 "--strategy", "sentiment", "--out", str(tmp_path / "ratings.csv")]) == 0
    assert main(["recommend", "--model", str(out / "model.bin"), "--interactions", flat,
                 "--users", "player01,player02"]) == 0


# Raw user-items lines: valid records, records with odd values, and either
# rendered as JSON or as a Python literal, then possibly cut or edited.
_ODD = st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats() | st.text(max_size=4)


def _mostly(valid):
    """``valid`` nine times in ten, else an odd value."""
    return st.integers(0, 9).flatmap(lambda n: valid if n else _ODD)


_ITEM_ENTRIES = st.fixed_dictionaries({
    "item_id": _mostly(st.sampled_from(["10", " 11 ", "12", 13])),
}, optional={
    "item_name": _mostly(st.sampled_from(["CS", "Garry's Mod"])),
    "playtime_forever": _mostly(st.integers(0, 600) | st.floats(0, 600)),
    "playtime_2weeks": _mostly(st.integers(0, 60) | st.none()),
})
_RAW_ITEM_RECORDS = st.fixed_dictionaries({
    "user_id": _mostly(st.sampled_from(["u1", "u2"])),
    "items": _mostly(st.lists(_mostly(_ITEM_ENTRIES), max_size=3)),
})


@st.composite
def _raw_item_line(draw):
    record = draw(_RAW_ITEM_RECORDS)
    line = json.dumps(record) if draw(st.booleans()) else repr(record)
    at = draw(st.integers(0, len(line)))
    how = draw(st.sampled_from(["keep"] * 6 + ["truncate", "insert", "delete"]))
    if how == "truncate":
        line = line[:at]
    elif how == "insert":
        line = line[:at] + draw(st.sampled_from(list("'\",:[]{}\\ Tn1-"))) + line[at:]
    elif how == "delete":
        line = line[:at] + line[at + 1:]
    return line


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_raw_item_line(), min_size=1, max_size=4))
def test_any_raw_items_file_exits_0_or_1_with_one_error_line(capsys, lines):
    with tempfile.TemporaryDirectory() as work:
        items = Path(work) / "items.jsonl"
        items.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for argv in (["stats", "--items", str(items)],
                     ["ingest", "--items", str(items), "--out-dir", str(Path(work) / "out")]):
            capsys.readouterr()
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1)
            if code == 1:
                assert captured.err.count("\n") == 1 and captured.err.startswith("steamrec: ")


def _ratings_file(directory: Path) -> tuple[Path, np.ndarray]:
    path = directory / "ratings.csv"
    write_ratings_csv(random_rating_array(np.random.default_rng(3), 12, 9, 60), path)
    return path, read_ratings_array(path)


def _fit_output(command, rows, ranks, train_config, split_config, out) -> tuple[str, bytes]:
    """What ``command`` prints, and the model bytes train writes to ``out``, by library calls."""
    num_users, num_items = (rows[:, :2].max(axis=0) + 1).tolist()
    if command == "train":
        model, trace = als.train(rows, num_users, num_items, train_config)
        save_model(model, out)
        return (f"trained rank-{train_config.rank} model on {len(rows)} ratings "
                f"(final objective {trace.values[-1]:.4f}); wrote {out}\n"), out.read_bytes()
    if command == "evaluate":
        report = evaluation.evaluate(rows, num_users, num_items, train_config, split_config)
        return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n", b""
    return evaluation.sweep_csv(evaluation.sweep(rows, ranks, train_config, split_config)), b""


def _run_fit(capsys, command, path, flags, out) -> tuple[int, str, str, bytes]:
    """main's exit code, stdout and stderr for ``command`` on ``path``, and the model it wrote
    to ``out`` (empty when it wrote none)."""
    out.unlink(missing_ok=True)
    extra = {"train": ["--out", str(out)], "sweep": ["--ranks", "2,5"]}.get(command, [])
    capsys.readouterr()
    code = main([command, "--ratings", str(path), *flags, *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else b""


_DOCUMENTED_FLAGS = {"--rank": "30", "--iters": "10", "--lambda": "0.1", "--seed": "42",
                     "--split": "0.8", "--split-seed": "42"}
_FIT_FLAGS = {"train": ["--rank", "--iters", "--lambda", "--seed"],
              "evaluate": list(_DOCUMENTED_FLAGS),
              "sweep": ["--iters", "--lambda", "--seed", "--split", "--split-seed"]}


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_fit_commands_default_to_the_library_configs(tmp_path, capsys, command):
    path, rows = _ratings_file(tmp_path)
    out = tmp_path / "model.bin"
    expected = _fit_output(command, rows, [2, 5], als.TrainConfig(), evaluation.SplitConfig(),
                           out)
    documented = [f"{flag}={_DOCUMENTED_FLAGS[flag]}" for flag in _FIT_FLAGS[command]]
    for flags in ([], documented):
        code, stdout, stderr, model = _run_fit(capsys, command, path, flags, out)
        assert (code, stderr) == (0, "")
        assert (stdout, model) == expected


# flag -> (config, keyword, values): in range, out of range and not finite.
_FIT_VALUES = {
    "--rank": ("train", "rank", st.integers(1, 40) | st.integers(-1, 210)),
    "--iters": ("train", "iterations", st.integers(-1, 3)),
    "--lambda": ("train", "regularization",
                 st.sampled_from([math.inf, -math.inf, math.nan, -1.0])
                 | st.floats(0, sys.float_info.max)),
    "--seed": ("train", "seed", st.integers(-2, 2**40)),
    "--split": ("split", "fraction",
                st.floats(0.05, 0.95) | st.sampled_from([math.inf, math.nan, 0.0, 1.0])
                | st.floats(-0.5, 1.5)),
    "--split-seed": ("split", "seed", st.integers(-2, 2**40)),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["train", "evaluate", "sweep"]))
def test_any_fit_flags_exit_0_with_the_library_output_or_1_with_its_error(capsys, data, command):
    configs, flags = {"train": {}, "split": {}}, []
    for flag in _FIT_FLAGS[command]:
        section, key, values = _FIT_VALUES[flag]
        value = data.draw(st.none() | values, label=flag)
        if value is not None:
            configs[section][key] = value
            flags.append(f"{flag}={value!r}")
    with tempfile.TemporaryDirectory() as work:
        path, rows = _ratings_file(Path(work))
        out = Path(work) / "model.bin"
        try:
            # the order the subcommands check in: ratings, split, then train
            split_config = evaluation.SplitConfig(**configs["split"])
            train_config = als.TrainConfig(**configs["train"])
            expected = _fit_output(command, rows, [2, 5], train_config, split_config, out)
        except (SteamrecError, ValueError) as exc:
            expected = exc
        code, stdout, stderr, model = _run_fit(capsys, command, path, flags, out)
    if isinstance(expected, Exception):
        assert (code, stdout, model) == (1, "", b"")
        assert stderr == f"steamrec: error: {expected}\n"
    else:
        assert (code, stderr) == (0, "")
        assert (stdout, model) == expected


def test_train_with_an_infinite_lambda_is_one_line_error_and_writes_no_model(tmp_path, capsys):
    path, _ = _ratings_file(tmp_path)
    code, stdout, stderr, model = _run_fit(capsys, "train", path, ["--lambda", "inf"],
                                           tmp_path / "model.bin")
    assert (code, stdout, model) == (1, "", b"")
    assert stderr == "steamrec: error: regularization must be finite and >= 0, got inf\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_train_with_a_lambda_whose_weights_overflow_is_one_line_error(tmp_path, capsys):
    path, rows = _ratings_file(tmp_path)
    code, stdout, stderr, model = _run_fit(capsys, "train", path, ["--lambda", "1e308"],
                                           tmp_path / "model.bin")
    assert (code, stdout, model) == (1, "", b"")
    assert stderr == (f"steamrec: error: regularization 1e+308 times the {len(rows)} ratings "
                      "overflows a float\n")
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_negative_split_seed_is_one_line_error_naming_it(tmp_path, capsys, command):
    path, _ = _ratings_file(tmp_path)
    code, stdout, stderr, model = _run_fit(capsys, command, path, ["--split-seed=-1"],
                                           tmp_path / "model.bin")
    assert (code, stdout, model) == (1, "", b"")
    assert stderr == "steamrec: error: split seed must be non-negative, got -1\n"


def test_pipeline_with_an_infinite_lambda_in_its_config_is_one_line_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"items": str(DATA_DIR / "pipeline_items.jsonl"),
                                  "out_dir": str(tmp_path / "out"),
                                  "train": {"lambda": math.inf}}), encoding="utf-8")
    assert "Infinity" in config.read_text(encoding="utf-8")
    code = main(["pipeline", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "steamrec: error: regularization must be finite and >= 0, got inf\n"
    assert not (tmp_path / "out").exists()


def _lambda_config(tmp_path: Path, name: str, regularization) -> Path:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"items": str(DATA_DIR / "pipeline_items.jsonl"),
                                  "out_dir": str(tmp_path / name),
                                  "train": {"rank": 2, "iterations": 2,
                                            "lambda": regularization}}), encoding="utf-8")
    return config


def test_pipeline_with_an_integer_lambda_past_every_float_is_one_line_error(tmp_path, capsys):
    config = _lambda_config(tmp_path, "out", 10**400)
    code = main(["pipeline", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("steamrec: error: regularization must be finite and >= 0, got an "
                            "integer too large for a float\n")
    assert not (tmp_path / "out" / "model.bin").exists()


def test_pipeline_trains_an_integer_lambda_as_the_float_it_equals(tmp_path, capsys):
    # 10**20 is past int64, so numpy cannot take it as an integer
    for name, regularization in (("int", 10**20), ("float", 1e20)):
        config = _lambda_config(tmp_path, name, regularization)
        assert main(["pipeline", "--config", str(config)]) == 0
    for name in ("model.bin", "eval.json", "recommendations.json"):
        assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "float" / name).read_bytes()


def test_recommend_with_a_bad_header_field_is_one_line_error_naming_it(tmp_path, capsys):
    assert main(_pipeline_args(tmp_path)) == 0
    out = tmp_path / "out"
    header, rest = (out / "model.bin").read_bytes().split(b"\n", 1)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps({**json.loads(header), "seed": "x"}).encode() + b"\n" + rest)
    capsys.readouterr()
    code = main(["recommend", "--model", str(bad), "--interactions",
                 str(out / "interactions.jsonl"), "--users", "player01"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"steamrec: error: {bad}: header field 'seed' must be an integer "
                            "or null, got 'x'\n")


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_a_ratings_index_too_large_to_allocate_is_one_line_error(tmp_path, capsys, command):
    # 10**15 users need petabytes, which numpy refuses at once, without trying
    path = tmp_path / "ratings.csv"
    path.write_text(f"user_index,item_index,rating\n0,0,5\n{10**15},1,4\n", encoding="utf-8")
    code, stdout, stderr, model = _run_fit(capsys, command, path, [], tmp_path / "model.bin")
    assert (code, stdout, model) == (1, "", b"")
    assert stderr.count("\n") == 1 and stderr.startswith("steamrec: error: Unable to allocate")


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_a_ratings_index_past_2_to_the_53_is_one_line_error(tmp_path, capsys, command):
    # 2**63 - 1 rounds to 2**63 as a float64, which no cast to an index survives
    path = tmp_path / "ratings.csv"
    path.write_text(f"user_index,item_index,rating\n0,0,5\n{2**63 - 1},1,4\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr, model = _run_fit(capsys, command, path, [], tmp_path / "model.bin")
    assert (code, stdout, model) == (1, "", b"")
    assert stderr == "steamrec: error: user and item indices must be below 2**53 in magnitude\n"
