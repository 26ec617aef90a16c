import re
import statistics
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steamrec import (
    Lexicon,
    RatingTriple,
    Review,
    SentimentClass,
    Strategy,
    adjust_with_recommendation,
    adjust_with_sentiment,
    derive,
    playtime_rating,
    write_ratings_csv,
)
from steamrec import ratings
from steamrec.ratings import _item_medians, derive_array, match_reviews, read_ratings_array
from steamrec.sentiment import classify, score

from .conftest import table_from_playtimes

POS_LEX = Lexicon({"great": 3.0, "terrible": -3.0})


def rating_oracle(playtime, median):
    """Independent bucket oracle: one plus the number of thresholds exceeded."""
    thresholds = [median, 0.8 * median, 0.5 * median, 0.2 * median]
    return 1 + sum(1 for t in thresholds if playtime > t)


def median_oracle(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# -- item medians --------------------------------------------------------------

def medians_of(table):
    return _item_medians(table.items, table.playtime, table.num_items)


def test_median_odd_even_singleton():
    table = table_from_playtimes(
        {1: [("a", 10), ("b", 20), ("c", 30)], 2: [("a", 10), ("b", 20)], 3: [("a", 7)]}
    )
    by_id = {table.index.item_ids[i]: m for i, m in enumerate(medians_of(table).tolist())}
    assert by_id == {1: 20.0, 2: 15.0, 3: 7.0}


def test_median_includes_zeros():
    table = table_from_playtimes({1: [("a", 0), ("b", 0), ("c", 90)]})
    assert medians_of(table)[0] == 0.0


def test_median_of_two_huge_playtimes_is_finite():
    playtimes = [1e308, 1.5e308]
    table = table_from_playtimes({1: [(f"u{j}", p) for j, p in enumerate(playtimes)]})
    median = 1e308 / 2 + 1.5e308 / 2
    with np.errstate(all="raise"):
        assert medians_of(table).tolist() == [median]
        rows = derive_array(table)
    assert rows[:, 2].tolist() == [playtime_rating(p, median) for p in playtimes]


# -- playtime_rating -----------------------------------------------------------

def test_table_rows_match_examples():
    assert playtime_rating(150, 100) == 5
    assert playtime_rating(90, 100) == 4
    assert playtime_rating(60, 100) == 3
    assert playtime_rating(30, 100) == 2
    assert playtime_rating(10, 100) == 1


def test_boundaries_upper_inclusive():
    assert playtime_rating(100, 100) == 4
    assert playtime_rating(80, 100) == 3
    assert playtime_rating(50, 100) == 2
    assert playtime_rating(20, 100) == 1
    assert playtime_rating(0, 100) == 1


def test_zero_median_degenerate():
    assert playtime_rating(0, 0) == 1
    assert playtime_rating(1, 0) == 5


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        playtime_rating(-1, 100)
    with pytest.raises(ValueError):
        playtime_rating(1, -100)


@settings(max_examples=300)
@given(
    playtime=st.integers(min_value=0, max_value=100000),
    median=st.integers(min_value=0, max_value=100000),
)
def test_rating_matches_counting_oracle(playtime, median):
    assert playtime_rating(playtime, median) == rating_oracle(playtime, median)


@settings(max_examples=200)
@given(
    playtimes=st.lists(st.integers(0, 2000), min_size=1, max_size=15),
    scale=st.integers(1, 60),
)
def test_rating_invariant_under_item_scaling(playtimes, scale):
    median = median_oracle(playtimes)
    before = [playtime_rating(p, median) for p in playtimes]
    after = [playtime_rating(p * scale, median * scale) for p in playtimes]
    assert before == after


# -- adjustments ----------------------------------------------------------------

def test_sentiment_adjustment_examples():
    assert adjust_with_sentiment(5, SentimentClass.NEGATIVE) == 4
    assert adjust_with_sentiment(4, SentimentClass.POSITIVE) == 5
    assert adjust_with_sentiment(5, SentimentClass.POSITIVE) == 5
    assert adjust_with_sentiment(1, SentimentClass.NEGATIVE) == 1
    assert adjust_with_sentiment(3, SentimentClass.NEUTRAL) == 3
    assert adjust_with_sentiment(3, None) == 3


def test_recommendation_adjustment_examples():
    assert adjust_with_recommendation(3, True) == 5
    assert adjust_with_recommendation(4, False) == 2
    assert adjust_with_recommendation(4, True) == 4
    assert adjust_with_recommendation(2, None) == 2


def test_adjustments_stay_in_range():
    for rating in (1, 2, 3, 4, 5):
        for label in (*SentimentClass, None):
            assert adjust_with_sentiment(rating, label) in (1, 2, 3, 4, 5)
        for flag in (True, False, None):
            assert adjust_with_recommendation(rating, flag) in (1, 2, 3, 4, 5)


def test_adjustments_reject_bad_rating():
    with pytest.raises(ValueError):
        adjust_with_sentiment(0, SentimentClass.POSITIVE)
    with pytest.raises(ValueError):
        adjust_with_recommendation(6, True)


def test_rating_triple_validates():
    with pytest.raises(ValueError):
        RatingTriple(0, 0, 6)
    with pytest.raises(ValueError):
        RatingTriple(0, 0, 5)._replace(rating=6)
    with pytest.raises(ValueError):
        RatingTriple._make((0, 0, 0))


def test_rating_triple_is_a_tuple_row():
    triple = RatingTriple(3, 1, 5)
    assert triple == (3, 1, 5) and triple.rating == 5
    assert repr(triple) == "RatingTriple(user_index=3, item_index=1, rating=5)"
    assert np.asarray([triple, RatingTriple(0, 2, 1)]).tolist() == [[3, 1, 5], [0, 2, 1]]


# -- derive ----------------------------------------------------------------------

def _one_interaction_table():
    # playtime 150 against a median of 100 (built from three users)
    return table_from_playtimes({7: [("a", 150), ("b", 100), ("c", 50)]})


def test_derive_playtime_only():
    table = _one_interaction_table()
    triples = derive(table, strategy=Strategy.PLAYTIME_ONLY)
    assert [t.rating for t in triples] == [5, 4, 2]
    assert [t.user_index for t in triples] == [0, 1, 2]


def test_derive_without_review_is_unchanged_under_any_strategy():
    table = _one_interaction_table()
    for strategy in (Strategy.PLAYTIME_SENTIMENT, Strategy.PLAYTIME_RECOMMEND):
        triples = derive(table, [], POS_LEX, strategy)
        assert triples[0].rating == 5


def test_derive_sentiment_negative_review_drops_to_four():
    table = _one_interaction_table()
    review = Review(user_id="a", item_id=7, text="terrible", recommended=False)
    triples = derive(table, [review], POS_LEX, Strategy.PLAYTIME_SENTIMENT)
    assert triples[0].rating == 4


def test_derive_recommend_raises_three_to_five():
    table = table_from_playtimes({7: [("a", 60), ("b", 100), ("c", 120)]})
    review = Review(user_id="a", item_id=7, text="", recommended=True)
    triples = derive(table, [review], None, Strategy.PLAYTIME_RECOMMEND)
    assert triples[0].rating == 5  # playtime rating 3, +2 from the flag


def test_derive_skips_unmatched_reviews_with_warning(caplog):
    table = _one_interaction_table()
    reviews = [
        Review(user_id="nobody", item_id=7, text="x", recommended=True),
        Review(user_id="a", item_id=999, text="x", recommended=True),
        Review(user_id="b", item_id=7, text="x", recommended=True),
    ]
    matched, skipped = match_reviews(table, reviews)
    assert skipped == 2
    assert set(matched) == {(1, 0)}
    with caplog.at_level("WARNING"):
        derive(table, reviews, POS_LEX, Strategy.PLAYTIME_SENTIMENT)
    assert "skipped 2 review(s)" in caplog.text


def test_derive_output_length_matches_interactions():
    rng = np.random.default_rng(3)
    table = table_from_playtimes(
        {i: [(f"u{u}", int(rng.integers(0, 500))) for u in range(6)] for i in range(9)}
    )
    for strategy in Strategy:
        assert len(derive(table, [], POS_LEX, strategy)) == len(table.interactions)


def test_derive_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        num_items = int(rng.integers(1, 6))
        playtimes = {
            item: [
                (f"u{u}", int(rng.integers(0, 300)))
                for u in range(int(rng.integers(1, 8)))
            ]
            for item in range(num_items)
        }
        table = table_from_playtimes(playtimes)
        got = derive(table, strategy=Strategy.PLAYTIME_ONLY)
        expected = []
        for inter in table.interactions:
            item_values = [
                other.playtime_forever
                for other in table.interactions
                if other.item_id == inter.item_id
            ]
            expected.append(
                rating_oracle(inter.playtime_forever, median_oracle(item_values))
            )
        assert [t.rating for t in got] == expected


def test_derive_sentiment_requires_lexicon():
    with pytest.raises(ValueError):
        derive(_one_interaction_table(), [], None, Strategy.PLAYTIME_SENTIMENT)


# -- csv io ------------------------------------------------------------------------

def test_ratings_csv_round_trip(tmp_path):
    triples = [RatingTriple(0, 1, 5), RatingTriple(1, 0, 3)]
    path = tmp_path / "ratings.csv"
    write_ratings_csv(triples, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "user_index,item_index,rating"
    assert read_ratings_array(path).tolist() == [list(t) for t in triples]


@pytest.mark.parametrize(
    "rows", [[(0, 0, 4, 99)], [(0, 0, 4), (1, 1, 3, 99)], np.array([[0, 0, 4, 99]])],
    ids=["wide", "ragged", "wide-array"],
)
def test_ratings_csv_rejects_rows_that_are_not_triples(tmp_path, rows):
    path = tmp_path / "ratings.csv"
    message = r"ratings must be triples of \(user_index, item_index, rating\)"
    with pytest.raises(ValueError, match=message):
        write_ratings_csv(rows, path)
    assert not path.exists()


def test_ratings_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_ratings_array(path)


# -- columnar derive against the scalar rules ----------------------------------------

def scalar_derive(table, reviews, lexicon, strategy):
    """Oracle: statistics.median per item, playtime_rating, then the adjustment."""
    by_item = {}
    for inter in table.interactions:
        by_item.setdefault(inter.item_id, []).append(inter.playtime_forever)
    review_of = {(review.user_id, review.item_id): review for review in reviews}
    rows = []
    for inter in table.interactions:
        rating = playtime_rating(inter.playtime_forever, statistics.median(by_item[inter.item_id]))
        review = review_of.get((inter.user_id, inter.item_id))
        if strategy is Strategy.PLAYTIME_SENTIMENT:
            label = classify(score(review.text, lexicon)) if review is not None else None
            rating = adjust_with_sentiment(rating, label)
        elif strategy is Strategy.PLAYTIME_RECOMMEND:
            rating = adjust_with_recommendation(
                rating, review.recommended if review is not None else None
            )
        rows.append(
            [table.index.user_index(inter.user_id), table.index.item_index(inter.item_id), rating]
        )
    return rows


def _threshold_table():
    """Items whose playtimes sit exactly on 0.2/0.5/0.8/1.0 x median, with odd
    and even counts, zero medians and a repeated (user, item) pair."""
    def at_thresholds(m):
        return [0.2 * m, 0.5 * m, 0.8 * m, m]

    playtimes = {
        1: at_thresholds(100) + [0, 100, 100, 120, 150, 200, 300],  # 11 values, median 100
        2: at_thresholds(7) + [7, 7, 9],  # median 7: 0.2 * 7 is not 1.4
        3: at_thresholds(40) + [40, 40, 40, 80],  # 8 values, median (40 + 40) / 2
        4: [0, 0, 5],  # odd, zero median
        5: [0, 0, 0, 7],  # even, zero median
        6: [10, 30],  # even: median 20 from (a + b) / 2
        7: [3.5],
        8: [0, 125.7, 891.18, 1000],  # (a + b) / 2 is 508.44, a + (b - a) / 2 is not
        9: [1e308, 1.5e308, 1.7e308],  # odd: the middle value, not (a + a) / 2 = inf
    }
    return table_from_playtimes(
        {
            item: [(f"u{j}", minutes) for j, minutes in enumerate(values)]
            + ([("u0", 15)] if item == 6 else [])
            for item, values in playtimes.items()
        }
    )


def _random_reviews(rng, table, count):
    pairs = [(inter.user_id, inter.item_id) for inter in table.interactions]
    pairs += [("ghost", 1), ("u0", 999)]  # unmatched
    texts = ["great", "terrible", "meh", ""]
    flags = [True, False, None, 1, 0]  # only True and False themselves adjust
    return [
        Review(
            user_id=user,
            item_id=item,
            text=texts[int(rng.integers(len(texts)))],
            recommended=flags[int(rng.integers(len(flags)))],
        )
        for user, item in (pairs[int(j)] for j in rng.integers(len(pairs), size=count))
    ]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_columnar_derive_matches_scalar_rules(strategy):
    rng = np.random.default_rng(17)
    tables = [_threshold_table()]
    for _ in range(30):
        tables.append(
            table_from_playtimes(
                {
                    item: [
                        (f"u{int(u)}", float(rng.choice([0, 0, 1, 2.5, 10, 20, 50, 80, 100])))
                        for u in rng.integers(0, 9, size=int(rng.integers(1, 9)))
                    ]
                    for item in range(int(rng.integers(1, 7)))
                }
            )
        )
    for table in tables:
        reviews = _random_reviews(rng, table, int(rng.integers(0, len(table.interactions) + 3)))
        expected = scalar_derive(table, reviews, POS_LEX, strategy)
        assert derive_array(table, reviews, POS_LEX, strategy).tolist() == expected
        assert [
            [t.user_index, t.item_index, t.rating] for t in derive(table, reviews, POS_LEX, strategy)
        ] == expected


def test_columnar_median_matches_statistics_median():
    table = _threshold_table()
    by_item = {}
    for inter in table.interactions:
        by_item.setdefault(table.index.item_index(inter.item_id), []).append(
            inter.playtime_forever
        )
    assert dict(enumerate(medians_of(table).tolist())) == {
        item: float(statistics.median(values)) for item, values in by_item.items()
    }


def test_ratings_array_round_trip(tmp_path):
    rows = np.array([[0, 1, 5], [12, 0, 1], [3, 40000, 3]], dtype=np.int64)
    path = tmp_path / "ratings.csv"
    write_ratings_csv(rows, path)
    assert path.read_text(encoding="utf-8") == "user_index,item_index,rating\n0,1,5\n12,0,1\n3,40000,3\n"
    got = read_ratings_array(path)
    assert got.dtype == np.int64 and got.tolist() == rows.tolist()


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,1,5\n1,2,6\n", "line 3: rating 6 outside 1..5"),
        ("0,1,5\n1,2,0\n", "line 3: rating 0 outside 1..5"),
        ("0,1,5\n-1,1,5\n", "line 3: user index -1 is negative"),
        ("0,1,5\n1,-2,5\n", "line 3: item index -2 is negative"),
        ("0,1,5\n1,x,3\n", "line 3: '1,x,3' is not three integers"),
        ("0,1,5\n1,2,3.5\n", "line 3: '1,2,3.5' is not three integers"),
        ("0,1,5\n1,2\n", "line 3: '1,2' is not three integers"),
        ("0,1,5\n1,2,3,4\n2,2\n", "line 3: '1,2,3,4' is not three integers"),
        ("0,1,5\n\n", "line 3: '' is not three integers"),
        ("0,1,5\n1,2,99999999999999999999\n", "line 3: '1,2,99999999999999999999'"),
        # not ASCII decimal: int() reads the first two, and np.loadtxt, given a
        # non-ASCII character, reads U+01FE as a digit worth 462 and U+0761 as 1841
        ("0,1,5\n1,2,0_1\n", "line 3: '1,2,0_1' is not three integers"),
        ("0,1,5\n1,2,١\n", "line 3: '1,2,١' is not three integers"),
        ("0,1,5\n1,2,Ǿ\n", "line 3: '1,2,Ǿ' is not three integers"),
        ("0,1,5\nǾ1,2,3\n", "line 3: 'Ǿ1,2,3' is not three integers"),
        ("0,1,5\n1,2,ݡ\n", "line 3: '1,2,ݡ' is not three integers"),
    ],
)
def test_read_ratings_names_the_bad_line(tmp_path, body, message):
    path = tmp_path / "ratings.csv"
    path.write_text("user_index,item_index,rating\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_ratings_array(path)


@pytest.mark.parametrize("inside", ["\f", "\x85", "\u2028"])
def test_read_ratings_numbers_lines_as_iterating_the_file_does(tmp_path, inside):
    # str.splitlines would also break at these, and name the bad row line 5
    path = tmp_path / "ratings.csv"
    rows = f"user_index,item_index,rating\r\n0,1,5{inside}\r2,0,4\n"
    path.write_text(rows + "1,x,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape("line 4: '1,x,3' is not three integers")):
        read_ratings_array(path)
    path.write_text(rows, encoding="utf-8")
    assert read_ratings_array(path).tolist() == [[0, 1, 5], [2, 0, 4]]


@pytest.mark.parametrize("at", range(8))
@pytest.mark.parametrize("bad", ["", "1,2", "1,x,3"])
def test_read_ratings_names_the_bad_line_across_search_chunks(tmp_path, monkeypatch, at, bad):
    monkeypatch.setattr(ratings, "_CSV_CHUNK", 3)  # chunks of lines 2-4, 5-7 and 8-9
    body = ["0,1,5"] * 7
    body.insert(at, bad)
    path = tmp_path / "ratings.csv"
    path.write_text("user_index,item_index,rating\n" + "\n".join(body) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"line {at + 2}: {bad!r} is not three integers")):
        read_ratings_array(path)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def reference_ratings(body: list[str]) -> np.ndarray | str:
    """The rows of a ratings.csv body, or the message naming its first bad line.

    One line at a time: three comma-separated fields, each an optional sign and
    ASCII digits within int64 once ``str.strip`` has removed its whitespace.
    Ranges are checked once every line has parsed.
    """
    rows = []
    for lineno, line in enumerate(body, start=2):
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != 3 or not all(_INTEGER.fullmatch(field) for field in fields):
            return f"line {lineno}: {line!r} is not three integers"
        row = [int(field) for field in fields]
        if not all(-(2**63) <= value < 2**63 for value in row):
            return f"line {lineno}: {line!r} is not three integers"
        rows.append(row)
    for lineno, (user, item, rating) in enumerate(rows, start=2):
        if user < 0:
            return f"line {lineno}: user index {user} is negative"
        if item < 0:
            return f"line {lineno}: item index {item} is negative"
        if not 1 <= rating <= 5:
            return f"line {lineno}: rating {rating} outside 1..5"
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


_FIELDS = st.one_of(
    st.integers(-2, 7).map(str),
    st.integers(2**63 - 2, 2**64).map(str),
    st.integers(-(2**63) - 2, -(2**63)).map(str),
    st.sampled_from(["+1", " 1 ", "-0", "007", "", " ", "1 2", "2.0", "x", "+", "\f3", "4\x85",
                     "\u20285", "\xa01", "1\f2", "3\x1c"]),
    # int() reads the first two; np.loadtxt misreads the others as digits
    st.sampled_from(["0_1", "١", "Ǿ", "3Ǿ", "ݡ"]),
)
_ROWS = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(1, 5)).map(
    lambda row: "%d,%d,%d" % row)
_ODD_LINES = st.one_of(
    st.lists(_FIELDS, min_size=3, max_size=3).map(",".join),
    st.lists(_FIELDS, min_size=1, max_size=5).map(",".join),  # 2- and 4-field rows, trailing commas
    st.sampled_from(["", " ", "\t", "\f", "\x85", "\u2028", "0,1,5\f", "0,\u20281,5", "1,2,3,"]),
)
# valid rows with at most two odd lines among them, so that each odd line can decide
_BODIES = st.tuples(st.lists(_ROWS, max_size=6), st.lists(_ODD_LINES, max_size=2)).flatmap(
    lambda parts: st.permutations(parts[0] + parts[1])).filter(bool)


@settings(max_examples=300, deadline=None)
@given(body=_BODIES)
def test_read_ratings_parses_each_line_as_the_reference_does(body):
    expected = reference_ratings(body)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "ratings.csv"
        text = "user_index,item_index,rating\n" + "\n".join(body) + "\n"
        path.write_text(text, encoding="utf-8", newline="")
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
                read_ratings_array(path)
        else:
            got = read_ratings_array(path)
            assert got.dtype == np.int64 and got.tolist() == expected.tolist()
