import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steamrec import (
    FieldError,
    Interaction,
    ParseError,
    build_table,
    parse_reviews,
    parse_user_items,
    read_interactions_jsonl,
    read_reviews_jsonl,
    write_interactions_jsonl,
    write_reviews_jsonl,
)
from steamrec.ingest import (
    IdIndex,
    interaction_from_dict,
    interaction_to_dict,
    read_interactions_any,
    read_reviews_any,
    review_from_dict,
    review_to_dict,
)

from .conftest import DATA_DIR, make_interaction


def naive_normalize(line: str) -> str:
    """Literal->JSON normalization oracle.

    Only valid for lines whose strings contain no quotes, escapes, or the
    words True/False/None; the fixtures below are generated to satisfy that.
    """
    return (
        line.replace("'", '"')
        .replace("True", "true")
        .replace("False", "false")
        .replace("None", "null")
    )


# -- parse_user_items ---------------------------------------------------------

def test_single_well_formed_record():
    line = '{"user_id":"u1","items":[{"item_id":"10","item_name":"CS","playtime_forever":6,"playtime_2weeks":0}]}'
    assert parse_user_items([line]) == [
        Interaction("u1", 10, "CS", 6.0, 0.0)
    ]


def test_python_literal_record_defaults_missing_playtime():
    line = "{'user_id': 'u1', 'items': [{'item_id': '10', 'item_name': 'CS', 'playtime_forever': 6}]}"
    assert parse_user_items([line]) == [
        Interaction("u1", 10, "CS", 6.0, 0.0)
    ]


def test_truncated_line_is_parse_error_with_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_user_items(['{"user_id":"u1"'])
    assert excinfo.value.line_number == 1


def test_error_line_number_counts_from_one():
    good = '{"user_id":"u1","items":[]}'
    with pytest.raises(ParseError) as excinfo:
        parse_user_items([good, good, "{broken"])
    assert excinfo.value.line_number == 3


def test_missing_user_id_is_field_error():
    with pytest.raises(FieldError):
        parse_user_items(['{"items":[]}'])


def test_missing_item_id_is_field_error():
    with pytest.raises(FieldError):
        parse_user_items(['{"user_id":"u1","items":[{"item_name":"CS"}]}'])


def test_non_numeric_item_id_is_field_error():
    with pytest.raises(FieldError):
        parse_user_items(['{"user_id":"u1","items":[{"item_id":"abc"}]}'])


def test_negative_playtime_is_field_error():
    with pytest.raises(FieldError):
        parse_user_items(
            ['{"user_id":"u1","items":[{"item_id":"10","playtime_forever":-5}]}']
        )


@pytest.mark.parametrize("key", ["playtime_forever", "playtime_2weeks"])
@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e999", '"nan"', '"inf"'])
def test_non_finite_playtime_is_field_error_with_line_number(key, raw):
    good = '{"user_id":"u0","items":[]}'
    bad = '{"user_id":"u1","items":[{"item_id":"10","%s":%s}]}' % (key, raw)
    with pytest.raises(FieldError, match=key) as excinfo:
        parse_user_items([good, bad])
    assert excinfo.value.line_number == 2


def test_python_literal_infinite_playtime_is_field_error():
    line = "{'user_id': 'u1', 'items': [{'item_id': '10', 'playtime_forever': 1e999}]}"
    with pytest.raises(FieldError):
        parse_user_items([line])


def test_non_finite_playtime_never_reaches_jsonl(tmp_path):
    with pytest.raises(ValueError):
        make_interaction(forever=float("nan"))
    path = tmp_path / "interactions.jsonl"
    path.write_text(
        '{"user_id": "u1", "item_id": 10, "item_name": "x", '
        '"playtime_forever": NaN, "playtime_2weeks": 0}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError):
        read_interactions_jsonl(path)


def test_duplicate_pair_keeps_max_playtime():
    line = (
        '{"user_id":"u1","items":['
        '{"item_id":"10","item_name":"CS","playtime_forever":6},'
        '{"item_id":"10","item_name":"CS","playtime_forever":90},'
        '{"item_id":"10","item_name":"CS","playtime_forever":4}]}'
    )
    records = parse_user_items([line])
    assert len(records) == 1
    assert records[0].playtime_forever == 90.0


def test_duplicate_pair_across_lines_keeps_max():
    lines = [
        '{"user_id":"u1","items":[{"item_id":"10","playtime_forever":6}]}',
        '{"user_id":"u1","items":[{"item_id":"10","playtime_forever":2}]}',
    ]
    records = parse_user_items(lines)
    assert [r.playtime_forever for r in records] == [6.0]


def test_blank_lines_are_skipped():
    lines = ["", '{"user_id":"u1","items":[]}', "   "]
    assert parse_user_items(lines) == []


# -- parse_reviews ------------------------------------------------------------

def test_review_basic_fields():
    line = '{"user_id":"u1","reviews":[{"item_id":"10","recommend":true,"review":"great"}]}'
    (review,) = parse_reviews([line])
    assert review.recommended is True
    assert review.text == "great"


def test_review_python_literal_false():
    line = "{'user_id': 'u1', 'reviews': [{'item_id': '10', 'recommend': False, 'review': 'meh'}]}"
    (review,) = parse_reviews([line])
    assert review.recommended is False


def test_review_missing_recommend_names_key():
    line = '{"user_id":"u1","reviews":[{"item_id":"10","review":"great"}]}'
    with pytest.raises(FieldError, match="recommend"):
        parse_reviews([line])


def test_review_later_duplicate_overwrites():
    lines = [
        '{"user_id":"u1","reviews":[{"item_id":"10","recommend":true,"review":"a"},'
        '{"item_id":"10","recommend":false,"review":"b"}]}'
    ]
    (review,) = parse_reviews(lines)
    assert review.text == "b"
    assert review.recommended is False


def test_review_prose_counts_parsed():
    line = (
        '{"user_id":"u1","reviews":[{"item_id":"10","recommend":true,"review":"x",'
        '"funny":"2 people found this review funny",'
        '"helpful":"35 of 43 people (81%) found this review helpful"}]}'
    )
    (review,) = parse_reviews([line])
    assert review.funny == 2
    assert review.helpful == 35


def test_review_no_ratings_yet_counts_zero():
    line = (
        '{"user_id":"u1","reviews":[{"item_id":"10","recommend":true,"review":"x",'
        '"helpful":"No ratings yet","funny":""}]}'
    )
    (review,) = parse_reviews([line])
    assert review.helpful == 0 and review.funny == 0


# -- tolerant-reader equivalence ----------------------------------------------

_safe_name = st.text(
    alphabet=string.ascii_lowercase + string.digits + " ", min_size=1, max_size=12
).filter(lambda s: s.strip() == s and s)


@settings(max_examples=100)
@given(
    user=st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=10),
    items=st.lists(
        st.tuples(st.integers(0, 99999), _safe_name, st.integers(0, 10000)),
        min_size=0,
        max_size=4,
    ),
)
def test_literal_line_equals_normalized_line(user, items):
    record = {
        "user_id": user,
        "items": [
            {"item_id": str(i), "item_name": name, "playtime_forever": pf}
            for i, name, pf in items
        ],
    }
    literal_line = str(record)  # repr uses single quotes: Python-literal form
    normalized = naive_normalize(literal_line)
    json.loads(normalized)  # the oracle output must be strict JSON
    assert parse_user_items([literal_line]) == parse_user_items([normalized])


def test_mixed_fixture_matches_hand_normalized_twin():
    mixed = (DATA_DIR / "mixed_20.jsonl").read_text(encoding="utf-8").splitlines()
    twin = (DATA_DIR / "mixed_20_normalized.jsonl").read_text(encoding="utf-8").splitlines()
    assert parse_user_items(mixed) == parse_user_items(twin)


def test_mixed_reviews_fixture_parses():
    lines = (DATA_DIR / "mixed_reviews.jsonl").read_text(encoding="utf-8").splitlines()
    reviews = parse_reviews(lines)
    # u17 reviewed item 500 twice; the later one wins
    by_key = {(r.user_id, r.item_id): r for r in reviews}
    assert by_key[("u17", 500)].recommended is False
    assert by_key[("u02", 20)].helpful == 3


# -- round-trip through strict JSON -------------------------------------------

def test_interaction_round_trip():
    inter = make_interaction(user="u9", item=77, name="Garry's Mod", forever=12.5, recent=3)
    assert interaction_from_dict(json.loads(json.dumps(interaction_to_dict(inter)))) == inter


def test_jsonl_files_round_trip(tmp_path):
    mixed = (DATA_DIR / "mixed_20.jsonl").read_text(encoding="utf-8").splitlines()
    interactions = parse_user_items(mixed)
    path = tmp_path / "interactions.jsonl"
    write_interactions_jsonl(interactions, path)
    assert read_interactions_jsonl(path) == interactions

    reviews = parse_reviews(
        (DATA_DIR / "mixed_reviews.jsonl").read_text(encoding="utf-8").splitlines()
    )
    rpath = tmp_path / "reviews.jsonl"
    write_reviews_jsonl(reviews, rpath)
    assert read_reviews_jsonl(rpath) == reviews


def test_review_dict_round_trip():
    reviews = parse_reviews(
        (DATA_DIR / "mixed_reviews.jsonl").read_text(encoding="utf-8").splitlines()
    )
    for review in reviews:
        assert review_from_dict(json.loads(json.dumps(review_to_dict(review)))) == review


def test_read_any_sniffs_both_formats(tmp_path):
    mixed = (DATA_DIR / "mixed_20.jsonl").read_text(encoding="utf-8").splitlines()
    interactions = parse_user_items(mixed)
    flat = tmp_path / "flat.jsonl"
    write_interactions_jsonl(interactions, flat)
    assert read_interactions_any(flat) == interactions
    assert read_interactions_any(DATA_DIR / "mixed_20.jsonl") == interactions

    reviews = parse_reviews(
        (DATA_DIR / "mixed_reviews.jsonl").read_text(encoding="utf-8").splitlines()
    )
    rflat = tmp_path / "rflat.jsonl"
    write_reviews_jsonl(reviews, rflat)
    assert read_reviews_any(rflat) == reviews
    assert read_reviews_any(DATA_DIR / "mixed_reviews.jsonl") == reviews


# -- IdIndex ------------------------------------------------------------------

def test_id_index_bijective_on_randomized_ids():
    rng = random.Random(13)
    ids = list({f"user-{rng.randrange(10**9)}" for _ in range(1500)})
    rng.shuffle(ids)
    index = IdIndex()
    positions = [index.add_user(u) for u in ids]
    assert positions == list(range(len(ids)))
    for pos, user_id in enumerate(ids):
        assert index.user_index(user_id) == pos
        assert index.user_id(pos) == user_id
    item_ids = list({rng.randrange(10**9) for _ in range(1200)})
    for pos, item_id in enumerate(item_ids):
        assert index.add_item(item_id) == pos
        assert index.item_id(index.item_index(item_id)) == item_id


def test_id_index_out_of_range():
    index = IdIndex()
    index.add_user("a")
    with pytest.raises(IndexError):
        index.user_id(1)
    with pytest.raises(IndexError):
        index.user_id(-1)
    with pytest.raises(KeyError):
        index.user_index("missing")


# -- build_table ---------------------------------------------------------------

def test_flattening_preserves_count():
    rng = random.Random(5)
    lines = []
    expected_pairs = set()
    for user in range(40):
        entries = []
        for _ in range(rng.randrange(0, 6)):
            item = rng.randrange(0, 12)
            entries.append({"item_id": str(item), "playtime_forever": rng.randrange(0, 100)})
            expected_pairs.add((f"u{user}", item))
        lines.append(json.dumps({"user_id": f"u{user}", "items": entries}))
    records = parse_user_items(lines)
    assert len(records) == len(expected_pairs)


def test_sparsity_three_of_four():
    interactions = [
        make_interaction(user="a", item=1, forever=5),
        make_interaction(user="a", item=2, forever=5),
        make_interaction(user="b", item=1, forever=5),
    ]
    assert build_table(interactions).sparsity == 0.75


def test_empty_table_sparsity_zero():
    table = build_table([])
    assert table.sparsity == 0.0
    assert table.num_users == 0 and table.num_items == 0


def test_first_appearance_indexing_and_adjacency():
    interactions = [
        make_interaction(user="b", item=20, forever=1),
        make_interaction(user="a", item=10, forever=2),
        make_interaction(user="b", item=10, forever=3),
    ]
    table = build_table(interactions)
    assert table.index.user_ids == ["b", "a"]
    assert table.index.item_ids == [20, 10]
    assert table.by_user[0] == [(0, 1.0), (1, 3.0)]
    assert table.by_item[1] == [(1, 2.0), (0, 3.0)]
    # adjacency is consistent with the flat list
    flat = {
        (table.index.user_index(i.user_id), table.index.item_index(i.item_id), i.playtime_forever)
        for i in table.interactions
    }
    from_user = {(u, i, p) for u, pairs in enumerate(table.by_user) for i, p in pairs}
    from_item = {(u, i, p) for i, pairs in enumerate(table.by_item) for u, p in pairs}
    assert flat == from_user == from_item
