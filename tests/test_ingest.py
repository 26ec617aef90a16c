import ast
import dataclasses
import json
import random
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steamrec import (
    FieldError,
    Interaction,
    ParseError,
    Review,
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
    Interactions,
    _literal_to_json,
    _loads_tolerant,
    _parse_item_id,
    _parse_playtime,
    _require,
    interaction_from_dict,
    read_interactions_any,
    read_reviews_any,
    review_from_dict,
)
from steamrec.evaluation import TOP_N, stats
from steamrec.ratings import match_reviews

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


# -- Python-literal decoding: the JSON translation against ast.literal_eval ------

def reference_loads(line, lineno):
    """The decoder without a translation: strict JSON, else ``ast.literal_eval``."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        pass
    try:
        return ast.literal_eval(line)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        raise ParseError(lineno, "not strict JSON nor a Python literal") from None


def decode_outcome(decode, line, lineno):
    """``repr`` of the decoded value (it tells 1 from 1.0 from True, and -0.0
    from 0.0), or the ParseError's line number and message."""
    try:
        return "value", repr(decode(line, lineno))
    except ParseError as exc:
        return "error", exc.line_number, str(exc)


# repr() writes these without a backslash, so a record made of them takes the
# JSON translation; the escaped fragments send a line to literal_eval.
_PLAIN_FRAGMENTS = [
    "a", "Z", " ", "'", '"', "True", "False", "None", "null", "true", "NaN",
    "Infinity", "Café", "Garry's Mod", "日本", "#", ",", ":", "{", "}", "[", "]",
    "0", "-1.5e3", "u'", "'''",
]
_ESCAPED_FRAGMENTS = ["\\", "\\'", "\t", "\n", "\x00"]
_printable = st.characters(blacklist_categories=("C", "Z")) | st.just(" ")


def _records_of(fragments, characters):
    strings = st.one_of(
        st.lists(st.sampled_from(fragments), max_size=6).map("".join),
        st.text(characters, max_size=8),
    )
    values = st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(),
            st.floats(allow_nan=False, allow_infinity=False), strings,
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(strings, children, max_size=4),
            st.tuples(children, children),
        ),
        max_leaves=12,
    )
    return st.dictionaries(strings, values, max_size=5)


_records = st.one_of(
    _records_of([f for f in _PLAIN_FRAGMENTS if '"' not in f], _printable),
    _records_of(_PLAIN_FRAGMENTS, _printable),
    _records_of(_PLAIN_FRAGMENTS + _ESCAPED_FRAGMENTS, st.characters()),
)
_MUTATIONS = ["'", '"', ",", ":", "]", "}", "\\", " ", "T", "n", "N", "u", "1", "-", "é"]


@settings(max_examples=200, deadline=None)
@given(record=_records, lineno=st.integers(1, 10**6))
def test_translated_decode_equals_literal_eval(record, lineno):
    line = repr(record)
    assert decode_outcome(_loads_tolerant, line, lineno) == (
        "value", repr(ast.literal_eval(line))
    )


@settings(max_examples=300, deadline=None)
@given(record=_records, lineno=st.integers(1, 10**6), data=st.data())
def test_malformed_literal_decodes_or_fails_like_literal_eval(record, lineno, data):
    line = repr(record)
    at = data.draw(st.integers(0, len(line)))
    mutation = data.draw(st.sampled_from(["truncate", "insert", "delete", "replace"]))
    char = data.draw(st.sampled_from(_MUTATIONS))
    if mutation == "truncate":
        line = line[:at]
    elif mutation == "insert":
        line = line[:at] + char + line[at:]
    elif mutation == "delete":
        line = line[:at] + line[at + 1 :]
    else:
        line = line[:at] + char + line[at + 1 :]
    assert decode_outcome(_loads_tolerant, line, lineno) == decode_outcome(
        reference_loads, line, lineno
    )


def test_steam_literal_line_takes_the_translation():
    line = (
        "{'user_id': 'None True', 'items': [{'item_id': '4000', 'item_name': \"Garry's Mod\", "
        "'playtime_forever': 12.5, 'playtime_2weeks': None}, {'item_id': '7', "
        "'item_name': 'Café \"null\"', 'playtime_forever': 0, 'owned': True}]}"
    )
    translated = _literal_to_json(line)
    assert translated is not None
    assert repr(json.loads(translated)) == repr(ast.literal_eval(line))


@pytest.mark.parametrize(
    "line",
    [
        "{'a': null}", "{'a': true}", "[NaN]", "[-Infinity]", "{'a': 1,}", "(1, 2)",
        "{'a': '''x'''}", "{'a': 'x' 'y'}", "{'a': u'x'}", "{1: 'x'}", "{'a': 'x\\'y'}",
        "{'a': '\ud800'}", "{'a': 1}\x00", "['x', 'y]", "{'a': \"b}", "[١]", "[1] # c",
        "{'a': 'x\ty'}", "{'a': -0.0, 'b': 1e999, 'c': True, 'd': None}", "[inf]", "[nan]",
        "{'user_id': 'u', 'items': {[1]}}", "{[1]: 'x'}", "{'a': 'café \udfff'}",
        "['\udc80', 'é']",
    ],
)
def test_lines_json_would_misread_fall_back_to_literal_eval(line):
    assert decode_outcome(_loads_tolerant, line, 3) == decode_outcome(reference_loads, line, 3)


# -- round-trip through strict JSON -------------------------------------------

def test_interaction_round_trip():
    inter = make_interaction(user="u9", item=77, name="Garry's Mod", forever=12.5, recent=3)
    assert interaction_from_dict(json.loads(json.dumps(dataclasses.asdict(inter)))) == inter


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


_FLAT_GOOD = {
    interaction_from_dict: {"user_id": "u", "item_id": 1, "item_name": "x",
                            "playtime_forever": 1.5, "playtime_2weeks": 0},
    review_from_dict: {"user_id": "u", "item_id": 1, "text": "fun", "recommended": True,
                       "funny": 0, "helpful": 2, "posted": ""},
}


@pytest.mark.parametrize(
    "from_dict, key, value, message",
    [
        (interaction_from_dict, "user_id", None, "user_id must be a string, got None"),
        (interaction_from_dict, "user_id", 7, "user_id must be a string, got 7"),
        (interaction_from_dict, "item_id", "1", "item_id must be an integer, got '1'"),
        (interaction_from_dict, "item_id", True, "item_id must be an integer, got True"),
        (interaction_from_dict, "item_id", 1.0, "item_id must be an integer, got 1.0"),
        (interaction_from_dict, "item_name", None, "item_name must be a string, got None"),
        (interaction_from_dict, "playtime_forever", "5",
         "playtime_forever must be a number, got '5'"),
        (interaction_from_dict, "playtime_forever", False,
         "playtime_forever must be a number, got False"),
        (interaction_from_dict, "playtime_forever", 10**400, "too large"),
        (interaction_from_dict, "playtime_2weeks", None,
         "playtime_2weeks must be a number, got None"),
        (review_from_dict, "user_id", None, "user_id must be a string, got None"),
        (review_from_dict, "item_id", "3", "item_id must be an integer, got '3'"),
        (review_from_dict, "text", None, "text must be a string, got None"),
        (review_from_dict, "recommended", 1, "recommended must be a boolean, got 1"),
        (review_from_dict, "recommended", "true", "recommended must be a boolean, got 'true'"),
        (review_from_dict, "funny", 1.5, "funny must be an integer, got 1.5"),
        (review_from_dict, "funny", False, "funny must be an integer, got False"),
        (review_from_dict, "helpful", "2", "helpful must be an integer, got '2'"),
        (review_from_dict, "posted", 0, "posted must be a string, got 0"),
    ],
)
def test_flat_reader_rejects_a_field_of_the_wrong_type(tmp_path, from_dict, key, value, message):
    good = _FLAT_GOOD[from_dict]
    path = tmp_path / "flat.jsonl"
    path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, key: value})}\n", encoding="utf-8")
    read = read_interactions_jsonl if from_dict is interaction_from_dict else read_reviews_jsonl
    with pytest.raises(FieldError, match=f"^line 2: .*{re.escape(message)}"):
        read(path)
    path.write_text(f"{json.dumps(good)}\n", encoding="utf-8")
    assert len(read(path)) == 1


def test_review_dict_round_trip():
    reviews = parse_reviews(
        (DATA_DIR / "mixed_reviews.jsonl").read_text(encoding="utf-8").splitlines()
    )
    for review in reviews:
        assert review_from_dict(json.loads(json.dumps(dataclasses.asdict(review)))) == review


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


def test_a_byte_that_is_not_utf8_is_a_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "user_reviews.json"
    # far past the reader's first chunk, with CRLF line ends
    lines = [b"{'user_id': 'u%d', 'reviews': []}" % i for i in range(3000)]
    lines[2499] = b"{'user_id': '\xe9', 'reviews': []}"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ParseError, match="^line 2500: byte 0xe9 is not UTF-8$"):
        read_reviews_any(path)
    # a sequence cut short by the end of the file
    path.write_bytes(b"{'user_id': 'a', 'reviews': []}\n\n{'user_id': '\xc3")
    with pytest.raises(ParseError, match="^line 3: byte 0xc3 is not UTF-8$"):
        read_reviews_any(path)


def _dumps_lines(records, to_dict):
    return "".join(json.dumps(to_dict(r), allow_nan=False) + "\n" for r in records)


def test_jsonl_writers_match_json_dumps_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr("steamrec.ingest._JSONL_CHUNK", 2)  # several chunks
    interactions = [
        make_interaction(user="u1", item=4000, name="Garry's Mod", forever=12.5, recent=3.0),
        make_interaction(user="u2", item=7, name='Café "Racer" \\ 日本', forever=0.0),
        make_interaction(user="ü\n", item=0, name="", forever=1e300, recent=2.5e-7),
        make_interaction(user="u3", item=9, name="int forever", forever=6, recent=0.5),
        make_interaction(user="u5", item=11, name="int recent", forever=1.5, recent=0),
        make_interaction(user="u4", item=True, name="bool id", forever=1.0),
    ]
    path = tmp_path / "interactions.jsonl"
    write_interactions_jsonl(interactions, path)
    assert path.read_bytes() == _dumps_lines(interactions, dataclasses.asdict).encode()

    reviews = [
        Review(user_id="u1", item_id=4000, text='Garry\'s "fun"\t ', recommended=True,
               funny=3, helpful=0, posted="Posted May 1."),
        Review(user_id="Café", item_id=7, text="", recommended=False),
        Review(user_id="u2", item_id=8, text="x", recommended=1),
        Review(user_id="u2", item_id=9, text="x", recommended=True, funny=True),
        Review(user_id="u2", item_id=10, text="x", recommended=False, helpful=2.5),
    ]
    rpath = tmp_path / "reviews.jsonl"
    write_reviews_jsonl(reviews, rpath)
    assert rpath.read_bytes() == _dumps_lines(reviews, dataclasses.asdict).encode()


def test_jsonl_writer_refuses_non_finite_like_json_dumps(tmp_path):
    inter = make_interaction(forever=1.0)
    object.__setattr__(inter, "playtime_2weeks", float("nan"))
    with pytest.raises(ValueError) as expected:
        json.dumps(dataclasses.asdict(inter), allow_nan=False)
    with pytest.raises(ValueError) as got:
        write_interactions_jsonl([inter], tmp_path / "x.jsonl")
    assert str(got.value) == str(expected.value)


# -- IdIndex ------------------------------------------------------------------

def test_id_index_bijective_on_randomized_ids():
    rng = random.Random(13)
    ids = list({f"user-{rng.randrange(10**9)}" for _ in range(1500)})
    rng.shuffle(ids)
    item_ids = list({rng.randrange(10**9) for _ in range(1200)})
    # every id appears again later, as an equal but other object, and keeps the
    # index and the object of its first appearance
    again = [u[:1] + u[1:] for u in reversed(ids)]
    index = IdIndex(ids + again, item_ids + item_ids[::3])
    assert [index.user_index(u) for u in ids] == list(range(len(ids)))
    assert all(kept is first for kept, first in zip(index.user_ids, ids))
    for pos, user_id in enumerate(ids):
        assert index.user_index(user_id) == pos
        assert index.user_id(pos) == user_id
    for pos, item_id in enumerate(item_ids):
        assert index.item_index(item_id) == pos
        assert index.item_id(index.item_index(item_id)) == item_id
    assert (index.num_users, index.num_items) == (len(ids), len(item_ids))


def test_id_index_out_of_range():
    index = IdIndex(["a"])
    with pytest.raises(IndexError):
        index.user_id(1)
    with pytest.raises(IndexError):
        index.user_id(-1)
    with pytest.raises(KeyError):
        index.user_index("missing")


def test_both_readers_keep_one_string_object_per_distinct_id_and_name(tmp_path):
    names = ["Portal Two", "Cave Cartographer", "Night Harvest"]
    raw = [
        json.dumps({"user_id": f"user{u % 3}", "items": [
            {"item_id": str(10 * u + i), "item_name": names[i], "playtime_forever": u + i}
            for i in range(3)
        ]})
        for u in range(9)
    ]
    flat = tmp_path / "interactions.jsonl"
    write_interactions_jsonl(parse_user_items(raw), flat)
    for interactions in (parse_user_items(raw), read_interactions_jsonl(flat)):
        for column in (interactions.user_id, interactions.item_name):
            assert len(column) == 27
            assert len({id(value) for value in column}) == len(set(column)) == 3


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
    # user 0's CSR slice, paired with its playtimes in interaction order
    user0 = table.users == 0
    assert list(zip(table.seen_items(0).tolist(), table.playtime[user0].tolist())) == [
        (0, 1.0), (1, 3.0)
    ]
    item1 = table.items == 1
    assert list(zip(table.users[item1].tolist(), table.playtime[item1].tolist())) == [
        (1, 2.0), (0, 3.0)
    ]
    # the columns and the CSR view are consistent with the flat list
    flat = {
        (table.index.user_index(i.user_id), table.index.item_index(i.item_id), i.playtime_forever)
        for i in table.interactions
    }
    from_columns = set(zip(table.users.tolist(), table.items.tolist(), table.playtime.tolist()))
    from_csr = {
        (u, i, p)
        for u in range(table.num_users)
        for i, p in zip(table.seen_items(u).tolist(), table.playtime[table.users == u].tolist())
    }
    assert flat == from_columns == from_csr


def _reference_adjacency(interactions):
    """The per-record ``by_user``/``by_item`` lists of (index, playtime) pairs."""
    users, items = {}, {}
    by_user, by_item = [], []
    for inter in interactions:
        u = users.setdefault(inter.user_id, len(users))
        i = items.setdefault(inter.item_id, len(items))
        if u == len(by_user):
            by_user.append([])
        if i == len(by_item):
            by_item.append([])
        by_user[u].append((i, inter.playtime_forever))
        by_item[i].append((u, inter.playtime_forever))
    return by_user, by_item


def _reference_match(table, reviews):
    """match_reviews over the set of raw (user_id, item_id) pairs."""
    pairs = {(inter.user_id, inter.item_id) for inter in table.interactions}
    matched, skipped = {}, 0
    for review in reviews:
        if (review.user_id, review.item_id) not in pairs:
            skipped += 1
            continue
        key = (table.index.user_index(review.user_id), table.index.item_index(review.item_id))
        matched[key] = review
    return matched, skipped


_playtimes = st.one_of(
    # floating-point sums of these depend on the order of the terms
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e16, 3.0]),
    st.floats(0, 1e17, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6),
)
_interaction_lists = st.lists(
    st.builds(
        make_interaction,
        user=st.sampled_from(["a", "b", "c", "d"]),
        item=st.integers(0, 3),
        name=st.sampled_from(["x", "y", ""]),
        forever=_playtimes,
    ),
    max_size=30,
)
_review_lists = st.lists(
    st.builds(
        Review,
        user_id=st.sampled_from(["a", "b", "c", "z"]),
        item_id=st.integers(0, 7),
        text=st.just(""),
        recommended=st.booleans(),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(interactions=_interaction_lists, reviews=_review_lists)
@example(interactions=[], reviews=[Review("a", 1, "", True)])
def test_columnar_table_matches_per_record_references(interactions, reviews):
    table = build_table(interactions)
    by_user, by_item = _reference_adjacency(interactions)
    assert (table.num_users, table.num_items) == (len(by_user), len(by_item))
    for u, pairs in enumerate(by_user):
        assert table.seen_items(u).tolist() == [i for i, _ in pairs]
        assert table.playtime[table.users == u].tolist() == [float(p) for _, p in pairs]
    for i, pairs in enumerate(by_item):
        assert table.users[table.items == i].tolist() == [u for u, _ in pairs]

    report = stats(table)
    user_totals = [sum(p for _, p in pairs) for pairs in by_user]
    item_totals = [sum(p for _, p in pairs) for pairs in by_item]
    top_items = [
        (table.index.item_id(i), table.item_names[i], float(item_totals[i]))
        for i in sorted(range(len(by_item)), key=lambda i: (-item_totals[i], i))[:TOP_N]
    ]
    top_users = [
        (table.index.user_id(u), float(user_totals[u]))
        for u in sorted(range(len(by_user)), key=lambda u: (-user_totals[u], u))[:TOP_N]
    ]
    # repr tells -0.0 from 0.0 and shows every bit that float equality would
    assert repr(report.top_items) == repr(top_items)
    assert repr(report.top_users) == repr(top_users)
    assert repr(report.total_playtime) == repr(float(sum(user_totals)))
    assert report.num_interactions == len(interactions)

    got, expected = match_reviews(table, reviews), _reference_match(table, reviews)
    assert list(got[0].items()) == list(expected[0].items()) and got[1] == expected[1]


# -- the columnar readers against the per-record loops they replaced -------------

def reference_parse_user_items(lines):
    """One Interaction per item entry, merged by a (user, item) dict: the larger
    ``playtime_forever`` wins and a pair keeps its first position."""
    seen = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        record = _loads_tolerant(line, lineno)
        if not isinstance(record, dict):
            raise ParseError(lineno, "record is not an object")
        user_id = str(_require(record, "user_id", lineno))
        items = record.get("items", [])
        if not isinstance(items, list):
            raise FieldError(lineno, "'items' is not a list")
        for entry in items:
            if not isinstance(entry, dict):
                raise FieldError(lineno, "item entry is not an object")
            interaction = Interaction(
                user_id=user_id,
                item_id=_parse_item_id(_require(entry, "item_id", lineno), lineno),
                item_name=str(entry.get("item_name", "")),
                playtime_forever=_parse_playtime(
                    entry.get("playtime_forever", 0), "playtime_forever", lineno
                ),
                playtime_2weeks=_parse_playtime(
                    entry.get("playtime_2weeks", 0), "playtime_2weeks", lineno
                ),
            )
            _keep_larger_playtime(seen, interaction)
    return list(seen.values())


def _keep_larger_playtime(seen, interaction):
    key = (interaction.user_id, interaction.item_id)
    prev = seen.get(key)
    if prev is None or interaction.playtime_forever > prev.playtime_forever:
        seen[key] = interaction


def reference_read_interactions_jsonl(path):
    """``interaction_from_dict`` of each line, with the same merge."""
    seen = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise ParseError(lineno, "not a JSON value") from None
            if not isinstance(record, dict):
                raise ParseError(lineno, "record is not an object")
            try:
                interaction = interaction_from_dict(record)
            except KeyError as exc:
                raise FieldError(lineno, f"missing required field {exc.args[0]!r}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise FieldError(lineno, str(exc)) from None
            _keep_larger_playtime(seen, interaction)
    return list(seen.values())


def read_outcome(read, source):
    """The rows with their exact types (repr tells 1 from 1.0 and True), or the
    error's type, text and line number."""
    try:
        return "rows", repr([dataclasses.astuple(inter) for inter in read(source)])
    except ParseError as exc:
        return "error", type(exc).__name__, str(exc), exc.line_number


_USERS = st.sampled_from(["u1", "u2", "ü 3", "u1 "])
_MISSING = object()
_PLAYTIMES = st.integers(0, 500) | st.floats(0, 1e300) | st.sampled_from(
    [None, True, "5", _MISSING]
)
# Values the raw parser accepts, and values it rejects (or, for a missing
# item_id, a key it requires).
_RAW_VALID = {
    "item_id": st.sampled_from(["10", "11", 10, 11, " 10 ", "0"]),
    "item_name": st.sampled_from(["CS", "Garry's Mod", '日本 \\ "', "", 7, _MISSING]),
    "playtime_forever": _PLAYTIMES,
    "playtime_2weeks": _PLAYTIMES,
}
_BAD_PLAYTIMES = st.sampled_from(["x", -1, float("nan"), 1e999, [1]])
_RAW_INVALID = {
    "item_id": st.sampled_from(["-3", -3, "abc", "1.5", 1.5, None, _MISSING]),
    "item_name": _RAW_VALID["item_name"],
    "playtime_forever": _BAD_PLAYTIMES,
    "playtime_2weeks": _BAD_PLAYTIMES,
}
_FLAT_VALID = {
    "user_id": _USERS,
    "item_id": st.sampled_from([10, 11, 12]),
    "item_name": st.sampled_from(["CS", 'Café "x"', ""]),
    "playtime_forever": st.integers(0, 500) | st.floats(0, 500),
    "playtime_2weeks": st.integers(0, 500) | st.floats(0, 500),
}
_FLAT_INVALID = {
    "user_id": st.sampled_from([None, 7, _MISSING]),
    "item_id": st.sampled_from(["10", True, 1.0, _MISSING]),
    "item_name": st.sampled_from([None, 3, _MISSING]),
    "playtime_forever": st.sampled_from(["5", -1, float("nan"), 10**400, None, False]),
    "playtime_2weeks": st.sampled_from([-0.5, float("inf"), _MISSING]),
}


def _present(values):
    return {key: value for key, value in values.items() if value is not _MISSING}


@st.composite
def _records(draw, valid, invalid):
    """Records over few users and items, so pairs repeat within and across lines.
    Without ``invalid``, or in half the examples, every value is valid; in the
    other half each value is invalid one time in five."""
    bad = invalid is not None and draw(st.booleans())

    def values():
        return _present({key: draw(invalid[key] if bad and draw(st.integers(0, 4)) == 0
                                   else valid[key]) for key in valid})

    return [values() for _ in range(draw(st.integers(0, 8)))], bad


@st.composite
def _raw_lines(draw, invalid=_RAW_INVALID):
    entries, bad = draw(_records(_RAW_VALID, invalid))
    lines = [draw(st.sampled_from(["", '{"user_id": "u2", "items": []}', "{'user_id': 'u1'}"]))]
    while entries:
        count = draw(st.integers(1, 3))
        record = {"user_id": draw(_USERS), "items": entries[:count]}
        entries = entries[count:]
        if bad and draw(st.integers(0, 9)) == 0:
            record = draw(st.sampled_from([{"items": []}, {"user_id": "u1", "items": 3},
                                           {"user_id": "u1", "items": [1]}, [record]]))
        line = json.dumps(record) if draw(st.booleans()) else repr(record)
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=_raw_lines())
def test_parse_user_items_equals_the_per_record_reference(lines):
    assert read_outcome(parse_user_items, lines) == read_outcome(
        reference_parse_user_items, lines
    )


@st.composite
def _flat_lines(draw):
    records, bad = draw(_records(_FLAT_VALID, _FLAT_INVALID))
    lines = [json.dumps(record) for record in records]
    if bad and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "[1]", "{oops", "NaN"])))
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=_flat_lines())
def test_read_interactions_jsonl_equals_the_per_record_reference(lines):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "flat.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        outcome = read_outcome(read_interactions_jsonl, path)
        assert outcome == read_outcome(reference_read_interactions_jsonl, path)
        if outcome[0] == "rows":  # integer playtimes read as floats
            read = read_interactions_jsonl(path)
            assert {type(v) for v in read.playtime_forever + read.playtime_2weeks} <= {float}


@settings(max_examples=100, deadline=None)
@given(lines=_raw_lines(invalid=None))
def test_write_then_read_is_the_identity(lines):
    interactions = parse_user_items(lines)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "flat.jsonl"
        write_interactions_jsonl(interactions, path)
        again = read_interactions_jsonl(path)
    assert isinstance(again, Interactions)
    assert repr(again.columns) == repr(interactions.columns)
