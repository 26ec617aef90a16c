"""Readers for the raw Steam dumps and the normalized interaction/review tables.

The raw UCSD files are newline-delimited, one user record per line, and come
in two flavors: strict JSON, or Python-literal syntax (single-quoted strings,
``True``/``False``/``None``).  The readers here accept both on a per-line
basis, flatten the per-user item/review lists into one record per (user,
item) pair, and assign dense integer indices to user and item ids in
first-appearance order.

Normalized tables round-trip through strict JSON-lines files
(``interactions.jsonl`` / ``reviews.jsonl``), one flat record per line.
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import FieldError, ParseError, check_type

_LEADING_COUNT_RE = re.compile(r"\d[\d,]*")
_PY_STRING_RE = re.compile(r"""('[^']*'|"[^"]*")""")
_JSON_ONLY_WORD_RE = re.compile(r"null|true|false|NaN|Infinity")
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_JSONL_CHUNK = 4096


@dataclass(frozen=True)
class Interaction:
    """One (user, item, playtime) observation, in minutes."""

    user_id: str
    item_id: int
    item_name: str
    playtime_forever: float
    playtime_2weeks: float = 0.0

    def __post_init__(self):
        if not (0 <= self.playtime_forever < math.inf and 0 <= self.playtime_2weeks < math.inf):
            raise ValueError("playtime must be finite and non-negative")


@dataclass(frozen=True)
class Review:
    """One (user, item) review: free text plus the explicit recommend flag."""

    user_id: str
    item_id: int
    text: str
    recommended: bool
    funny: int = 0
    helpful: int = 0
    posted: str = ""


def _literal_to_json(line: str) -> str | None:
    """Translate a backslash-free Python-literal line to JSON, or None.

    Without backslashes a quoted string ends at the next quote of its kind,
    so one split finds every string.  Strings are re-quoted with double
    quotes; outside them ``True``/``False``/``None`` become ``true``/
    ``false``/``null``.  JSON then accepts the result only if it is a
    literal with the same value: an unterminated string leaves an odd
    number of quotes, and triple quotes, implicit concatenation, string
    prefixes, tuples, sets, trailing commas and non-string keys are all
    invalid JSON.  None is returned for backslashes, whose escapes differ
    between the two, and for what JSON would read but Python would not: a
    JSON-only word outside strings, a NUL, a lone surrogate.
    """
    if "\\" in line or "\0" in line or _SURROGATE_RE.search(line):
        return None
    parts = _PY_STRING_RE.split(line)
    parts[1::2] = [quoted[1:-1].replace('"', '\\"') for quoted in parts[1::2]]
    # Even parts lie outside strings, odd parts are string bodies.
    code = "\0".join(parts[0::2])
    if _JSON_ONLY_WORD_RE.search(code):
        return None
    code = code.replace("True", "true").replace("False", "false").replace("None", "null")
    parts[0::2] = code.split("\0")
    return '"'.join(parts)


def _loads_tolerant(line: str, lineno: int) -> Any:
    """Parse one line as strict JSON, falling back to a Python literal.

    A Python-literal line is decoded through :func:`_literal_to_json` when
    it can be, and by ``ast.literal_eval`` otherwise; both give the same
    value for every line the translation accepts.  A line ``literal_eval``
    refuses, an unhashable set member or dict key included, is a ParseError.
    """
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        pass
    translated = _literal_to_json(line)
    if translated is not None:
        try:
            return json.loads(translated)
        except (ValueError, RecursionError):
            pass
    try:
        return ast.literal_eval(line)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        raise ParseError(lineno, "not strict JSON nor a Python literal") from None


def _require(record: dict, key: str, lineno: int) -> Any:
    if key not in record or record[key] is None:
        raise FieldError(lineno, f"missing required field {key!r}")
    return record[key]


def _parse_item_id(raw: Any, lineno: int) -> int:
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise FieldError(lineno, f"item_id {raw!r} is not an integer") from None
    if value < 0:
        raise FieldError(lineno, f"item_id {raw!r} is negative")
    return value


def _parse_playtime(raw: Any, key: str, lineno: int) -> float:
    if raw is None:
        return 0.0
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise FieldError(lineno, f"{key} {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise FieldError(lineno, f"{key} {raw!r} is not finite")
    if value < 0:
        raise FieldError(lineno, f"{key} {raw!r} is negative")
    return value


def _parse_count(raw: Any) -> int:
    """Read vote counts that may arrive as ints or prose ('35 of 43 people...')."""
    if isinstance(raw, bool):
        return int(raw)
    if isinstance(raw, (int, float)):
        return max(int(raw), 0)
    if isinstance(raw, str):
        found = _LEADING_COUNT_RE.search(raw)
        if found:
            return int(found.group().replace(",", ""))
    return 0


def _numbered_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            yield lineno, line


def parse_user_items(lines: Iterable[str]) -> list[Interaction]:
    """Flatten a stream of user-items records into one Interaction per pair.

    Duplicate (user, item) pairs keep the record with the larger
    ``playtime_forever``; missing playtime fields read as 0.  Raises
    :class:`ParseError` for unparseable lines and :class:`FieldError` for
    records missing ``user_id``/``item_id``, both carrying the 1-based line
    number.
    """
    seen: dict[tuple[str, int], Interaction] = {}
    for lineno, line in _numbered_lines(lines):
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
            key = (interaction.user_id, interaction.item_id)
            prev = seen.get(key)
            if prev is None or interaction.playtime_forever > prev.playtime_forever:
                seen[key] = interaction
    return list(seen.values())


def parse_reviews(lines: Iterable[str]) -> list[Review]:
    """Flatten a stream of user-reviews records into one Review per pair.

    Later duplicates of the same (user, item) overwrite earlier ones.  A
    review entry without a ``recommend`` flag is a :class:`FieldError`.
    """
    seen: dict[tuple[str, int], Review] = {}
    for lineno, line in _numbered_lines(lines):
        record = _loads_tolerant(line, lineno)
        if not isinstance(record, dict):
            raise ParseError(lineno, "record is not an object")
        user_id = str(_require(record, "user_id", lineno))
        reviews = record.get("reviews", [])
        if not isinstance(reviews, list):
            raise FieldError(lineno, "'reviews' is not a list")
        for entry in reviews:
            if not isinstance(entry, dict):
                raise FieldError(lineno, "review entry is not an object")
            if "recommend" in entry:
                recommended = entry["recommend"]
            elif "recommended" in entry:
                recommended = entry["recommended"]
            else:
                raise FieldError(lineno, "missing required field 'recommend'")
            review = Review(
                user_id=user_id,
                item_id=_parse_item_id(_require(entry, "item_id", lineno), lineno),
                text=str(entry.get("review", "")),
                recommended=bool(recommended),
                funny=_parse_count(entry.get("funny")),
                helpful=_parse_count(entry.get("helpful")),
                posted=str(entry.get("posted", "")),
            )
            seen[(review.user_id, review.item_id)] = review
    return list(seen.values())


class IdIndex:
    """Bijection between raw user/item ids and dense indices.

    Indices are assigned in first-appearance order, so the mapping is a
    deterministic function of the interaction order.
    """

    __slots__ = ("user_ids", "item_ids", "_user_pos", "_item_pos")

    def __init__(self):
        self.user_ids: list[str] = []
        self.item_ids: list[int] = []
        self._user_pos: dict[str, int] = {}
        self._item_pos: dict[int, int] = {}

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def add_user(self, user_id: str) -> int:
        pos = self._user_pos.get(user_id)
        if pos is None:
            pos = len(self.user_ids)
            self._user_pos[user_id] = pos
            self.user_ids.append(user_id)
        return pos

    def add_item(self, item_id: int) -> int:
        pos = self._item_pos.get(item_id)
        if pos is None:
            pos = len(self.item_ids)
            self._item_pos[item_id] = pos
            self.item_ids.append(item_id)
        return pos

    def user_index(self, user_id: str) -> int:
        return self._user_pos[user_id]

    def item_index(self, item_id: int) -> int:
        return self._item_pos[item_id]

    def user_id(self, index: int) -> str:
        if not 0 <= index < len(self.user_ids):
            raise IndexError(f"user index {index} out of range")
        return self.user_ids[index]

    def item_id(self, index: int) -> int:
        if not 0 <= index < len(self.item_ids):
            raise IndexError(f"item index {index} out of range")
        return self.item_ids[index]

    def has_user(self, user_id: str) -> bool:
        return user_id in self._user_pos

    def has_item(self, item_id: int) -> bool:
        return item_id in self._item_pos


@dataclass(eq=False)
class InteractionTable:
    """Interaction columns plus the id index and a user-major CSR view.

    ``users``/``items`` hold each interaction's dense indices and
    ``playtime`` its ``playtime_forever``, all in interaction order.  User
    ``u``'s items are ``user_items[user_indptr[u]:user_indptr[u + 1]]``, also
    in interaction order.  ``item_names[i]`` is the name at item ``i``'s first
    occurrence.  The table is immutable by convention once built and safe to
    share across threads.
    """

    interactions: list[Interaction]
    index: IdIndex
    item_names: list[str]
    users: np.ndarray
    items: np.ndarray
    playtime: np.ndarray
    user_indptr: np.ndarray
    user_items: np.ndarray

    @property
    def num_users(self) -> int:
        return self.index.num_users

    @property
    def num_items(self) -> int:
        return self.index.num_items

    @property
    def sparsity(self) -> float:
        """Fraction of the user x item grid with an observed interaction (0 when empty)."""
        cells = self.num_users * self.num_items
        if cells == 0:
            return 0.0
        return len(self.users) / cells

    def seen_items(self, user_index: int) -> np.ndarray:
        """Item indices of the user's interactions, in interaction order."""
        return self.user_items[self.user_indptr[user_index] : self.user_indptr[user_index + 1]]


def build_table(interactions: Iterable[Interaction]) -> InteractionTable:
    """Index users/items by first appearance; build the columns and the CSR view."""
    interactions = list(interactions)
    index = IdIndex()
    n = len(interactions)
    users = np.fromiter(map(index.add_user, map(attrgetter("user_id"), interactions)), np.intp, n)
    items = np.fromiter(map(index.add_item, map(attrgetter("item_id"), interactions)), np.intp, n)
    playtime = np.fromiter(map(attrgetter("playtime_forever"), interactions), np.float64, n)
    first = np.unique(items, return_index=True)[1]
    user_indptr = np.zeros(index.num_users + 1, dtype=np.intp)
    np.cumsum(np.bincount(users, minlength=index.num_users), out=user_indptr[1:])
    return InteractionTable(
        interactions=interactions,
        index=index,
        item_names=[interactions[j].item_name for j in first.tolist()],
        users=users,
        items=items,
        playtime=playtime,
        user_indptr=user_indptr,
        user_items=items[np.argsort(users, kind="stable")],
    )


def interaction_to_dict(inter: Interaction) -> dict:
    return {
        "user_id": inter.user_id,
        "item_id": inter.item_id,
        "item_name": inter.item_name,
        "playtime_forever": inter.playtime_forever,
        "playtime_2weeks": inter.playtime_2weeks,
    }


def _field(record: dict, key: str, kind: type) -> Any:
    """``record[key]``, or a TypeError naming ``key`` when it is not a ``kind``."""
    return check_type(record[key], kind, key, TypeError)


def interaction_from_dict(record: dict) -> Interaction:
    return Interaction(
        user_id=_field(record, "user_id", str),
        item_id=_field(record, "item_id", int),
        item_name=_field(record, "item_name", str),
        playtime_forever=float(_field(record, "playtime_forever", float)),
        playtime_2weeks=float(_field(record, "playtime_2weeks", float)),
    )


def review_to_dict(review: Review) -> dict:
    return {
        "user_id": review.user_id,
        "item_id": review.item_id,
        "text": review.text,
        "recommended": review.recommended,
        "funny": review.funny,
        "helpful": review.helpful,
        "posted": review.posted,
    }


def review_from_dict(record: dict) -> Review:
    return Review(
        user_id=_field(record, "user_id", str),
        item_id=_field(record, "item_id", int),
        text=_field(record, "text", str),
        recommended=_field(record, "recommended", bool),
        funny=_field(record, "funny", int),
        helpful=_field(record, "helpful", int),
        posted=_field(record, "posted", str),
    )


def _write_jsonl(lines: Iterable[str], path: str | Path) -> None:
    """Write one line per record, joined in chunks of ``_JSONL_CHUNK`` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        lines = iter(lines)
        while chunk := list(islice(lines, _JSONL_CHUNK)):
            handle.write("\n".join(chunk) + "\n")


def _interaction_line(inter: Interaction) -> str:
    """``json.dumps(interaction_to_dict(inter), allow_nan=False)``, formatted directly.

    Fields of any other type than declared, or a non-finite playtime, go
    through ``json.dumps`` itself, so the bytes and the refusal are its own.
    """
    user_id, item_id, name = inter.user_id, inter.item_id, inter.item_name
    forever, recent = inter.playtime_forever, inter.playtime_2weeks
    if (
        type(user_id) is str and type(item_id) is int and type(name) is str
        and type(forever) is float and type(recent) is float
        and -math.inf < forever < math.inf and -math.inf < recent < math.inf
    ):
        return (
            f'{{"user_id": {_encode_str(user_id)}, "item_id": {int.__repr__(item_id)}, '
            f'"item_name": {_encode_str(name)}, "playtime_forever": {float.__repr__(forever)}, '
            f'"playtime_2weeks": {float.__repr__(recent)}}}'
        )
    return json.dumps(interaction_to_dict(inter), allow_nan=False)


def _review_line(review: Review) -> str:
    """``json.dumps(review_to_dict(review), allow_nan=False)``, formatted directly."""
    user_id, item_id, text = review.user_id, review.item_id, review.text
    recommended, funny, helpful, posted = (
        review.recommended, review.funny, review.helpful, review.posted
    )
    if (
        type(user_id) is str and type(item_id) is int and type(text) is str
        and type(recommended) is bool and type(funny) is int and type(helpful) is int
        and type(posted) is str
    ):
        return (
            f'{{"user_id": {_encode_str(user_id)}, "item_id": {int.__repr__(item_id)}, '
            f'"text": {_encode_str(text)}, "recommended": {"true" if recommended else "false"}, '
            f'"funny": {int.__repr__(funny)}, "helpful": {int.__repr__(helpful)}, '
            f'"posted": {_encode_str(posted)}}}'
        )
    return json.dumps(review_to_dict(review), allow_nan=False)


def write_interactions_jsonl(interactions: Iterable[Interaction], path: str | Path) -> None:
    _write_jsonl(map(_interaction_line, interactions), path)


def _read_flat_jsonl(path: str | Path, from_dict) -> list:
    """``from_dict`` of each non-empty line; a bad line raises ParseError/FieldError naming it."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                raise ParseError(lineno, "not a JSON value") from None
            if not isinstance(record, dict):
                raise ParseError(lineno, "record is not an object")
            try:
                records.append(from_dict(record))
            except KeyError as exc:
                raise FieldError(lineno, f"missing required field {exc.args[0]!r}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise FieldError(lineno, str(exc)) from None
    return records


def read_interactions_jsonl(path: str | Path) -> list[Interaction]:
    return _read_flat_jsonl(path, interaction_from_dict)


def write_reviews_jsonl(reviews: Iterable[Review], path: str | Path) -> None:
    _write_jsonl(map(_review_line, reviews), path)


def read_reviews_jsonl(path: str | Path) -> list[Review]:
    return _read_flat_jsonl(path, review_from_dict)


def _sniff_key(path: str | Path, key: str) -> bool:
    """Whether the first non-empty line of ``path`` is a record holding ``key``."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in _numbered_lines(handle):
            record = _loads_tolerant(line, lineno)
            return isinstance(record, dict) and key in record
    return False


def read_reviews_any(path: str | Path) -> list[Review]:
    """Read reviews from either a raw user-reviews dump or a flat reviews.jsonl.

    Sniffs the first non-empty line: records with an embedded ``reviews`` list
    go through the tolerant nested reader, flat records through the strict
    one.
    """
    if not _sniff_key(path, "reviews"):
        return read_reviews_jsonl(path)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_reviews(handle)


def read_interactions_any(path: str | Path) -> list[Interaction]:
    """Read interactions from a raw user-items dump or a flat interactions.jsonl."""
    if not _sniff_key(path, "items"):
        return read_interactions_jsonl(path)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_user_items(handle)
