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
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import count, islice
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, get_type_hints

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
        _check_playtimes(self.playtime_forever, self.playtime_2weeks)


def _check_playtimes(forever: float, recent: float) -> None:
    if not (0 <= forever < math.inf and 0 <= recent < math.inf):
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


_FIELDS = {kind: tuple(get_type_hints(kind).items()) for kind in (Interaction, Review)}


class Interactions(Sequence):
    """Five parallel columns, one per :class:`Interaction` field, of exact values.

    Reads as a sequence of :class:`Interaction` made on demand, equal to any
    sequence of equal interactions."""

    __slots__ = tuple(name for name, _ in _FIELDS[Interaction])

    def __init__(self, records: Iterable[Interaction] = ()):
        """The columns of ``records`` as they are: repeated pairs stay separate rows."""
        records = list(records)
        for name in self.__slots__:
            setattr(self, name, [getattr(r, name) for r in records])

    @classmethod
    def of(cls, interactions: Iterable[Interaction]) -> Interactions:
        return interactions if isinstance(interactions, Interactions) else cls(interactions)

    columns = property(attrgetter(*__slots__), doc="The five columns, in field order.")

    def __len__(self) -> int:
        return len(self.user_id)

    def __getitem__(self, index: int) -> Interaction:
        return Interaction(*(column[index] for column in self.columns))

    def __iter__(self) -> Iterator[Interaction]:
        return map(Interaction, *self.columns)

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


def _merged(rows: Iterable[Sequence]) -> Interactions:
    """One row per (user, item) pair, at the pair's first position, holding the
    values of its first row with the largest ``playtime_forever``.  Equal user
    ids and names share one string object."""
    merged = Interactions()
    users, items, names, forever, recent = merged.columns
    position: dict[str, dict[int, int]] = {}  # user -> item -> row index
    strings: dict[str, str] = {}
    for user_id, item_id, name, played, played_2weeks in rows:
        user_rows = position.setdefault(user_id, {})
        at = user_rows.get(item_id)
        if at is None:
            user_rows[item_id] = len(users)
            users.append(strings.setdefault(user_id, user_id))
            items.append(item_id)
            names.append(strings.setdefault(name, name))
            forever.append(played)
            recent.append(played_2weeks)
        elif played > forever[at]:
            names[at] = strings.setdefault(name, name)
            forever[at], recent[at] = played, played_2weeks
    return merged


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
    # a lone surrogate is never ASCII, so an ASCII line skips the search
    if "\\" in line or "\0" in line or not line.isascii() and _SURROGATE_RE.search(line):
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
    refuses, an unhashable set member or dict key included, is a ParseError,
    and so is a line JSON refuses for its limits (an integer of more than
    4300 digits, too deep a nesting) that ``literal_eval`` refuses too.
    """
    try:
        return json.loads(line)
    except (ValueError, RecursionError):
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


def _entries(lines: Iterable[str], key: str) -> Iterator[tuple[int, str, dict]]:
    """(line number, user id, entry) for each entry of each record's ``key`` list."""
    for lineno, line in _numbered_lines(lines):
        record = _loads_tolerant(line, lineno)
        if not isinstance(record, dict):
            raise ParseError(lineno, "record is not an object")
        user_id = str(_require(record, "user_id", lineno))
        entries = record.get(key, [])
        if not isinstance(entries, list):
            raise FieldError(lineno, f"{key!r} is not a list")
        for entry in entries:
            if not isinstance(entry, dict):
                raise FieldError(lineno, f"{key[:-1]} entry is not an object")
            yield lineno, user_id, entry


def parse_user_items(lines: Iterable[str]) -> Interactions:
    """Flatten a stream of user-items records into one row per (user, item) pair.

    Duplicate pairs keep the entry with the larger ``playtime_forever``;
    missing playtime fields read as 0.  Raises :class:`ParseError` for
    unparseable lines and :class:`FieldError` for records missing
    ``user_id``/``item_id``, both carrying the 1-based line number.
    """
    return _merged(
        (
            user_id,
            _parse_item_id(_require(entry, "item_id", lineno), lineno),
            str(entry.get("item_name", "")),
            _parse_playtime(entry.get("playtime_forever", 0), "playtime_forever", lineno),
            _parse_playtime(entry.get("playtime_2weeks", 0), "playtime_2weeks", lineno),
        )
        for lineno, user_id, entry in _entries(lines, "items")
    )


def _last_per_pair(reviews: Iterable[Review]) -> list[Review]:
    """One review per (user, item) pair: its last, at the pair's first position."""
    return list({(r.user_id, r.item_id): r for r in reviews}.values())


def _nested_reviews(lines: Iterable[str]) -> Iterator[Review]:
    for lineno, user_id, entry in _entries(lines, "reviews"):
        if "recommend" not in entry and "recommended" not in entry:
            raise FieldError(lineno, "missing required field 'recommend'")
        recommended = entry.get("recommend", entry.get("recommended"))
        yield Review(
            user_id=user_id,
            item_id=_parse_item_id(_require(entry, "item_id", lineno), lineno),
            text=str(entry.get("review", "")),
            recommended=bool(recommended),
            funny=_parse_count(entry.get("funny")),
            helpful=_parse_count(entry.get("helpful")),
            posted=str(entry.get("posted", "")),
        )


def parse_reviews(lines: Iterable[str]) -> list[Review]:
    """Flatten a stream of user-reviews records into one Review per pair.

    A repeated (user, item) pair keeps its last review, at the pair's first
    position.  A review entry without a ``recommend`` flag is a
    :class:`FieldError`.
    """
    return _last_per_pair(_nested_reviews(lines))


class IdIndex:
    """Bijection between raw user/item ids and dense indices.

    Indices are assigned in first-appearance order of the given id columns,
    so the mapping is a deterministic function of the interaction order; a
    repeated id keeps its first object.
    """

    __slots__ = ("user_ids", "item_ids", "_user_pos", "_item_pos")

    def __init__(self, user_ids: Iterable[str] = (), item_ids: Iterable[int] = ()):
        self._user_pos: dict[str, int] = dict(zip(dict.fromkeys(user_ids), count()))
        self._item_pos: dict[int, int] = dict(zip(dict.fromkeys(item_ids), count()))
        self.user_ids: list[str] = list(self._user_pos)
        self.item_ids: list[int] = list(self._item_pos)

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

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

    interactions: Interactions
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
        return len(self.users) / cells if cells else 0.0

    def seen_items(self, user_index: int) -> np.ndarray:
        """Item indices of the user's interactions, in interaction order."""
        return self.user_items[self.user_indptr[user_index] : self.user_indptr[user_index + 1]]


def build_table(interactions: Iterable[Interaction]) -> InteractionTable:
    """Index users/items by first appearance; build the columns and the CSR view."""
    interactions = Interactions.of(interactions)
    index = IdIndex(interactions.user_id, interactions.item_id)
    n = len(interactions)
    users = np.fromiter(map(index._user_pos.__getitem__, interactions.user_id), np.intp, n)
    items = np.fromiter(map(index._item_pos.__getitem__, interactions.item_id), np.intp, n)
    playtime = np.fromiter(interactions.playtime_forever, np.float64, n)
    first = np.unique(items, return_index=True)[1]
    user_indptr = np.zeros(index.num_users + 1, dtype=np.intp)
    np.cumsum(np.bincount(users, minlength=index.num_users), out=user_indptr[1:])
    return InteractionTable(
        interactions=interactions,
        index=index,
        item_names=list(map(interactions.item_name.__getitem__, first.tolist())),
        users=users,
        items=items,
        playtime=playtime,
        user_indptr=user_indptr,
        user_items=items[np.argsort(users, kind="stable")],
    )



def _checked(record: dict, kind: type) -> list:
    """``record``'s values for the fields of ``kind`` in order; KeyError if one is
    missing, TypeError if not of its field's type.  Integers for floats read as floats."""
    return [
        float(check_type(record[key], hint, key, TypeError)) if hint is float
        else check_type(record[key], hint, key, TypeError)
        for key, hint in _FIELDS[kind]
    ]


def _interaction_row(record: dict) -> list:
    row = _checked(record, Interaction)
    _check_playtimes(row[3], row[4])
    return row


def interaction_from_dict(record: dict) -> Interaction:
    return Interaction(*_checked(record, Interaction))


def review_from_dict(record: dict) -> Review:
    return Review(*_checked(record, Review))


def _write_jsonl(lines: Iterable[str], path: str | Path) -> None:
    """Write one line per record, joined in chunks of ``_JSONL_CHUNK`` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        lines = iter(lines)
        while chunk := list(islice(lines, _JSONL_CHUNK)):
            handle.write("\n".join(chunk) + "\n")


def _interaction_line(user_id, item_id, name, forever, recent) -> str:
    """``json.dumps`` of the row's flat record with ``allow_nan=False``, formatted directly.

    Fields of any other type than declared, or a non-finite playtime, go
    through ``json.dumps`` itself, so the bytes and the refusal are its own.
    """
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
    row = (user_id, item_id, name, forever, recent)
    return json.dumps(dict(zip(Interactions.__slots__, row)), allow_nan=False)


def write_interactions_jsonl(interactions: Iterable[Interaction], path: str | Path) -> None:
    _write_jsonl(map(_interaction_line, *Interactions.of(interactions).columns), path)


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, read as they are iterated.

    A byte that is not UTF-8 is a ParseError naming its line (see
    :func:`undecodable_line`).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield from handle
    except UnicodeDecodeError as exc:
        raise ParseError(*undecodable_line(path, exc)) from None


def undecodable_line(path: str | Path, error: UnicodeDecodeError) -> tuple[int, str]:
    """The 1-based number of the first line of ``path`` that holds a byte that
    is not UTF-8, and a message naming the byte.

    Called once reading ``path`` as UTF-8 raised ``error``: only then is the
    file read again, with each such byte kept as a lone surrogate.  ``error``
    is raised again when no line holds one (the file changed between the two
    reads).
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if found := _SURROGATE_RE.search(line):
                return lineno, f"byte {ord(found.group()) - 0xDC00:#04x} is not UTF-8"
    raise error


def _flat_records(path: str | Path, from_dict) -> Iterator:
    """``from_dict`` of each non-empty line; a bad line raises ParseError/FieldError naming it."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            raise ParseError(lineno, "not a JSON value") from None
        if not isinstance(record, dict):
            raise ParseError(lineno, "record is not an object")
        try:
            checked = from_dict(record)
        except KeyError as exc:
            raise FieldError(lineno, f"missing required field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise FieldError(lineno, str(exc)) from None
        yield checked


def read_interactions_jsonl(path: str | Path) -> Interactions:
    """Read a flat interactions.jsonl; repeated pairs merge as in :func:`parse_user_items`."""
    return _merged(_flat_records(path, _interaction_row))


def write_reviews_jsonl(reviews: Iterable[Review], path: str | Path) -> None:
    _write_jsonl((json.dumps(asdict(r), allow_nan=False) for r in reviews), path)


def read_reviews_jsonl(path: str | Path) -> list[Review]:
    """Read a flat reviews.jsonl; repeated pairs merge as in :func:`parse_reviews`."""
    return _last_per_pair(_flat_records(path, review_from_dict))


def _sniff_key(path: str | Path, key: str) -> bool:
    """Whether the first non-empty line of ``path`` is a record holding ``key``."""
    for lineno, line in _numbered_lines(read_lines(path)):
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
    return parse_reviews(read_lines(path))


def read_interactions_any(path: str | Path) -> Interactions:
    """Read interactions from a raw user-items dump or a flat interactions.jsonl."""
    if not _sniff_key(path, "items"):
        return read_interactions_jsonl(path)
    return parse_user_items(read_lines(path))
