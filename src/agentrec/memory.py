"""Hierarchical memory: items, retention, retrieval, and the regulated context window.

Pinned constants (changing any of these changes every persisted vector):

* embedding dimension d = 64
* token = maximal run of [0-9a-z] after lowercasing (also the budget token
  for ``tail_window`` / ``regulate_context`` is a maximal whitespace run)
* per-token hash = blake2b(token, digest_size=9, person=b"embed-v1");
  bucket = first 8 bytes (big-endian) mod 64, sign = +1 if the 9th byte is
  even else -1; the accumulated vector is L2-normalized
* empty token set embeds to the all-zero vector (sentinel); every zero
  component of an embedding is the one shared ``0.0`` object (bit-identical
  to ``0.0 / norm``, since no component is ever ``-0.0``), so a cached vector
  costs memory only for its nonzero buckets
* relevance = cosine clamped to [0, 1]; identical keys score exactly 1.0;
  dot product and norms are left-to-right float sums of the componentwise
  products (``left_sum``, not ``sum()``, which compensates float sums from
  Python 3.12 on); ``relevance_of_dot`` turns every such dot into a score,
  ``relevance``'s own and those catalog ranking accumulates over the index
* sparse scoring: an embedding is scored through its ``SparseVector`` (its
  nonzero buckets in ascending order, their values and its norm). Dropping
  a product with a zero factor drops a ``±0.0`` term, which leaves a
  left-to-right sum unchanged, so ``relevance`` equals the clamped dense
  ``cosine`` bit for bit; dense ``cosine`` remains for palettes and scenes,
  and ``cosine_with_norms`` is its core for a caller that keeps the norms
  (a catalog item its palette's, a bundle request the scene's).
  Catalog ranking accumulates the same products term at a time over
  ``runtime.CatalogIndex``'s postings of the query's nonzero buckets, in
  ascending bucket order, into a list indexed by item position, so each
  item's sum is the same left-to-right sum: a bucket's postings are grouped
  by value, and a group's one product is added to each of its positions.
  The index keys items by position throughout: only its id -> position map
  holds ids. A ranking scores, by ``relevance_of_dot``, only the items whose
  dot reaches a cut below which no item can reach the l-th best score (see
  ``runtime.CatalogIndex.rank``); the index lives for one catalog version,
  is built lazily on first use, is derived for the next version by patching
  (freed positions are reused, so positions never outnumber the most items
  a version has held), and has no option. Dense ``cosine`` refuses vectors
  of different lengths
* embed once: a scoring call prepares its query once (``prepare_query``:
  the dense tuple and its sparse form) and scores every item against it; a
  ``MemoryItem``'s sparse vector is that of its value text and a
  ``runtime.CatalogItem``'s that of its title+tags text, each computed
  lazily on first use and kept for the object's lifetime (an upserted or
  edited item is a new object with no vector yet); the dense ``key`` and
  ``embedding`` are rebuilt from it on demand
* text memos: a query text's prepared query, a memory item's sparse vector
  (keyed on its value text) and a user text's retained facts each come from
  a memo of the 256 most recently used texts (a fixed bound, not an option),
  so an upsert that keeps its value, or another agent's item with the same
  text, embeds nothing again.
  A query given as an embedding is prepared afresh. A catalog index keeps
  the dot-product table of the last query it ranked, and the finished
  interactive rankings and bundles of its 2048 most recently used requests
  (see ``runtime`` and ``pipelines``)
* token hashing: ``_bucket_sign`` keeps the 4,096 most recently hashed
  tokens (a fixed bound, not an option)
* top-K tie-break: higher score first, then older timestamp, then
  lexicographically smaller canonical value text
* context window: exact 0/1-knapsack dynamic program up to 20 items, greedy
  score-density heuristic beyond (result flagged approximate)
* raw log: uncapped; an agent step appends two entries (its input and its
  output) and ``store_to_jsonl`` snapshots all of them. Only the short-term
  tail is bounded: ``tail_window`` walks back from the newest entry and
  stops once it holds its ``max_tokens`` (the agent's ``L_stm``), so its cost
  is bounded by ``L_stm`` tokens plus one entry, not by the log's length
* lazy retention: ``update_memory`` queues user turns, and a store retains
  them on the first read of its items (see ``MemoryStore``), so a store
  nobody reads never runs the retention rules
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence, Union

from .errors import InvalidArgument

EMBED_DIM = 64
_HASH_PERSON = b"embed-v1"
_TOKEN_RE = re.compile(r"[^0-9a-z]+")

Vector = tuple  # tuple[float, ...] of length EMBED_DIM


def tokenize(text: str) -> list:
    """Lowercased alphanumeric tokens; the embedding's unit of content."""
    return [t for t in _TOKEN_RE.split(text.lower()) if t]


def left_sum(values) -> float:
    """Left-to-right float sum started at 0.0: what ``sum()`` gives up to Python 3.11.

    From 3.12 on ``sum()`` compensates float sums and can round differently,
    so every pinned sum goes through here.
    """
    return reduce(operator.add, values, 0.0)


@lru_cache(maxsize=4096)
def _bucket_sign(token: str):
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=9, person=_HASH_PERSON
    ).digest()
    bucket = int.from_bytes(digest[:8], "big") % EMBED_DIM
    sign = 1.0 if digest[8] % 2 == 0 else -1.0
    return bucket, sign


def embed_text(text: str) -> Vector:
    """Signed feature hashing into EMBED_DIM buckets, L2-normalized.

    Deterministic: the same text always yields the identical vector. An
    empty token set yields the all-zero sentinel vector.
    """
    values = [0.0] * EMBED_DIM
    for token in tokenize(text):
        bucket, sign = _bucket_sign(token)
        values[bucket] += sign
    norm = vector_norm(values)
    if norm == 0.0:
        return tuple(values)
    return tuple([v / norm if v else 0.0 for v in values])


def vector_norm(values: Sequence) -> float:
    """The L2 norm: the square root of the left-to-right sum of the squares.

    ``inf`` when that sum is not a finite float, including an int square
    past the float range, which ``left_sum`` cannot add.
    """
    try:
        return math.sqrt(left_sum(map(operator.mul, values, values)))
    except OverflowError:
        return math.inf


def cosine(a: Sequence, b: Sequence) -> float:
    """Cosine similarity with exact shortcuts: ``cosine_with_norms`` of the
    two vectors and their ``vector_norm``s."""
    return cosine_with_norms(a, b, vector_norm(a), vector_norm(b))


def cosine_with_norms(a: Sequence, b: Sequence, norm_a: float, norm_b: float) -> float:
    """Cosine similarity of two vectors given their ``vector_norm``s, so a
    caller that scores many vectors against one takes each norm once.

    Returns 0.0 when either vector is all-zero and exactly 1.0 when the two
    vectors are identical and nonzero (no float drift on self-similarity).
    Raises InvalidArgument when their lengths differ or the product of their
    norms overflows.
    """
    if len(a) != len(b):
        raise InvalidArgument(f"cosine of vectors of different lengths: {len(a)} and {len(b)}")
    if tuple(a) == tuple(b):
        return 1.0 if any(a) else 0.0
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    if not math.isfinite(norm_a * norm_b):
        raise InvalidArgument("cosine of vectors whose norms overflow")
    dot = left_sum(map(operator.mul, a, b))
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


class SparseVector:
    """An embedding's nonzero buckets (ascending), their values and its L2 norm."""

    __slots__ = ("buckets", "values", "norm")

    def __init__(self, vector: Sequence):
        buckets = [i for i, v in enumerate(vector) if v]
        self.buckets = tuple(buckets)
        self.values = tuple([vector[i] for i in buckets])
        self.norm = vector_norm(self.values)

    def to_dense(self) -> Vector:
        """The EMBED_DIM-tuple this vector came from (every zero the shared ``0.0``)."""
        values = [0.0] * EMBED_DIM
        for bucket, value in zip(self.buckets, self.values):
            values[bucket] = value
        return tuple(values)


class QueryVector(SparseVector):
    """A query prepared once per scoring call: its sparse form plus the dense
    tuple that each item's buckets index into."""

    __slots__ = ("dense",)

    def __init__(self, vector: Sequence):
        self.dense = tuple(vector)
        super().__init__(self.dense)


# Text-keyed memos hold the values of their _TEXT_MEMO_SIZE most recently
# used texts (a fixed bound, not an option). Each value is a function of its
# text and is never mutated, so callers share it.
_TEXT_MEMO_SIZE = 256


@lru_cache(maxsize=_TEXT_MEMO_SIZE)
def _query_of_text(text: str) -> QueryVector:
    return QueryVector(embed_text(text))


@lru_cache(maxsize=_TEXT_MEMO_SIZE)
def _sparse_of_text(text: str) -> SparseVector:
    return SparseVector(embed_text(text))


def prepare_query(query: Union[str, Vector, QueryVector]) -> QueryVector:
    """The query text or embedding prepared for scoring; a prepared query as is.

    A text's prepared query comes from a memo keyed on the text; an
    embedding is prepared afresh.
    """
    if isinstance(query, QueryVector):
        return query
    if isinstance(query, str):
        return _query_of_text(query)
    return QueryVector(query)


def relevance_of_dot(query: QueryVector, sparse: SparseVector, dot: float) -> float:
    """The one clamped-cosine rule, from the pair's dot product: 0.0 unless
    the dot is positive, exactly 1.0 for identical buckets and values, else
    the cosine capped at 1.0; 0.0 if the norms' product underflows to 0.0 or
    the cosine is NaN (an infinite dot over infinite norms)."""
    if dot <= 0.0:
        return 0.0
    if sparse.buckets == query.buckets and sparse.values == query.values:
        return 1.0
    norms = query.norm * sparse.norm
    cosine = dot / norms if norms else 0.0
    return 0.0 if math.isnan(cosine) else min(1.0, cosine)


def relevance(query: QueryVector, item: SparseVector) -> float:
    """``max(0, cosine(query.dense, item.to_dense()))`` bit for bit, over the
    item's buckets only, wherever ``cosine`` returns; where the norms' product
    overflows, it raises and this scores 0.0 (1.0 for identical vectors)."""
    return relevance_of_dot(query, item, left_sum(
        map(operator.mul, item.values, map(query.dense.__getitem__, item.buckets))))


# an item's value text is "<slot>: <value>", so a slot must not hold this
SLOT_SEPARATOR = ": "


class MemoryLabel(str, Enum):
    EPI = "EPI"
    SEM = "SEM"
    PROC = "PROC"


@dataclass(frozen=True)
class ItemMeta:
    timestamp: int
    label: MemoryLabel
    update_count: int


@dataclass(frozen=True)
class MemoryItem:
    """One long-term memory unit: payload, metadata, and the payload's retrieval key."""

    value: str
    meta: ItemMeta

    @cached_property
    def sparse(self) -> SparseVector:
        """The sparse form of ``value``'s embedding, read on first use from a memo
        keyed on the value text and kept by this item.

        Not a dataclass field, so equality, hash and repr ignore it: it is a
        function of the value.
        """
        return _sparse_of_text(self.value)

    @property
    def key(self) -> Vector:
        """The embedding of ``value``, rebuilt from ``sparse`` on each read."""
        return self.sparse.to_dense()

    def canonical_text(self) -> str:
        return self.value

    def fact(self) -> tuple:
        """(slot, value): the value text split at its first ': '; value is "" without one."""
        slot, _, value = self.value.partition(SLOT_SEPARATOR)
        return slot, value

    def slot(self) -> str:
        """The fact slot; the text before the first ': ' of the value."""
        return self.fact()[0]

    def token_length(self) -> int:
        """Whitespace tokens of the value (at least 1)."""
        return max(1, len(self.value.split()))


def make_item(slot: str, value: str, label: MemoryLabel, now: int,
              update_count: int = 1) -> MemoryItem:
    return MemoryItem(
        f"{slot}{SLOT_SEPARATOR}{value}",
        ItemMeta(timestamp=now, label=label, update_count=update_count),
    )


@dataclass
class MemoryStore:
    """Append-only raw log + labelled fact items.

    Single-writer, multiple-reader: every operation either leaves the store
    untouched or mutates it through the update functions below, which return
    the same store for chaining.

    Retention is lazy. ``update_memory`` queues each user turn's (text,
    label, now) and extracts nothing; the first read of ``items`` retains
    the queued turns in commit order through ``upsert_fact``, each at its
    own ``now``. Every read and write of the items goes through ``items``,
    so a store nobody reads runs no retention, and its queue grows with its
    raw log and no faster. Two stores are equal when their raw logs and
    items are.
    """

    raw_log: list = field(default_factory=list)  # list[tuple[speaker, text]]
    _facts: dict = field(default_factory=dict, init=False)   # (slot, label) -> MemoryItem
    _queued: list = field(default_factory=list, init=False)  # [(user text, label, now)]

    @property
    def items(self) -> dict:
        """(slot, label) -> MemoryItem, once every queued user turn is retained."""
        if self._queued:
            queued, self._queued = self._queued, []
            for text, label, now in queued:
                for slot, value in _facts_of_text(text):
                    upsert_fact(self, slot, value, label, now)
        return self._facts

    def __eq__(self, other):
        if not isinstance(other, MemoryStore):
            return NotImplemented
        return self.raw_log == other.raw_log and self.items == other.items

    def all_items(self) -> list:
        return list(self.items.values())

    def labelled_items(self, label: MemoryLabel) -> list:
        return [m for m in self.items.values() if m.meta.label == label]


def relevance_score(query: Union[str, Vector, QueryVector], item: MemoryItem) -> float:
    """Non-negative query/item affinity: cosine clamped at zero.

    ``query`` is the query text, its embedding or the prepared query; a
    caller scoring many items prepares the query once and passes that.
    """
    return relevance(prepare_query(query), item.sparse)


def _topk_sort_key(scored):
    score, item = scored
    return (-score, item.meta.timestamp, item.canonical_text())


def retrieve_topk(store: MemoryStore, query: Union[str, Vector], k: int) -> list:
    """The K highest-scoring items, exhaustively scored and deterministically ordered.

    ``query`` is the query text, its embedding or the prepared query.
    """
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    query = prepare_query(query)
    scored = [(relevance_score(query, item), item) for item in store.all_items()]
    return [item for _, item in heapq.nsmallest(k, scored, key=_topk_sort_key)]


# retention -------------------------------------------------------------

# (case-insensitive pattern with named groups 'slot'/'value', fixed slot):
# a None slot means the 'slot' group names it
RETENTION_RULES = tuple((re.compile(pattern, re.IGNORECASE), slot) for pattern, slot in (
    # "two of my guests require a gluten-free diet" -> guest_allergy: gluten
    (r"requires?\s+an?\s+(?P<value>[a-z][\w-]*)-free\s+diet", "guest_allergy"),
    # "theme = mickey mouse" / "budget: 200"
    (r"^\s*(?P<slot>[A-Za-z][\w ]{0,40}?)\s*[:=]\s*(?P<value>.+?)\s*$", None),
    # "the sofa is blue" / "my guests are vegan"
    (r"^\s*(?:the\s+|a\s+|an\s+|my\s+)?"
     r"(?P<slot>[A-Za-z][\w ]{0,40}?)\s+(?:is|are)\s+(?P<value>.+?)\s*$", None),
))

_SEGMENT_RE = re.compile(r";\s*|[.,](?:\s+|$)")
_USER_TAG = "user"


def _normalize_slot(raw: str) -> str:
    return "_".join(raw.strip().lower().split())


@lru_cache(maxsize=_TEXT_MEMO_SIZE)
def _facts_of_text(text: str) -> tuple:
    """The facts ``retain`` takes from one user text, in segment order."""
    facts = []
    for segment in _SEGMENT_RE.split(text):
        if not segment.strip():
            continue
        for pattern, fixed_slot in RETENTION_RULES:
            match = pattern.search(segment)
            if match is None:
                continue
            slot = fixed_slot if fixed_slot is not None else _normalize_slot(match.group("slot"))
            value = match.group("value").strip()
            if slot and value:
                facts.append((slot, value))
            break
    return tuple(facts)


def retain(turns: Sequence) -> list:
    """Extract (slot, value) assertions from the user turns of a (speaker, text) list.

    Turns are split into segments on ; . , and each segment yields at most
    one fact: the first of ``RETENTION_RULES`` that matches wins. Output
    order follows turn order, then segment position. A text's facts come
    from a memo keyed on the text; the returned list is new on every call.
    """
    facts = []
    for speaker, text in turns:
        if speaker.lower() == _USER_TAG:
            facts += _facts_of_text(text)
    return facts


def upsert_fact(store: MemoryStore, slot: str, value: str, label: MemoryLabel,
                now: int) -> MemoryStore:
    """Write one fact at (slot, label) granularity; the raw log is not touched.

    An existing (slot, label) item keeps its creation timestamp, gets the new
    value, and its update counter is incremented; otherwise a fresh item with
    update_count=1 is inserted. Nothing is embedded: each upsert is a new
    item whose key is read from the value-text memo when first scored.
    A slot holding ": " raises InvalidArgument: its item's ``fact()`` would
    read back another slot.
    """
    if SLOT_SEPARATOR in slot:
        raise InvalidArgument(f"fact slot {slot!r} must not contain {SLOT_SEPARATOR!r}")
    items = store.items
    existing = items.get((slot, label))
    if existing is None:
        items[(slot, label)] = make_item(slot, value, label, now)
    else:
        items[(slot, label)] = make_item(
            slot, value, label, existing.meta.timestamp, existing.meta.update_count + 1)
    return store


def build_store(facts: dict) -> MemoryStore:
    """One EPI item per (slot, value) fact, upserted in declaration order at
    ``now`` = the fact's index (slots are unique, so each is an insert)."""
    store = MemoryStore()
    for index, (slot, value) in enumerate(facts.items()):
        upsert_fact(store, slot, str(value), MemoryLabel.EPI, now=index)
    return store


def update_memory(store: MemoryStore, turns: Iterable, label: MemoryLabel,
                  now: int) -> MemoryStore:
    """Append the (speaker, text) turns to the raw log and queue each user
    turn's (text, label, now) for retention; nothing is extracted here.

    The store retains the queued turns when its items are first read (see
    MemoryStore), upserting exactly the facts ``retain`` gives, in the same
    order, at this ``now``. ``turns`` is read once; a turn that is not a pair
    of strings raises InvalidArgument naming its index before the store is
    touched.
    """
    pairs = []
    for index, turn in enumerate(turns):
        if not (isinstance(turn, (tuple, list)) and len(turn) == 2
                and isinstance(turn[0], str) and isinstance(turn[1], str)):
            raise InvalidArgument(f"turn {index}: must be a (speaker, text) pair of strings")
        pairs.append(tuple(turn))
    store.raw_log += pairs
    store._queued += [(text, label, now) for speaker, text in pairs
                      if speaker.lower() == _USER_TAG]
    return store


def tail_window(store: MemoryStore, max_tokens: int) -> str:
    """Suffix of the concatenated raw log, at most ``max_tokens`` whitespace tokens.

    Equal to ``" ".join(texts).split()[-max_tokens:]`` joined by spaces, but
    reads the log from the newest entry back and stops once it holds
    ``max_tokens`` tokens, so its cost is bounded by the window plus one
    entry, not by the length of the log.
    """
    if max_tokens < 1:
        raise InvalidArgument("max_tokens must be >= 1")
    tokens = []
    for _, text in reversed(store.raw_log):
        tokens[:0] = text.split()
        if len(tokens) >= max_tokens:
            break
    return " ".join(tokens[-max_tokens:])


# regulated context window ---------------------------------------------

EXACT_KNAPSACK_LIMIT = 20


@dataclass
class ContextSelection:
    """Budget-constrained subset of memory, score-sorted."""

    items: list
    approximate: bool


def _selection(chosen: list, scored: dict, approximate: bool) -> ContextSelection:
    chosen = sorted(chosen, key=lambda m: _topk_sort_key((scored[id(m)], m)))
    return ContextSelection(items=chosen, approximate=approximate)


def regulate_context(store: MemoryStore, query: str, budget: int) -> ContextSelection:
    """Maximize total relevance subject to a token budget.

    Exact dynamic program for stores of up to EXACT_KNAPSACK_LIMIT items;
    greedy score-density beyond that, with the result flagged approximate.
    """
    items = store.all_items()
    if budget <= 0 or not items:
        return _selection([], {}, approximate=False)
    query = prepare_query(query)
    scores = [relevance_score(query, m) for m in items]
    lengths = [m.token_length() for m in items]
    scored = {id(m): s for m, s in zip(items, scores)}

    if sum(lengths) <= budget:
        return _selection(list(items), scored, approximate=False)
    if len(items) > EXACT_KNAPSACK_LIMIT:
        chosen = _greedy_fill(items, scores, lengths, budget)
        return _selection(chosen, scored, approximate=True)
    chosen = _exact_knapsack(items, scores, lengths, budget)
    return _selection(chosen, scored, approximate=False)


def _exact_knapsack(items: list, scores: list, lengths: list, budget: int) -> list:
    n = len(items)
    dp = [[0.0] * (budget + 1) for _ in range(n + 1)]
    take = [[False] * (budget + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        length, score = lengths[i - 1], scores[i - 1]
        prev, cur, taken = dp[i - 1], dp[i], take[i]
        for w in range(budget + 1):
            best = prev[w]
            if length <= w:
                candidate = prev[w - length] + score
                if candidate > best:
                    best = candidate
                    taken[w] = True
            cur[w] = best
    chosen = []
    w = budget
    for i in range(n, 0, -1):
        if take[i][w]:
            chosen.append(items[i - 1])
            w -= lengths[i - 1]
    chosen.reverse()
    return chosen


def _greedy_fill(items: list, scores: list, lengths: list, budget: int) -> list:
    order = sorted(
        range(len(items)),
        key=lambda i: (-(scores[i] / lengths[i]), -scores[i],
                       items[i].meta.timestamp, items[i].canonical_text()),
    )
    chosen, used = [], 0
    for i in order:
        if used + lengths[i] <= budget:
            chosen.append(items[i])
            used += lengths[i]
    return chosen


# persistence ------------------------------------------------------------

def store_to_jsonl(store: MemoryStore) -> str:
    """One JSON object per line: turn records, then items."""
    lines = []
    for speaker, text in store.raw_log:
        lines.append(json.dumps(
            {"kind": "turn", "speaker": speaker, "text": text}, sort_keys=True))
    for item in store.items.values():
        record = {
            "kind": "item",
            "key": list(item.key),
            "value": item.value,
            "meta": {
                "timestamp": item.meta.timestamp,
                "label": item.meta.label.value,
                "update_count": item.meta.update_count,
            },
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


_LABEL_VALUES = [label.value for label in MemoryLabel]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidArgument(message)


def _load_record(store: MemoryStore, record) -> None:
    """Add one parsed snapshot record to the store; InvalidArgument says what is wrong."""
    _check(type(record) is dict, "must be an object")
    kind = record.get("kind")
    if kind == "turn":
        speaker, text = record.get("speaker"), record.get("text")
        _check(type(speaker) is str and type(text) is str, "turn: speaker, text must be strings")
        store.raw_log.append((speaker, text))
    elif kind == "item":
        key, value, meta = record.get("key"), record.get("value"), record.get("meta")
        _check(type(value) is str, "item: value must be a string")
        _check(type(meta) is dict and meta.get("label") in _LABEL_VALUES,
               f"item: meta must be an object whose label is one of {_LABEL_VALUES}")
        _check(type(meta.get("timestamp")) is int and type(meta.get("update_count")) is int,
               "item: meta.timestamp and meta.update_count must be integers")
        item = MemoryItem(
            value,
            ItemMeta(timestamp=meta["timestamp"],
                     label=MemoryLabel(meta["label"]),
                     update_count=meta["update_count"]),
        )
        # comparing caches the sparse vector, so the loaded item does not embed again
        _check(key == list(item.key), "item: key must be the embedding of value")
        _check((item.slot(), item.meta.label) not in store.items,
               f"item: repeats slot {item.slot()!r} under label {item.meta.label.value}")
        store.items[(item.slot(), item.meta.label)] = item
    else:
        raise InvalidArgument(f"unknown snapshot record kind: {kind!r}")


def store_from_jsonl(text: str) -> MemoryStore:
    """The store a ``store_to_jsonl`` snapshot holds; a malformed line raises
    InvalidArgument("snapshot line N: ...") naming its 1-based number."""
    store = MemoryStore()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            _load_record(store, json.loads(line))
        except (ValueError, RecursionError) as exc:  # not JSON, or a record rule's InvalidArgument
            raise InvalidArgument(f"snapshot line {number}: {exc}") from None
    return store


def load_store(path) -> MemoryStore:
    with open(path, "r", encoding="utf-8") as fh:
        return store_from_jsonl(fh.read())
