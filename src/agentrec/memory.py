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
  Python 3.12 on)
* sparse scoring: an embedding is scored through its ``SparseVector`` (its
  nonzero buckets in ascending order, their values and its norm). Dropping
  a product with a zero factor drops a ``±0.0`` term, which leaves a
  left-to-right sum unchanged, so ``relevance`` equals the clamped dense
  ``cosine`` bit for bit; dense ``cosine`` remains for palettes and scenes.
  Catalog ranking accumulates the same products term at a time over
  ``runtime.CatalogIndex``'s postings of the query's nonzero buckets, in
  ascending bucket order, so each item's sum is the same left-to-right sum;
  the index lives for one catalog version, is built lazily on first use,
  is derived for the next version by patching, and has no option
* embed once: a scoring call prepares its query once (``prepare_query``:
  the dense tuple and its sparse form) and scores every item against it; a
  ``MemoryItem``'s sparse vector is that of its value text and a
  ``runtime.CatalogItem``'s that of its title+tags text, each computed
  lazily on first use and kept for the object's lifetime (an upserted or
  edited item is a new object with no vector yet); the dense ``key`` and
  ``embedding`` are rebuilt from it on demand
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
from typing import Optional, Sequence, Union

from .errors import InvalidArgument, UnknownEntity

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
    norm = math.sqrt(left_sum(map(operator.mul, values, values)))
    if norm == 0.0:
        return tuple(values)
    return tuple([v / norm if v else 0.0 for v in values])


def cosine(a: Sequence, b: Sequence) -> float:
    """Cosine similarity with exact shortcuts.

    Returns 0.0 when either vector is all-zero and exactly 1.0 when the two
    vectors are identical and nonzero (no float drift on self-similarity).
    """
    if tuple(a) == tuple(b):
        return 1.0 if any(a) else 0.0
    na = math.sqrt(left_sum(map(operator.mul, a, a)))
    nb = math.sqrt(left_sum(map(operator.mul, b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = left_sum(map(operator.mul, a, b))
    return max(-1.0, min(1.0, dot / (na * nb)))


class SparseVector:
    """An embedding's nonzero buckets (ascending), their values and its L2 norm."""

    __slots__ = ("buckets", "values", "norm")

    def __init__(self, vector: Sequence):
        buckets = [i for i, v in enumerate(vector) if v]
        self.buckets = tuple(buckets)
        self.values = tuple([vector[i] for i in buckets])
        self.norm = math.sqrt(left_sum(map(operator.mul, self.values, self.values)))

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


def prepare_query(query: Union[str, Vector, QueryVector]) -> QueryVector:
    """The query text or embedding prepared for scoring; a prepared query as is."""
    if isinstance(query, QueryVector):
        return query
    return QueryVector(embed_text(query) if isinstance(query, str) else query)


def relevance(query: QueryVector, item: SparseVector) -> float:
    """``max(0, cosine(query.dense, item.to_dense()))`` bit for bit, over the item's buckets only."""
    if query.buckets == item.buckets and query.values == item.values:
        return 1.0 if item.buckets else 0.0
    if query.norm == 0.0 or item.norm == 0.0:
        return 0.0
    dot = left_sum(map(operator.mul, item.values, map(query.dense.__getitem__, item.buckets)))
    return max(0.0, min(1.0, dot / (query.norm * item.norm)))


class MemoryLabel(str, Enum):
    EPI = "EPI"
    SEM = "SEM"
    PROC = "PROC"


@dataclass(frozen=True)
class Triple:
    """Symbolic (subject, relation, object) fact over the store's entity set."""

    subject: str
    relation: str
    object: str

    def __post_init__(self):
        if not (self.subject and self.relation and self.object):
            raise InvalidArgument("triple components must be non-empty")


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
        """The sparse form of ``value``'s embedding, computed on first use and kept
        by this item.

        Not a dataclass field, so equality, hash and repr ignore it: it is a
        function of the value.
        """
        return SparseVector(embed_text(self.value))

    @property
    def key(self) -> Vector:
        """The embedding of ``value``, rebuilt from ``sparse`` on each read."""
        return self.sparse.to_dense()

    def canonical_text(self) -> str:
        return self.value

    def fact(self) -> tuple:
        """(slot, value): the value text split at its first ': '; value is "" without one."""
        slot, _, value = self.value.partition(": ")
        return slot, value

    def slot(self) -> str:
        """The fact slot; the text before the first ': ' of the value."""
        return self.fact()[0]

    def token_length(self) -> int:
        return max(1, len(self.canonical_text().split()))


def make_item(slot: str, value: str, label: MemoryLabel, now: int,
              update_count: int = 1) -> MemoryItem:
    return MemoryItem(
        f"{slot}: {value}",
        ItemMeta(timestamp=now, label=label, update_count=update_count),
    )


@dataclass
class MemoryStore:
    """Append-only raw log + labelled fact items + symbolic triples.

    Single-writer, multiple-reader: every operation either leaves the store
    untouched or mutates it through the update functions below, which return
    the same store for chaining. Entities enter the entity set only through
    ``add_triple`` so a JSONL snapshot round-trips exactly.
    """

    raw_log: list = field(default_factory=list)  # list[tuple[speaker, text]]
    items: dict = field(default_factory=dict)    # (slot, label) -> MemoryItem
    triples: list = field(default_factory=list)  # insertion-ordered, de-duplicated
    entity_set: set = field(default_factory=set)

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


def retrieve_topk(store: MemoryStore, query: Union[str, Vector], k: int,
                  label_filter: Optional[MemoryLabel] = None) -> list:
    """The K highest-scoring items, exhaustively scored and deterministically ordered.

    ``query`` is the query text, its embedding or the prepared query.
    """
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    candidates = store.all_items() if label_filter is None else store.labelled_items(label_filter)
    query = prepare_query(query)
    scored = [(relevance_score(query, item), item) for item in candidates]
    return [item for _, item in heapq.nsmallest(k, scored, key=_topk_sort_key)]


# retention -------------------------------------------------------------

@dataclass(frozen=True)
class RetentionRule:
    """One extraction pattern: regex with named groups 'slot'/'value', or a fixed slot."""

    pattern: str
    slot: Optional[str] = None  # fixed slot; None means use the 'slot' group

    @cached_property
    def compiled(self):
        """The case-insensitive pattern, compiled on first use and kept by this rule.

        Not a dataclass field, so equality, hash and repr ignore it.
        """
        return re.compile(self.pattern, re.IGNORECASE)


DEFAULT_RETENTION_RULES = (
    # "two of my guests require a gluten-free diet" -> guest_allergy: gluten
    RetentionRule(r"requires?\s+an?\s+(?P<value>[a-z][\w-]*)-free\s+diet",
                  slot="guest_allergy"),
    # "theme = mickey mouse" / "budget: 200"
    RetentionRule(r"^\s*(?P<slot>[A-Za-z][\w ]{0,40}?)\s*[:=]\s*(?P<value>.+?)\s*$"),
    # "the sofa is blue" / "my guests are vegan"
    RetentionRule(r"^\s*(?:the\s+|a\s+|an\s+|my\s+)?"
                  r"(?P<slot>[A-Za-z][\w ]{0,40}?)\s+(?:is|are)\s+(?P<value>.+?)\s*$"),
)

_SEGMENT_RE = re.compile(r";\s*|[.,](?:\s+|$)")
_USER_TAG = "user"


def _normalize_slot(raw: str) -> str:
    return "_".join(raw.strip().lower().split())


def retain(turns: Sequence, rules: tuple = DEFAULT_RETENTION_RULES) -> list:
    """Extract (slot, value) assertions from the user turns of a (speaker, text) list.

    Turns are split into segments on ; . , and each segment yields at most
    one fact: the first rule in the table that matches wins. Output order
    follows turn order, then segment position.
    """
    facts = []
    for speaker, text in turns:
        if speaker.lower() != _USER_TAG:
            continue
        for segment in _SEGMENT_RE.split(text):
            if not segment.strip():
                continue
            for rule in rules:
                match = rule.compiled.search(segment)
                if match is None:
                    continue
                slot = rule.slot if rule.slot is not None else _normalize_slot(match.group("slot"))
                value = match.group("value").strip()
                if slot and value:
                    facts.append((slot, value))
                break
    return facts


def summarize_turns(turns: Sequence, rules: tuple = DEFAULT_RETENTION_RULES) -> list:
    """Extractive compression: keep only the first retained fact of each turn."""
    facts = []
    for speaker, text in turns:
        per_turn = retain([(speaker, text)], rules)
        if per_turn:
            facts.append(per_turn[0])
    return facts


def upsert_fact(store: MemoryStore, slot: str, value: str, label: MemoryLabel,
                now: int) -> MemoryStore:
    """Write one fact at (slot, label) granularity; the raw log is not touched.

    An existing (slot, label) item keeps its creation timestamp, gets the new
    value, and its update counter is incremented; otherwise a fresh item with
    update_count=1 is inserted. Nothing is embedded: each upsert is a new
    item whose key is computed when first scored.
    """
    existing = store.items.get((slot, label))
    if existing is None:
        store.items[(slot, label)] = make_item(slot, value, label, now)
    else:
        store.items[(slot, label)] = make_item(
            slot, value, label, existing.meta.timestamp, existing.meta.update_count + 1)
    return store


def update_memory(store: MemoryStore, turns: Sequence, label: MemoryLabel,
                  now: int, rules: tuple = DEFAULT_RETENTION_RULES) -> MemoryStore:
    """Append the (speaker, text) turns and ``upsert_fact`` each retained fact."""
    store.raw_log.extend((speaker, text) for speaker, text in turns)
    for slot, value in retain(turns, rules):
        upsert_fact(store, slot, value, label, now)
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


def add_triple(store: MemoryStore, subject: str, relation: str, obj: str) -> MemoryStore:
    """Insert a symbolic triple; components register in the entity set."""
    triple = Triple(subject, relation, obj)
    if triple not in store.triples:
        store.triples.append(triple)
    store.entity_set.update((subject, relation, obj))
    return store


def query_triples(store: MemoryStore, pattern: tuple) -> list:
    """All triples matching a (subject|None, relation|None, object|None) pattern.

    None is the wildcard. Bound components must be known entities. Results
    keep insertion order and agree with a linear scan.
    """
    for component in pattern:
        if component is not None and component not in store.entity_set:
            raise UnknownEntity(f"unknown entity: {component!r}")
    subject, relation, obj = pattern
    return [
        t for t in store.triples
        if (subject is None or t.subject == subject)
        and (relation is None or t.relation == relation)
        and (obj is None or t.object == obj)
    ]


# regulated context window ---------------------------------------------

EXACT_KNAPSACK_LIMIT = 20


@dataclass
class ContextSelection:
    """Budget-constrained subset of memory, score-sorted."""

    items: list
    approximate: bool
    total_score: float
    total_tokens: int


def _selection(chosen: list, scored: dict, approximate: bool) -> ContextSelection:
    chosen = sorted(chosen, key=lambda m: _topk_sort_key((scored[id(m)], m)))
    return ContextSelection(
        items=chosen,
        approximate=approximate,
        total_score=left_sum(scored[id(m)] for m in chosen),
        total_tokens=sum(m.token_length() for m in chosen),
    )


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
    """One JSON object per line: turn records, then items, then triples."""
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
    for triple in store.triples:
        lines.append(json.dumps(
            {"kind": "triple", "subject": triple.subject,
             "relation": triple.relation, "object": triple.object},
            sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


_LABEL_VALUES = [label.value for label in MemoryLabel]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidArgument(message)


def _strings(record: dict, names: tuple) -> list:
    """The named fields of a snapshot record, each of which must be a string."""
    values = [record.get(name) for name in names]
    _check(all(type(value) is str for value in values),
           f"{record['kind']}: {', '.join(names)} must be strings")
    return values


def _load_record(store: MemoryStore, record) -> None:
    """Add one parsed snapshot record to the store; InvalidArgument says what is wrong."""
    _check(type(record) is dict, "must be an object")
    kind = record.get("kind")
    if kind == "turn":
        store.raw_log.append(tuple(_strings(record, ("speaker", "text"))))
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
    elif kind == "triple":
        add_triple(store, *_strings(record, ("subject", "relation", "object")))
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
        except ValueError as exc:  # not JSON, or InvalidArgument from a record rule
            raise InvalidArgument(f"snapshot line {number}: {exc}") from None
    return store


def load_store(path) -> MemoryStore:
    with open(path, "r", encoding="utf-8") as fh:
        return store_from_jsonl(fh.read())
