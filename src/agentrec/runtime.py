"""Multi-agent runtime: registry, shared environment, matrix-gated message routing.

The protocol is held once: the agents' declared input and output kinds are
the only kinds, the matrix is a set of open pairs of registered ids, and an
episode's initial input is text for its first hop, not a message.

Episode execution is single-threaded and sequential in routing order, so a
fixed (agents, routing, environment) tuple always produces the same trace.
The runtime draws no randomness, so an episode's seed does not affect its
trace, and reads no clock: wall-clock timings belong to the run manifest and
the benchmark, never to the trace.

Spawn edges realize on-demand sub-agent activation: the parent's declared
children are registered and their channels opened at the moment the spawn
message fires, and the spawn payload is multicast to all of them as one
traced message.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from . import memory
from .agents import AgentSpec, step_agent
from .errors import (
    AgentRecError,
    ChannelClosed,
    ConflictingDelta,
    InvalidArgument,
    MissingPalette,
    SchemaViolation,
    SelfChannel,
    UnknownAgent,
    UnknownItem,
)


@dataclass
class Message:
    """Typed inter-agent message. `recipient` may be a tuple for multicast."""

    sender: str
    recipient: Union[str, tuple]
    kind: str
    payload: dict
    seq: int = -1
    env_version: int = -1

    def recipients(self) -> tuple:
        if isinstance(self.recipient, (tuple, list)):
            return tuple(self.recipient)
        return (self.recipient,)


@dataclass(frozen=True)
class CatalogItem:
    id: str
    title: str
    tags: tuple
    price: float
    palette: Optional[tuple] = None

    def text(self) -> str:
        return " ".join((self.title,) + tuple(self.tags))

    @cached_property
    def sparse(self) -> memory.SparseVector:
        """The sparse form of ``text()``'s embedding, computed on first use and
        kept by this item.

        Not a dataclass field, so equality, hash and repr ignore it. An edit
        builds a new item that embeds afresh.
        """
        return memory.SparseVector(memory.embed_text(self.text()))

    @property
    def embedding(self) -> tuple:
        """The embedding of ``text()``, rebuilt from ``sparse`` on each read."""
        return self.sparse.to_dense()

    @cached_property
    def palette_norm(self) -> float:
        """``memory.vector_norm`` of the palette (which must not be None),
        computed on first use and kept by this item as ``sparse`` is."""
        return memory.vector_norm(self.palette)


_NUMBER = frozenset({int, float})  # JSON numbers; bool is neither


def finite_numbers(values) -> bool:
    """True iff every value is a JSON number (an int or a float, not a bool)
    that converts to a finite float: an int too large for a float is not
    finite. ``math.isfinite`` tests each in C and raises only for such an int."""
    try:
        return set(map(type, values)) <= _NUMBER and all(map(math.isfinite, values))
    except OverflowError:
        return False


def finite_norm(values) -> bool:
    """True iff the left-to-right sum of the squares of these numbers is a
    finite float, so that a cosine of them cannot overflow to NaN."""
    return math.isfinite(memory.vector_norm(values))


def catalog_item(record) -> CatalogItem:
    """One catalog record, from a file or a delta, as an item; InvalidArgument
    names the first bad field."""
    if type(record) is not dict:
        raise InvalidArgument("must be an object")
    ident = record.get("id")
    if type(ident) is not str or not ident:
        raise InvalidArgument("id: must be a non-empty string")
    title = record.get("title", ident)
    if type(title) is not str:
        raise InvalidArgument("title: must be a string")
    tags = record.get("tags", [])
    if type(tags) is not list or not set(map(type, tags)) <= {str}:
        raise InvalidArgument("tags: must be a list of strings")
    price = record.get("price", 0.0)
    if not finite_numbers((price,)):
        raise InvalidArgument("price: must be a finite number")
    palette = record.get("palette")
    if palette is not None and not (type(palette) is list and finite_numbers(palette)):
        raise InvalidArgument("palette: must be null or a list of finite numbers")
    if palette and not finite_norm(palette):
        raise InvalidArgument("palette: must have a finite squared norm")
    return CatalogItem(ident, title, tuple(tags), float(price), tuple(palette) if palette else None)


# A catalog index keeps the results of its _RESULT_MEMO_SIZE most recently
# used requests (a fixed bound, not an option). 2048 is where the memo's
# misses equal an unbounded memo's on rank_stream: over the first 3,992
# requests of seeds 1, 3 and 7 a 512 bound computed 1242/1263/1235 rankings
# and 220/240/234 bundles, this one 997/1011/989 and 169/175/174. An entry
# costs ~1.2 KB.
_RESULT_MEMO_SIZE = 2048
# ``CatalogIndex.rank`` scores only the admitted items whose dot reaches its
# cut, ``D * (lo / hi) * (1 - _CUT_SLACK)``: D the l-th largest admitted dot,
# lo and hi the smallest and largest nonzero item norms the index has held.
# In exact arithmetic an item below the cut scores below each of the l items
# at or above D, whatever the norms: its dot / (query norm * its norm) is
# below D / (query norm * hi) times (1 - _CUT_SLACK). The slack covers the
# rounding: the cut's three operations, each item's product of norms and its
# score division round by at most 2**-53 relative each, under 1e-15
# together; and as no computed cosine exceeds 1 by 1e-14, no item below the
# cut reaches the clamp at 1.0, where scores tie. Those bounds hold for
# normal floats and accurate norms only, so a query whose norm lies outside
# (_CUT_SCALE_LO, _CUT_SCALE_HI), or whose D is at most _CUT_SCALE_LO times
# that norm, takes no cut and scores every positive dot; a text query's norm
# is 1, and its positive dots are far above that.
_CUT_SLACK = 1e-12
_CUT_SCALE_LO, _CUT_SCALE_HI = 2.0 ** -300, 2.0 ** 300
_ITEM_ID = operator.attrgetter("id")


class CatalogIndex:
    """One catalog version's inverted file, and the one reader of it: it
    answers which items a request admits (``admitted``), how they rank
    (``rank``), how relevant a bundle's candidates are
    (``palette_relevance``) and which items of a category carry a palette
    (``palette_ids``), and keeps the version's result memo (``result``).

    The layout is private and keyed by integer position. ``_slots[p]`` is the
    item at position ``p`` (None for a freed one, and ``_free`` is a min-heap
    of those). ``_pos`` maps an id to its position and is the one id-keyed
    structure: ids enter through ``patch`` and leave in ``rank``'s tie-break
    and output and in ``palette_ids``. ``_norm_lo`` and ``_norm_hi`` are the
    smallest and largest nonzero item norm the index has held (``inf`` and
    ``0.0`` before any): removals never shrink them, so ``rank``'s cut stays
    a lower bound. ``_postings[b]`` groups the positions whose item's
    embedding is nonzero in bucket ``b`` by that component (from the item's
    cached ``sparse``): a dict of value -> positions, in no set order, with
    no empty group, so a query bucket multiplies once per distinct value.
    ``_tags[t]`` is the set of positions whose item carries tag ``t``, and no
    set is empty. ``_prices`` and ``_by_price`` are parallel lists of every
    item's (finite) price and position, in ascending ``(price, position)``
    order, so the positions over a budget are a tail of ``_by_price``. Only
    ``patch`` changes these, when the index is handed on to the next version.
    ``_last_dots`` is the (prepared query, dot-product table) pair this
    version was scored by last, or None. ``_results`` is the version's memo
    of finished rankings and bundles: its ``_RESULT_MEMO_SIZE`` most recently
    used, by request key. ``patch`` resets ``_last_dots`` to None and empties
    ``_results``.
    """

    __slots__ = ("_slots", "_free", "_pos", "_norm_lo", "_norm_hi", "_postings", "_tags",
                 "_prices", "_by_price", "_last_dots", "_results")

    def __init__(self, items: dict):
        self._slots, self._pos, self._tags, self._prices, self._by_price = [], {}, {}, [], []
        self._postings, self._free = [{} for _ in range(memory.EMBED_DIM)], []
        self._norm_lo, self._norm_hi = math.inf, 0.0
        self._last_dots, self._results = None, OrderedDict()
        # in price order, so that each item's price entry is appended
        self._add(sorted(items.values(), key=lambda item: item.price))

    def admitted(self, required: Iterable, forbidden: Iterable, budget: Optional[float],
                 category: Optional[str] = None) -> set:
        """Positions of the items that carry every ``required`` tag (and
        ``category``, if one is given), no ``forbidden`` tag and no price
        above ``budget`` (None caps nothing): the tag sets, less the tail of
        the price order past the budget. Only this index's ``rank`` and
        ``palette_relevance`` read them."""
        tags = self._tags
        required = [tags.get(tag, ()) for tag in required]
        if category is not None:
            required.append(tags.get(category, ()))
        required.sort(key=len)
        admitted = (set(required[0]).intersection(*required[1:]) if required
                    else set(self._pos.values()))
        for tag in forbidden:
            admitted.difference_update(tags.get(tag, ()))
        if budget is not None:  # a NaN budget cuts nothing, as ``price > nan`` is never true
            admitted.difference_update(self._by_price[bisect.bisect_right(self._prices, budget):])
        return admitted

    def rank(self, admitted: set, query: memory.QueryVector, l: int) -> list:
        """The best ``l`` of the ``admitted`` positions' items by relevance to
        the query, as (score, item) pairs, higher score first, then smaller id.

        Only items whose dot product reaches the cut (see ``_CUT_SLACK``) and
        is positive are scored, by ``memory.relevance_of_dot``, and cut by a
        key-free ``heapq.nsmallest`` of ``(-score, id, position)`` triples:
        ids are unique, so the order is total and equals a full sort cut
        after ``l``, whatever order the positions come in, and ``-(-score)``
        is ``score`` exactly. When fewer than ``l`` score above zero, the
        rest are zero-score items in ascending id order, which is where a
        full sort puts them.
        """
        slots, dots, score = self._slots, self._dots(query), memory.relevance_of_dot
        # the admitted items' dots, in the set's order, which the zip below
        # walks again (a set iterates alike while unchanged)
        candidates = list(map(dots.__getitem__, admitted))
        cut = 0.0
        if 0 < l <= len(candidates):
            best, qnorm = heapq.nlargest(l, candidates)[-1], query.norm
            if _CUT_SCALE_LO < qnorm < _CUT_SCALE_HI and best > qnorm * _CUT_SCALE_LO:
                cut = best * (self._norm_lo / self._norm_hi) * (1.0 - _CUT_SLACK)
        scored = []
        for position, dot in zip(admitted, candidates):
            if dot <= 0.0 or dot < cut:
                continue
            item = slots[position]
            relevance = score(query, item.sparse, dot)
            if relevance > 0.0:
                scored.append((-relevance, item.id, position))
        best = heapq.nsmallest(l, scored)
        ranked = [(-relevance, slots[position]) for relevance, _, position in best]
        if len(ranked) < l:
            rest = map(slots.__getitem__, admitted.difference([p for _, _, p in best]))
            ranked += [(0.0, item) for item in heapq.nsmallest(l - len(ranked), rest, _ITEM_ID)]
        return ranked

    def palette_relevance(self, query: memory.QueryVector, admitted: Iterable) -> list:
        """(relevance to the query, item) for each of the ``admitted``
        positions whose item carries a palette: ``memory.relevance_of_dot``
        of its entry in the dot table ``rank`` reads."""
        slots, dots, score = self._slots, self._dots(query), memory.relevance_of_dot
        return [(score(query, item.sparse, dots[position]), item)
                for position, item in zip(admitted, map(slots.__getitem__, admitted))
                if item.palette is not None]

    def palette_ids(self, category: str) -> set:
        """Ids of the category's items that carry a palette vector; raises
        MissingPalette when there are none."""
        slots = self._slots
        with_palette = {slots[position].id for position in self._tags.get(category, ())
                        if slots[position].palette is not None}
        if not with_palette:
            raise MissingPalette(f"category {category!r} has no catalog item with a palette vector")
        return with_palette

    def patch(self, items: dict, before: dict, touched: Iterable) -> None:
        """Make this index of the id -> item dict ``before`` that of ``items``,
        which differs from it only at the ``touched`` ids, in place.

        One path for every touched id: its old item, if any, leaves, and its
        new one, if any, is added, an edit at the old item's position. Every
        removed item frees its position before any item is added, and an
        added item takes the lowest freed one before it appends one, so there
        are never more positions than the most items a version has held."""
        self._last_dots = None
        self._results.clear()
        slots, pos, postings, tags = self._slots, self._pos, self._postings, self._tags
        added = []
        for item_id in touched:
            old, new = before.get(item_id), items.get(item_id)
            if old is not None:
                position = pos[item_id]
                at = self._price_slot(old.price, position)
                del self._prices[at], self._by_price[at]
                sparse = old.sparse
                for bucket, value in zip(sparse.buckets, sparse.values):
                    groups = postings[bucket]
                    group = groups[value]
                    group.remove(position)
                    if not group:
                        del groups[value]
                for tag in set(old.tags):  # an item may repeat a tag
                    tagged = tags[tag]
                    tagged.discard(position)
                    if not tagged:
                        del tags[tag]
                if new is None:
                    slots[pos.pop(item_id)] = None
                    heapq.heappush(self._free, position)
            if new is not None:
                added.append(new)
        self._add(added)

    def result(self, key, compute):
        """``compute()``'s value for the request ``key`` on this version: the
        kept value when there is one, else computed and kept, the least
        recently used one making room. A ``compute`` that raises keeps
        nothing; an unhashable key is computed afresh and not kept.
        """
        results = self._results
        try:
            value = results[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable argument
            return compute()
        else:
            results.move_to_end(key)
            return value
        value = compute()
        if len(results) >= _RESULT_MEMO_SIZE:
            results.popitem(last=False)
        results[key] = value
        return value

    def _dots(self, query: memory.QueryVector) -> list:
        """Position -> the item's dot product with the query (0.0 for an item
        sharing no nonzero bucket with it, and for a freed position): term at a
        time over the query's buckets in ascending order, each value group's
        one product added to each of its positions.

        The index keeps the last table built, and a query with the same buckets
        and values gets that table again; callers only read it.
        """
        last = self._last_dots
        if last is not None and last[0].buckets == query.buckets and last[0].values == query.values:
            return last[1]
        dots = [0.0] * len(self._slots)
        postings = self._postings
        for bucket, weight in zip(query.buckets, query.values):
            for value, positions in postings[bucket].items():
                product = value * weight
                for position in positions:
                    dots[position] += product
        self._last_dots = (query, dots)
        return dots

    def _price_slot(self, price: float, position: int) -> int:
        """Where ``(price, position)`` is, or goes, in the price order."""
        prices = self._prices
        low = bisect.bisect_left(prices, price)
        high = bisect.bisect_right(prices, price, low)
        return bisect.bisect_left(self._by_price, position, low, high)

    def _add(self, items: Iterable) -> None:
        """Put each item in its id's slot, else the lowest freed one (popped
        from ``_free``), else a new one, and into the norm range, the
        postings, the tag sets and the price order."""
        slots, pos, postings, tags = self._slots, self._pos, self._postings, self._tags
        for item in items:
            position = pos.get(item.id)
            if position is None:
                if self._free:
                    position = heapq.heappop(self._free)
                else:
                    position = len(slots)
                    slots.append(None)
                pos[item.id] = position
            slots[position] = item
            sparse = item.sparse
            norm = sparse.norm
            if norm:
                self._norm_lo, self._norm_hi = min(self._norm_lo, norm), max(self._norm_hi, norm)
            for bucket, value in zip(sparse.buckets, sparse.values):
                postings[bucket].setdefault(value, []).append(position)
            for tag in item.tags:
                tags.setdefault(tag, set()).add(position)
            at = self._price_slot(item.price, position)
            self._prices.insert(at, item.price)
            self._by_price.insert(at, position)


class Environment:
    """Shared world state, one catalog version; readers only ever observe
    whole versions. Its one table, ``_items``, maps id -> item in catalog
    order: the constructor copies the items given into it and is the one id
    check (a repeat raises InvalidArgument naming both records, counted from
    0), and ``apply_env_update`` hands a new version the table it built."""

    __slots__ = ("version", "_items", "_catalog", "_index")

    def __init__(self, catalog: Iterable = (), version: int = 0):
        items = {}
        for index, item in enumerate(catalog):
            if item.id in items:
                raise InvalidArgument(f"record {index}: id: must be unique, but {item.id!r} "
                                      f"is record {list(items).index(item.id)}'s id too")
            items[item.id] = item
        self.version, self._items, self._catalog, self._index = version, items, None, None

    @property
    def catalog(self) -> tuple:
        """The table's items, built on this version's first read and kept."""
        if self._catalog is None:
            self._catalog = tuple(self._items.values())
        return self._catalog

    def __len__(self) -> int:
        return len(self._items)

    def item_by_id(self, item_id: str) -> CatalogItem:
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownItem(f"unknown catalog item: {item_id!r}") from None

    def catalog_index(self) -> CatalogIndex:
        """This version's index, built on first use (a run that never ranks
        the catalog never builds it) and kept until ``apply_env_update``
        hands it on to a next version; a later call builds it again."""
        if self._index is None:
            self._index = CatalogIndex(self._items)
        return self._index


_SETTABLE_FIELDS = ("title", "tags", "price", "palette")


def _delta_target(index: int, op) -> tuple:
    """What one op writes, as a key; InvalidArgument names a malformed op."""
    name = op.get("op") if type(op) is dict else None
    if name == "add_item":
        item = op.get("item")
        named, target = "item.id", ("item", item.get("id") if type(item) is dict else None)
    elif name == "remove_item":
        named, target = "id", ("item", op.get("id"))
    elif name == "set_item_field":
        named, target = "id, field", ("item_field", op.get("id"), op.get("field"))
    else:
        raise InvalidArgument(f"delta op {index}: must be an object whose op is one of "
                              f"add_item, remove_item, set_item_field")
    if not all(type(part) is str for part in target[1:]):
        raise InvalidArgument(f"delta op {index}: {name}: string required: {named}")
    if name == "set_item_field" and "value" not in op:
        raise InvalidArgument(f"delta op {index}: set_item_field: value: required")
    if name == "set_item_field" and op["field"] not in _SETTABLE_FIELDS:
        raise InvalidArgument(f"delta op {index}: set_item_field: field: must be one "
                              f"of {list(_SETTABLE_FIELDS)}")
    return target


def apply_env_update(env: Environment, delta: Sequence) -> Environment:
    """Apply a change set atomically, incrementing the version by exactly one.

    Every op's shape is checked before any is applied. Items are added, and
    edited in one of _SETTABLE_FIELDS, by `catalog_item`'s record rules; an
    added item goes last and the others keep their order. `env` never
    changes: the ops apply to one copy of its table, which the new version
    takes. Once every op has applied, a built catalog index of `env`'s is
    handed on too and patched in place, and `env` builds its own again if
    it is ranked again; a delta that raises leaves `env`'s index with it.
    """
    targets = [_delta_target(index, op) for index, op in enumerate(delta)]
    if len(targets) != len(set(targets)):
        raise ConflictingDelta("delta touches the same field twice")

    items = dict(env._items)
    for index, op in enumerate(delta):
        name = op["op"]
        try:
            if name == "add_item":
                item = catalog_item(op["item"])
                if item.id in items:
                    raise ConflictingDelta(f"item already in catalog: {item.id!r}")
                items[item.id] = item
            elif op["id"] not in items:
                raise UnknownItem(f"unknown catalog item: {op['id']!r}")
            elif name == "remove_item":
                del items[op["id"]]
            else:  # the item's record with the field set, checked as a new record
                item = items[op["id"]]
                items[item.id] = catalog_item({
                    "id": item.id, "title": item.title, "tags": list(item.tags),
                    "price": item.price, "palette": list(item.palette or ()),
                    op["field"]: op["value"]})
        except InvalidArgument as exc:  # a record rule: name the op
            raise InvalidArgument(f"delta op {index}: {exc}") from None
    updated = Environment(version=env.version + 1)
    updated._items, updated._index, env._index = items, env._index, None
    if updated._index is not None:  # handed on: patch it into the new version's
        updated._index.patch(items, env._items, dict.fromkeys(target[1] for target in targets))
    return updated


@dataclass
class EpisodeResult:
    """An episode's trace and the exception that aborted it, if one did;
    `error` gives that exception as "Name: message"."""

    trace: list
    exception: Optional[AgentRecError] = None

    @property
    def error(self) -> Optional[str]:
        exc = self.exception
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    @property
    def aborted(self) -> bool:
        return self.exception is not None


class MasRuntime:
    """Owns the agents, the environment, the matrix and all message flow.
    ``channels`` is the paper's communication matrix over the ids in ``agents``,
    stored as its open (sender, recipient) entries; all others are closed."""

    def __init__(self, env: Environment):
        self.env = env
        self.agents = {}
        self.channels = set()
        self.inboxes = {}
        self.spawns = {}  # parent id -> (children, open_channels)
        self.message_count = 0  # messages delivered so far, and the next seq

    def register_agent(self, agent: AgentSpec) -> None:
        if agent.id in self.agents:
            raise InvalidArgument(f"duplicate agent id: {agent.id!r}")
        self.agents[agent.id] = agent
        self.inboxes[agent.id] = []

    def declare_spawn(self, parent_id: str, children, open_channels) -> None:
        self.spawns[parent_id] = (list(children), list(open_channels))

    def _check(self, sender: str, recipient: str) -> None:
        for agent_id in (sender, recipient):
            if agent_id not in self.agents:
                raise UnknownAgent(f"unregistered agent: {agent_id!r}")

    def allows(self, sender: str, recipient: str) -> bool:
        self._check(sender, recipient)
        return (sender, recipient) in self.channels

    def toggle_channel(self, sender: str, recipient: str, open_: bool) -> None:
        if sender == recipient:
            raise SelfChannel(f"agents do not address themselves: {sender!r}")
        self._check(sender, recipient)
        self.channels.discard((sender, recipient))
        if open_:
            self.channels.add((sender, recipient))

    def send_message(self, message: Message) -> None:
        """Deliver iff there is a recipient, none is named twice, every channel is
        open and the payload's text is a string; then stamp the message's seq and
        env version. The kind is checked where a consumer takes the message."""
        recipients = message.recipients()
        if not recipients:
            raise InvalidArgument(f"message from {message.sender!r} names no recipient")
        if len(set(recipients)) != len(recipients):
            raise InvalidArgument(f"message from {message.sender!r} names a recipient twice")
        for recipient in recipients:
            if not self.allows(message.sender, recipient):
                raise ChannelClosed(
                    f"channel {message.sender!r} -> {recipient!r} is closed")
        if type(message.payload) is not dict or type(message.payload.get("text")) is not str:
            raise InvalidArgument(f"message from {message.sender!r}: payload text must be a string")
        message.seq = self.message_count
        message.env_version = self.env.version
        self.message_count += 1
        for recipient in recipients:
            self.inboxes[recipient].append(message)

    def _apply_spawn(self, parent_id: str) -> None:
        children, open_channels = self.spawns.get(parent_id, ((), ()))
        for child in children:  # a re-spawn registers nothing; an id clash raises
            if self.agents.get(child.id) is not child:
                self.register_agent(child)
        for sender, recipient in open_channels:
            self.toggle_channel(sender, recipient, True)

    def run_episode(self, routing: Sequence, seed: int,
                    initial_input: str = "") -> EpisodeResult:
        """Fire the routing edges in order; each hop forwards the sender's step output.

        An edge is (sender, recipient-or-recipient-list, kind). A gate failure
        or step error mid-episode aborts with the partial trace and the
        exception that aborted it. The first hop's input is its sender's consumed
        texts, then a nonempty `initial_input` (which is no message), joined by
        newlines. No randomness is drawn: `seed` stays because callers pass it.
        """
        # step_agent is looked up per call, so a wrapper on runtime.step_agent sees every step
        return self._fire(routing, initial_input, step_agent)

    def replay(self, routing: Sequence) -> EpisodeResult:
        """`run_episode` with no initial input and a step that returns "".

        The gates read only the routing and what was registered and declared,
        so on a fresh runtime a replay aborts at the edge, and with the error,
        that an episode would, unless a step error aborts it first. Like an
        episode it delivers and spawns.
        """
        return self._fire(routing, "", lambda agent, input_text, now: "")

    def _fire(self, routing: Sequence, initial_input: str, step) -> EpisodeResult:
        """The one loop over routing edges; `step(agent, input_text, now)` is a hop's text."""
        trace = []
        try:
            for tick, (sender_id, recipient, kind) in enumerate(routing):
                agent = self.agents.get(sender_id)
                if agent is None:
                    raise UnknownAgent(f"unregistered sender: {sender_id!r}")
                if kind == "spawn":
                    self._apply_spawn(sender_id)
                pending = self.inboxes[sender_id]
                self.inboxes[sender_id] = []
                for consumed in pending:  # every consumed message must fit the input schema
                    if consumed.kind not in agent.input_schema:
                        raise SchemaViolation(f"agent {sender_id!r} does not accept "
                                              f"kind {consumed.kind!r}")
                texts = [m.payload["text"] for m in pending]
                if tick == 0 and initial_input:
                    texts.append(initial_input)
                output = step(agent, "\n".join(texts), now=tick)
                if kind not in agent.output_schema:
                    raise SchemaViolation(
                        f"agent {sender_id!r} cannot emit kind {kind!r}")
                message = Message(sender=sender_id, recipient=recipient,
                                  kind=kind, payload={"text": output})
                self.send_message(message)
                trace.append(message)
        except AgentRecError as exc:
            return EpisodeResult(trace=trace, exception=exc)
        return EpisodeResult(trace=trace)


# trace persistence -------------------------------------------------------

# json.dumps(record, sort_keys=True) builds an encoder per call; this one is
# built once and gives the same bytes.
_encode = json.JSONEncoder(sort_keys=True).encode


def records_to_jsonl(records: Iterable) -> str:
    """One ``json.dumps(record, sort_keys=True)`` line per record; "" for none."""
    lines = list(map(_encode, records))
    return "\n".join(lines) + ("\n" if lines else "")


_string = json.encoder.encode_basestring_ascii  # the encoder's own, as ensure_ascii=True


def json_scalar(value) -> str:
    """``json.dumps(value)`` for one leaf value, without building an encoder.

    A str goes through the encoder's own ASCII string function, an int
    through ``int.__repr__`` and a finite float through ``float.__repr__``, as
    the encoder does; anything else (a bool, None, NaN or ±inf, a subclass, a
    container) goes through the reused encoder.
    """
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and value - value == 0.0:  # finite
        return float.__repr__(value)
    return _encode(value)


TRACE_SEQ = ', "seq": '  # what joins a trace line's payload to its seq


def trace_template(sender, recipient, kind, env_version) -> tuple:
    """The fixed parts of every trace.jsonl line from ``sender`` to
    ``recipient`` of ``kind`` at ``env_version``, as a (head, tail) pair: the
    one place that knows a message record's keys and their order.

    A line is ``head + payload_json + TRACE_SEQ + seq + tail``, the bytes of
    ``json.dumps(record, sort_keys=True)`` of the record with keys
    env_version, from, kind, payload, seq and to, a tuple recipient as a
    list, when ``payload_json`` is the payload and ``seq`` the seq encoded
    that way.
    """
    return (f'{{"env_version": {json_scalar(env_version)}, "from": {json_scalar(sender)}, '
            f'"kind": {json_scalar(kind)}, "payload": ',
            f', "to": {json_scalar(recipient)}}}')


def trace_line(seq, sender, recipient, kind, payload_json: str, env_version) -> str:
    """One trace.jsonl line, through its ``trace_template``."""
    head, tail = trace_template(sender, recipient, kind, env_version)
    return f"{head}{payload_json}{TRACE_SEQ}{json_scalar(seq)}{tail}"


def trace_to_jsonl(trace: Sequence) -> str:
    return "".join([trace_line(m.seq, m.sender, m.recipient, m.kind, _encode(m.payload),
                               m.env_version) + "\n" for m in trace])
