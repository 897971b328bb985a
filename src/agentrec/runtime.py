"""Multi-agent runtime: registry, shared environment, matrix-gated message routing.

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

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from . import memory
from .agents import AgentSpec, step_agent
from .errors import (
    AgentRecError,
    ChannelClosed,
    ConflictingDelta,
    InvalidArgument,
    PayloadInvalid,
    SchemaViolation,
    SelfChannel,
    UnknownAgent,
    UnknownItem,
    UnknownSchema,
)


@dataclass(frozen=True)
class MessageSchema:
    kind: str
    payload_shape: tuple  # tuple[str, ...] of required field names

    def validates(self, payload) -> bool:
        return isinstance(payload, dict) and sorted(payload) == sorted(self.payload_shape)


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

    def to_record(self) -> dict:
        recipient = (list(self.recipient)
                     if isinstance(self.recipient, (tuple, list)) else self.recipient)
        return {
            "seq": self.seq,
            "from": self.sender,
            "to": recipient,
            "kind": self.kind,
            "payload": self.payload,
            "env_version": self.env_version,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Message":
        recipient = record["to"]
        if isinstance(recipient, list):
            recipient = tuple(recipient)
        return cls(
            sender=record["from"],
            recipient=recipient,
            kind=record["kind"],
            payload=record["payload"],
            seq=record["seq"],
            env_version=record["env_version"],
        )


class CommMatrix:
    """The paper's communication matrix over the registered ids, stored as its
    open (sender, recipient) entries; the diagonal and all others are closed."""

    def __init__(self, ids: Iterable[str] = ()):
        self._ids = set()
        self._open = set()
        for agent_id in ids:
            self.register(agent_id)

    def register(self, agent_id: str) -> None:
        if agent_id in self._ids:
            raise InvalidArgument(f"duplicate agent id: {agent_id!r}")
        self._ids.add(agent_id)

    def _check(self, sender: str, recipient: str) -> None:
        for agent_id in (sender, recipient):
            if agent_id not in self._ids:
                raise UnknownAgent(f"unregistered agent: {agent_id!r}")

    def allows(self, sender: str, recipient: str) -> bool:
        self._check(sender, recipient)
        return (sender, recipient) in self._open

    def set_channel(self, sender: str, recipient: str, open_: bool) -> None:
        if sender == recipient:
            raise SelfChannel(f"agents do not address themselves: {sender!r}")
        self._check(sender, recipient)
        self._open.discard((sender, recipient))
        if open_:
            self._open.add((sender, recipient))


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


_NUMBER = frozenset({int, float})  # JSON numbers; bool is neither


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
    if type(price) not in _NUMBER or not math.isfinite(price):
        raise InvalidArgument("price: must be a finite number")
    palette = record.get("palette")
    if palette is not None and not (type(palette) is list and set(map(type, palette)) <= _NUMBER
                                    and all(map(math.isfinite, palette))):
        raise InvalidArgument("palette: must be null or a list of finite numbers")
    return CatalogItem(ident, title, tuple(tags), float(price), tuple(palette) if palette else None)


class CatalogIndex:
    """One catalog version's inverted file: bucket postings and tag sets.

    ``items`` is the version's id -> item dict. ``postings[b]`` maps the id of
    every item whose embedding is nonzero in bucket ``b`` to that component
    (from the item's cached ``sparse``); ``tags[t]`` is the set of ids of the
    items carrying tag ``t``, and no set is empty. An index is never changed
    once built: ``patched`` derives the next version's.
    """

    __slots__ = ("items", "postings", "tags")

    def __init__(self, items: dict, postings: list, tags: dict):
        self.items, self.postings, self.tags = items, postings, tags

    @classmethod
    def build(cls, items: dict) -> "CatalogIndex":
        index = cls(items, [{} for _ in range(memory.EMBED_DIM)], {})
        index._add(items.values())
        return index

    def patched(self, items: dict, dropped: Sequence, added: Sequence) -> "CatalogIndex":
        """The index of ``items``: this one without ``dropped`` and with ``added``.

        Only the bucket dicts and tag sets those items touch are copied, so
        this index, which readers of the older version may still hold, is
        unchanged.
        """
        touched = list(dropped) + list(added)
        postings, tags = list(self.postings), dict(self.tags)
        for bucket in {bucket for item in touched for bucket in item.sparse.buckets}:
            postings[bucket] = dict(postings[bucket])
        for tag in {tag for item in touched for tag in item.tags}:
            tags[tag] = set(tags.get(tag, ()))
        for item in dropped:
            for bucket in item.sparse.buckets:
                del postings[bucket][item.id]
            for tag in item.tags:
                tags[tag].discard(item.id)
        index = CatalogIndex(items, postings, tags)
        index._add(added)
        index.tags = {tag: ids for tag, ids in tags.items() if ids}
        return index

    def _add(self, items: Iterable) -> None:
        postings, tags = self.postings, self.tags
        for item in items:
            sparse = item.sparse
            for bucket, value in zip(sparse.buckets, sparse.values):
                postings[bucket][item.id] = value
            for tag in item.tags:
                tags.setdefault(tag, set()).add(item.id)


@dataclass
class Environment:
    """Shared world state; readers only ever observe whole versions.

    ``_by_id`` may be given by ``apply_env_update``, which has already built
    it with unique ids; otherwise it is built here, and a repeated id raises.
    """

    catalog: list = field(default_factory=list)
    user_profiles: dict = field(default_factory=dict)
    version: int = 0
    _by_id: Optional[dict] = field(default=None, repr=False, compare=False)
    _index: Optional[CatalogIndex] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self._by_id is None:
            self._by_id = {item.id: item for item in self.catalog}
            if len(self._by_id) != len(self.catalog):
                raise InvalidArgument("catalog ids must be unique")

    def item_by_id(self, item_id: str) -> CatalogItem:
        try:
            return self._by_id[item_id]
        except KeyError:
            raise UnknownItem(f"unknown catalog item: {item_id!r}") from None

    def has_item(self, item_id: str) -> bool:
        return item_id in self._by_id

    def catalog_index(self) -> CatalogIndex:
        """This version's index, built on first use (a run that never ranks
        the catalog never builds it) and kept for the version's lifetime."""
        if self._index is None:
            self._index = CatalogIndex.build(self._by_id)
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
    elif name == "set_profile":
        named, target = "user, key", ("profile", op.get("user"), op.get("key"))
    else:
        raise InvalidArgument(f"delta op {index}: must be an object whose op is one of "
                              f"add_item, remove_item, set_item_field, set_profile")
    if not all(type(part) is str for part in target[1:]):
        raise InvalidArgument(f"delta op {index}: {name}: string required: {named}")
    if name in ("set_item_field", "set_profile") and "value" not in op:
        raise InvalidArgument(f"delta op {index}: {name}: value: required")
    if name == "set_item_field" and op["field"] not in _SETTABLE_FIELDS:
        raise InvalidArgument(f"delta op {index}: set_item_field: field: must be one "
                              f"of {list(_SETTABLE_FIELDS)}")
    return target


def _indexed(item: Optional[CatalogItem]) -> Optional[tuple]:
    """What a catalog index reads of an item: its embedded text and its tags."""
    return None if item is None else (item.title, item.tags)


def apply_env_update(env: Environment, delta: Sequence) -> Environment:
    """Apply a change set atomically, incrementing the version by exactly one.

    Every op's shape is checked before any is applied; `env` never changes.
    Items are added, and edited in one of _SETTABLE_FIELDS, by `catalog_item`'s
    record rules; an added item goes last and the others keep their order.
    If `env`'s catalog index is built, the new version's is patched from it.
    """
    targets = [_delta_target(index, op) for index, op in enumerate(delta)]
    if len(targets) != len(set(targets)):
        raise ConflictingDelta("delta touches the same field twice")

    items = dict(env._by_id)
    profiles = {user: dict(facts) for user, facts in env.user_profiles.items()}
    for index, op in enumerate(delta):
        name = op["op"]
        try:
            if name == "add_item":
                item = catalog_item(op["item"])
                if item.id in items:
                    raise ConflictingDelta(f"item already in catalog: {item.id!r}")
                items[item.id] = item
            elif name == "set_profile":
                profiles.setdefault(op["user"], {})[op["key"]] = op["value"]
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
    index = env._index
    if index is not None:  # derive the new version's index from this one's
        touched = dict.fromkeys(target[1] for target in targets if target[0] != "profile")
        changed = [item_id for item_id in touched
                   if _indexed(env._by_id.get(item_id)) != _indexed(items.get(item_id))]
        index = index.patched(items, [env._by_id[i] for i in changed if i in env._by_id],
                              [items[i] for i in changed if i in items])
    updated = Environment(catalog=list(items.values()), user_profiles=profiles,
                          version=env.version + 1, _by_id=items)
    updated._index = index
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


@dataclass
class SpawnDecl:
    children: list            # list[AgentSpec]
    open_channels: list       # list[tuple[sender, recipient]]


class MasRuntime:
    """Owns the agents, the environment, the matrix, and all message flow."""

    def __init__(self, env: Environment, schemata: Iterable[MessageSchema]):
        self.env = env
        self.schemata = {schema.kind: schema for schema in schemata}
        self.agents = {}
        self.matrix = CommMatrix()
        self.inboxes = {}
        self.spawns = {}
        self.message_count = 0  # messages delivered so far, and the next seq

    def register_agent(self, agent: AgentSpec, allow_to=(), allow_from=()) -> None:
        for kind in set(agent.input_schema) | set(agent.output_schema):
            if kind not in self.schemata:
                raise UnknownSchema(
                    f"agent {agent.id!r} declares kind {kind!r} outside the schemata")
        self.matrix.register(agent.id)  # raises on a duplicate id
        self.agents[agent.id] = agent
        self.inboxes[agent.id] = []
        for recipient in allow_to:
            self.matrix.set_channel(agent.id, recipient, True)
        for sender in allow_from:
            self.matrix.set_channel(sender, agent.id, True)

    def declare_spawn(self, parent_id: str, children, open_channels) -> None:
        self.spawns[parent_id] = SpawnDecl(children=list(children),
                                           open_channels=list(open_channels))

    def toggle_channel(self, sender: str, recipient: str, open_: bool) -> None:
        self.matrix.set_channel(sender, recipient, open_)

    def send_message(self, message: Message) -> None:
        """Deliver iff there is a recipient, none is named twice, every channel is
        open, the kind is known, and the payload fits; then stamp the message's
        seq and env version."""
        recipients = message.recipients()
        if not recipients:
            raise InvalidArgument(f"message from {message.sender!r} names no recipient")
        if len(set(recipients)) != len(recipients):
            raise InvalidArgument(f"message from {message.sender!r} names a recipient twice")
        for recipient in recipients:
            if not self.matrix.allows(message.sender, recipient):
                raise ChannelClosed(
                    f"channel {message.sender!r} -> {recipient!r} is closed")
        schema = self.schemata.get(message.kind)
        if schema is None:
            raise UnknownSchema(f"kind {message.kind!r} not in schemata")
        if not schema.validates(message.payload):
            raise PayloadInvalid(
                f"payload for kind {message.kind!r} must have fields "
                f"{sorted(schema.payload_shape)}")
        message.seq = self.message_count
        message.env_version = self.env.version
        self.message_count += 1
        for recipient in recipients:
            self.inboxes[recipient].append(message)

    def _apply_spawn(self, parent_id: str) -> None:
        decl = self.spawns.get(parent_id)
        if decl is None:
            return
        for child in decl.children:
            if child.id not in self.agents:
                self.register_agent(child)
        for sender, recipient in decl.open_channels:
            self.matrix.set_channel(sender, recipient, True)

    def run_episode(self, routing: Sequence, seed: int,
                    initial_input: str = "") -> EpisodeResult:
        """Fire the routing edges in order; each hop forwards the sender's step output.

        An edge is (sender, recipient-or-recipient-list, kind). A gate failure
        or step error mid-episode aborts with the partial trace and the
        exception that aborted it. The initial input enters the first sender's
        inbox only after that sender is found registered. The runtime draws no
        randomness, so `seed` does not affect the trace; it stays because
        callers pass it.
        """
        # step_agent is looked up per call, so a wrapper on runtime.step_agent sees every step
        return self._fire(routing, initial_input, step_agent)

    def replay(self, routing: Sequence) -> EpisodeResult:
        """`run_episode` with no initial input and a step that returns "".

        The gates read only the routing, the registrations, the spawn
        declarations and the schemata, so on a fresh runtime a replay aborts at
        the edge, and with the error, that an episode would, unless a step
        error aborts the episode first. Like an episode it delivers and spawns.
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
                if tick == 0 and initial_input:
                    self.inboxes[sender_id].append(Message(
                        sender="__input__", recipient=sender_id, kind="query",
                        payload={"text": initial_input}, seq=-1,
                        env_version=self.env.version))
                if kind == "spawn":
                    self._apply_spawn(sender_id)
                pending = self.inboxes[sender_id]
                self.inboxes[sender_id] = []
                # every consumed message must fit the input schema; the
                # unsequenced initial query is exempt
                for consumed in pending:
                    if consumed.seq >= 0 and consumed.kind not in agent.input_schema:
                        raise SchemaViolation(f"agent {sender_id!r} does not accept "
                                              f"kind {consumed.kind!r}")
                input_text = "\n".join(m.payload.get("text", "") for m in pending)
                output = step(agent, input_text, now=tick)
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


def trace_to_jsonl(trace: Sequence) -> str:
    return records_to_jsonl(message.to_record() for message in trace)


def trace_from_jsonl(text: str) -> list:
    """The messages of a ``trace_to_jsonl`` text, in order."""
    messages = []
    for line in text.splitlines():
        if not line.strip():
            continue
        messages.append(Message.from_record(json.loads(line)))
    return messages
