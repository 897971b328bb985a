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
    def embedding(self) -> tuple:
        """The embedding of ``text()``, computed on first use and kept by this item.

        Not a dataclass field, so equality, hash and repr ignore it. An edit
        builds a new item that embeds afresh.
        """
        return memory.embed_text(self.text())


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


@dataclass
class Environment:
    """Shared world state; readers only ever observe whole versions."""

    catalog: list = field(default_factory=list)
    user_profiles: dict = field(default_factory=dict)
    version: int = 0
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


def apply_env_update(env: Environment, delta: Sequence) -> Environment:
    """Apply a change set atomically, incrementing the version by exactly one.

    Every op's shape is checked before any is applied; `env` never changes.
    Items are added, and edited in one of _SETTABLE_FIELDS, by `catalog_item`'s
    record rules; an added item goes last and the others keep their order.
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
    return Environment(catalog=list(items.values()), user_profiles=profiles,
                       version=env.version + 1)


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
        """Deliver iff there is a recipient, every channel is open, the kind is
        known, and the payload fits; then stamp the message's seq and env version."""
        recipients = message.recipients()
        if not recipients:
            raise InvalidArgument(f"message from {message.sender!r} names no recipient")
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

        An edge is (sender, recipient-or-recipient-list, kind). A closed
        channel or schema failure mid-episode aborts with the partial trace
        and the exception that aborted it. The initial input enters the first
        sender's inbox only after that sender is found registered. The runtime
        draws no randomness, so `seed` does not affect the trace; it stays
        because callers pass it.
        """
        trace = []
        tick = 0
        try:
            for sender_id, recipient, kind in routing:
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
                pending = self.inboxes.get(sender_id, [])
                self.inboxes[sender_id] = []
                input_text = "\n".join(m.payload.get("text", "") for m in pending)
                # every consumed message must fit the input schema (the unsequenced
                # initial query is exempt); step_agent raises on the first that does not
                input_kind = next((m.kind for m in pending if m.seq >= 0
                                   and m.kind not in agent.input_schema), None)
                output = step_agent(agent, input_text, now=tick, kind=input_kind)
                if kind not in agent.output_schema:
                    raise SchemaViolation(
                        f"agent {sender_id!r} cannot emit kind {kind!r}")
                message = Message(sender=sender_id, recipient=recipient,
                                  kind=kind, payload={"text": output})
                self.send_message(message)
                trace.append(message)
                tick += 1
        except AgentRecError as exc:
            return EpisodeResult(trace=trace, exception=exc)
        return EpisodeResult(trace=trace)


# trace persistence -------------------------------------------------------

def trace_to_jsonl(trace: Sequence) -> str:
    lines = [json.dumps(message.to_record(), sort_keys=True) for message in trace]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str) -> list:
    """The messages of a ``trace_to_jsonl`` text, in order."""
    messages = []
    for line in text.splitlines():
        if not line.strip():
            continue
        messages.append(Message.from_record(json.loads(line)))
    return messages
