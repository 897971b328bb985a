"""Multi-agent runtime: registry, shared environment, matrix-gated message routing.

Episode execution is single-threaded and sequential in routing order, so a
fixed (agents, routing, seed, environment) tuple always produces the same
trace. Wall-clock latency and throughput are collected separately from the
trace and never serialized into it.

Spawn edges realize on-demand sub-agent activation: the parent's declared
children are registered and their channels opened at the moment the spawn
message fires, and the spawn payload is multicast to all of them as one
traced message.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from . import memory
from .agents import AgentSpec, step_agent
from .errors import (
    AgentRecError,
    ChannelClosed,
    ConflictingDelta,
    InvalidArgument,
    NoData,
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


@dataclass(frozen=True)
class DeliveryReceipt:
    seq: int
    recipients: tuple


class CommMatrix:
    """n x n boolean permission grid; the diagonal is pinned closed."""

    def __init__(self, ids: Iterable[str] = ()):
        self._ids = []
        self._index = {}
        self._grid = []
        for agent_id in ids:
            self.register(agent_id)

    @property
    def n(self) -> int:
        return len(self._ids)

    def ids(self) -> list:
        return list(self._ids)

    def register(self, agent_id: str) -> None:
        if agent_id in self._index:
            raise InvalidArgument(f"duplicate agent id: {agent_id!r}")
        self._index[agent_id] = len(self._ids)
        self._ids.append(agent_id)
        for row in self._grid:
            row.append(False)
        self._grid.append([False] * len(self._ids))

    def _idx(self, agent_id: str) -> int:
        try:
            return self._index[agent_id]
        except KeyError:
            raise UnknownAgent(f"unregistered agent: {agent_id!r}") from None

    def allows(self, sender: str, recipient: str) -> bool:
        return self._grid[self._idx(sender)][self._idx(recipient)]

    def set_channel(self, sender: str, recipient: str, open_: bool) -> None:
        if sender == recipient:
            raise SelfChannel(f"agents do not address themselves: {sender!r}")
        self._grid[self._idx(sender)][self._idx(recipient)] = bool(open_)

    def grid(self) -> list:
        return [row[:] for row in self._grid]


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
        (``dataclasses.replace``) builds a new item that embeds afresh.
        """
        return memory.embed_text(self.text())


@dataclass
class Environment:
    """Shared world state; readers only ever observe whole versions."""

    catalog: list = field(default_factory=list)
    user_profiles: dict = field(default_factory=dict)
    rules_kb: object = None
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


def _delta_target(op: dict):
    name = op.get("op")
    if name == "add_item":
        return ("item", op["item"]["id"])
    if name == "remove_item":
        return ("item", op["id"])
    if name == "set_item_field":
        return ("item_field", op["id"], op["field"])
    if name == "set_profile":
        return ("profile", op["user"], op["key"])
    raise InvalidArgument(f"unknown delta op: {name!r}")


def apply_env_update(env: Environment, delta: Sequence) -> Environment:
    """Apply a change set atomically, incrementing the version by exactly one."""
    targets = [_delta_target(op) for op in delta]
    if len(targets) != len(set(targets)):
        raise ConflictingDelta("delta touches the same field twice")

    catalog = list(env.catalog)
    profiles = {user: dict(facts) for user, facts in env.user_profiles.items()}
    for op in delta:
        name = op["op"]
        if name == "add_item":
            spec = op["item"]
            if any(item.id == spec["id"] for item in catalog):
                raise ConflictingDelta(f"item already in catalog: {spec['id']!r}")
            catalog.append(CatalogItem(
                id=spec["id"], title=spec.get("title", spec["id"]),
                tags=tuple(spec.get("tags", ())), price=float(spec.get("price", 0.0)),
                palette=tuple(spec["palette"]) if spec.get("palette") else None,
            ))
        elif name == "remove_item":
            before = len(catalog)
            catalog = [item for item in catalog if item.id != op["id"]]
            if len(catalog) == before:
                raise UnknownItem(f"unknown catalog item: {op['id']!r}")
        elif name == "set_item_field":
            for i, item in enumerate(catalog):
                if item.id == op["id"]:
                    value = op["value"]
                    if op["field"] in ("tags", "palette") and value is not None:
                        value = tuple(value)
                    catalog[i] = replace(item, **{op["field"]: value})
                    break
            else:
                raise UnknownItem(f"unknown catalog item: {op['id']!r}")
        elif name == "set_profile":
            profiles.setdefault(op["user"], {})[op["key"]] = op["value"]
    return Environment(catalog=catalog, user_profiles=profiles,
                       rules_kb=env.rules_kb, version=env.version + 1)


@dataclass
class MasMetrics:
    latency_samples: list = field(default_factory=list)
    message_count: int = 0
    episode_count: int = 0
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    mean_latency: float
    throughput: float
    message_count: int


@dataclass
class EpisodeResult:
    trace: list
    error: Optional[str] = None

    @property
    def aborted(self) -> bool:
        return self.error is not None


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
        self.metrics = MasMetrics()
        self.inboxes = {}
        self.spawns = {}
        self._seq = 0

    def register_agent(self, agent: AgentSpec, allow_to=(), allow_from=()) -> None:
        if agent.id in self.agents:
            raise InvalidArgument(f"duplicate agent id: {agent.id!r}")
        for kind in set(agent.input_schema) | set(agent.output_schema):
            if kind not in self.schemata:
                raise UnknownSchema(
                    f"agent {agent.id!r} declares kind {kind!r} outside the schemata")
        self.agents[agent.id] = agent
        self.matrix.register(agent.id)
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

    def send_message(self, message: Message) -> DeliveryReceipt:
        """Deliver iff the channel is open, the kind is known, and the payload fits."""
        if message.sender not in self.agents:
            raise UnknownAgent(f"unregistered sender: {message.sender!r}")
        recipients = message.recipients()
        for recipient in recipients:
            if recipient not in self.agents:
                raise UnknownAgent(f"unregistered recipient: {recipient!r}")
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
        message.seq = self._seq
        message.env_version = self.env.version
        self._seq += 1
        for recipient in recipients:
            self.inboxes[recipient].append(message)
        self.metrics.message_count += 1
        return DeliveryReceipt(seq=message.seq, recipients=recipients)

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
        and an error marker naming the failure.
        """
        trace = []
        started = time.perf_counter()
        if routing and initial_input:
            first_sender = routing[0][0]
            self.inboxes.setdefault(first_sender, []).append(Message(
                sender="__input__", recipient=first_sender, kind="query",
                payload={"text": initial_input}, seq=-1,
                env_version=self.env.version))
        tick = 0
        try:
            for sender_id, recipient, kind in routing:
                hop_started = time.perf_counter()
                agent = self.agents.get(sender_id)
                if agent is None:
                    raise UnknownAgent(f"unregistered sender: {sender_id!r}")
                if kind == "spawn":
                    self._apply_spawn(sender_id)
                pending = self.inboxes.get(sender_id, [])
                self.inboxes[sender_id] = []
                input_text = "\n".join(m.payload.get("text", "") for m in pending)
                input_kind = pending[0].kind if pending and pending[0].seq >= 0 else None
                output = step_agent(agent, input_text, now=tick, kind=input_kind)
                if kind not in agent.output_schema:
                    raise SchemaViolation(
                        f"agent {sender_id!r} cannot emit kind {kind!r}")
                message = Message(sender=sender_id, recipient=recipient,
                                  kind=kind, payload={"text": output})
                self.send_message(message)
                trace.append(message)
                self.metrics.latency_samples.append(time.perf_counter() - hop_started)
                tick += 1
        except AgentRecError as exc:
            self.metrics.elapsed_seconds += time.perf_counter() - started
            return EpisodeResult(trace=trace,
                                 error=f"{type(exc).__name__}: {exc}")
        self.metrics.elapsed_seconds += time.perf_counter() - started
        self.metrics.episode_count += 1
        return EpisodeResult(trace=trace)

    def snapshot_metrics(self) -> MetricsSnapshot:
        if self.metrics.episode_count == 0:
            raise NoData("no completed episodes")
        samples = self.metrics.latency_samples
        mean_latency = sum(samples) / len(samples) if samples else 0.0
        elapsed = self.metrics.elapsed_seconds
        throughput = (self.metrics.message_count / elapsed) if elapsed > 0 else 0.0
        return MetricsSnapshot(mean_latency=mean_latency, throughput=throughput,
                               message_count=self.metrics.message_count)


# trace persistence -------------------------------------------------------

ERROR_KIND = "error"


def trace_to_jsonl(trace: Sequence, error: Optional[str] = None) -> str:
    lines = [json.dumps(message.to_record(), sort_keys=True) for message in trace]
    if error is not None:
        lines.append(json.dumps(
            {"seq": -1, "from": "", "to": "", "kind": ERROR_KIND,
             "payload": {"error": error}, "env_version": -1},
            sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str):
    """Returns (messages, error-or-None)."""
    messages, error = [], None
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["kind"] == ERROR_KIND:
            error = record["payload"]["error"]
        else:
            messages.append(Message.from_record(record))
    return messages, error
