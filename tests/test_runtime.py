"""MAS runtime: matrix-gated delivery, env versioning, episodes, message counts."""

import copy
import enum
import math
import random
from pathlib import Path

import pytest

from agentrec.agents import AgentSpec, scripted_core
from agentrec.blueprints import build_interactive_runtime
from agentrec.cli import load_catalog, load_config
from agentrec.errors import (
    AgentRecError,
    ChannelClosed,
    ConflictingDelta,
    InvalidArgument,
    PayloadInvalid,
    SelfChannel,
    UnknownAgent,
    UnknownItem,
    UnknownSchema,
)
from agentrec.memory import MemoryStore, cosine, embed_text
from agentrec.pipelines import Transcript, recommend_interactive
from agentrec.runtime import (
    CatalogItem,
    CommMatrix,
    Environment,
    MasRuntime,
    Message,
    MessageSchema,
    apply_env_update,
    trace_from_jsonl,
    trace_to_jsonl,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SCHEMATA = [
    MessageSchema("candidate_list", ("text",)),
    MessageSchema("compliance_report", ("text",)),
    MessageSchema("query", ("text",)),
]


def echo_agent(agent_id, kinds=("candidate_list", "compliance_report", "query")):
    return AgentSpec(id=agent_id, core=scripted_core((r".*", "$input")),
                     input_schema=frozenset(kinds), output_schema=frozenset(kinds))


def two_agent_runtime():
    runtime = MasRuntime(Environment(), SCHEMATA)
    runtime.register_agent(echo_agent("rec"))
    runtime.register_agent(echo_agent("eval"))
    runtime.toggle_channel("rec", "eval", True)
    runtime.toggle_channel("eval", "rec", True)
    return runtime


# send_message ---------------------------------------------------------------

def test_open_channel_delivers():
    runtime = two_agent_runtime()
    runtime.send_message(Message(
        sender="rec", recipient="eval", kind="candidate_list",
        payload={"text": "c1,c2"}))
    assert runtime.message_count == 1
    assert runtime.inboxes["eval"][0].payload == {"text": "c1,c2"}


def test_self_message_hits_closed_diagonal():
    runtime = two_agent_runtime()
    with pytest.raises(ChannelClosed):
        runtime.send_message(Message(
            sender="rec", recipient="rec", kind="query", payload={"text": "x"}))


def test_unknown_kind_rejected():
    runtime = two_agent_runtime()
    with pytest.raises(UnknownSchema):
        runtime.send_message(Message(
            sender="rec", recipient="eval", kind="gossip", payload={"text": "x"}))


def test_payload_shape_is_strict():
    runtime = two_agent_runtime()
    with pytest.raises(PayloadInvalid):
        runtime.send_message(Message(
            sender="rec", recipient="eval", kind="query", payload={"wrong": 1}))
    with pytest.raises(PayloadInvalid):
        runtime.send_message(Message(
            sender="rec", recipient="eval", kind="query",
            payload={"text": "x", "extra": 2}))


def test_unregistered_agents_rejected():
    runtime = two_agent_runtime()
    with pytest.raises(UnknownAgent):
        runtime.send_message(Message(
            sender="ghost", recipient="eval", kind="query", payload={"text": "x"}))


def inbox_sizes(runtime):
    return {agent_id: len(inbox) for agent_id, inbox in runtime.inboxes.items()}


def test_empty_multicast_rejected_before_taking_a_seq():
    runtime = two_agent_runtime()
    with pytest.raises(InvalidArgument, match="names no recipient"):
        runtime.send_message(Message(
            sender="rec", recipient=(), kind="query", payload={"text": "x"}))
    assert runtime.message_count == 0
    assert inbox_sizes(runtime) == {"rec": 0, "eval": 0}
    message = Message(sender="rec", recipient="eval", kind="query", payload={"text": "x"})
    runtime.send_message(message)
    assert message.seq == 0 and runtime.message_count == 1


@pytest.mark.parametrize("sender, recipient", [
    ("ghost", "eval"),
    ("rec", "ghost"),
    ("rec", ("eval", "ghost")),  # the registered, open recipient gets nothing either
])
def test_unregistered_party_changes_nothing(sender, recipient):
    runtime = two_agent_runtime()
    runtime.send_message(Message(sender="eval", recipient="rec", kind="query",
                                 payload={"text": "x"}))
    with pytest.raises(UnknownAgent, match="unregistered agent: 'ghost'"):
        runtime.send_message(Message(sender=sender, recipient=recipient,
                                     kind="query", payload={"text": "x"}))
    assert runtime.message_count == 1
    assert inbox_sizes(runtime) == {"rec": 1, "eval": 0}


def test_duplicate_registration_keeps_the_first_agent():
    runtime = two_agent_runtime()
    first = runtime.agents["eval"]
    runtime.send_message(Message(sender="rec", recipient="eval", kind="query",
                                 payload={"text": "x"}))
    inbox = runtime.inboxes["eval"]
    with pytest.raises(InvalidArgument, match="duplicate agent id: 'eval'"):
        runtime.register_agent(echo_agent("eval"))
    assert runtime.agents["eval"] is first
    assert runtime.inboxes["eval"] is inbox and len(inbox) == 1
    assert list(runtime.agents) == list(runtime.inboxes) == ["rec", "eval"]


def test_registration_outside_schemata_leaves_the_id_free():
    runtime = two_agent_runtime()
    with pytest.raises(UnknownSchema):
        runtime.register_agent(echo_agent("late", kinds=("query", "gossip")))
    assert "late" not in runtime.agents and "late" not in runtime.inboxes
    with pytest.raises(UnknownAgent):
        runtime.toggle_channel("rec", "late", True)
    runtime.register_agent(echo_agent("late"), allow_from=("rec",))
    runtime.send_message(Message(sender="rec", recipient="late", kind="query",
                                 payload={"text": "x"}))
    assert len(runtime.inboxes["late"]) == 1


def test_closed_channel_never_delivers():
    runtime = MasRuntime(Environment(), SCHEMATA)
    runtime.register_agent(echo_agent("a"))
    runtime.register_agent(echo_agent("b"))
    with pytest.raises(ChannelClosed):
        runtime.send_message(Message(
            sender="a", recipient="b", kind="query", payload={"text": "x"}))
    assert runtime.inboxes["b"] == []
    assert runtime.message_count == 0


def test_permission_soundness_fuzz():
    rng = random.Random(99)
    n = 5
    ids = [f"a{i}" for i in range(n)]
    runtime = MasRuntime(Environment(), SCHEMATA)
    for agent_id in ids:
        runtime.register_agent(echo_agent(agent_id))
    for sender in ids:
        for recipient in ids:
            if sender != recipient and rng.random() < 0.5:
                runtime.toggle_channel(sender, recipient, True)
    for _ in range(2000):
        sender, recipient = rng.choice(ids), rng.choice(ids)
        allowed = runtime.matrix.allows(sender, recipient)
        before = len(runtime.inboxes[recipient])
        try:
            runtime.send_message(Message(sender=sender, recipient=recipient,
                                         kind="query", payload={"text": "x"}))
            delivered = True
        except ChannelClosed:
            delivered = False
        assert delivered == allowed
        after = len(runtime.inboxes[recipient])
        assert (after - before) == (1 if allowed else 0)


# toggling ----------------------------------------------------------------------

def test_toggle_open_then_closed():
    runtime = two_agent_runtime()
    runtime.toggle_channel("eval", "rec", False)
    with pytest.raises(ChannelClosed):
        runtime.send_message(Message(
            sender="eval", recipient="rec", kind="compliance_report",
            payload={"text": "ok"}))
    runtime.toggle_channel("eval", "rec", True)
    runtime.send_message(Message(
        sender="eval", recipient="rec", kind="compliance_report",
        payload={"text": "ok"}))
    assert len(runtime.inboxes["rec"]) == 1


def test_toggle_is_idempotent():
    matrix = CommMatrix(["x", "y"])
    matrix.set_channel("x", "y", True)
    matrix.set_channel("x", "y", True)
    assert matrix.allows("x", "y") is True
    matrix.set_channel("x", "y", False)
    matrix.set_channel("x", "y", False)
    assert matrix.allows("x", "y") is False


def test_self_channel_rejected():
    matrix = CommMatrix(["x", "y"])
    with pytest.raises(SelfChannel):
        matrix.set_channel("x", "x", True)


def test_matrix_diagonal_starts_closed():
    matrix = CommMatrix(["x", "y", "z"])
    for agent_id in ("x", "y", "z"):
        assert matrix.allows(agent_id, agent_id) is False


def test_matrix_rejects_duplicate_and_unregistered_ids():
    with pytest.raises(InvalidArgument):
        CommMatrix(["x", "y", "x"])
    matrix = CommMatrix(["x", "y"])
    for sender, recipient in (("x", "ghost"), ("ghost", "y")):
        with pytest.raises(UnknownAgent):
            matrix.allows(sender, recipient)
        with pytest.raises(UnknownAgent):
            matrix.set_channel(sender, recipient, True)
    matrix.register("z")
    matrix.set_channel("z", "x", True)
    assert matrix.allows("z", "x") and not matrix.allows("x", "z")


# environment updates --------------------------------------------------------------

def sample_env():
    return Environment(catalog=[
        CatalogItem(id="i1", title="one", tags=("a",), price=1.0),
        CatalogItem(id="i2", title="two", tags=("b",), price=2.0),
    ])


def test_empty_delta_bumps_version_only():
    env = sample_env()
    updated = apply_env_update(env, [])
    assert updated.version == env.version + 1
    assert updated.catalog == env.catalog
    assert env.version == 0  # original untouched


def test_add_item_visible_after_update():
    env = sample_env()
    updated = apply_env_update(env, [
        {"op": "add_item", "item": {"id": "i3", "title": "three", "tags": ["c"],
                                    "price": 3.0}}])
    assert updated.version == 1
    assert updated.has_item("i3")
    assert not env.has_item("i3")


def test_hundred_deltas_count_versions():
    env = sample_env()
    for i in range(100):
        env = apply_env_update(env, [
            {"op": "set_profile", "user": "u1", "key": f"k{i}", "value": i}])
    assert env.version == 100
    assert len(env.user_profiles["u1"]) == 100


def test_conflicting_delta_rejected_atomically():
    env = sample_env()
    with pytest.raises(ConflictingDelta):
        apply_env_update(env, [
            {"op": "set_item_field", "id": "i1", "field": "price", "value": 9.0},
            {"op": "set_item_field", "id": "i1", "field": "price", "value": 8.0},
        ])
    assert env.version == 0
    assert env.item_by_id("i1").price == 1.0


def test_remove_and_set_field():
    env = sample_env()
    updated = apply_env_update(env, [
        {"op": "remove_item", "id": "i2"},
        {"op": "set_item_field", "id": "i1", "field": "tags", "value": ["a", "x"]},
    ])
    assert not updated.has_item("i2")
    assert updated.item_by_id("i1").tags == ("a", "x")


def test_catalog_ids_must_be_unique_and_lookup_misses_raise():
    with pytest.raises(ValueError):
        Environment(catalog=[CatalogItem(id="i1", title="one", tags=(), price=1.0),
                             CatalogItem(id="i1", title="uno", tags=(), price=2.0)])
    env = sample_env()
    assert env.item_by_id("i2").title == "two"
    assert not env.has_item("i9")
    with pytest.raises(UnknownItem):
        env.item_by_id("i9")


def test_item_embedding_lives_with_the_item_across_versions():
    env = Environment(catalog=[
        CatalogItem(id="cake", title="chocolate cake", tags=("cake",), price=1.0),
        CatalogItem(id="lamp", title="woven lamp", tags=("decor",), price=2.0),
        CatalogItem(id="rug", title="red rug", tags=("decor",), price=3.0),
    ])
    transcript = Transcript(turns=[("user", "mickey banner")])
    recommend_interactive(transcript, env, MemoryStore(), top_l=3)  # embeds every item
    kept = env.item_by_id("rug").embedding
    assert kept == embed_text("red rug decor")

    updated = apply_env_update(env, [
        {"op": "set_item_field", "id": "cake", "field": "title", "value": "mickey banner"},
        {"op": "set_item_field", "id": "lamp", "field": "tags", "value": ["mickey"]},
        {"op": "set_item_field", "id": "rug", "field": "price", "value": 4.0},
    ])
    assert updated.item_by_id("cake").embedding == embed_text("mickey banner cake")
    assert updated.item_by_id("lamp").embedding == embed_text("woven lamp mickey")
    query = embed_text("mickey banner")
    want = sorted(((max(0.0, cosine(query, embed_text(item.text()))), item.id)
                   for item in updated.catalog), key=lambda pair: (-pair[0], pair[1]))
    ranked = recommend_interactive(transcript, updated, MemoryStore(), top_l=3)
    assert ranked.entries == [(item_id, score) for score, item_id in want]
    assert ranked.ids()[:2] == ["cake", "lamp"]

    # untouched items keep their vector object; a price edit is a new item
    moved = apply_env_update(updated, [{"op": "remove_item", "id": "rug"}])
    assert moved.item_by_id("cake").embedding is updated.item_by_id("cake").embedding
    assert updated.item_by_id("rug").embedding is not kept


def test_item_embedding_is_not_part_of_equality_hash_or_repr():
    embedded = CatalogItem(id="i1", title="one", tags=("a",), price=1.0)
    embedded.embedding
    fresh = CatalogItem(id="i1", title="one", tags=("a",), price=1.0)
    assert embedded == fresh
    assert hash(embedded) == hash(fresh)
    assert repr(embedded) == repr(fresh)
    assert "embedding" not in repr(embedded)


@pytest.mark.parametrize("op", [
    {"op": "add_item", "item": {"id": "b", "tags": "home"}},
    {"op": "set_item_field", "id": "i1", "field": "tags", "value": "home"},
    {"op": "add_item", "item": {"id": "b", "title": 5}},
    {"op": "set_item_field", "id": "i1", "field": "title", "value": 5},
    {"op": "add_item", "item": {"id": "b", "price": "5"}},
    {"op": "set_item_field", "id": "i1", "field": "price", "value": "5"},
    {"op": "set_item_field", "id": "i1", "field": "colour", "value": "red"},
    {"op": "set_item_field", "id": "i1", "field": "id", "value": "i9"},
    {"op": "set_item_field", "id": "i1", "field": "tags"},
    {"op": "remove_item"},
    {"op": "remove_item", "id": ["i1"]},
    {"op": "add_item", "item": {"title": "no id"}},
    {"op": "add_item", "item": "b"},
    {"op": "add_item"},
    {"op": "set_profile", "user": "u1", "key": ["k"], "value": 1},
    {"op": "rename_item", "id": "i1"},
    {"id": "i1"},
    ["remove_item", "i1"],
], ids=["add-tags-text", "set-tags-text", "add-title-int", "set-title-int", "add-price-text",
        "set-price-text", "set-unknown-field", "set-id", "set-no-value", "remove-no-id",
        "remove-list-id", "add-no-id", "add-text-item", "add-no-item", "profile-list-key",
        "unknown-op", "no-op", "op-not-object"])
def test_malformed_delta_op_is_invalid_argument_naming_its_index(op):
    env = sample_env()
    with pytest.raises(InvalidArgument, match="^delta op 1: "):
        apply_env_update(env, [{"op": "set_profile", "user": "u1", "key": "k", "value": 1}, op])
    assert env.catalog == sample_env().catalog and env.user_profiles == {}


def test_edited_fields_follow_the_record_rules():
    updated = apply_env_update(sample_env(), [
        {"op": "set_item_field", "id": "i1", "field": "price", "value": 5},
        {"op": "set_item_field", "id": "i1", "field": "palette", "value": []},
        {"op": "set_item_field", "id": "i2", "field": "palette", "value": [1, 0.5]},
    ])
    first, second = updated.catalog
    assert (first.price, type(first.price), first.palette) == (5.0, float, None)
    assert second.palette == (1, 0.5)


# seeded delta fuzz: apply_env_update against a plain-dict model -------------------

SETTABLE = ("title", "tags", "price", "palette")
GOOD = {"title": ["lamp", "", "rattan chair"], "tags": [[], ["home"], ["eco", "rug"]],
        "price": [0, 5, 2.5, -1.0], "palette": [None, [], [0.1, 1], [1, 0.5, 0.0]]}
BAD = {"title": [5, None, ["lamp"]], "tags": ["home", ["home", 1], None, ("eco",)],
       "price": ["5", True, None, math.nan, math.inf],
       "palette": ["red", [0.5, "red"], [True], [math.inf], (0.1,)]}


def model_row(record):
    """The catalog record rules over plain values: (id, title, tags, price,
    palette), or None when the record breaks them."""
    def finite(value):
        return type(value) in (int, float) and math.isfinite(value)

    if type(record) is not dict or type(record.get("id")) is not str or not record["id"]:
        return None
    title, tags = record.get("title", record["id"]), record.get("tags", [])
    price, palette = record.get("price", 0.0), record.get("palette")
    if (type(title) is not str or type(tags) is not list
            or not all(type(tag) is str for tag in tags) or not finite(price)
            or not (palette is None or type(palette) is list and all(map(finite, palette)))):
        return None
    return (record["id"], title, tuple(tags), float(price), tuple(palette or ()) or None)


def model_target(op):
    """What a well-formed op writes, or None for a malformed op."""
    if type(op) is not dict:
        return None
    name = op.get("op")
    if name == "add_item" and type(op.get("item")) is dict:
        target = ("item", op["item"].get("id"))
    elif name == "remove_item":
        target = ("item", op.get("id"))
    elif name == "set_item_field" and op.get("field") in SETTABLE and "value" in op:
        target = ("field", op.get("id"), op["field"])
    elif name == "set_profile" and "value" in op:
        target = ("profile", op.get("user"), op.get("key"))
    else:
        return None
    return target if all(type(part) is str for part in target[1:]) else None


def model_apply(rows, profiles, delta):
    """(rows, profiles) after the delta, or None when it must be rejected; rows
    maps each id to its row in catalog order."""
    targets = [model_target(op) for op in delta]
    if None in targets or len(set(targets)) != len(targets):
        return None
    rows, profiles = dict(rows), copy.deepcopy(profiles)
    for op in delta:
        name = op["op"]
        if name == "set_profile":
            profiles.setdefault(op["user"], {})[op["key"]] = op["value"]
            continue
        if name == "add_item":
            row = model_row(op["item"])
            if row is None or row[0] in rows:
                return None
        elif op["id"] not in rows:
            return None
        elif name == "remove_item":
            del rows[op["id"]]
            continue
        else:
            ident, title, tags, price, palette = rows[op["id"]]
            record = {"id": ident, "title": title, "tags": list(tags), "price": price,
                      "palette": list(palette) if palette else None}
            row = model_row(dict(record, **{op["field"]: op["value"]}))
            if row is None:
                return None
        rows[row[0]] = row
    return rows, profiles


def random_delta_op(rng, ids):
    """One op on a catalog holding `ids`; most ops are valid alone, some break a rule."""
    def pick(field):
        return copy.deepcopy(rng.choice(GOOD[field] if rng.random() < 0.9 else BAD[field]))

    def some_id():
        if ids and rng.random() < 0.9:
            return rng.choice(ids)
        return rng.choice([f"n{rng.randrange(1000)}", "", 5, None])

    name = rng.choice(["add_item"] * 3 + ["remove_item"] * 2 + ["set_item_field"] * 4
                      + ["set_profile", "junk"])
    if name == "add_item":
        item = {"id": f"n{rng.randrange(1000)}" if rng.random() < 0.85 else some_id()}
        item.update({field: pick(field) for field in SETTABLE if rng.random() < 0.5})
        op = {"op": name, "item": item if rng.random() < 0.97 else "n0"}
    elif name == "remove_item":
        op = {"op": name, "id": some_id()}
    elif name == "set_item_field":
        field = rng.choice(SETTABLE * 5 + ("id", "colour", 3))
        op = {"op": name, "id": some_id(), "field": field,
              "value": pick(field) if field in SETTABLE else "n0"}
    elif name == "set_profile":
        op = {"op": name, "user": rng.choice(["u1", "u2", 7]), "key": rng.choice(["k1", "k2"]),
              "value": rng.randrange(10)}
    else:
        return rng.choice(["add_item", None, {}, {"op": "drop_item", "id": "i1"},
                           {"op": ["remove_item"], "id": "i1"}])
    if rng.random() < 0.03:
        del op[rng.choice([key for key in op if key != "op"])]
    return op


def test_seeded_delta_fuzz_matches_the_dict_model():
    rng = random.Random(20260)
    env = Environment(catalog=[CatalogItem(f"i{i}", f"item {i}", ("seed",), float(i))
                               for i in range(3)])
    rows = {item.id: (item.id, item.title, item.tags, item.price, item.palette)
            for item in env.catalog}
    accepted = rejected = 0
    for _ in range(1500):
        ids = [item.id for item in env.catalog]
        delta = [random_delta_op(rng, ids) for _ in range(rng.randrange(4))]
        before = (list(env.catalog), copy.deepcopy(env.user_profiles), env.version)
        want = model_apply(rows, env.user_profiles, delta)
        try:
            updated = apply_env_update(env, copy.deepcopy(delta))
        except AgentRecError:
            assert want is None, delta
            rejected += 1
        else:
            assert want is not None, delta
            want_rows, want_profiles = want
            assert [(item.id, item.title, item.tags, item.price, item.palette)
                    for item in updated.catalog] == list(want_rows.values()), delta
            assert all(type(item.price) is float for item in updated.catalog)
            assert updated.user_profiles == want_profiles
            assert updated.version == env.version + 1
            accepted += 1
        after = (env.catalog, env.user_profiles, env.version)
        assert all(a is b for a, b in zip(before[0], after[0])) and before == after, delta
        assert env._by_id == {item.id: item for item in before[0]}, delta
        if want is not None:
            env, rows = updated, want[0]
    assert accepted > 300 and rejected > 300


# episodes -------------------------------------------------------------------------

def chain_runtime(hops=3):
    runtime = MasRuntime(Environment(), SCHEMATA)
    ids = [f"n{i}" for i in range(hops + 1)]
    for agent_id in ids:
        runtime.register_agent(echo_agent(agent_id))
    routing = []
    for a, b in zip(ids, ids[1:]):
        runtime.toggle_channel(a, b, True)
        routing.append((a, b, "query"))
    return runtime, routing


def test_empty_routing_yields_empty_trace():
    runtime = MasRuntime(Environment(), SCHEMATA)
    runtime.register_agent(echo_agent("solo"))
    result = runtime.run_episode([], seed=1)
    assert result.trace == [] and result.error is None


def test_episode_chains_outputs_and_seqs():
    runtime, routing = chain_runtime(3)
    result = runtime.run_episode(routing, seed=1, initial_input="hello world")
    assert result.error is None
    assert [m.seq for m in result.trace] == [0, 1, 2]
    assert [m.payload["text"] for m in result.trace] == ["hello world"] * 3


def test_episode_trace_deterministic_across_runs():
    def run():
        runtime, routing = chain_runtime(3)
        result = runtime.run_episode(routing, seed=5, initial_input="same input")
        return trace_to_jsonl(result.trace)
    assert run() == run()


def test_edge_kind_outside_output_schema_aborts():
    runtime = MasRuntime(Environment(), SCHEMATA)
    runtime.register_agent(echo_agent("src", kinds=("query",)))
    runtime.register_agent(echo_agent("dst"))
    runtime.toggle_channel("src", "dst", True)
    result = runtime.run_episode([("src", "dst", "candidate_list")], seed=1,
                                 initial_input="x")
    assert result.aborted
    assert "SchemaViolation" in result.error
    assert runtime.inboxes["dst"] == []


def test_closed_channel_aborts_with_partial_trace():
    runtime, routing = chain_runtime(3)
    runtime.toggle_channel("n2", "n3", False)
    result = runtime.run_episode(routing, seed=1, initial_input="x")
    assert result.aborted
    assert "ChannelClosed" in result.error
    assert len(result.trace) == 2  # first two hops fired


def test_aborted_episode_keeps_the_exception():
    runtime, routing = chain_runtime(3)
    runtime.toggle_channel("n2", "n3", False)
    result = runtime.run_episode(routing, seed=1, initial_input="x")
    assert isinstance(result.exception, ChannelClosed)
    assert result.error == f"ChannelClosed: {result.exception}"
    assert chain_runtime(1)[0].run_episode([], seed=1).exception is None


def test_unregistered_first_sender_gets_no_inbox():
    runtime = MasRuntime(Environment(), SCHEMATA)
    result = runtime.run_episode([("ghost", "x", "query")], seed=0, initial_input="hi")
    assert result.aborted and result.trace == []
    assert result.error == "UnknownAgent: unregistered sender: 'ghost'"
    assert runtime.inboxes == {}


# message counts -------------------------------------------------------------------

def test_metrics_message_count_additive_across_episodes():
    runtime, routing = chain_runtime(9)
    for _ in range(3):
        result = runtime.run_episode(routing, seed=1, initial_input="x")
        assert result.error is None
    assert runtime.message_count == 27  # 3 episodes of 9 messages


# spawn + multicast --------------------------------------------------------------------

def test_spawn_registers_children_and_multicasts():
    runtime = MasRuntime(Environment(), SCHEMATA + [
        MessageSchema("spawn", ("text",)), MessageSchema("item_set", ("text",))])
    parent_kinds = ("query", "spawn")
    runtime.register_agent(AgentSpec(
        id="parent", core=scripted_core((r".*", "$input")),
        input_schema=frozenset(parent_kinds), output_schema=frozenset(parent_kinds)))
    runtime.register_agent(echo_agent("collector", kinds=("item_set", "spawn")))
    children = [AgentSpec(id=f"child{i}", core=scripted_core((r".*", f"child{i} says $input")),
                          input_schema=frozenset({"spawn"}),
                          output_schema=frozenset({"item_set"}))
                for i in range(3)]
    runtime.declare_spawn("parent", children,
                          [("parent", f"child{i}") for i in range(3)] +
                          [(f"child{i}", "collector") for i in range(3)])
    routing = [
        ("parent", ("child0", "child1", "child2"), "spawn"),
        ("child0", "collector", "item_set"),
        ("child1", "collector", "item_set"),
        ("child2", "collector", "item_set"),
    ]
    result = runtime.run_episode(routing, seed=0, initial_input="go")
    assert result.error is None
    kinds = [m.kind for m in result.trace]
    assert kinds == ["spawn", "item_set", "item_set", "item_set"]
    assert result.trace[0].recipients() == ("child0", "child1", "child2")
    assert runtime.message_count == 4
    texts = [m.payload["text"] for m in result.trace[1:]]
    assert texts == [f"child{i} says go" for i in range(3)]


# growth ---------------------------------------------------------------------------

def container_sizes(obj, path, sizes, seen):
    """Length of every list, dict and set reachable from `obj` through
    containers and agentrec objects, by path; an AgentSpec's memory is skipped."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (list, dict, set)):
        sizes[path] = len(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            container_sizes(value, f"{path}[{key!r}]", sizes, seen)
    elif isinstance(obj, (list, tuple)):
        for index, value in enumerate(obj):
            container_sizes(value, f"{path}[{index}]", sizes, seen)
    elif (type(obj).__module__.startswith("agentrec.") and hasattr(obj, "__dict__")
          and not isinstance(obj, enum.Enum)):
        for name, value in vars(obj).items():
            if not (isinstance(obj, AgentSpec) and name == "memory"):
                container_sizes(value, f"{path}.{name}", sizes, seen)


def runtime_sizes(runtime):
    sizes, seen = {}, set()
    for name, value in vars(runtime).items():
        if name not in ("agents", "env"):
            container_sizes(value, name, sizes, seen)
    for agent_id, agent in runtime.agents.items():
        container_sizes(agent, f"agents[{agent_id!r}]", sizes, seen)
    return sizes


def test_runtime_and_agent_state_do_not_grow_across_episodes():
    config = load_config(SCENARIOS / "party_planner.json")
    env = Environment(catalog=load_catalog(SCENARIOS / config["catalog"]))
    runtime, routing = build_interactive_runtime(config, env)
    for episode in range(1, 31):
        result = runtime.run_episode(routing, seed=config["seed"],
                                     initial_input=config["query"])
        assert result.error is None
        if episode == 10:
            at_ten = runtime_sizes(runtime)
    assert "inboxes['chat']" in at_ten and "matrix._open" in at_ten
    assert any(path.endswith(".tools._tools") for path in at_ten)
    assert runtime_sizes(runtime) == at_ten
    assert runtime.message_count == 30 * len(routing)


# trace persistence -----------------------------------------------------------------

def test_trace_round_trip():
    runtime, routing = chain_runtime(3)
    result = runtime.run_episode(routing, seed=1, initial_input="payload text")
    text = trace_to_jsonl(result.trace)
    messages = trace_from_jsonl(text)
    assert messages == result.trace
    assert trace_to_jsonl(messages) == text
