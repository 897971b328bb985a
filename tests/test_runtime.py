"""MAS runtime: matrix-gated delivery, env versioning, episodes, message counts."""

import copy
import enum
import json
import math
import random
from pathlib import Path

import pytest

from agentrec.agents import AgentSpec, LanguageCore, Tool
from agentrec.blueprints import build_interactive_runtime
from agentrec.cli import load_catalog, load_config
from agentrec.errors import (
    AgentRecError,
    ChannelClosed,
    ConflictingDelta,
    InvalidArgument,
    SchemaViolation,
    SelfChannel,
    ToolFailure,
    UnknownAgent,
    UnknownItem,
)
from agentrec.memory import (
    EMBED_DIM,
    MemoryStore,
    QueryVector,
    SparseVector,
    cosine,
    embed_text,
    prepare_query,
    relevance,
)
from agentrec.pipelines import Transcript, recommend_interactive
from agentrec.runtime import (
    CatalogIndex,
    CatalogItem,
    Environment,
    MasRuntime,
    Message,
    TRACE_SEQ,
    apply_env_update,
    catalog_item,
    json_scalar,
    trace_line,
    trace_template,
    trace_to_jsonl,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

def echo_agent(agent_id, kinds=("candidate_list", "compliance_report", "query")):
    return AgentSpec(id=agent_id, core=LanguageCore([(r".*", "$input")]),
                     input_schema=frozenset(kinds), output_schema=frozenset(kinds))


def two_agent_runtime():
    runtime = MasRuntime(Environment())
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


def test_multicast_naming_a_recipient_twice_rejected_before_taking_a_seq():
    runtime = two_agent_runtime()
    with pytest.raises(InvalidArgument, match="names a recipient twice"):
        runtime.send_message(Message(
            sender="rec", recipient=("eval", "eval"), kind="query", payload={"text": "x"}))
    assert runtime.message_count == 0
    assert inbox_sizes(runtime) == {"rec": 0, "eval": 0}


@pytest.mark.parametrize("payload", [5, None, {"wrong": "x"}, {"text": 5}, {"text": None}])
def test_payload_without_string_text_rejected_before_taking_a_seq(payload):
    runtime = two_agent_runtime()
    with pytest.raises(InvalidArgument, match="payload text must be a string"):
        runtime.send_message(Message(sender="rec", recipient="eval", kind="query",
                                     payload=payload))
    assert runtime.message_count == 0
    assert inbox_sizes(runtime) == {"rec": 0, "eval": 0}
    extra = Message(sender="rec", recipient="eval", kind="query",
                    payload={"text": "x", "extra": 2})
    runtime.send_message(extra)  # no shape beyond the text the consumer reads
    assert extra.seq == 0
    assert runtime.run_episode([("eval", "rec", "query")], seed=0).error is None


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


def test_an_id_is_unknown_to_the_matrix_until_registered():
    runtime = two_agent_runtime()
    assert "late" not in runtime.agents and "late" not in runtime.inboxes
    with pytest.raises(UnknownAgent):
        runtime.toggle_channel("rec", "late", True)
    runtime.register_agent(echo_agent("late"))
    runtime.toggle_channel("rec", "late", True)
    runtime.send_message(Message(sender="rec", recipient="late", kind="query",
                                 payload={"text": "x"}))
    assert len(runtime.inboxes["late"]) == 1


def test_closed_channel_never_delivers():
    runtime = MasRuntime(Environment())
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
    runtime = MasRuntime(Environment())
    for agent_id in ids:
        runtime.register_agent(echo_agent(agent_id))
    for sender in ids:
        for recipient in ids:
            if sender != recipient and rng.random() < 0.5:
                runtime.toggle_channel(sender, recipient, True)
    for _ in range(2000):
        sender, recipient = rng.choice(ids), rng.choice(ids)
        allowed = runtime.allows(sender, recipient)
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


def test_undeclared_kind_is_delivered_then_refused_by_its_consumer():
    runtime = two_agent_runtime()
    runtime.register_agent(echo_agent("narrow", kinds=("query",)))
    runtime.toggle_channel("rec", "narrow", True)
    runtime.toggle_channel("narrow", "rec", True)
    gossip = Message(sender="rec", recipient="narrow", kind="gossip", payload={"text": "g"})
    runtime.send_message(gossip)
    assert gossip.seq == 0 and runtime.inboxes["narrow"] == [gossip]
    result = runtime.run_episode([("narrow", "rec", "query")], seed=0, initial_input="hi")
    assert isinstance(result.exception, SchemaViolation) and result.trace == []
    assert result.error == "SchemaViolation: agent 'narrow' does not accept kind 'gossip'"
    assert runtime.inboxes["narrow"] == []


def test_first_input_is_the_consumed_texts_then_the_initial_input():
    runtime = two_agent_runtime()
    for text in ("a", "b"):
        runtime.send_message(Message(sender="eval", recipient="rec", kind="query",
                                     payload={"text": text}))
    result = runtime.run_episode([("rec", "eval", "query"), ("eval", "rec", "query")],
                                 seed=0, initial_input="start")
    assert result.error is None
    assert [m.payload["text"] for m in result.trace] == ["a\nb\nstart"] * 2
    assert [m.seq for m in result.trace] == [2, 3]


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


def matrix_of(*ids):
    """A runtime with an echo agent for each id and every channel closed."""
    runtime = MasRuntime(Environment())
    for agent_id in ids:
        runtime.register_agent(echo_agent(agent_id))
    return runtime


def test_toggle_is_idempotent():
    runtime = matrix_of("x", "y")
    runtime.toggle_channel("x", "y", True)
    runtime.toggle_channel("x", "y", True)
    assert runtime.allows("x", "y") is True
    runtime.toggle_channel("x", "y", False)
    runtime.toggle_channel("x", "y", False)
    assert runtime.allows("x", "y") is False


def test_self_channel_rejected():
    runtime = matrix_of("x", "y")
    with pytest.raises(SelfChannel):
        runtime.toggle_channel("x", "x", True)


def test_matrix_diagonal_starts_closed():
    runtime = matrix_of("x", "y", "z")
    for agent_id in ("x", "y", "z"):
        assert runtime.allows(agent_id, agent_id) is False


def test_matrix_rejects_duplicate_and_unregistered_ids():
    with pytest.raises(InvalidArgument):
        matrix_of("x", "y", "x")
    runtime = matrix_of("x", "y")
    for sender, recipient in (("x", "ghost"), ("ghost", "y")):
        with pytest.raises(UnknownAgent):
            runtime.allows(sender, recipient)
        with pytest.raises(UnknownAgent):
            runtime.toggle_channel(sender, recipient, True)
    runtime.register_agent(echo_agent("z"))
    runtime.toggle_channel("z", "x", True)
    assert runtime.allows("z", "x") and not runtime.allows("x", "z")


# environment updates --------------------------------------------------------------

def sample_env():
    return Environment(catalog=[
        CatalogItem(id="i1", title="one", tags=("a",), price=1.0),
        CatalogItem(id="i2", title="two", tags=("b",), price=2.0),
    ])


def ids(env):
    return [item.id for item in env.catalog]


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
    assert "i3" in ids(updated)
    assert "i3" not in ids(env)


def test_hundred_deltas_count_versions():
    env = sample_env()
    for i in range(100):
        env = apply_env_update(env, [
            {"op": "set_item_field", "id": "i1", "field": "price", "value": i}])
    assert env.version == 100
    assert env.item_by_id("i1").price == 99.0


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
    assert "i2" not in ids(updated)
    assert updated.item_by_id("i1").tags == ("a", "x")


def test_catalog_ids_must_be_unique_and_lookup_misses_raise():
    with pytest.raises(ValueError):
        Environment(catalog=[CatalogItem(id="i1", title="one", tags=(), price=1.0),
                             CatalogItem(id="i1", title="uno", tags=(), price=2.0)])
    env = sample_env()
    assert env.item_by_id("i2").title == "two"
    assert "i9" not in ids(env)
    with pytest.raises(UnknownItem):
        env.item_by_id("i9")


def test_a_repeated_id_names_the_id_and_both_records():
    one, two, again = (CatalogItem(id=item_id, title=title, tags=(), price=1.0)
                       for item_id, title in (("i1", "one"), ("i2", "two"), ("i2", "deux")))
    with pytest.raises(InvalidArgument) as caught:
        Environment(catalog=[one, two, again])
    assert str(caught.value) == "record 2: id: must be unique, but 'i2' is record 1's id too"
    with pytest.raises(InvalidArgument) as caught:  # the same item twice repeats its id
        Environment(catalog=[one, one])
    assert str(caught.value) == "record 1: id: must be unique, but 'i1' is record 0's id too"


def test_environment_keeps_its_own_table_of_the_items_given():
    items = list(sample_env().catalog)
    first, second = items
    env = Environment(catalog=items)
    items.append(CatalogItem(id="i3", title="three", tags=(), price=3.0))
    items[0] = CatalogItem(id="i1", title="renamed", tags=(), price=1.0)
    del items[1]
    assert list(env.catalog) == [first, second] and len(env) == 2
    assert env.item_by_id("i1") is first and env.item_by_id("i2") is second
    with pytest.raises(UnknownItem):
        env.item_by_id("i3")


def test_environment_catalog_is_read_only():
    env = sample_env()
    with pytest.raises(AttributeError):
        env.catalog.append(CatalogItem(id="i3", title="three", tags=(), price=3.0))
    with pytest.raises(AttributeError):
        env.catalog = []
    assert ids(env) == ["i1", "i2"] and env.catalog is env.catalog  # built once, then kept


def test_item_embedding_lives_with_the_item_across_versions():
    env = Environment(catalog=[
        CatalogItem(id="cake", title="chocolate cake", tags=("cake",), price=1.0),
        CatalogItem(id="lamp", title="woven lamp", tags=("decor",), price=2.0),
        CatalogItem(id="rug", title="red rug", tags=("decor",), price=3.0),
    ])
    transcript = Transcript(turns=[("user", "mickey banner")])
    recommend_interactive(transcript, env, MemoryStore(), top_l=3)  # embeds every item
    kept = env.item_by_id("rug").sparse
    assert env.item_by_id("rug").embedding == embed_text("red rug decor")

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

    # untouched items keep their sparse vector object; a price edit is a new item
    moved = apply_env_update(updated, [{"op": "remove_item", "id": "rug"}])
    assert moved.item_by_id("cake").sparse is updated.item_by_id("cake").sparse
    assert updated.item_by_id("rug").sparse is not kept


def test_item_embedding_is_not_part_of_equality_hash_or_repr():
    embedded = CatalogItem(id="i1", title="one", tags=("a",), price=1.0)
    embedded.embedding
    fresh = CatalogItem(id="i1", title="one", tags=("a",), price=1.0)
    assert embedded == fresh
    assert hash(embedded) == hash(fresh)
    assert repr(embedded) == repr(fresh)
    assert "embedding" not in repr(embedded)


def test_catalog_item_caches_only_its_sparse_vector():
    item = CatalogItem(id="i1", title="red rug", tags=("decor",), price=1.0)
    assert item.embedding == embed_text("red rug decor")
    assert item.embedding is not item.embedding  # rebuilt on each read, never kept
    assert set(vars(item)) == {"id", "title", "tags", "price", "palette", "sparse"}


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
    {"op": "rename_item", "id": "i1"},
    {"id": "i1"},
    ["remove_item", "i1"],
], ids=["add-tags-text", "set-tags-text", "add-title-int", "set-title-int", "add-price-text",
        "set-price-text", "set-unknown-field", "set-id", "set-no-value", "remove-no-id",
        "remove-list-id", "add-no-id", "add-text-item", "add-no-item", "unknown-op", "no-op", "op-not-object"])
def test_malformed_delta_op_is_invalid_argument_naming_its_index(op):
    env = sample_env()
    with pytest.raises(InvalidArgument, match="^delta op 1: "):
        apply_env_update(env, [{"op": "set_item_field", "id": "i2", "field": "title",
                                "value": "renamed"}, op])
    assert env.catalog == sample_env().catalog


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
    else:
        return None
    return target if all(type(part) is str for part in target[1:]) else None


def model_apply(rows, delta):
    """The rows after the delta, or None when it must be rejected; rows maps
    each id to its row in catalog order."""
    targets = [model_target(op) for op in delta]
    if None in targets or len(set(targets)) != len(targets):
        return None
    rows = dict(rows)
    for op in delta:
        name = op["op"]
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
    return rows


def random_delta_op(rng, ids):
    """One op on a catalog holding `ids`; most ops are valid alone, some break a rule."""
    def pick(field):
        return copy.deepcopy(rng.choice(GOOD[field] if rng.random() < 0.9 else BAD[field]))

    def some_id():
        if ids and rng.random() < 0.9:
            return rng.choice(ids)
        return rng.choice([f"n{rng.randrange(1000)}", "", 5, None])

    name = rng.choice(["add_item"] * 3 + ["remove_item"] * 2 + ["set_item_field"] * 4
                      + ["junk"])
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
        before = (list(env.catalog), env.version)
        want = model_apply(rows, delta)
        try:
            updated = apply_env_update(env, copy.deepcopy(delta))
        except AgentRecError:
            assert want is None, delta
            rejected += 1
        else:
            assert want is not None, delta
            assert [(item.id, item.title, item.tags, item.price, item.palette)
                    for item in updated.catalog] == list(want.values()), delta
            assert all(type(item.price) is float for item in updated.catalog)
            assert updated.version == env.version + 1
            accepted += 1
        after = (list(env.catalog), env.version)
        assert all(a is b for a, b in zip(before[0], after[0])) and before == after, delta
        assert len(env) == len(before[0]), delta
        assert all(env.item_by_id(item.id) is item for item in before[0]), delta
        if want is not None:
            env, rows = updated, want
    assert accepted > 300 and rejected > 300


# catalog index: built lazily, handed on to the next version -------------------------

INDEX_WORDS = ["red", "rug", "lamp", "oak", "cake", "mickey", "--", ""]


def index_record(rng, ident):
    return {"id": ident, "title": " ".join(rng.choices(INDEX_WORDS, k=rng.randint(0, 3))),
            "tags": rng.sample(["cake", "decor", "red", "eco", "!!"], k=rng.randint(0, 3))
            + rng.choice([[], ["cake"]]),  # sometimes a repeated tag
            "price": float(rng.randint(1, 40)),
            "palette": rng.choice([None, [0.5, 0.5], [1.0]])}


def index_delta(rng, env):
    """1-3 valid ops; several may touch one item (two field edits, an edit then
    a removal, or an add then an edit: the one touched id the parent lacks)."""
    ids, added = [item.id for item in env.catalog], []
    delta, fields = [], {}
    for n in range(rng.randint(1, 3)):
        kind = rng.choice(["add", "remove", "edit", "edit", "edit"])
        if kind == "add" or not ids + added:
            added.append(f"v{env.version}-{n}")
            delta.append({"op": "add_item", "item": index_record(rng, added[-1])})
            continue
        if kind == "remove" and ids:
            item_id = rng.choice(ids)
            delta.append({"op": "remove_item", "id": item_id})
            ids.remove(item_id)
            continue
        item_id = rng.choice(ids + added * 6)  # an added id often enough to matter
        field = rng.choice([f for f in ("title", "tags", "price", "palette")
                            if f not in fields.get(item_id, ())])
        fields.setdefault(item_id, set()).add(field)
        delta.append({"op": "set_item_field", "id": item_id, "field": field,
                      "value": index_record(rng, item_id)[field]})
    return delta


def index_state(index):
    return copy.deepcopy(tuple(getattr(index, slot) for slot in CatalogIndex.__slots__
                               if slot not in ("_last_dots", "_results")))


def postings_by_id(index):
    """Per bucket, component -> the set of ids whose item has it there: the value
    groups with positions read as ids. A group holds no position twice."""
    for groups in index._postings:
        for group in groups.values():
            assert len(group) == len(set(group))
    return [{value: {index._slots[p].id for p in group} for value, group in groups.items()}
            for groups in index._postings]


def tags_by_id(index):
    """Tag -> the set of ids whose item carries it: the tag sets read as ids."""
    return {tag: {index._slots[p].id for p in tagged} for tag, tagged in index._tags.items()}


def indexed_items(index):
    """Id -> item, as the index's slots hold them."""
    return {item.id: item for item in index._slots if item is not None}


def rankings(env, queries):
    out = []
    for query in queries:
        try:
            out.append(recommend_interactive(Transcript([("user", query)]), env,
                                             MemoryStore(), top_l=4).entries)
        except AgentRecError as exc:
            out.append(type(exc).__name__)
    return out


def assert_equals_fresh_build(index):
    """``index`` says what a fresh build of its items says, by id, and its
    positions agree with each other."""
    fresh = CatalogIndex(indexed_items(index))
    assert (postings_by_id(index), tags_by_id(index)) == (postings_by_id(fresh), tags_by_id(fresh))
    # the price order holds each item's price and position once, in order
    assert list(zip(index._prices, index._by_price)) == sorted(
        (item.price, p) for p, item in enumerate(index._slots) if item is not None)
    assert index._pos == {item.id: p for p, item in enumerate(index._slots) if item is not None}
    assert sorted(index._free) == [p for p, item in enumerate(index._slots) if item is None]
    # the norm range only widens: it spans every nonzero norm the index has held
    assert index._norm_lo <= fresh._norm_lo and index._norm_hi >= fresh._norm_hi


QUERIES = ["red rug", "oak lamp cake", "require = eco; red", "guests ban decor; mickey"]


def test_catalog_index_patched_per_delta_equals_fresh_build():
    # each update takes the parent's index and patches it in place; the parent
    # builds a new one when it is ranked again, and ranks as before
    rng = random.Random(1301)
    env = Environment(catalog=[catalog_item(index_record(rng, f"i{i}")) for i in range(12)])
    edited_adds = 0
    for _ in range(250):
        parent, parent_index = env, env.catalog_index()
        ranked_before = rankings(parent, QUERIES)
        delta = index_delta(rng, parent)
        edited_adds += any(op["op"] == "set_item_field" and op["id"] not in ids(parent)
                           for op in delta)
        env = apply_env_update(parent, delta)
        assert env._index is parent_index and parent._index is None
        assert indexed_items(env._index) == {item.id: item for item in env.catalog}
        assert_equals_fresh_build(env._index)
        assert rankings(parent, QUERIES) == ranked_before
        assert parent._index is not parent_index
        assert rankings(env, QUERIES) == rankings(Environment(catalog=list(env.catalog)), QUERIES)
    assert edited_adds >= 10, edited_adds  # deltas that edit an item they added


def test_catalog_index_add_before_a_remove_takes_the_freed_position():
    # every old item leaves before any is added, whatever the op order
    env = Environment(catalog=[catalog_item({"id": i, "title": f"red {i}"}) for i in "abc"])
    index = env.catalog_index()
    env = apply_env_update(env, [
        {"op": "add_item", "item": {"id": "d", "title": "oak lamp", "tags": ["eco"]}},
        {"op": "set_item_field", "id": "d", "field": "price", "value": 5},
        {"op": "remove_item", "id": "b"}])
    assert env._index is index and [item.id for item in index._slots] == ["a", "d", "c"]
    assert index._slots[1].price == 5.0
    assert [index._slots[p].id for p in index._by_price] == ["a", "c", "d"]
    assert_equals_fresh_build(index)


def test_catalog_index_takes_a_freed_position_without_comparing_items(monkeypatch):
    # freed positions come from a min-heap, so finding the lowest one compares
    # no slot (a scan for None would call CatalogItem.__eq__ on each slot before it)
    env = Environment(catalog=[catalog_item({"id": i, "title": f"red {i}"}) for i in "abcd"])
    index = env.catalog_index()

    def no_compare(self, other):
        raise AssertionError("a catalog item was compared")

    monkeypatch.setattr(CatalogItem, "__eq__", no_compare)
    env = apply_env_update(env, [{"op": "remove_item", "id": "c"},
                                 {"op": "remove_item", "id": "b"}])
    env = apply_env_update(env, [{"op": "add_item", "item": {"id": "e", "title": "oak"}}])
    monkeypatch.undo()
    assert env._index is index
    assert [item and item.id for item in index._slots] == ["a", "e", None, "d"]
    assert_equals_fresh_build(index)


def test_catalog_index_stays_with_a_parent_whose_delta_raises():
    rng = random.Random(1304)
    env = Environment(catalog=[catalog_item(index_record(rng, f"i{i}")) for i in range(6)])
    index = env.catalog_index()
    state, ranked = index_state(index), rankings(env, QUERIES)
    add = {"op": "add_item", "item": index_record(rng, "new")}
    for delta in ([add, {"op": "remove_item", "id": "missing"}],
                  [{"op": "remove_item", "id": "i0"}, {"op": "add_item", "item": {"id": "i1"}}],
                  [add, {"op": "set_item_field", "id": "i2", "field": "tags", "value": [3]}],
                  [{"op": "remove_item", "id": "i3"}, {"op": "remove_item", "id": "i3"}],
                  [add, {"op": "set_item_field", "id": "i4", "field": "title"}]):
        with pytest.raises(AgentRecError):
            apply_env_update(env, delta)
        assert env._index is index and index_state(index) == state
        assert rankings(env, QUERIES) == ranked


def test_catalog_index_edits_and_removes_an_item_that_repeats_a_tag():
    # catalog_item keeps a repeated tag: the tag set loses the id once, and goes
    # when it is empty
    env = Environment(catalog=[catalog_item({"id": "a", "title": "red rug",
                                             "tags": ["cake", "cake", "decor"]}),
                               catalog_item({"id": "b", "title": "oak", "tags": ["decor"]})])
    index = env.catalog_index()
    for op, tags in (
            ({"op": "set_item_field", "id": "a", "field": "tags", "value": ["eco", "eco"]},
             {"decor": {"b"}, "eco": {"a"}}),
            ({"op": "set_item_field", "id": "a", "field": "title", "value": "lamp"},
             {"decor": {"b"}, "eco": {"a"}}),
            ({"op": "remove_item", "id": "a"}, {"decor": {"b"}})):
        env = apply_env_update(env, [op])
        assert env._index is index and tags_by_id(index) == tags
        assert_equals_fresh_build(index)


def test_catalog_index_is_built_on_first_use_only():
    env = Environment(catalog=[CatalogItem("a", "red rug", ("decor",), 1.0)])
    updated = apply_env_update(env, [{"op": "set_item_field", "id": "a", "field": "price",
                                      "value": 2}])
    assert env._index is None and updated._index is None
    index = updated.catalog_index()
    assert updated.catalog_index() is index and env._index is None
    assert tags_by_id(index) == {"decor": {"a"}}


def test_catalog_index_result_memo_keeps_its_most_recently_used_results():
    from agentrec.runtime import _RESULT_MEMO_SIZE
    assert _RESULT_MEMO_SIZE == 2048
    index = Environment(catalog=[CatalogItem("a", "red rug", ("decor",), 1.0)]).catalog_index()
    for key in range(_RESULT_MEMO_SIZE):
        assert index.result(key, lambda key=key: -key) == -key
    assert index.result(0, lambda: "computed again") == 0  # key 1 is now the least recent
    assert index.result(_RESULT_MEMO_SIZE, lambda: "new") == "new"
    assert len(index._results) == _RESULT_MEMO_SIZE
    assert 1 not in index._results and 0 in index._results and 2 in index._results
    assert index.result(1, lambda: "computed again") == "computed again"


def relevance_sorted(items, ids, query, l):
    """The best ``l`` of ``ids`` by a full sort on ``memory.relevance``, higher
    score first, then smaller id, as (hex score, id) pairs."""
    scored = sorted((-relevance(query, items[item_id].sparse), item_id) for item_id in ids)
    return [(float.hex(-score), item_id) for score, item_id in scored[:l]]


def hex_ranked(ranked):
    return [(float.hex(score), item.id) for score, item in ranked]


FUZZ_WORDS = ["red", "rug", "lamp", "oak", "cake", "--"]


def fuzz_item(rng, ident, title=None):
    """An item titled ``title``, or one to three words (often another's text,
    sometimes no token), tagged with its id so that ``admitted`` can forbid
    it. Its cached sparse vector is its title's alone, often rescaled, by a
    power of two or not: the same direction, a norm ``scale`` times as
    large, and rounded values."""
    title = title or " ".join(rng.choices(FUZZ_WORDS, k=rng.randint(1, 3)))
    item = CatalogItem(ident, title, (ident,), 1.0)
    scale = rng.choice([1.0, 1.0, 2.0 ** rng.randint(-6, 6), 10.0 ** rng.uniform(-3.0, 3.0)])
    item.__dict__["sparse"] = SparseVector([value * scale for value in embed_text(title)])
    return item


def fuzz_query(rng, items, title):
    kind = rng.choice(["title", "title", "title"] * bool(title)
                      + ["text", "item", "item", "dense", "scaled"])
    if kind == "title":
        return prepare_query(title)
    if kind == "text":
        return prepare_query(" ".join(rng.choices(FUZZ_WORDS, k=rng.randint(1, 4))))
    if kind == "item":  # an item's own vector: its relevance is exactly 1.0
        return QueryVector(rng.choice(list(items.values())).sparse.to_dense())
    dense = [0.0] * EMBED_DIM
    for bucket in rng.sample(range(EMBED_DIM), k=rng.randint(1, 12)):
        dense[bucket] = rng.uniform(-1.0, 1.0)
    if kind == "scaled":
        dense = [value * 10.0 ** rng.uniform(-30.0, 30.0) for value in dense]
    return QueryVector(dense)


def test_catalog_index_rank_fuzz_equals_a_full_sort_by_relevance():
    # the cut scores only the items whose dot can reach the l-th best; rescaled
    # items (norms from 1e-3 to 1e3, same directions) make the norm ratio
    # matter, and a catalog of one text at many scales puts the dots of the
    # items that tie the l-th best score within rounding of the cut, where the
    # slack decides; patched versions keep a norm range wider than their
    # own items'
    rng = random.Random(3434)
    seen = set()
    for trial in range(90):
        title = None if trial % 3 else " ".join(rng.choices(FUZZ_WORDS[:-1], k=rng.randint(1, 2)))
        items = {f"i{n:02d}": fuzz_item(rng, f"i{n:02d}", title)
                 for n in range(rng.randint(2, 4) if title else rng.randint(2, 24))}
        index = CatalogIndex(dict(items))
        for version in range(8):
            if version:  # patch: remove, add and retitle a few items
                before, items = items, dict(items)
                touched = set(rng.sample(sorted(items), k=min(len(items) - 1, rng.randint(0, 3))))
                for item_id in touched:
                    if rng.random() < 0.5:
                        del items[item_id]
                    else:
                        items[item_id] = fuzz_item(rng, item_id, title)
                        if items[item_id].title == before[item_id].title:  # the index keeps it
                            items[item_id].__dict__["sparse"] = before[item_id].sparse
                for n in range(rng.randint(0, 3)):
                    touched.add(f"v{version}-{n}")
                    items[f"v{version}-{n}"] = fuzz_item(rng, f"v{version}-{n}", title)
                index.patch(items, before, touched)
                seen.add("patched")
            for _ in range(6):
                query = fuzz_query(rng, items, title)
                ids = set(rng.sample(sorted(items), k=rng.randint(1, len(items))))
                admitted = index.admitted((), sorted(items.keys() - ids), None)
                assert {index._slots[p].id for p in admitted} == ids
                l = rng.randint(1, len(ids) + 1)
                want = relevance_sorted(items, ids, query, l)
                assert hex_ranked(index.rank(admitted, query, l)) == want
                scores = [score for score, _ in want]
                seen.update(
                    kind for kind, hit in (
                        ("tie", any(a == b != "0x0.0p+0" for a, b in zip(scores, scores[1:]))),
                        ("exact", "0x1.0000000000000p+0" in scores),
                        ("zero-fill past l", sum(relevance(query, items[item_id].sparse) == 0.0
                                                 for item_id in ids) > l),
                        ("norm ratio", index._norm_lo < 0.01 * index._norm_hi)) if hit)
    assert seen == {"patched", "tie", "exact", "zero-fill past l", "norm ratio"}


def test_catalog_index_rank_scores_an_underflowed_query_norm_zero():
    # the query's squares underflow, so its norm is 0.0 while its dots with the
    # items are positive: relevance scores every item 0.0, and so does rank
    words = ["red", "rug", "blue", "oak", "lamp", "cake", "mickey", "sofa", "chair", "vase",
             "mug", "wood"]
    index = CatalogIndex({f"i{n:02d}": CatalogItem(f"i{n:02d}", word, (), 1.0)
                          for n, word in enumerate(words)})
    query = QueryVector((1e-170,) * EMBED_DIM)
    assert query.norm == 0.0 and max(index._dots(query)) > 0.0
    assert hex_ranked(index.rank(index.admitted((), (), None), query, 2)) == [
        ("0x0.0p+0", "i00"), ("0x0.0p+0", "i01")]


def test_catalog_index_rank_takes_no_cut_when_the_query_norm_is_inexact():
    # the query is "cake blue blue" scaled to where its squares are a few
    # subnormal ulps: its norm comes out a quarter low, both cosines pass 1.0 and
    # clamp to it, and the smaller id wins the tie, though its dot is the
    # smaller one
    items = {"i00": CatalogItem("i00", "blue", (), 1.0),
             "i01": CatalogItem("i01", "cake blue blue", (), 1.0)}
    index = CatalogIndex(items)
    query = QueryVector([value * 3e-162 for value in embed_text("cake blue blue")])
    dots = index._dots(query)
    assert dots[index._pos["i00"]] < dots[index._pos["i01"]]
    want = relevance_sorted(items, {"i00", "i01"}, query, 1)
    assert want == [("0x1.0000000000000p+0", "i00")]
    assert hex_ranked(index.rank(index.admitted((), (), None), query, 1)) == want


def test_catalog_index_rank_scores_a_nan_cosine_zero():
    # the query's squares overflow, so its norm is inf, and three items' dots
    # with it overflow to +inf: inf / inf is a NaN cosine, which scores 0.0 as
    # an underflowed norm product does, so rank's zero fill is the full sort
    items = {f"x{n:02d}": CatalogItem(f"x{n:02d}", title, (), 1.0) for n, title in
             enumerate(["red rug mug", "red rug sofa", "rug blue chair", "rug oak vase"])}
    index = CatalogIndex(items)
    query = QueryVector([(-1.0) ** bucket * 1.7e308 for bucket in range(EMBED_DIM)])
    dots = index._dots(query)
    assert query.norm == math.inf
    assert [dots[index._pos[item_id]] for item_id in ("x00", "x02", "x03")] == [math.inf] * 3
    assert [relevance(query, item.sparse) for item in items.values()] == [0.0] * 4
    want = relevance_sorted(items, set(items), query, 3)
    assert want == [("0x0.0p+0", "x00"), ("0x0.0p+0", "x01"), ("0x0.0p+0", "x02")]
    assert hex_ranked(index.rank(index.admitted((), (), None), query, 3)) == want


# episodes -------------------------------------------------------------------------

def chain_runtime(hops=3):
    runtime = MasRuntime(Environment())
    ids = [f"n{i}" for i in range(hops + 1)]
    for agent_id in ids:
        runtime.register_agent(echo_agent(agent_id))
    routing = []
    for a, b in zip(ids, ids[1:]):
        runtime.toggle_channel(a, b, True)
        routing.append((a, b, "query"))
    return runtime, routing


def test_empty_routing_yields_empty_trace():
    runtime = MasRuntime(Environment())
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
    runtime = MasRuntime(Environment())
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


def test_tool_result_that_is_not_a_string_aborts_with_partial_trace():
    runtime = MasRuntime(Environment())
    runtime.register_agent(echo_agent("a", kinds=("query",)))
    runtime.register_agent(AgentSpec(
        id="b", core=LanguageCore([(r".*", 'CALL(T, "$input")')]),
        tools={"T": Tool("T", lambda args: 5)},
        input_schema=frozenset({"query"}), output_schema=frozenset({"query"})))
    runtime.toggle_channel("a", "b", True)
    runtime.toggle_channel("b", "a", True)
    result = runtime.run_episode([("a", "b", "query"), ("b", "a", "query")], seed=0,
                                 initial_input="hi")
    assert isinstance(result.exception, ToolFailure)
    assert result.error == "ToolFailure: T: result must be a string, not int"
    assert [(m.sender, m.recipient) for m in result.trace] == [("a", "b")]


def test_unregistered_first_sender_gets_no_inbox():
    runtime = MasRuntime(Environment())
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
    runtime = MasRuntime(Environment())
    parent_kinds = ("query", "spawn")
    runtime.register_agent(AgentSpec(
        id="parent", core=LanguageCore([(r".*", "$input")]),
        input_schema=frozenset(parent_kinds), output_schema=frozenset(parent_kinds)))
    runtime.register_agent(echo_agent("collector", kinds=("item_set", "spawn")))
    children = [AgentSpec(id=f"child{i}",
                          core=LanguageCore([(r".*", f"child{i} says $input")]),
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


def test_spawn_of_a_child_whose_id_is_taken_aborts_and_a_respawn_registers_nothing():
    runtime = MasRuntime(Environment())
    runtime.register_agent(echo_agent("a", kinds=("query", "spawn")))
    old_b = AgentSpec(id="b", core=LanguageCore([(r".*", "B-top")]),
                      input_schema=frozenset({"spawn"}), output_schema=frozenset({"query"}))
    runtime.register_agent(old_b)
    child_b = AgentSpec(id="b", core=LanguageCore([(r".*", "child")]),
                        input_schema=frozenset({"spawn"}), output_schema=frozenset({"query"}))
    runtime.declare_spawn("a", [child_b], [("a", "b"), ("b", "a")])
    result = runtime.run_episode([("a", "b", "spawn"), ("b", "a", "query")], seed=0)
    assert isinstance(result.exception, InvalidArgument), result.error
    assert result.error == "InvalidArgument: duplicate agent id: 'b'"
    assert result.trace == [] and runtime.agents["b"] is old_b

    runtime = MasRuntime(Environment())
    runtime.register_agent(echo_agent("a", kinds=("query", "spawn")))
    runtime.declare_spawn("a", [child_b], [("a", "b"), ("b", "a")])
    for _ in range(3):  # each episode spawns again
        result = runtime.run_episode([("a", "b", "spawn"), ("b", "a", "query")], seed=0)
        assert result.error is None and result.trace[-1].payload["text"] == "child"
    assert runtime.agents == {"a": runtime.agents["a"], "b": child_b}


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
    assert "inboxes['chat']" in at_ten and "channels" in at_ten
    assert any(path.endswith(".tools") for path in at_ten)
    assert runtime_sizes(runtime) == at_ten
    assert runtime.message_count == 30 * len(routing)


# trace persistence -----------------------------------------------------------------

def test_trace_round_trip():
    runtime, routing = chain_runtime(3)
    result = runtime.run_episode(routing, seed=1, initial_input="payload text")
    text = trace_to_jsonl(result.trace)
    records = [json.loads(line) for line in text.splitlines()]
    assert records == [{"seq": m.seq, "from": m.sender, "to": m.recipient, "kind": m.kind,
                        "payload": m.payload, "env_version": m.env_version}
                       for m in result.trace]
    assert "".join(json.dumps(record, sort_keys=True) + "\n" for record in records) == text


class OddText(str):
    """A str subclass: the encoder writes it as the plain string."""


# quotes, backslashes, control characters, DEL, non-ASCII, a line separator,
# an astral character, a lone surrogate and JSON's own punctuation
TRACE_PIECES = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u00e9", "\u2028",
                "\U0001f389", "\ud800", "a", "Z", "0", " ", "{", "}", "[", ",", ":",
                ', "seq": ', '"to"']
TRACE_NUMBERS = [0, 1, -3, 2**70, True, False, None, 0.0, -0.0, 0.1, 1e300, 5e-324,
                 float("nan"), float("inf"), float("-inf")]


def odd_trace_text(rng):
    text = "".join(rng.choice(TRACE_PIECES) for _ in range(rng.randrange(0, 7)))
    return OddText(text) if rng.random() < 0.1 else text


def odd_payload(rng, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        return {odd_trace_text(rng): odd_payload(rng, depth + 1)
                for _ in range(rng.randrange(0, 4))}
    if depth < 2 and roll < 0.45:
        return [odd_payload(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    if roll < 0.75:
        return odd_trace_text(rng)
    return rng.choice(TRACE_NUMBERS)


def odd_message(rng):
    sender = odd_trace_text(rng)
    if rng.random() < 0.3:  # a multicast
        recipient = tuple(odd_trace_text(rng) for _ in range(rng.randrange(1, 4)))
    else:
        recipient = odd_trace_text(rng)
    kind = odd_trace_text(rng)
    seq = rng.choice([rng.randrange(0, 10**6), 2**70, 0])
    env_version = rng.choice([0, rng.randrange(0, 10**4), 2**64])
    return Message(sender, recipient, kind, odd_payload(rng), seq=seq, env_version=env_version)


def trace_record(m):
    recipient = list(m.recipient) if isinstance(m.recipient, tuple) else m.recipient
    return {"env_version": m.env_version, "from": m.sender, "kind": m.kind,
            "payload": m.payload, "seq": m.seq, "to": recipient}


@pytest.mark.parametrize("seed", range(4))
def test_trace_template_layout_fuzz(seed):
    rng = random.Random(seed)
    messages = [odd_message(rng) for _ in range(300)]
    assert any(type(m.recipient) is tuple for m in messages)
    assert any(type(m.sender) is OddText for m in messages)
    expected = [json.dumps(trace_record(m), sort_keys=True) for m in messages]
    for m, line in zip(messages, expected):
        payload_json = json.dumps(m.payload, sort_keys=True)
        assert trace_line(m.seq, m.sender, m.recipient, m.kind, payload_json,
                          m.env_version) == line
        head, tail = trace_template(m.sender, m.recipient, m.kind, m.env_version)
        assert head + payload_json + TRACE_SEQ + json_scalar(m.seq) + tail == line
    assert trace_to_jsonl(messages) == "".join(line + "\n" for line in expected)
