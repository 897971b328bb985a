"""Scenario runner CLI: load config, execute one scenario, persist artifacts.

Usage:
    agentrec run <config.json> [--out DIR] [--seed INT] [--format table|jsonlines]
    agentrec validate <config.json>

Every run writes trace.jsonl, report.jsonl, report.txt, and manifest.json
into the output directory. Each scenario kind has one runner, which returns
its trace text and its report rows; report.jsonl and report.txt are both
written from those rows. trace.jsonl and report.jsonl are byte-identical
across re-runs with the same config and seed; wall-clock timings live only
in manifest.json. On failure a machine-readable error record is written to
error.json and echoed to stderr, and the exit status is nonzero.

Paths inside a config resolve relative to the config file. All randomness
flows from the single global seed; per-simulator seeds derive as the first
8 bytes of blake2b("<global seed>/<simulator id>").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from functools import cache
from pathlib import Path

from . import __version__
from .agents import DEFAULT_CONTEXT_BUDGET, DEFAULT_STM_TOKENS, DIRECTIVE_RE, compile_pattern
from .blueprints import build_interactive_runtime, ranked_entries_from_trace
from .errors import AgentRecError, ConfigInvalid, InvalidArgument, Unreadable
from .memory import SLOT_SEPARATOR, build_store, embed_text, retrieve_topk
from .pipelines import (
    DEFAULT_COMPAT_TAU,
    DEFAULT_PALETTE_WEIGHT,
    Transcript,
    compat_check,
    constraints_from_facts,
    explain_with_revision,
    extract_session_constraints,
    facts_from_memory,
    recommend_interactive,
    recommend_multimodal,
)
from .reliability import AgentGraph, BrandPolicy, propagation_probability, simulate_error_cascade
from .runtime import (
    TRACE_SEQ,
    Environment,
    Message,
    catalog_item,
    finite_norm,
    finite_numbers,
    json_scalar,
    records_to_jsonl,
    trace_template,
    trace_to_jsonl,
)
from .simulation import (
    UserSimulator,
    evaluate,
    make_rotation_recommender,
    make_static_top_recommender,
    random_unit_vector,
    run_sessions,
)


def derive_seed(global_seed: int, name: str) -> int:
    digest = hashlib.blake2b(f"{global_seed}/{name}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


# config spec -------------------------------------------------------------------
#
# What each config field must hold and what it defaults to. A check is called
# as check(value, field, findings): it appends {"field", "rule"} for a bad
# value and returns the value to keep (numbers come back as float). An object
# maps each field to (check, default): REQUIRED marks a field without a
# default, None one that may be absent, and a missing object is checked as {}
# so that its own fields get their defaults.

REQUIRED = object()


def _flag(findings, field, rule):
    findings.append({"field": field, "rule": rule})


def _leaf(ok, rule, keep=lambda value: value):
    return lambda value, field, findings: (
        keep(value) if ok(value) else _flag(findings, field, rule))


def _compiles(pattern) -> bool:
    try:
        compile_pattern(pattern)
    except (InvalidArgument, TypeError):
        return False
    return True


def integer(low=None):
    return _leaf(lambda v: isinstance(v, int) and not isinstance(v, bool)
                 and (low is None or v >= low),
                 "must be an integer" + (f" >= {low}" if low is not None else ""))


def number(low=-math.inf, high=math.inf):
    return _leaf(lambda v: finite_numbers((v,)) and low <= v <= high,
                 f"must be a finite number in [{low}, {high}]", float)


def text(nonempty=False):
    return _leaf(lambda v: isinstance(v, str) and bool(v or not nonempty),
                 "must be a non-empty string" if nonempty else "must be a string")


def list_of(item, nonempty=False):
    def check(value, field, findings):
        if not isinstance(value, list) or (nonempty and not value):
            return _flag(findings, field, f"must be a {'non-empty ' * nonempty}list")
        return [item(entry, f"{field}[{i}]", findings) for i, entry in enumerate(value)]
    return check


def tuple_of(*items):
    def check(value, field, findings):
        if not (isinstance(value, list) and len(value) == len(items)):
            return _flag(findings, field, f"must be a list of {len(items)} values")
        return [item(entry, f"{field}[{i}]", findings)
                for i, (item, entry) in enumerate(zip(items, value))]
    return check


def map_of(item):
    def check(value, field, findings):
        if not isinstance(value, dict):
            return _flag(findings, field, "must be an object")
        return {key: item(entry, f"{field}.{key}", findings) for key, entry in value.items()}
    return check


def obj(fields, kinds=None, kind=REQUIRED):
    """An object whose `fields` map to (check, default). With `kinds`, its
    "kind" field (default `kind`) names one of them, whose fields apply too."""
    if kinds is not None:
        fields = {"kind": (_leaf(lambda v: isinstance(v, str) and v in kinds,
                                 f"must be one of {sorted(kinds)}"), kind), **fields}

    def check(value, field, findings):
        if not isinstance(value, dict):
            return _flag(findings, field or "<file>", "must be an object")
        value, pending = dict(value), dict(fields)
        while pending:
            name = next(iter(pending))
            item, default = pending.pop(name)
            where = f"{field}.{name}" if field else name
            if name in value:
                value[name] = item(value[name], where, findings)
            elif default is REQUIRED:
                _flag(findings, where, "required")
            else:
                value[name] = None if default is None else item(default, where, findings)
            if name == "kind":  # checked first, so its kind's fields replace pending ones
                pending.update(kinds.get(value.get("kind"), {}))
        return value
    return check


_PAIR = tuple_of(text(), text())
_CHANNEL = _leaf(lambda v: isinstance(v, list) and len(v) == 2 and all(
    isinstance(name, str) for name in v) and v[0] != v[1],
    "must be a [from, to] pair of two different agent ids")
# a value is kept as given, so an int fact stays an int in its text
_FACT_VALUES = map_of(_leaf(lambda v: type(v) is str or finite_numbers((v,)),
                            "must be a string or a finite number"))


def _facts_by_slot(value, field, findings):
    """Fact values by slot; a slot holding ": " is refused, as `upsert_fact` refuses it."""
    value = _FACT_VALUES(value, field, findings)
    for slot in value or ():
        if SLOT_SEPARATOR in slot:
            _flag(findings, field, f"slot {slot!r} must not contain {SLOT_SEPARATOR!r}")
    return value


_RECIPIENTS = _leaf(lambda v: isinstance(v, str) or isinstance(v, list) and bool(v) and all(
    isinstance(name, str) for name in v), "must be an agent id or a non-empty list of agent ids")


def _finite_palette(value, field, findings):
    """A non-empty list of finite numbers, as floats, whose squared norm is finite."""
    value = list_of(number(), nonempty=True)(value, field, findings)
    if value is not None and None not in value and not finite_norm(value):
        _flag(findings, field, "must have a finite squared norm")
    return value


_TOOL = obj({"name": (text(), REQUIRED)}, kinds={
    "memory_recall": {"top_k": (integer(1), 4)},
    "category_search": {"category": (text(), REQUIRED), "limit": (integer(1), 3)},
    "rank_items": {"top_l": (integer(1), None)},  # None: the scenario's L budget
    "nli_validate": {}, "collection_check": {},
})

_AGENT = obj({
    "id": (text(), REQUIRED),
    "rules": (list_of(tuple_of(_leaf(_compiles, "must be a regular expression"), text()),
                      nonempty=True), [[".*", "$input"]]),
    "input_kinds": (list_of(text()), []),
    "output_kinds": (list_of(text()), []),
    "tools": (list_of(_TOOL), []),
    "memory_facts": (_facts_by_slot, {}),
})

_COHORT = obj({
    "id": (text(), REQUIRED),
    "count": (integer(1), 1),
    "noise": (number(0), 0.0),
    "theta": (obj({}, kinds={"text": {"text": (text(), REQUIRED)},
                             "first_item": {}, "seeded": {}}, kind="seeded"), {}),
})

CONFIG_SPEC = obj({
    "seed": (integer(), REQUIRED),
    "out": (text(), "out"),
    "catalog": (text(), REQUIRED),
}, kinds={
    "interactive": {
        "query": (text(nonempty=True), REQUIRED),
        "budgets": (obj({"B": (integer(1), DEFAULT_CONTEXT_BUDGET),
                         "L_stm": (integer(1), DEFAULT_STM_TOKENS),
                         "L": (integer(1), 5)}), {}),
        "agents": (list_of(_AGENT, nonempty=True), REQUIRED),
        "children": (map_of(obj({"agents": (list_of(_AGENT), []),
                                 "open": (list_of(_CHANNEL), [])})), {}),
        "matrix": (obj({"allow": (list_of(_CHANNEL), [])}), {}),
        "routing": (list_of(tuple_of(text(), _RECIPIENTS, text())), []),
    },
    "simulate": {
        "cohorts": (list_of(_COHORT, nonempty=True), REQUIRED),
        "horizon": (integer(1), 5),
        "sessions_per_sim": (integer(1), 1),
        "budgets": (obj({"L": (integer(1), 1)}), {}),
        # static_top without item_id shows the first catalog item
        "recommender": (obj({}, kinds={"rotation": {}, "static_top": {
            "item_id": (text(nonempty=True), None)}}, kind="rotation"), {}),
        "reward": (obj({}, kinds={"select": {}, "diversity_penalty": {
            "penalty": (number(0), 0.5)}}, kind="select"), {}),
    },
    "multimodal": {
        "categories": (list_of(text(), nonempty=True), REQUIRED),
        "scene_palette": (_finite_palette, REQUIRED),
        "text_constraints": (text(), ""),
        "profile_facts": (_facts_by_slot, {}),
        "alpha": (number(0, 1), DEFAULT_PALETTE_WEIGHT),
        # a palette cosine lies in [-1, 1], so a tau outside it passes no bundle
        "tau": (number(-1, 1), DEFAULT_COMPAT_TAU),
    },
    "explain": {
        "policy": (text(), REQUIRED),
        "transcript": (list_of(text(), nonempty=True), REQUIRED),
        "facts": (_facts_by_slot, {}),
        "budgets": (obj({"L": (integer(1), 3)}), {}),
        "context_k": (integer(1), 4),
        "max_rounds": (integer(1), 3),
    },
    "cascade": {
        "catalog": (text(), None),
        "nodes": (list_of(text(), nonempty=True), REQUIRED),
        "edges": (list_of(_PAIR), []),
        "error_rates": (map_of(number(0, 1)), {}),
        "trials": (integer(1), 100000),
    },
})


def _describe(findings) -> str:
    return "; ".join(f"{f['field']}: {f['rule']}" for f in findings)


def _cross_check(config, findings) -> None:
    """Checks between fields, run once every field passed its own check."""
    for field in ("catalog", "policy") if config["kind"] == "explain" else ("catalog",):
        if config[field] is not None and not _resolve(config, config[field]).exists():
            _flag(findings, field, "referenced path does not exist")
    if config["kind"] == "interactive":
        ids = [agent["id"] for agent in config["agents"]]
        known = ids + [child["id"] for decl in config["children"].values()
                       for child in decl["agents"]]
        for dup in sorted({i for i in known if known.count(i) > 1}):
            _flag(findings, "agents", f"duplicate agent id: {dup}")
        for name in sorted({n for pair in config["matrix"]["allow"] for n in pair} - set(ids)):
            _flag(findings, "matrix", f"allow pair references unknown agent: {name}")
        for name in sorted(set(config["children"]) - set(known)):
            _flag(findings, "children", f"parent is not a declared agent: {name}")
        opened = [pair for decl in config["children"].values() for pair in decl["open"]]
        for name in sorted({n for pair in opened for n in pair} - set(known)):
            _flag(findings, "children", f"open pair references unknown agent: {name}")
        for field, agents in [("agents", config["agents"])] + [
                ("children", decl["agents"]) for decl in config["children"].values()]:
            for agent in agents:  # a replay steps no agent, so it calls no tool
                tools = {tool["name"] for tool in agent["tools"]}
                for index, (_, template) in enumerate(agent["rules"]):
                    call = DIRECTIVE_RE.search(template)
                    if call and call.group(1) not in tools:
                        _flag(findings, field, f"agent {agent['id']} rule {index} calls "
                                               f"unknown tool: {call.group(1)}")
        if not findings:  # the wiring, through the runtime's own gates
            try:
                runtime, routing = build_interactive_runtime(config, Environment())
            except AgentRecError as exc:
                return _flag(findings, "agents", f"{type(exc).__name__}: {exc}")
            result = runtime.replay(routing)
            if result.aborted:
                _flag(findings, f"routing[{len(result.trace)}]", result.error)
    elif config["kind"] == "multimodal":  # the run's constraints, built as the run builds them
        _gate(findings, "profile_facts", constraints_from_facts,
              facts_from_memory(build_store(config["profile_facts"])))
    elif config["kind"] == "explain":
        _gate(findings, "facts", extract_session_constraints,
              _user_transcript(config["transcript"]), build_store(config["facts"]))
    elif config["kind"] == "simulate":  # a simulator's id and seed derive from its cohort's id
        ids = [cohort["id"] for cohort in config["cohorts"]]
        for dup in sorted({i for i in ids if ids.count(i) > 1}):
            _flag(findings, "cohorts", f"duplicate cohort id: {dup}")
    elif config["kind"] == "cascade":
        nodes = config["nodes"]
        for edge in config["edges"]:
            if not set(edge) <= set(nodes):
                _flag(findings, "edges", f"edge must be a [upstream, downstream] pair of "
                                         f"declared nodes: {edge!r}")
        for name in sorted(set(config["error_rates"]) - set(nodes)):
            _flag(findings, "error_rates", f"rate for an undeclared node: {name}")
        for node in nodes:  # a node without a rate never errs
            config["error_rates"].setdefault(node, 0.0)
        if not findings:  # the graph's own node and cycle checks
            graph = _gate(findings, "nodes", AgentGraph, nodes,
                          [tuple(edge) for edge in config["edges"]], config["error_rates"])
            if graph is not None:
                _gate(findings, "edges", graph.topological_order)


# loading -------------------------------------------------------------------

def _read_config(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise Unreadable(f"cannot read config {path}: {exc}") from exc


def _parse_config(data: bytes, path) -> dict:
    """The config with every field checked and its defaults filled in.

    Raises ConfigInvalid carrying every finding.
    """
    findings = []
    try:
        config = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        config = _flag(findings, "<file>", f"config is not valid JSON: {exc}")
    if isinstance(config, dict):
        config = CONFIG_SPEC(dict(config, __path__=str(path)), "", findings)
        if not findings:
            _cross_check(config, findings)
    elif not findings:
        _flag(findings, "<file>", "config must be a JSON object")
    if findings:
        raise ConfigInvalid(_describe(findings), findings)
    return config


def load_config(path) -> dict:
    return _parse_config(_read_config(path), path)


def validate_config(path) -> list:
    """The config's faults as (field, rule) findings.

    Past the config's own checks, the catalog file (and an explain config's
    policy file) is loaded through the run's loaders and what the config
    names in it is looked up. Only validate does this: a run loads each file
    once itself. No search runs: one that finds nothing (NoFeasibleItem,
    NoCompatibleBundle, RevisionExhausted) is a run's outcome, not a fault,
    so a config without findings may still fail so.
    """
    try:
        config = load_config(path)
    except ConfigInvalid as exc:
        return exc.findings
    findings = []
    if config["kind"] == "explain":
        _gate(findings, "policy", load_policy, _resolve(config, config["policy"]))
    env = _gate(findings, "catalog", _environment, config)
    if env is None:
        return findings
    if config["kind"] == "simulate" and config["recommender"].get("item_id") is not None:
        _gate(findings, "recommender.item_id", env.item_by_id, config["recommender"]["item_id"])
    elif config["kind"] == "multimodal":
        index, scene = env.catalog_index(), config["scene_palette"]
        for category in sorted(set(config["categories"])):
            ids = _gate(findings, "categories", index.palette_ids, category) or ()
            odd = sorted(i for i in ids if len(env.item_by_id(i).palette) != len(scene))
            if odd:  # the bundle search would take the cosine of the two
                _flag(findings, "scene_palette",
                      f"has {len(scene)} numbers, but the palette of item {odd[0]} "
                      f"(category {category}) has {len(env.item_by_id(odd[0]).palette)}")
    return findings


def _gate(findings, field, check, *args):
    """check(*args), or None and an `<Error>: <message>` finding for what it raises."""
    try:
        return check(*args)
    except AgentRecError as exc:
        _flag(findings, field, f"{type(exc).__name__}: {exc}")


def _resolve(config: dict, relative) -> Path:
    return (Path(config["__path__"]).parent / relative).resolve()


# The last catalog file built: (its bytes, its items as a version-0
# Environment). Every run on equal bytes shares that Environment, and with it
# its lazily built catalog index and result memo; no runner mutates it.
_last_catalog = (None, None)
# A catalog file is compared with the kept bytes _COMPARE_CHUNK bytes at a
# time (a fixed buffer, not an option), so no second copy is ever held.
_COMPARE_CHUNK = 256 * 1024


def _holds(path, kept: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``kept``: read chunk by
    chunk into one buffer, stopping at the first difference."""
    buffer = bytearray(_COMPARE_CHUNK)
    chunk, offset = memoryview(buffer), 0
    with open(path, "rb", buffering=0) as file:
        while count := file.readinto(buffer):
            if not kept.startswith(chunk[:count], offset):
                return False
            offset += count
    return offset == len(kept)


def _catalog_environment(path) -> Environment:
    """The catalog file's items, in file order, as version 0.

    Every call compares the file with the bytes of the last catalog built.
    When they are equal, the call returns that catalog's Environment without
    parsing. Otherwise it checks the records and builds their Environment
    (its id table, once: a repeated id raises ConfigInvalid naming both
    records), and keeps it with the bytes in place of the last ones, so at
    most one catalog and its file's bytes are kept. A file that fails
    leaves the kept entry as it was.
    """
    global _last_catalog
    kept, env = _last_catalog
    try:
        if kept is not None and _holds(path, kept):
            return env
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigInvalid(f"catalog {path} is malformed: {type(exc).__name__}: {exc}") from exc
    try:
        records = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ConfigInvalid(f"catalog {path} is malformed: {type(exc).__name__}: {exc}") from exc
    if type(records) is not list or not records:
        raise ConfigInvalid(f"catalog {path} must be a non-empty list of records")
    items = []
    for index, record in enumerate(records):
        try:
            items.append(catalog_item(record))
        except InvalidArgument as exc:
            raise ConfigInvalid(f"catalog {path} record {index}: {exc}") from None
    try:
        _last_catalog = (data, Environment(items))
    except InvalidArgument as exc:  # a repeated id
        raise ConfigInvalid(f"catalog {path} {exc}") from None
    return _last_catalog[1]


def load_catalog(path) -> list:
    """A new list of ``_catalog_environment``'s items: on bytes equal to the
    kept catalog's, the same frozen items, with the embeddings they already
    cached."""
    return list(_catalog_environment(path).catalog)


def _environment(config) -> Environment:
    """The config's catalog as version 0: the cached, shared Environment."""
    if config["catalog"] is None:
        return Environment()
    return _catalog_environment(_resolve(config, config["catalog"]))


_POLICY = obj({
    "banned_terms": (list_of(text()), []),
    "required_disclosures": (list_of(_PAIR), []),
})


def load_policy(path) -> BrandPolicy:
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"policy {path} is malformed: {type(exc).__name__}: {exc}") from exc
    findings = []
    record = _POLICY(record, "", findings)
    if findings:
        raise ConfigInvalid(f"policy {path} is malformed: {_describe(findings)}", findings)
    return BrandPolicy(
        banned_terms=frozenset(record["banned_terms"]),
        required_disclosures=tuple(map(tuple, record["required_disclosures"])),
    )


# record helpers --------------------------------------------------------------

def _post(messages, sender, recipient, kind, payload) -> None:
    """Appends a runner's next trace message: seq in order, environment version 0."""
    messages.append(Message(sender, recipient, kind, payload, seq=len(messages), env_version=0))


def _simulate_trace_jsonl(traces) -> str:
    """The simulate runner's trace.jsonl, formatted straight from the steps.

    A step gives a recommender -> simulator ``rec_list`` line and a simulator
    -> eval ``user_action`` line; an errored step gives one recommender ->
    simulator ``eval_event`` line. Each trace takes its three
    ``runtime.trace_template``s once; a line is its template around a payload
    built leaf by leaf through ``json_scalar`` and the line index as seq, so
    the bytes are those of ``trace_to_jsonl`` over the same messages posted
    with ``_post``.
    """
    lines = []
    append = lines.append
    for trace in traces:
        sim = trace.simulator_id
        rec_head, rec_tail = trace_template("recommender", sim, "rec_list", 0)
        act_head, act_tail = trace_template(sim, "eval", "user_action", 0)
        err_head, err_tail = trace_template("recommender", sim, "eval_event", 0)
        for step in trace.steps:
            state = json_scalar(step.state)
            if step.error is not None:
                append(f'{err_head}{{"error": {json_scalar(step.error)}, "state": {state}}}'
                       f'{TRACE_SEQ}{len(lines)}{err_tail}')
                continue
            items = ", ".join([f"[{json_scalar(item_id)}, {json_scalar(score)}]"
                               for item_id, score in step.recs.entries])
            append(f'{rec_head}{{"items": [{items}], "state": {state}}}'
                   f'{TRACE_SEQ}{len(lines)}{rec_tail}')
            append(f'{act_head}{{"action": {json_scalar(step.action)}, '
                   f'"reward": {json_scalar(step.reward)}}}{TRACE_SEQ}{len(lines)}{act_tail}')
    return "\n".join(lines) + ("\n" if lines else "")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, str) and "".join(value.splitlines()) == value:
        return value
    return json_scalar(value)


def _render(rows) -> str:
    """report.txt: one line per report row, its ``key=value`` pairs in key
    order two spaces apart; a float to six decimals, a str bare unless it holds
    a line boundary (a character ``str.splitlines`` breaks on), anything else
    (and such a str) as its JSON."""
    return "".join("  ".join(f"{key}={_cell(row[key])}" for key in sorted(row)) + "\n"
                   for row in rows)


# scenario runners -------------------------------------------------------------
#
# A runner is called as runner(config, env, seed) and returns (trace text, report rows).

def _run_interactive(config, env, seed):
    runtime, routing = build_interactive_runtime(config, env)
    result = runtime.run_episode(routing, seed=seed,
                                 initial_input=config["query"])
    if result.exception is not None:
        raise result.exception
    rows = []
    for rank, (item_id, score) in enumerate(ranked_entries_from_trace(result.trace), start=1):
        item = env.item_by_id(item_id)
        rows.append({"rank": rank, "item_id": item_id, "score": score,
                     "tags": sorted(item.tags), "price": item.price})
    return trace_to_jsonl(result.trace), rows


def _build_theta(theta, env, sim_seed):
    if theta["kind"] == "first_item":
        return env.catalog[0].embedding
    if theta["kind"] == "text":
        return embed_text(theta["text"])
    return random_unit_vector(random.Random(sim_seed))


def _run_simulate(config, env, seed):
    sims = []
    for cohort in config["cohorts"]:
        for index in range(cohort["count"]):
            sim_id = f"{cohort['id']}-{index}"
            sim_seed = derive_seed(seed, sim_id)
            sims.append(UserSimulator(
                simulator_id=sim_id,
                theta=_build_theta(cohort["theta"], env, sim_seed),
                noise_scale=cohort["noise"],
                seed=sim_seed,
                cohort=cohort["id"],
            ))
    spec, reward = config["recommender"], config["reward"]
    recommender = (make_rotation_recommender() if spec["kind"] == "rotation" else
                   make_static_top_recommender(spec["item_id"] or env.catalog[0].id))
    traces = run_sessions(
        recommender, sims,
        horizon=config["horizon"], env=env,
        sessions_per_sim=config["sessions_per_sim"],
        top_l=config["budgets"]["L"],
        # keys a kind does not declare pass through: a select config's stray "penalty" stays unused
        repeat_penalty=0.0 if reward["kind"] == "select" else reward["penalty"],
    )
    return _simulate_trace_jsonl(traces), evaluate(traces)


def _run_multimodal(config, env, seed):
    bundle = recommend_multimodal(
        text_constraints=config["text_constraints"],
        scene_features=tuple(config["scene_palette"]),
        profile=build_store(config["profile_facts"]),
        categories=config["categories"],
        env=env,
        alpha=config["alpha"],
        tau=config["tau"],
    )
    compatible = compat_check(bundle, config["tau"])
    messages = []
    for item in bundle.items:
        _post(messages, "caller", "sem_check", "item_set",
              {"category": item.category, "id": item.id, "palette": list(item.palette)})
    _post(messages, "comp_check", "chat", "validated_set",
          {"bundle": [item.id for item in bundle.items], "compat": compatible,
           "truncated_search": bundle.truncated_search})
    rows = [{"category": item.category, "item_id": item.id} for item in bundle.items]
    rows.append({"compat": compatible, "truncated_search": bundle.truncated_search})
    return trace_to_jsonl(messages), rows


def _user_transcript(texts) -> Transcript:
    turns = []
    for text in texts:
        if turns:
            turns.append(("agent", ""))
        turns.append(("user", text))
    return Transcript(turns=turns)


def _run_explain(config, env, seed):
    policy = load_policy(_resolve(config, config["policy"]))
    memory = build_store(config["facts"])
    transcript = _user_transcript(config["transcript"])
    recs = recommend_interactive(transcript, env, memory, config["budgets"]["L"])
    ctx_items = retrieve_topk(memory, " ".join(config["transcript"]),
                              k=config["context_k"]) if memory.items else []
    explanation, rounds = explain_with_revision(recs, ctx_items, policy,
                                                config["max_rounds"])

    messages = []
    _post(messages, "rec", "expl", "rec_list", {"items": [[i, s] for i, s in recs.entries]})
    for failed_round in range(1, rounds):
        _post(messages, "eval", "expl", "revise", {"round": failed_round})
    row = {"text": explanation.text, "rounds": rounds,
           "cited_items": sorted(explanation.cited_items),
           "cited_facts": sorted(explanation.cited_facts)}
    _post(messages, "eval", "chat", "final_report",
          dict(row, context_missing=explanation.context_missing))
    return trace_to_jsonl(messages), [row]


def _run_cascade(config, env, seed):
    nodes, rates = config["nodes"], config["error_rates"]
    graph = AgentGraph(nodes=nodes, edges=[tuple(edge) for edge in config["edges"]],
                       error_rates=rates)
    closed_form = propagation_probability([rates[node] for node in nodes])
    empirical = simulate_error_cascade(graph, trials=config["trials"], seed=seed)
    messages = []
    for node in nodes:
        _post(messages, node, "monitor", "eval_event", {"error_rate": rates[node]})
    report = {"closed_form": closed_form, "empirical": empirical,
              "abs_diff": abs(closed_form - empirical)}
    _post(messages, "monitor", "chat", "final_report", report)
    return trace_to_jsonl(messages), [dict(report, trials=config["trials"])]


_RUNNERS = {
    "interactive": _run_interactive,
    "simulate": _run_simulate,
    "multimodal": _run_multimodal,
    "explain": _run_explain,
    "cascade": _run_cascade,
}


# top-level entry points -------------------------------------------------------

def _emit_error(out_dir, name, message):
    record = {"error": name, "message": message}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "error.json").write_text(
                json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
        except OSError:
            pass
    return 1


def run_scenario(config_path, out=None, seed=None,
                 report_format: str = "table") -> int:
    """Execute one scenario; returns the process exit status."""
    started = time.perf_counter()
    out_dir = Path(out) if out is not None else None
    try:
        config_bytes = _read_config(config_path)
        config = _parse_config(config_bytes, config_path)
        if out_dir is None:
            out_dir = _resolve(config, config["out"])
        effective_seed = seed if seed is not None else config["seed"]
        env = _environment(config)
        loaded = time.perf_counter()
        trace_text, rows = _RUNNERS[config["kind"]](config, env, effective_seed)
        report_jsonl, report_text = records_to_jsonl(rows), _render(rows)
        ran = time.perf_counter()
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trace.jsonl").write_text(trace_text, encoding="utf-8")
        (out_dir / "report.jsonl").write_text(report_jsonl, encoding="utf-8")
        (out_dir / "report.txt").write_text(report_text, encoding="utf-8")
        persisted = time.perf_counter()
        manifest = {
            "config_hash": "sha256:" + hashlib.sha256(config_bytes).hexdigest(),
            "seed": effective_seed,
            "version": __version__,
            "scenario": config["kind"],
            "outputs": ["trace.jsonl", "report.jsonl", "report.txt"],
            "timings": {"elapsed_seconds": persisted - started,
                        "load_seconds": loaded - started,
                        "run_seconds": ran - loaded,
                        "persist_seconds": persisted - ran},
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    except (AgentRecError, OSError) as exc:  # OSError: the artifacts cannot be written
        return _emit_error(out_dir, type(exc).__name__, str(exc))
    if report_format == "table":
        sys.stdout.write(report_text)
    else:
        sys.stdout.write(report_jsonl)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="agentrec",
        description="Deterministic multi-agent recommender scenario runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a scenario config")
    run_parser.add_argument("config")
    run_parser.add_argument("--out", default=None, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
    run_parser.add_argument("--format", choices=("table", "jsonlines"),
                            default="table")

    validate_parser = sub.add_parser("validate", help="check a scenario config")
    validate_parser.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return run_scenario(args.config, out=args.out, seed=args.seed,
                            report_format=args.format)
    try:
        findings = validate_config(args.config)
    except Unreadable as exc:
        return _emit_error(None, type(exc).__name__, str(exc))
    for finding in findings:
        sys.stdout.write(f"{finding['field']}: {finding['rule']}\n")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
