"""Interactive party-planner blueprint: config-declared agents over the runtime.

Agents exchange plain text with two pinned wire conventions:

* section framing: ``query=<text> | facts=<slot: value; slot: value>``
  (the separator `` | `` never appears inside queries or fact values)
* item sets: one single-line JSON object per message,
  ``{"category": ..., "items": [[id, score], ...], "query": ..., "facts": ...}``

Tool handlers are built-ins parameterized by the environment; the scenario
config decides which agent carries which tool, the rule table, the
communication matrix, the routing, and the spawn declarations.
"""

from __future__ import annotations

import json

from .agents import AgentSpec, LanguageCore, Tool
from .errors import InvalidArgument, PayloadInvalid
from .memory import (
    build_store,
    prepare_query,
    relevance_score,
    retain,
    retrieve_topk,
)
from .pipelines import (  # noqa: F401  (score_item: benchmark tracers wrap this name)
    constraints_from_facts,
    score_item,
    violations_for,
)
from .runtime import Environment, MasRuntime, finite_numbers

SECTION_SEPARATOR = " | "
FACT_SEPARATOR = "; "


def render_sections(**sections) -> str:
    return SECTION_SEPARATOR.join(f"{key}={value}" for key, value in sections.items())


def parse_sections(text: str) -> dict:
    out = {}
    for part in text.split(SECTION_SEPARATOR):
        key, sep, value = part.partition("=")
        if sep:
            out[key.strip()] = value
    return out


def render_facts(facts) -> str:
    return FACT_SEPARATOR.join(f"{slot}: {value}" for slot, value in facts)


def parse_facts(text: str) -> list:
    facts = []
    for chunk in text.split(FACT_SEPARATOR):
        slot, sep, value = chunk.partition(": ")
        if sep and slot.strip():
            facts.append((slot.strip(), value.strip()))
    return facts


def _facts_in_play(sections: dict) -> list:
    """Explicit facts plus whatever the query text itself asserts."""
    facts = parse_facts(sections.get("facts", ""))
    query = sections.get("query", "")
    if query:
        facts += retain([("user", query)])
    return facts


# tool handlers ------------------------------------------------------------

def _memory_recall_tool(env, budgets, store, tool_cfg) -> Tool:
    top_k = tool_cfg["top_k"]

    def handler(args: str) -> str:
        query_vec = prepare_query(args)
        items = retrieve_topk(store, query_vec, top_k)
        hits = [item for item in items if relevance_score(query_vec, item) > 0.0]
        return render_facts(item.fact() for item in hits)

    return Tool(name=tool_cfg["name"], handler=handler)


def _nli_validate_tool(env, budgets, store, tool_cfg) -> Tool:
    def handler(args: str) -> str:
        sections = parse_sections(args)
        query = sections.get("query", args)
        current = dict(retain([("user", query)]))
        validated = [
            (slot, value) for slot, value in parse_facts(sections.get("facts", ""))
            if slot not in current or current[slot].lower() == value.lower()
        ]
        return render_sections(query=query, facts=render_facts(validated))

    return Tool(name=tool_cfg["name"], handler=handler)


def _category_search_tool(env, budgets, store, tool_cfg) -> Tool:
    category = tool_cfg["category"]
    limit = tool_cfg["limit"]

    def handler(args: str) -> str:
        sections = parse_sections(args)
        facts = _facts_in_play(sections)
        constraints = constraints_from_facts(facts)
        query = " ".join(
            part for part in (sections.get("query", ""), render_facts(facts)) if part)
        index = env.catalog_index()
        ranked = index.rank(index.admitted(constraints.required_tags, constraints.forbidden_tags,
                                           constraints.budget_max, category),
                            prepare_query(query), limit)
        return json.dumps({
            "category": category,
            "items": [[item.id, score] for score, item in ranked],
            "query": sections.get("query", ""),
            "facts": sections.get("facts", ""),
        }, sort_keys=True)

    return Tool(name=tool_cfg["name"], handler=handler)


def _collection_check_tool(env, budgets, store, tool_cfg) -> Tool:
    def handler(args: str) -> str:
        merged, query, facts_text = [], "", ""
        for line in args.splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            query = record.get("query", query)
            facts_text = record.get("facts", facts_text)
            merged.extend(record.get("items", []))
        sections = {"query": query, "facts": facts_text}
        constraints = constraints_from_facts(_facts_in_play(sections))
        validated = [
            [item_id, score] for item_id, score in merged
            if not violations_for(env.item_by_id(item_id), constraints)
        ]
        return json.dumps({"items": validated, "query": query, "facts": facts_text},
                          sort_keys=True)

    return Tool(name=tool_cfg["name"], handler=handler)


def _rank_items_tool(env, budgets, store, tool_cfg) -> Tool:
    limit = tool_cfg["top_l"] or budgets["L"]

    def handler(args: str) -> str:
        record = json.loads(args)
        ranked = sorted(record.get("items", []),
                        key=lambda entry: (-entry[1], entry[0]))
        return json.dumps({"ranked": ranked[:limit]}, sort_keys=True)

    return Tool(name=tool_cfg["name"], handler=handler)


TOOL_KINDS = {
    "memory_recall": _memory_recall_tool,
    "nli_validate": _nli_validate_tool,
    "category_search": _category_search_tool,
    "collection_check": _collection_check_tool,
    "rank_items": _rank_items_tool,
}


# construction from config ---------------------------------------------------

def build_agent(agent_cfg: dict, env: Environment, budgets: dict) -> AgentSpec:
    store = build_store(agent_cfg["memory_facts"])
    tools = {}
    for tool_cfg in agent_cfg["tools"]:
        tool = TOOL_KINDS[tool_cfg["kind"]](env, budgets, store, tool_cfg)
        if tool.name in tools:
            raise InvalidArgument(f"duplicate tool name: {tool.name!r}")
        tools[tool.name] = tool
    return AgentSpec(
        id=agent_cfg["id"],
        core=LanguageCore(agent_cfg["rules"]),
        input_schema=frozenset(agent_cfg["input_kinds"]),
        output_schema=frozenset(agent_cfg["output_kinds"]),
        tools=tools,
        memory=store,
        context_budget=budgets["B"],
        stm_tokens=budgets["L_stm"],
    )


def build_interactive_runtime(config: dict, env: Environment):
    """Returns (runtime, routing edges) wired per a config from `cli.load_config`."""
    budgets = config["budgets"]
    runtime = MasRuntime(env)
    for agent_cfg in config["agents"]:
        runtime.register_agent(build_agent(agent_cfg, env, budgets))
    for sender, recipient in config["matrix"]["allow"]:
        runtime.toggle_channel(sender, recipient, True)
    for parent_id, decl in config["children"].items():
        children = [build_agent(child_cfg, env, budgets) for child_cfg in decl["agents"]]
        runtime.declare_spawn(parent_id, children, [tuple(pair) for pair in decl["open"]])
    routing = [
        (sender, tuple(recipient) if isinstance(recipient, list) else recipient, kind)
        for sender, recipient, kind in config["routing"]
    ]
    return runtime, routing


def _ranked_entry(entry) -> bool:  # [item id, finite number]
    return (type(entry) is list and len(entry) == 2 and type(entry[0]) is str
            and finite_numbers(entry[1:]))


def ranked_entries_from_trace(trace) -> list:
    """The final ranked list carried by the last ranked_list message.

    Raises PayloadInvalid unless that message's text is a JSON object whose
    "ranked" (default []) is a list of [item id, finite number] pairs.
    """
    for message in reversed(trace):
        if message.kind == "ranked_list":
            try:
                record = json.loads(message.payload["text"])
            except ValueError:
                record = None
            ranked = record.get("ranked", []) if type(record) is dict else None
            if type(ranked) is not list or not all(map(_ranked_entry, ranked)):
                raise PayloadInvalid(
                    f"ranked_list message {message.seq}: must be a JSON object whose "
                    f"ranked is a list of [item id, finite number] pairs")
            return [(item_id, score) for item_id, score in ranked]
    return []
