"""The agent tuple: language core, tool registry, memory partitions, per-step policy.

The per-step pipeline is pinned: assemble the working context (recent-log
tail plus budget-regulated memory items), concatenate with the input, run
the language core, resolve at most one embedded tool directive, then commit
the turn pair back into memory.

Tool directives use the pinned surface grammar ``CALL(name, "args")``; the
args span runs to the last ``")`` in the core output and exactly one
directive is resolved per step (no recursive tool loops). Scripted response
templates use ``string.Template`` placeholders: ``$input``, ``$context``,
``$prompt``, plus any named groups captured by the matching rule pattern.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from string import Template
from typing import Callable, Optional

from .errors import InvalidArgument, SchemaViolation, ToolFailure, UnknownTool
from .memory import (
    MemoryLabel,
    MemoryStore,
    regulate_context,
    tail_window,
    update_memory,
)

DEFAULT_CONTEXT_BUDGET = 64
DEFAULT_STM_TOKENS = 256

_DIRECTIVE_RE = re.compile(r'CALL\(([A-Za-z_]\w*), "(.*)"\)', re.DOTALL)


@dataclass(frozen=True)
class ScriptedRule:
    """Ordered (regex pattern, response template) pair for a scripted core."""

    pattern: str
    template: str


@dataclass
class LanguageCore:
    """Pluggable text engine: deterministic scripted rules or a remote endpoint."""

    kind: str = "scripted"  # "scripted" | "remote"
    rules: tuple = ()       # tuple[ScriptedRule, ...]
    endpoint: str = ""

    def __post_init__(self):
        if self.kind == "scripted" and not self.rules:
            raise InvalidArgument("scripted cores require a non-empty rule list")
        if self.kind not in ("scripted", "remote"):
            raise InvalidArgument(f"unknown core kind: {self.kind!r}")

    def generate(self, prompt: str, variables: Optional[dict] = None,
                 max_tokens: int = DEFAULT_CONTEXT_BUDGET) -> str:
        if self.kind == "remote":
            return self._generate_remote(prompt, max_tokens)
        mapping = dict(variables or {})
        mapping.setdefault("prompt", prompt)
        for rule in self.rules:
            match = re.search(rule.pattern, prompt)
            if match is None:
                continue
            mapping.update({k: v for k, v in match.groupdict().items() if v is not None})
            return Template(rule.template).safe_substitute(mapping)
        return ""

    def _generate_remote(self, prompt: str, max_tokens: int) -> str:
        # Imported here: urllib.request costs every scripted run tens of ms of
        # import time and a few MB of memory.
        import urllib.error
        import urllib.request

        body = json.dumps({"prompt": prompt, "max_tokens": max_tokens}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint.rstrip("/") + "/generate",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, ValueError, OSError) as exc:
            raise ToolFailure("remote_core", str(exc))
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            raise ToolFailure("remote_core", "response missing 'text' field")
        return payload["text"]


def scripted_core(*rules) -> LanguageCore:
    """Convenience constructor from (pattern, template) pairs."""
    return LanguageCore(kind="scripted",
                        rules=tuple(ScriptedRule(p, t) for p, t in rules))


@dataclass
class Tool:
    """Named deterministic handler from argument text to result text."""

    name: str
    handler: Callable[[str], str]


class ToolRegistry:
    def __init__(self, tools=()):
        self._tools = {}
        for tool in tools:
            self.register(tool)

    def register(self, tool: Tool) -> None:
        if tool.name in self._tools:
            raise InvalidArgument(f"duplicate tool name: {tool.name!r}")
        self._tools[tool.name] = tool

    def get(self, name: str) -> Tool:
        try:
            return self._tools[name]
        except KeyError:
            raise UnknownTool(f"unknown tool: {name!r}") from None


@dataclass
class AgentSpec:
    """One agent: id, core, message schemas, tools, and its memory store.

    The memory partitions are views over the single store: the short-term
    window is the raw-log tail, while EPI/SEM/PROC are label filters over
    the item set.
    """

    id: str
    core: LanguageCore
    input_schema: frozenset = frozenset()
    output_schema: frozenset = frozenset()
    tools: ToolRegistry = field(default_factory=ToolRegistry)
    memory: MemoryStore = field(default_factory=MemoryStore)
    context_budget: int = DEFAULT_CONTEXT_BUDGET
    stm_tokens: int = DEFAULT_STM_TOKENS
    retain_label: MemoryLabel = MemoryLabel.EPI


def invoke_tool(agent: AgentSpec, name: str, args: str) -> str:
    """Run a registered tool and return its result; any other exception the
    handler raises becomes a ToolFailure naming the tool."""
    tool = agent.tools.get(name)
    try:
        return tool.handler(args)
    except ToolFailure:
        raise
    except Exception as exc:
        raise ToolFailure(name, str(exc)) from exc


def resolve_directives(agent: AgentSpec, text: str) -> str:
    """Replace the first CALL(name, "args") directive with its tool result."""
    match = _DIRECTIVE_RE.search(text)
    if match is None:
        return text
    result = invoke_tool(agent, match.group(1), match.group(2))
    return text[:match.start()] + result + text[match.end():]


def assemble_context(agent: AgentSpec, query: str) -> str:
    """Working context: log tail plus regulated items, within the token budget."""
    budget = agent.context_budget
    stm = tail_window(agent.memory, max(1, min(agent.stm_tokens, budget)))
    remaining = budget - len(stm.split())
    selection = regulate_context(agent.memory, query, max(0, remaining))
    parts = [stm] + [item.canonical_text() for item in selection.items]
    return " ".join(part for part in parts if part)


def step_agent(agent: AgentSpec, input_text: str, now: int,
               kind: Optional[str] = None) -> str:
    """One policy step: context, core, tool resolution, memory commit."""
    if kind is not None and kind not in agent.input_schema:
        raise SchemaViolation(
            f"agent {agent.id!r} does not accept kind {kind!r}")
    context = assemble_context(agent, input_text)
    prompt = " ".join(part for part in (context, input_text) if part)
    raw = agent.core.generate(
        prompt,
        variables={"input": input_text, "context": context, "prompt": prompt},
        max_tokens=agent.context_budget,
    )
    output = resolve_directives(agent, raw)
    update_memory(
        agent.memory,
        [("user", input_text), ("agent", output)],
        agent.retain_label,
        now,
    )
    return output
