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

import re
from dataclasses import dataclass, field
from functools import cached_property
from string import Template
from typing import Callable, Optional

from .errors import InvalidArgument, ToolFailure, UnknownTool
from .memory import (
    MemoryLabel,
    MemoryStore,
    regulate_context,
    tail_window,
    update_memory,
)

DEFAULT_CONTEXT_BUDGET = 64
DEFAULT_STM_TOKENS = 256

DIRECTIVE_RE = re.compile(r'CALL\(([A-Za-z_]\w*), "(.*)"\)', re.DOTALL)


@dataclass(frozen=True)
class ScriptedRule:
    """Ordered (regex pattern, response template) pair for a scripted core."""

    pattern: str
    template: str

    @cached_property
    def compiled(self):
        """The pattern, compiled on first use and kept by this rule.

        Not a dataclass field, so equality, hash and repr ignore it; nor is
        ``compiled_template``.
        """
        return re.compile(self.pattern)

    @cached_property
    def compiled_template(self) -> Template:
        """The response template, built on first use and kept by this rule."""
        return Template(self.template)


@dataclass
class LanguageCore:
    """Pluggable text engine: deterministic scripted rules, tried in order."""

    rules: tuple  # tuple[ScriptedRule, ...]

    def __post_init__(self):
        if not self.rules:
            raise InvalidArgument("scripted cores require a non-empty rule list")

    def generate(self, prompt: str, variables: Optional[dict] = None) -> str:
        mapping = dict(variables or {})
        mapping.setdefault("prompt", prompt)
        for rule in self.rules:
            match = rule.compiled.search(prompt)
            if match is None:
                continue
            mapping.update({k: v for k, v in match.groupdict().items() if v is not None})
            return rule.compiled_template.safe_substitute(mapping)
        return ""


def scripted_core(*rules) -> LanguageCore:
    """Convenience constructor from (pattern, template) pairs."""
    return LanguageCore(rules=tuple(ScriptedRule(p, t) for p, t in rules))


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


def invoke_tool(agent: AgentSpec, name: str, args: str) -> str:
    """Run a registered tool and return its result; any other exception the
    handler raises becomes a ToolFailure naming the tool."""
    tool = agent.tools.get(name)
    try:
        return tool.handler(args)
    except ToolFailure:
        raise
    except Exception as exc:
        raise ToolFailure(f"{name}: {exc}") from exc


def resolve_directives(agent: AgentSpec, text: str) -> str:
    """Replace the first CALL(name, "args") directive with its tool result."""
    match = DIRECTIVE_RE.search(text)
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


def step_agent(agent: AgentSpec, input_text: str, now: int) -> str:
    """One policy step: context, core, tool resolution, memory commit."""
    context = assemble_context(agent, input_text)
    prompt = " ".join(part for part in (context, input_text) if part)
    raw = agent.core.generate(
        prompt,
        variables={"input": input_text, "context": context, "prompt": prompt},
    )
    output = resolve_directives(agent, raw)
    update_memory(
        agent.memory,
        [("user", input_text), ("agent", output)],
        MemoryLabel.EPI,
        now,
    )
    return output
