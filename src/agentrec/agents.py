"""The agent tuple: a language core of compiled (pattern, template) rules, a
dict of tools by name, memory partitions, and the per-step policy.

The per-step pipeline is pinned: assemble the working context (recent-log
tail plus budget-regulated memory items), concatenate with the input, run
the language core, resolve at most one embedded tool directive, then commit
the turn pair back into memory, whose store retains the input's facts when
its items are next read (see `memory.MemoryStore`). The context is assembled
only for a core that can read it (`LanguageCore.reads_context`); any other
core gets "" as its context and the input as its prompt, with the same output.

Tool directives use the pinned surface grammar ``CALL(name, "args")``; the
args span runs to the last ``")`` in the core output and exactly one
directive is resolved per step (no recursive tool loops). Scripted response
templates use ``string.Template`` placeholders: ``$input``, ``$context``,
``$prompt``, plus any named groups captured by the matching rule pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from string import Template
from typing import Callable

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


CATCH_ALL_PATTERNS = frozenset({"", ".*", ".*?"})  # match at 0 of every string, no groups
CONTEXT_NAMES = frozenset({"context", "prompt"})


def compile_pattern(pattern: str) -> re.Pattern:
    """`pattern` compiled; InvalidArgument if `re.compile` rejects it, whether
    with re.error, OverflowError (a repeat count past the C range) or
    RecursionError (groups nested too deep)."""
    try:
        return re.compile(pattern)
    except (re.error, OverflowError, RecursionError) as exc:
        raise InvalidArgument(f"pattern {pattern!r} does not compile: {exc}") from None


def _placeholder_names(template: Template) -> set:
    """The names `template` substitutes, in both $name and ${name} forms ($$ escapes none)."""
    return {match["named"] or match["braced"]
            for match in template.pattern.finditer(template.template)} - {None}


class LanguageCore:
    """Deterministic text engine: (pattern, template) rules, tried in order.

    Each rule is compiled once, here, into a (re.Pattern, string.Template)
    pair kept in `rules`. A rule whose pattern or template is not a string,
    or whose pattern does not compile, raises InvalidArgument naming its index.
    `reads_context` is False when the first rule's pattern is in
    CATCH_ALL_PATTERNS and its template names neither $context nor $prompt:
    that rule then fires on every prompt, with no groups, and its output
    cannot depend on the context or the prompt.
    """

    __slots__ = ("rules", "reads_context")

    def __init__(self, rules):
        compiled = []
        for index, (pattern, template) in enumerate(rules):
            if not (isinstance(pattern, str) and isinstance(template, str)):
                raise InvalidArgument(f"rule {index}: pattern and template must be strings")
            try:
                compiled.append((compile_pattern(pattern), Template(template)))
            except InvalidArgument as exc:
                raise InvalidArgument(f"rule {index}: {exc}") from None
        if not compiled:
            raise InvalidArgument("scripted cores require a non-empty rule list")
        self.rules = tuple(compiled)
        pattern, template = compiled[0]
        self.reads_context = not (pattern.pattern in CATCH_ALL_PATTERNS
                                  and CONTEXT_NAMES.isdisjoint(_placeholder_names(template)))

    def generate(self, input_text: str, context: str, prompt: str) -> str:
        """The first rule whose pattern matches `prompt`, its template filled
        from the three texts and the match's named groups; "" if none matches."""
        for pattern, template in self.rules:
            match = pattern.search(prompt)
            if match is not None:
                mapping = {"input": input_text, "context": context, "prompt": prompt}
                mapping.update({k: v for k, v in match.groupdict().items() if v is not None})
                return template.safe_substitute(mapping)
        return ""


@dataclass
class Tool:
    """Named deterministic handler from argument text to result text."""

    name: str
    handler: Callable[[str], str]


@dataclass
class AgentSpec:
    """One agent: id, core, message schemas, tools by name, and its memory store.

    The memory partitions are views over the single store: the short-term
    window is the raw-log tail, while EPI/SEM/PROC are label filters over
    the item set.
    """

    id: str
    core: LanguageCore
    input_schema: frozenset = frozenset()
    output_schema: frozenset = frozenset()
    tools: dict = field(default_factory=dict)  # name -> Tool
    memory: MemoryStore = field(default_factory=MemoryStore)
    context_budget: int = DEFAULT_CONTEXT_BUDGET
    stm_tokens: int = DEFAULT_STM_TOKENS


def invoke_tool(agent: AgentSpec, name: str, args: str) -> str:
    """Run the agent's tool `name` and return its result text.

    A name the agent has no tool for raises UnknownTool. A result that is not
    a string, or any other exception the handler raises, becomes a
    ToolFailure naming the tool.
    """
    try:
        tool = agent.tools[name]
    except KeyError:
        raise UnknownTool(f"unknown tool: {name!r}") from None
    try:
        result = tool.handler(args)
    except ToolFailure:
        raise
    except Exception as exc:
        raise ToolFailure(f"{name}: {exc}") from exc
    if not isinstance(result, str):
        raise ToolFailure(f"{name}: result must be a string, not {type(result).__name__}")
    return result


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
    """One policy step: context, core, tool resolution, memory commit.

    The context is assembled only when the core reads it; otherwise it is ""
    and the prompt is the input, which gives the same output (see
    LanguageCore.reads_context). The commit appends the input and output to
    the raw log and queues the input for retention: its facts become EPI
    items, stamped `now`, when the agent's store is next read, by a later
    step's context or by a tool such as memory recall.
    """
    context = assemble_context(agent, input_text) if agent.core.reads_context else ""
    prompt = " ".join(part for part in (context, input_text) if part)
    raw = agent.core.generate(input_text, context, prompt)
    output = resolve_directives(agent, raw)
    update_memory(
        agent.memory,
        [("user", input_text), ("agent", output)],
        MemoryLabel.EPI,
        now,
    )
    return output
