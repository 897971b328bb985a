"""Agent core: compiled rule cores, tool invocation, the step pipeline."""

import random
import re

import pytest

from agentrec import agents
from agentrec.agents import (
    CATCH_ALL_PATTERNS,
    AgentSpec,
    LanguageCore,
    Tool,
    assemble_context,
    invoke_tool,
    resolve_directives,
    step_agent,
)
from agentrec.errors import InvalidArgument, ToolFailure, UnknownTool
from agentrec.memory import MemoryLabel, make_item, store_to_jsonl, update_memory


def make_agent(rules, tools=(), **kwargs):
    return AgentSpec(id=kwargs.pop("id", "a1"),
                     core=LanguageCore(rules),
                     tools={tool.name: tool for tool in tools},
                     **kwargs)


# scripted core -------------------------------------------------------------

def test_scripted_rule_table_lookup():
    agent = make_agent([(r"recommend.*mystery", "Try: The Hound")])
    assert step_agent(agent, "recommend a mystery novel", now=0) == "Try: The Hound"


def test_followup_references_prior_item_via_stm():
    agent = make_agent([
        (r"Try: (?P<last>The \w+).*more like the last one",
         "Similar to $last: The Valley of Fear"),
        (r"recommend.*mystery", "Try: The Hound"),
    ])
    step_agent(agent, "recommend a mystery novel", now=0)
    reply = step_agent(agent, "more like the last one", now=1)
    assert "The Hound" in reply
    assert reply == "Similar to The Hound: The Valley of Fear"


def test_no_matching_rule_yields_empty_output():
    agent = make_agent([(r"never-matches-xyz", "nope")])
    assert step_agent(agent, "hello", now=0) == ""


def test_first_matching_rule_wins():
    agent = make_agent([(r"cake", "first"), (r"cake", "second")])
    assert step_agent(agent, "cake please", now=0) == "first"


def test_core_fills_templates_from_named_groups_and_leaves_unknown_names():
    core = LanguageCore([(r"theme (?P<theme>\w+)", "theme is $theme; $input"),
                         (r"(?P<input>\w+) please", "$input!"),
                         (r"cake", "$missing cake")])
    assert core.generate("hi", "", "theme pirates") == "theme is pirates; hi"
    assert core.generate("hi", "", "tea please") == "tea!"  # a named group wins
    assert core.generate("hi", "", "a cake") == "$missing cake"


# a repeat count past the C range (OverflowError) and groups nested past the
# compiler's recursion limit (RecursionError) are rejected like a re.error
@pytest.mark.parametrize("rule", [("(", "x"), (5, "x"), (b"x", "x"), ("x", 5),
                                  ("x{4294967295}", "x"), ("(" * 1000 + ")" * 1000, "x")])
def test_core_rejects_a_malformed_rule_when_built(rule):
    with pytest.raises(InvalidArgument, match=r"^rule 0: "):
        LanguageCore([rule])
    with pytest.raises(InvalidArgument, match=r"^rule 1: "):
        LanguageCore([(r".*", "ok"), rule])


def test_core_compiles_its_rules_only_when_built(monkeypatch):
    agent = make_agent([(r"theme (?P<theme>\w+)", "theme is $theme"), (r".*", "fallback")])

    def no_compile(*args, **kwargs):
        raise AssertionError("re.compile called after the core was built")

    monkeypatch.setattr(re, "compile", no_compile)
    assert agent.core.generate("x", "", "other") == "fallback"
    assert step_agent(agent, "theme pirates", now=0) == "theme is pirates"


def test_scripted_core_requires_rules():
    with pytest.raises(InvalidArgument):
        LanguageCore(())


# tool directives -------------------------------------------------------------

CATALOG_5 = [
    {"id": "c1", "flavor": "chocolate", "gluten_free": True},
    {"id": "c2", "flavor": "chocolate", "gluten_free": False},
    {"id": "c3", "flavor": "vanilla", "gluten_free": True},
    {"id": "c4", "flavor": "chocolate", "gluten_free": True},
    {"id": "c5", "flavor": "berry", "gluten_free": False},
]


def cake_search(args: str) -> str:
    want_gluten_free = "gluten-free" in args or "gluten free" in args
    matches = [
        item["id"] for item in CATALOG_5
        if (not want_gluten_free or item["gluten_free"])
        and item["flavor"] in args
    ]
    return ",".join(matches)


def test_invoke_tool_filters_catalog():
    agent = make_agent([(r".*", "$input")],
                       tools=[Tool("CakeSearch", cake_search)])
    result = invoke_tool(agent, "CakeSearch", "gluten-free chocolate")
    assert result == "c1,c4"


def test_step_resolves_embedded_directive():
    agent = make_agent([(r".*", "$input")],
                       tools=[Tool("CakeSearch", cake_search)])
    out = step_agent(agent, 'CALL(CakeSearch, "gluten-free chocolate")', now=0)
    assert "c1" in out and "c4" in out and "c2" not in out


def test_directive_resolution_single_pass():
    # the tool result may itself contain directive-looking text: not re-resolved
    calls = []

    def echo(args):
        calls.append(args)
        return 'CALL(Echo, "again")'

    agent = make_agent([(r".*", '$input')], tools=[Tool("Echo", echo)])
    out = resolve_directives(agent, 'CALL(Echo, "x")')
    assert out == 'CALL(Echo, "again")'
    assert calls == ["x"]


def test_directive_args_may_embed_quotes():
    seen = {}

    def capture(args):
        seen["args"] = args
        return "ok"

    agent = make_agent([(r".*", "$input")], tools=[Tool("Cap", capture)])
    payload = '{"items": [["c1", 0.5]], "query": "cake"}'
    resolve_directives(agent, f'CALL(Cap, "{payload}")')
    assert seen["args"] == payload


def test_unknown_tool():
    agent = make_agent([(r".*", "$input")])
    with pytest.raises(UnknownTool):
        invoke_tool(agent, "NoSuchAPI", "x")


def test_tool_failure_carries_tool_name():
    def boom(args):
        raise RuntimeError("backend down")

    agent = make_agent([(r".*", "$input")], tools=[Tool("Flaky", boom)])
    with pytest.raises(ToolFailure) as excinfo:
        invoke_tool(agent, "Flaky", "x")
    assert "Flaky" in str(excinfo.value)


@pytest.mark.parametrize("result, kind", [(5, "int"), (None, "NoneType"), (b"x", "bytes")])
def test_tool_result_that_is_not_a_string_is_a_tool_failure(result, kind):
    agent = make_agent([(r".*", 'CALL(T, "$input")')], tools=[Tool("T", lambda args: result)])
    with pytest.raises(ToolFailure, match=rf"^T: result must be a string, not {kind}$"):
        step_agent(agent, "x", now=0)


# step pipeline ------------------------------------------------------------------

def test_each_step_appends_one_turn_pair():
    agent = make_agent([(r".*", "echo")])
    for i in range(3):
        step_agent(agent, f"turn {i}", now=i)
    assert len(agent.memory.raw_log) == 6
    speakers = [speaker for speaker, _ in agent.memory.raw_log]
    assert speakers == ["user", "agent"] * 3


def test_prompt_never_exceeds_budget_plus_input():
    agent = make_agent([(r".*", "ok")], context_budget=12, stm_tokens=6)
    # preload memory with plenty of material
    for i in range(10):
        slot = f"s{i}"
        agent.memory.items[(slot, MemoryLabel.EPI)] = make_item(
            slot, "alpha beta gamma delta", MemoryLabel.EPI, now=i)
        agent.memory.raw_log.append(("user", f"filler words number {i} here"))
    for query in ("alpha beta", "gamma delta epsilon zeta", "unrelated"):
        context = assemble_context(agent, query)
        prompt = " ".join(p for p in (context, query) if p)
        assert len(prompt.split()) <= agent.context_budget + len(query.split())


def test_step_commits_retained_facts_with_agent_label():
    agent = make_agent([(r".*", "noted")])
    step_agent(agent, "theme = mickey mouse", now=0)
    item = agent.memory.items[("theme", MemoryLabel.EPI)]
    assert item.canonical_text() == "theme: mickey mouse"


def test_scripted_agents_are_deterministic():
    def run():
        agent = make_agent([
            (r"Try: (?P<last>[A-Z][\w ]+?) .*more", "again $last"),
            (r"mystery", "Try: The Hound"),
            (r".*", "fallback"),
        ])
        outputs = [step_agent(agent, text, now=i) for i, text in enumerate(
            ["a mystery please", "more", "something else"])]
        return outputs, list(agent.memory.raw_log)

    assert run() == run()


# context assembly ------------------------------------------------------------------

def reference_step(agent, input_text, now):
    """The step pipeline with the context always assembled: what every step must equal."""
    context = assemble_context(agent, input_text)
    prompt = " ".join(part for part in (context, input_text) if part)
    output = resolve_directives(agent, agent.core.generate(input_text, context, prompt))
    update_memory(agent.memory, [("user", input_text), ("agent", output)], MemoryLabel.EPI, now)
    return output


FUZZ_PATTERNS = [".*", "", ".*?", "(?:.*)", "(.*)", r"(?P<word>\w+)", r"(?P<context>\w+)",
                 "cake", "pirates", r"\w+ \w+"]
READING_FRAGMENTS = ["$context", "${context}", "$prompt", "${prompt}"]
BLIND_FRAGMENTS = ["$input", "${input}", "$$context", "$${prompt}", "$word", "$Context", "lit",
                   'CALL(Echo, "$input")']
WORDS = ["cake", "pirates", "theme", "gluten", "blue", "party", "x", "é", "\n", "="]
FUZZ_INPUTS = ["theme = pirates", "cake please", "", "\n", "\r\n x", "blue gluten party"]


def _fuzz_agent(rng):
    rules = [(rng.choice(FUZZ_PATTERNS),
              " ".join(rng.choice(READING_FRAGMENTS + BLIND_FRAGMENTS * 2)
                       for _ in range(rng.randint(1, 3))))
             for _ in range(rng.randint(1, 3))]
    items = [make_item(f"s{rng.randrange(30)}", " ".join(rng.choices(WORDS, k=rng.randint(1, 5))),
                       rng.choice(list(MemoryLabel)), rng.randrange(50))
             for _ in range(rng.choice([0, 3, 12, 25]))]
    log = [(rng.choice(["user", "agent"]), " ".join(rng.choices(WORDS, k=rng.randint(0, 6))))
           for _ in range(rng.randint(0, 8))]
    budget = rng.randint(1, 40)
    stm = rng.randint(1, 20)

    def build():
        agent = make_agent(rules, tools=[Tool("Echo", lambda args: args[::-1])],
                           context_budget=budget, stm_tokens=stm)
        agent.memory.items.update(((item.slot(), item.meta.label), item) for item in items)
        agent.memory.raw_log.extend(log)
        return agent

    return rules, build


@pytest.mark.parametrize("seed", range(4))
def test_step_equals_a_step_that_always_assembles_the_context(seed):
    rng = random.Random(seed)
    for _ in range(60):
        rules, build = _fuzz_agent(rng)
        fast, slow = build(), build()
        pattern, template = rules[0]
        blind = (pattern in CATCH_ALL_PATTERNS
                 and not any(fragment in template.split() for fragment in READING_FRAGMENTS))
        assert fast.core.reads_context is not blind, rules
        for now in range(rng.randint(1, 4)):
            text = rng.choice(FUZZ_INPUTS + [" ".join(rng.choices(WORDS, k=3))])
            assert step_agent(fast, text, now) == reference_step(slow, text, now), rules
        assert fast.memory.raw_log == slow.memory.raw_log
        assert store_to_jsonl(fast.memory) == store_to_jsonl(slow.memory)


def _preloaded(rules):
    agent = make_agent(rules, tools=[Tool("Echo", str.upper)], context_budget=8)
    for i in range(4):
        agent.memory.items[(f"s{i}", MemoryLabel.EPI)] = make_item(
            f"s{i}", "cake pirates", MemoryLabel.EPI, now=i)
    agent.memory.raw_log.append(("user", "earlier cake words"))
    return agent


@pytest.mark.parametrize("rule", [(".*", "$input"), ("", "say $input"),
                                  (".*?", "$$context $${prompt} $input"),
                                  (".*", 'CALL(Echo, "$input")')])
def test_catch_all_core_steps_without_assembling_its_context(monkeypatch, rule):
    def forbidden(*args):
        raise AssertionError("the context was assembled")

    rules = [rule, ("cake", "$context")]
    expected = reference_step(_preloaded(rules), "theme = pirates", now=9)
    monkeypatch.setattr(agents, "regulate_context", forbidden)
    monkeypatch.setattr(agents, "tail_window", forbidden)
    agent = _preloaded(rules)
    assert step_agent(agent, "theme = pirates", now=9) == expected
    assert agent.memory.items[("theme", MemoryLabel.EPI)].canonical_text() == "theme: pirates"


@pytest.mark.parametrize("rules", [[(".*", "$context | $input")], [(".*", "${prompt}")],
                                   [("(?:.*)", "$input")], [("cake", "$input"), (".*", "$input")]])
def test_core_that_can_read_its_context_assembles_it(monkeypatch, rules):
    calls = []

    def recording(name):
        original = getattr(agents, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("tail_window", "regulate_context"):
        monkeypatch.setattr(agents, name, recording(name))
    step_agent(_preloaded(rules), "cake please", now=9)
    assert calls == ["tail_window", "regulate_context"]


@pytest.mark.parametrize("source", sorted(CATCH_ALL_PATTERNS))
def test_catch_all_source_matches_every_string_at_zero_without_groups(source):
    pattern = re.compile(source)
    rng = random.Random(source)
    texts = ["", "\n", "\r\n x", "\x00", " \t"]
    texts += ["".join(rng.choices("ab \n\r\t\x00\x0bé\u2028😀(*", k=rng.randint(0, 12)))
              for _ in range(500)]
    assert pattern.groups == 0
    for text in texts:
        match = pattern.search(text)
        assert match is not None and match.start() == 0 and match.groupdict() == {}, text
