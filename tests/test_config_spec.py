"""Config spec: every malformed config ends in an error record, never a traceback.

The run goes through `main(["run", ...])` in-process, so an exception that
escapes the CLI boundary fails the test instead of being printed.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from agentrec.blueprints import TOOL_KINDS
from agentrec.cli import CONFIG_SPEC, load_catalog, load_config, main, validate_config
from agentrec.errors import InvalidArgument
from agentrec.runtime import Environment, apply_env_update

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = ["party_planner", "simulate_colony", "multimodal_bundle", "explain_revision",
           "error_cascade"]
DELETE = object()
PARTY = json.loads((SCENARIOS / "party_planner.json").read_text())
PARTY_CHILDREN = PARTY["children"]


def _scenario_dir(tmp_path) -> Path:
    """A copy of the bundled scenarios and their data files."""
    work = tmp_path / "scenarios"
    shutil.copytree(SCENARIOS, work, ignore=shutil.ignore_patterns("out"))
    return work


def _set(config, path, value):
    *parents, last = path
    for key in parents:
        config = config[key]
    if value is DELETE:
        del config[last]
    else:
        config[last] = value


def _run(tmp_path, config, name="case"):
    """Runs `config` from the scenario copy; returns (status, error record or None)."""
    path = tmp_path / "scenarios" / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"{name}-out"
    status = main(["run", str(path), "--out", str(out)])
    error = out / "error.json"
    return status, json.loads(error.read_text()) if error.exists() else None


# name, scenario, field path, new value, field named in the message
CONFIG_CASES = [
    ("two-element-routing-edge", "party_planner", ("routing", 0), ["chat", "epi"], "routing"),
    ("agent-without-id", "party_planner", ("agents", 0, "id"), DELETE, "agents"),
    ("unknown-tool-kind", "party_planner", ("agents", 1, "tools", 0, "kind"), "teleport",
     "agents"),
    ("text-context-budget", "party_planner", ("budgets", "B"), "big", "budgets"),
    ("numeric-query", "party_planner", ("query",), 42, "query"),
    ("bool-seed", "party_planner", ("seed",), True, "seed"),
    ("three-name-allow-pair", "party_planner", ("matrix", "allow", 0), ["chat", "epi", "nli"],
     "matrix"),
    ("text-rules", "party_planner", ("agents", 0, "rules"), "x", "agents"),
    # re.compile rejects these with OverflowError and RecursionError, not re.error
    ("rule-repeat-past-c-range", "party_planner", ("agents", 0, "rules"),
     [["x{4294967295}", "$input"]], "agents[0].rules[0][0]: must be a regular expression"),
    ("rule-groups-nested-too-deep", "party_planner", ("agents", 0, "rules"),
     [["(" * 1000 + ")" * 1000, "$input"]], "agents[0].rules[0][0]: must be a regular expression"),
    ("children-of-undeclared-parent", "party_planner", ("children",),
     {"ghost": PARTY_CHILDREN["sac"]}, "children"),
    ("open-pair-unknown-agent", "party_planner", ("children", "sac", "open", 0),
     ["sac", "ghost"], "children"),
    ("self-allow-pair", "party_planner", ("matrix", "allow", 0), ["chat", "chat"], "matrix"),
    ("duplicate-recipient", "party_planner", ("routing", 3, 1),
     ["cake", "cake", "decor", "favor"], "routing"),
    # wiring faults, found by replaying the routing through the runtime's gates
    ("closed-first-channel", "party_planner", ("matrix", "allow"), PARTY["matrix"]["allow"][1:],
     "routing[0]: ChannelClosed"),
    ("child-routed-before-spawn", "party_planner", ("routing",),
     [PARTY["routing"][i] for i in (0, 1, 2, 4, 3, 5, 6, 7, 8)], "routing[3]: UnknownAgent"),
    ("chat-emits-ranked-list", "party_planner", ("agents", 0, "output_kinds"), ["ranked_list"],
     "routing[0]: SchemaViolation"),
    ("open-pair-names-another-parents-child", "party_planner", ("children",),
     {"sac": dict(PARTY_CHILDREN["sac"], open=PARTY_CHILDREN["sac"]["open"] + [["favor", "extra"]]),
      "rank": {"agents": [{"id": "extra"}]}}, "routing[3]: UnknownAgent"),
    ("repeated-tool-name", "party_planner", ("agents", 1, "tools"), PARTY["agents"][1]["tools"] * 2,
     "agents: InvalidArgument: duplicate tool name: 'MemoryRecall'"),
    ("child-repeated-tool-name", "party_planner", ("children", "sac", "agents", 0, "tools"),
     PARTY_CHILDREN["sac"]["agents"][0]["tools"] * 2,
     "agents: InvalidArgument: duplicate tool name: 'CakeSearch'"),
    ("closed-last-channel", "party_planner", ("matrix", "allow"), PARTY["matrix"]["allow"][:-1],
     "routing[8]: ChannelClosed"),
    # a replay steps no agent, so a rule's tool call is checked against the agent's tools
    ("rule-calls-unknown-tool", "party_planner", ("agents", 5, "rules"),
     [[".*", 'CALL(NoSuchTool, "$input")']],
     "agents: agent rank rule 0 calls unknown tool: NoSuchTool"),
    ("child-rule-calls-another-childs-tool", "party_planner",
     ("children", "sac", "agents", 0, "rules"), [[".*", 'CALL(DecorSearch, "$input")']],
     "children: agent cake rule 0 calls unknown tool: DecorSearch"),
    ("cohort-without-id", "simulate_colony", ("cohorts", 0, "id"), DELETE, "cohorts"),
    ("negative-noise", "simulate_colony", ("cohorts", 0, "noise"), -1, "cohorts"),
    ("unknown-reward-kind", "simulate_colony", ("reward", "kind"), "bogus", "reward"),
    ("zero-horizon", "simulate_colony", ("horizon",), 0, "horizon"),
    ("unknown-theta-kind", "simulate_colony", ("cohorts", 1, "theta", "kind"), "psychic",
     "cohorts"),
    ("unknown-recommender-kind", "simulate_colony", ("recommender", "kind"), "oracle",
     "recommender"),
    ("text-cohort-count", "simulate_colony", ("cohorts", 0, "count"), "two", "cohorts"),
    ("repeated-cohort-id", "simulate_colony", ("cohorts", 1, "id"), "engaged", "cohorts"),
    ("text-alpha", "multimodal_bundle", ("alpha",), "half", "alpha"),
    ("text-categories", "multimodal_bundle", ("categories",), "chair", "categories"),
    ("text-palette-entry", "multimodal_bundle", ("scene_palette",), ["red"], "scene_palette"),
    ("text-transcript", "explain_revision", ("transcript",), "hello", "transcript"),
    ("zero-max-rounds", "explain_revision", ("max_rounds",), 0, "max_rounds"),
    ("list-facts", "explain_revision", ("facts",), ["gluten"], "facts"),
    # an item's text is "<slot>: <value>", so such a slot would read back as "a"
    ("fact-slot-holding-separator", "party_planner", ("agents", 1, "memory_facts"),
     {"a: b": "x", "a": "y"}, "agents[1].memory_facts: slot 'a: b' must not contain ': '"),
    ("profile-fact-slot-holding-separator", "multimodal_bundle", ("profile_facts",),
     {"material_ban: x": "leather"}, "profile_facts: slot 'material_ban: x' must not contain"),
    ("session-fact-slot-holding-separator", "explain_revision", ("facts",), {"a: b": 1},
     "facts: slot 'a: b' must not contain ': '"),
    ("repeated-node", "error_cascade", ("nodes",), ["retrieve", "rank", "present", "rank"],
     "nodes"),
    ("out-of-range-rate", "error_cascade", ("error_rates", "rank"), 2, "error_rates"),
    ("rate-for-undeclared-node", "error_cascade", ("error_rates", "ghost"), 0.9,
     "error_rates"),
]

# name, scenario, data file, its new text, expected error, word in the message
FILE_CASES = [
    ("catalog-invalid-json", "explain_revision", "party_catalog.json", "[{not json",
     "ConfigInvalid", "catalog"),
    ("catalog-record-without-id", "explain_revision", "party_catalog.json",
     '[{"title": "cake"}]', "ConfigInvalid", "catalog"),
    ("catalog-not-a-list", "simulate_colony", "rotation_catalog.json", '{"id": "rot_1"}',
     "ConfigInvalid", "catalog"),
    ("empty-catalog", "explain_revision", "party_catalog.json", "[]", "ConfigInvalid",
     "catalog"),
    ("malformed-policy", "explain_revision", "brand_policy.json", '["guaranteed"]',
     "ConfigInvalid", "policy"),
    ("duplicate-catalog-ids", "simulate_colony", "rotation_catalog.json",
     '[{"id": "rot_1"}, {"id": "rot_1"}]', "ConfigInvalid", "unique"),
    ("numeric-catalog-title", "simulate_colony", "rotation_catalog.json",
     '[{"id": "rot_1"}, {"id": "rot_2", "title": 5}]', "ConfigInvalid", "record 1: title"),
    ("text-catalog-tags", "simulate_colony", "rotation_catalog.json",
     '[{"id": "rot_1", "tags": "home"}]', "ConfigInvalid", "record 0: tags"),
    ("text-banned-terms", "explain_revision", "brand_policy.json",
     '{"banned_terms": "guaranteed"}', "ConfigInvalid", "banned_terms"),
]


@pytest.mark.parametrize("name, scenario, path, value, field", CONFIG_CASES,
                         ids=[case[0] for case in CONFIG_CASES])
def test_malformed_config_field_gives_config_invalid(tmp_path, capsys, name, scenario, path,
                                                     value, field):
    _scenario_dir(tmp_path)
    config = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    _set(config, path, value)
    status, record = _run(tmp_path, config)
    assert status == 1
    assert set(record) == {"error", "message"}
    assert record["error"] == "ConfigInvalid"
    assert field in record["message"]
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == record
    assert [path.name for path in (tmp_path / "case-out").iterdir()] == ["error.json"]
    assert main(["validate", str(tmp_path / "scenarios" / "case.json")]) == 1
    assert field in capsys.readouterr().out


@pytest.mark.parametrize("name, scenario, data_file, text, error, word", FILE_CASES,
                         ids=[case[0] for case in FILE_CASES])
def test_malformed_data_file_gives_error_record(tmp_path, capsys, name, scenario, data_file,
                                                text, error, word):
    work = _scenario_dir(tmp_path)
    (work / data_file).write_text(text)
    status, record = _run(tmp_path, json.loads((SCENARIOS / f"{scenario}.json").read_text()))
    assert status == 1
    assert set(record) == {"error", "message"}
    assert record["error"] == error
    assert word in record["message"]


@pytest.mark.parametrize("text", ["hello", "[1]", '{"ranked": [["a"]]}',
                                  '{"ranked": [["cake_1", "x"]]}', '{"ranked": [["cake_1", NaN]]}'])
def test_malformed_ranked_list_gives_payload_invalid(tmp_path, text):
    _scenario_dir(tmp_path)
    config = json.loads(json.dumps(PARTY))
    config["agents"][5]["rules"] = [[".*", text]]
    status, record = _run(tmp_path, config)
    assert status == 1
    assert record["error"] == "PayloadInvalid"
    assert record["message"].startswith("ranked_list message 8: ")


BIG = 10 ** 400  # a JSON integer too large for a float
# name, data file (None: the multimodal config itself), path of the number, value,
# field of the validate finding
EDGE_NUMBER_CASES = [
    ("config-float", None, ("alpha",), BIG, "alpha"),
    ("negative-config-float", None, ("tau",), -BIG, "tau"),
    ("scene-palette-entry", None, ("scene_palette", 2), BIG, "scene_palette"),
    ("catalog-price", "furniture_catalog.json", (0, "price"), BIG, "catalog"),
    ("negative-catalog-price", "furniture_catalog.json", (0, "price"), -BIG, "catalog"),
    ("palette-entry", "furniture_catalog.json", (0, "palette", 1), BIG, "catalog"),
    ("negative-palette-entry", "furniture_catalog.json", (0, "palette", 1), -BIG, "catalog"),
    # each number is finite, but the squared norm overflows, and a cosine
    # of it would read NaN and clamp it to 1.0
    ("scene-palette-norm", None, ("scene_palette",), [1e308, 1e308, 1e308], "scene_palette"),
    ("int-scene-palette-norm", None, ("scene_palette",), [10 ** 200, 0, 0], "scene_palette"),
    ("palette-norm", "furniture_catalog.json", (0, "palette"), [1e308, 1e308, 1e308],
     "catalog"),
    ("int-palette-norm", "furniture_catalog.json", (0, "palette"), [-10 ** 200, 0, 0],
     "catalog"),
]


@pytest.mark.parametrize("name, data_file, path, value, field", EDGE_NUMBER_CASES,
                         ids=[case[0] for case in EDGE_NUMBER_CASES])
def test_number_past_the_float_range_fails_validate_and_run(tmp_path, capsys, name, data_file,
                                                            path, value, field):
    work = _scenario_dir(tmp_path)
    config = json.loads((SCENARIOS / "multimodal_bundle.json").read_text())
    if data_file is None:
        _set(config, path, value)
    else:
        records = json.loads((work / data_file).read_text())
        _set(records, path, value)
        (work / data_file).write_text(json.dumps(records))
    status, record = _run(tmp_path, config)
    assert status == 1 and set(record) == {"error", "message"}
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == record
    assert main(["validate", str(work / "case.json")]) == 1
    findings = capsys.readouterr().out.splitlines()
    assert findings and all(finding.startswith(f"{field}") for finding in findings)
    if data_file is None:  # a config finding is the run's whole message
        assert record == {"error": "ConfigInvalid", "message": "; ".join(findings)}


@pytest.mark.parametrize("field, value, rule", [
    ("price", BIG, "price: must be a finite number"),
    ("price", -BIG, "price: must be a finite number"),
    ("palette", [0.8, BIG, 0.0], "palette: must be null or a list of finite numbers"),
    ("palette", [1e308, 1e308, 1e308], "palette: must have a finite squared norm"),
], ids=["price", "negative-price", "palette-entry", "palette-norm"])
def test_delta_number_past_the_float_range_names_the_op(field, value, rule):
    env = Environment(catalog=load_catalog(SCENARIOS / "furniture_catalog.json"))
    delta = [{"op": "set_item_field", "id": "sofa_boho", "field": "title", "value": "renamed"},
             {"op": "set_item_field", "id": "chair_rattan", "field": field, "value": value}]
    with pytest.raises(InvalidArgument) as excinfo:
        apply_env_update(env, delta)
    assert str(excinfo.value) == f"delta op 1: {rule}"
    assert env.version == 0 and env.item_by_id("chair_rattan").price == 120.0
    assert env.item_by_id("sofa_boho").title != "renamed"


@pytest.mark.parametrize("name", BUNDLED)
def test_load_config_fills_every_default(name):
    config = load_config(SCENARIOS / f"{name}.json")
    again = CONFIG_SPEC(json.loads(json.dumps(config)), "", [])
    assert again == config  # a filled config is a fixed point of the spec


def test_defaults_come_from_the_spec(tmp_path):
    path = tmp_path / "cascade.json"
    path.write_text(json.dumps({"kind": "cascade", "seed": 1, "nodes": ["a", "b"],
                                "error_rates": {"a": 0}}))
    config = load_config(path)
    assert config["trials"] == 100000
    assert config["edges"] == []
    assert config["error_rates"] == {"a": 0.0, "b": 0.0}
    assert isinstance(config["error_rates"]["a"], float)
    assert config["out"] == "out" and config["catalog"] is None


def test_validate_lists_every_finding_with_its_path(tmp_path):
    config = json.loads((SCENARIOS / "simulate_colony.json").read_text())
    config["horizon"] = "long"
    config["cohorts"][1]["theta"] = {"kind": "text"}
    config["reward"] = {"kind": "diversity_penalty", "penalty": -0.5}
    _scenario_dir(tmp_path)
    path = tmp_path / "scenarios" / "many.json"
    path.write_text(json.dumps(config))
    assert validate_config(path) == [
        {"field": "cohorts[1].theta.text", "rule": "required"},
        {"field": "horizon", "rule": "must be an integer >= 1"},
        {"field": "reward.penalty", "rule": "must be a finite number in [0, inf]"},
    ]
    assert main(["validate", str(path)]) == 1


def test_validate_reports_each_rate_for_an_undeclared_node(tmp_path, capsys):
    config = json.loads((SCENARIOS / "error_cascade.json").read_text())
    config["error_rates"].update(ghost=0.9, alpha=0.0)
    path = tmp_path / "cascade.json"
    path.write_text(json.dumps(config))
    assert validate_config(path) == [
        {"field": "error_rates", "rule": "rate for an undeclared node: alpha"},
        {"field": "error_rates", "rule": "rate for an undeclared node: ghost"},
    ]
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == ("error_rates: rate for an undeclared node: alpha\n"
                                       "error_rates: rate for an undeclared node: ghost\n")


def test_validate_reports_a_repeated_cohort_id(tmp_path, capsys):
    # simulators are named and seeded from their cohort's id, so two cohorts
    # of one id would run the same sessions and report as one row
    config = json.loads((SCENARIOS / "simulate_colony.json").read_text())
    config["cohorts"] += [dict(config["cohorts"][1], count=1), dict(config["cohorts"][0])]
    path = tmp_path / "colony.json"
    path.write_text(json.dumps(config))
    shutil.copy(SCENARIOS / "rotation_catalog.json", tmp_path / "rotation_catalog.json")
    assert validate_config(path) == [
        {"field": "cohorts", "rule": "duplicate cohort id: drifting"},
        {"field": "cohorts", "rule": "duplicate cohort id: engaged"},
    ]
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == ("cohorts: duplicate cohort id: drifting\n"
                                       "cohorts: duplicate cohort id: engaged\n")


# a fact value is a string or a finite number; each of these is a JSON literal
# that parses to a bool, a non-finite float or an int too large for a float
FACT_LITERALS = ["true", "NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400]
FACT_FIELDS = [("party_planner", ("agents", 1, "memory_facts"), "agents[1].memory_facts"),
               ("multimodal_bundle", ("profile_facts",), "profile_facts"),
               ("explain_revision", ("facts",), "facts")]


@pytest.mark.parametrize("literal", FACT_LITERALS)
@pytest.mark.parametrize("scenario, path, field", FACT_FIELDS, ids=[f[0] for f in FACT_FIELDS])
def test_fact_value_that_is_not_a_string_or_finite_number_fails_validate_and_run(
        tmp_path, capsys, scenario, path, field, literal):
    work = _scenario_dir(tmp_path)
    config = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    _set(config, path + ("budget",), "<value>")
    (work / "case.json").write_text(json.dumps(config).replace('"<value>"', literal))
    rule = {"field": f"{field}.budget", "rule": "must be a string or a finite number"}
    assert validate_config(work / "case.json") == [rule]
    out = tmp_path / "case-out"
    assert main(["run", str(work / "case.json"), "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text()) == {
        "error": "ConfigInvalid", "message": f"{rule['field']}: {rule['rule']}"}
    capsys.readouterr()


def test_fact_values_are_kept_as_given(tmp_path):
    config = json.loads((SCENARIOS / "multimodal_bundle.json").read_text())
    config["profile_facts"].update(budget=200, ratio=0.5)
    path = _scenario_dir(tmp_path) / "facts.json"
    path.write_text(json.dumps(config))
    facts = load_config(path)["profile_facts"]
    assert facts == {"material_ban": "leather", "budget": 200, "ratio": 0.5}
    assert type(facts["budget"]) is int


def test_spec_tool_kinds_match_the_tool_factories():
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    findings = []
    for kind in TOOL_KINDS:
        tool = {"name": "T", "kind": kind, "category": "cake"}
        config["agents"][0]["tools"] = [tool]
        CONFIG_SPEC(json.loads(json.dumps(config)), "", findings)
    assert findings == []


def test_tool_cost_tokens_key_is_ignored(tmp_path):
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    _scenario_dir(tmp_path)
    assert _run(tmp_path, config, "plain") == (0, None)
    agents = config["agents"] + [child for decl in config["children"].values()
                                 for child in decl["agents"]]
    tools = [tool for agent in agents for tool in agent.get("tools", [])]
    for tool in tools:
        tool["cost_tokens"] = -1
    assert tools and _run(tmp_path, config, "costed") == (0, None)
    assert ((tmp_path / "costed-out" / "trace.jsonl").read_bytes()
            == (tmp_path / "plain-out" / "trace.jsonl").read_bytes())


# mutation fuzz ---------------------------------------------------------------------

def _paths(value, prefix=()):
    """Every (path, value) below `value`, objects and lists included."""
    found = []
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, entry in items:
        found.append((prefix + (key,), entry))
        found.extend(_paths(entry, prefix + (key,)))
    return found


RETYPED = [None, True, False, 0, 1, -1, 2.5, float("inf"), "", "x", "(((", [], [1], ["x"],
           {}, {"x": 1}]


def _mutate(rng, config):
    """Deletes, retypes or corrupts one field at a random depth."""
    path, value = rng.choice(_paths(config))
    action = rng.choice(("delete", "retype", "corrupt"))
    if action == "delete":
        _set(config, path, DELETE)
    elif action == "retype":
        _set(config, path, rng.choice(RETYPED))
    elif isinstance(value, list) and value:
        _set(config, path, rng.choice([value + value[:1], value[1:], [], value[::-1]]))
    elif isinstance(value, bool) or not isinstance(value, (int, float, str)):
        _set(config, path, rng.choice(RETYPED))
    elif isinstance(value, str):
        _set(config, path, rng.choice([value + "x", value.upper(), value[:1], " "]))
    else:
        _set(config, path, rng.choice([-value, value * 3, value - 1, 0]))


@pytest.mark.parametrize("name", BUNDLED)
def test_mutation_fuzz_ends_in_exit_0_or_error_record(tmp_path, capsys, name):
    _scenario_dir(tmp_path)
    rng = random.Random(f"config-fuzz/{name}")
    base = json.loads((SCENARIOS / f"{name}.json").read_text())
    if name == "error_cascade":
        base["trials"] = 2000  # keeps each run short; trials is mutated like any field
    for run in range(40):
        config = json.loads(json.dumps(base))
        for _ in range(rng.randint(1, 2)):
            _mutate(rng, config)
        status, record = _run(tmp_path, config, name=f"fuzz-{run}")
        assert status in (0, 1), config
        if status == 1:
            assert set(record) == {"error", "message"}, config
            assert all(isinstance(v, str) for v in record.values()), config
        capsys.readouterr()


# wiring fuzz -----------------------------------------------------------------------

PARTY_IDS = [agent["id"] for agent in PARTY["agents"] + PARTY_CHILDREN["sac"]["agents"]]
PARTY_KINDS = sorted({kind for _, _, kind in PARTY["routing"]})
WIRING_ERRORS = {"ChannelClosed", "UnknownAgent", "SchemaViolation", "SelfChannel",
                 "InvalidArgument", "ConfigInvalid", "UnknownTool"}


def _wiring(path) -> bool:
    """matrix.allow, routing, children.*.open and .agents, and each agent's
    input_kinds, output_kinds and tools."""
    return (path[-1] in ("allow", "routing", "open", "input_kinds", "output_kinds", "tools")
            or path[0] == "children" and path[-1] == "agents")


def _mutate_wiring(rng, config):
    """Drops, duplicates, swaps, renames or retypes one entry of one wiring list."""
    path, entries = rng.choice([(path, value) for path, value in _paths(config)
                                if _wiring(path) and value])
    entries = json.loads(json.dumps(entries))
    i, j = rng.randrange(len(entries)), rng.randrange(len(entries))
    action = rng.choice(("drop", "duplicate", "swap", "rename", "retype"))
    if action == "drop":
        del entries[i]
    elif action == "duplicate":
        entries.insert(j, json.loads(json.dumps(entries[i])))
    elif action == "swap":
        entries[i], entries[j] = entries[j], entries[i]
    else:  # one string inside entry i becomes an agent id or a message kind
        names = PARTY_IDS + ["ghost"] if action == "rename" else PARTY_KINDS + ["gossip"]
        leaves = [leaf for leaf, value in _paths(entries)
                  if leaf[0] == i and isinstance(value, str)]
        _set(entries, rng.choice(leaves), rng.choice(names))
    _set(config, path, entries)


def test_wiring_fuzz_validate_agrees_with_run(tmp_path, capsys):
    # validate fails iff run fails at load with the same findings; a config that
    # validates never fails a run on a wiring gate
    _scenario_dir(tmp_path)
    rng = random.Random("wiring-fuzz")
    invalid = 0
    for case in range(200):
        config = json.loads(json.dumps(PARTY))
        for _ in range(rng.randint(1, 2)):
            _mutate_wiring(rng, config)
        status, record = _run(tmp_path, config, name=f"wiring-{case}")
        capsys.readouterr()
        if main(["validate", str(tmp_path / "scenarios" / f"wiring-{case}.json")]):
            invalid += 1
            findings = "; ".join(capsys.readouterr().out.splitlines())
            assert record == {"error": "ConfigInvalid", "message": findings}, config
        else:
            assert status == 0 or record["error"] not in WIRING_ERRORS, (config, record)
    assert 40 <= invalid <= 160  # both sides of the equivalence are exercised
