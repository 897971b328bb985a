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
from agentrec.cli import CONFIG_SPEC, load_config, main, validate_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = ["party_planner", "simulate_colony", "multimodal_bundle", "explain_revision",
           "error_cascade"]
DELETE = object()


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
    ("cohort-without-id", "simulate_colony", ("cohorts", 0, "id"), DELETE, "cohorts"),
    ("negative-noise", "simulate_colony", ("cohorts", 0, "noise"), -1, "cohorts"),
    ("unknown-reward-kind", "simulate_colony", ("reward", "kind"), "bogus", "reward"),
    ("zero-horizon", "simulate_colony", ("horizon",), 0, "horizon"),
    ("unknown-theta-kind", "simulate_colony", ("cohorts", 1, "theta", "kind"), "psychic",
     "cohorts"),
    ("unknown-recommender-kind", "simulate_colony", ("recommender", "kind"), "oracle",
     "recommender"),
    ("text-cohort-count", "simulate_colony", ("cohorts", 0, "count"), "two", "cohorts"),
    ("text-alpha", "multimodal_bundle", ("alpha",), "half", "alpha"),
    ("text-categories", "multimodal_bundle", ("categories",), "chair", "categories"),
    ("text-palette-entry", "multimodal_bundle", ("scene_palette",), ["red"], "scene_palette"),
    ("text-transcript", "explain_revision", ("transcript",), "hello", "transcript"),
    ("zero-max-rounds", "explain_revision", ("max_rounds",), 0, "max_rounds"),
    ("list-facts", "explain_revision", ("facts",), ["gluten"], "facts"),
    ("repeated-node", "error_cascade", ("nodes",), ["retrieve", "rank", "present", "rank"],
     "nodes"),
    ("out-of-range-rate", "error_cascade", ("error_rates", "rank"), 2, "error_rates"),
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
     '[{"id": "rot_1"}, {"id": "rot_1"}]', "InvalidArgument", "unique"),
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


def test_spec_tool_kinds_match_the_tool_factories():
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    findings = []
    for kind in TOOL_KINDS:
        tool = {"name": "T", "kind": kind, "category": "cake"}
        config["agents"][0]["tools"] = [tool]
        CONFIG_SPEC(json.loads(json.dumps(config)), "", findings)
    assert findings == []


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
