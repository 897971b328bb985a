"""Config spec: every malformed config ends in an error record, never a traceback.

FAULTS is the one table of the CLI's fault cases. Each row runs through two
entry points with the same assertions: `main(["run", ...])` in-process, so an
exception that escapes the CLI boundary fails the test instead of being
printed, and `python -m agentrec.cli` in a fresh interpreter, which imports
the agentrec this process imported (`src/`, or an installed package).
"""

import json
import random
import shutil
from pathlib import Path
from typing import NamedTuple

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
COLONY = json.loads((SCENARIOS / "simulate_colony.json").read_text())
CASCADE = json.loads((SCENARIOS / "error_cascade.json").read_text())
ROTATION = json.loads((SCENARIOS / "rotation_catalog.json").read_text())


def _scenario_dir(tmp_path, name="scenarios") -> Path:
    """A copy of the bundled scenarios and their data files, at tmp_path / name."""
    work = tmp_path / name
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


# the fault table ---------------------------------------------------------------------

class Literal(str):
    """A value written into the JSON file as this text, such as 1e999, which
    no Python value dumps to."""


def _edited(name, edits) -> str:
    """The bundled JSON file `name` with each (path -> value) edit made, as text."""
    value = json.loads((SCENARIOS / name).read_text())
    literals = {}
    for path, new in edits.items():
        if isinstance(new, Literal):
            new = literals.setdefault(new, f"<literal {len(literals)}>")
        _set(value, path, new)
    text = json.dumps(value)
    for literal, placeholder in literals.items():
        text = text.replace(json.dumps(placeholder), literal)
    return text


class Fault(NamedTuple):
    """One fault the CLI must refuse: a bundled scenario's config with `config`
    edits (path -> value, or DELETE), run beside its data files with `files`
    edits (name -> text, or None to remove it; the scenario's own file name
    replaces the config, "out" makes --out a file).

    `error` is the run's error name; "Name: message" also gives its message,
    for a fault validate does not report as the run does. Without a message,
    the run's is validate's one finding "<field>: Name: <message>" when a
    finding names the error so, else validate's findings joined by "; ". `validate` is what
    validate prints: None, nothing (exit 0: the fault shows only in a run); a
    str, text every finding line starts with; a tuple, exactly its lines. A
    leg's directory reads as <work> in every output.
    """
    id: str
    scenario: str
    config: dict = {}
    files: dict = {}
    error: str = "ConfigInvalid"
    validate: str | tuple | None = None


BIG = 10 ** 400  # a JSON integer too large for a float
DEEP = "[" * 100000 + "]" * 100000  # json.loads raises RecursionError, not ValueError
RANKED_LIST_INVALID = ("PayloadInvalid: ranked_list message 8: must be a JSON object whose "
                       "ranked is a list of [item id, finite number] pairs")
CYCLE = "edges: CyclicGraph: agent dependency graph contains a cycle"
TAG_CLASH = "InvalidArgument: required and forbidden tags must be disjoint"
# a fact value is a string or a finite number; each of these is a JSON literal
# that parses to a bool, a non-finite float or an int too large for a float
FACT_LITERALS = {"bool": "true", "nan": "NaN", "infinity": "Infinity",
                 "negative-infinity": "-Infinity", "float-past-range": "1e999",
                 "int-past-float-range": "1" + "0" * 400}
FACT_FIELDS = [("memory-fact", "party_planner", ("agents", 1, "memory_facts"),
                "agents[1].memory_facts"),
               ("profile-fact", "multimodal_bundle", ("profile_facts",), "profile_facts"),
               ("session-fact", "explain_revision", ("facts",), "facts")]

FAULTS = [
    # field rules
    Fault("two-element-routing-edge", "party_planner", {("routing", 0): ["chat", "epi"]},
          validate="routing"),
    Fault("agent-without-id", "party_planner", {("agents", 0, "id"): DELETE}, validate="agents"),
    Fault("unknown-tool-kind", "party_planner", {("agents", 1, "tools", 0, "kind"): "teleport"},
          validate="agents"),
    Fault("text-context-budget", "party_planner", {("budgets", "B"): "big"}, validate="budgets"),
    Fault("numeric-query", "party_planner", {("query",): 42}, validate="query"),
    Fault("bool-seed", "party_planner", {("seed",): True}, validate="seed"),
    Fault("three-name-allow-pair", "party_planner",
          {("matrix", "allow", 0): ["chat", "epi", "nli"]}, validate="matrix"),
    Fault("text-rules", "party_planner", {("agents", 0, "rules"): "x"}, validate="agents"),
    # re.compile rejects these with OverflowError and RecursionError, not re.error
    Fault("rule-repeat-past-c-range", "party_planner",
          {("agents", 0, "rules"): [["x{4294967295}", "$input"]]},
          validate="agents[0].rules[0][0]: must be a regular expression"),
    Fault("rule-groups-nested-too-deep", "party_planner",
          {("agents", 0, "rules"): [["(" * 1000 + ")" * 1000, "$input"]]},
          validate="agents[0].rules[0][0]: must be a regular expression"),
    Fault("children-of-undeclared-parent", "party_planner",
          {("children",): {"ghost": PARTY_CHILDREN["sac"]}}, validate="children"),
    Fault("open-pair-unknown-agent", "party_planner",
          {("children", "sac", "open", 0): ["sac", "ghost"]}, validate="children"),
    Fault("self-allow-pair", "party_planner", {("matrix", "allow", 0): ["chat", "chat"]},
          validate="matrix"),
    Fault("duplicate-recipient", "party_planner",
          {("routing", 3, 1): ["cake", "cake", "decor", "favor"]}, validate="routing"),
    Fault("repeated-agent-id", "party_planner",
          {("agents",): PARTY["agents"] + PARTY["agents"][:1]},
          validate="agents: duplicate agent id: chat"),
    Fault("unknown-kind", "party_planner",
          files={"party_planner.json": '{"kind": "daydream", "seed": 1}'},
          validate=("kind: must be one of ['cascade', 'explain', 'interactive', 'multimodal', "
                    "'simulate']", "catalog: required")),
    Fault("missing-catalog-file", "party_planner", files={"party_catalog.json": None},
          validate=("catalog: referenced path does not exist",)),
    Fault("config-nested-past-the-parser-depth", "party_planner",
          files={"party_planner.json": DEEP}, validate="<file>: config is not valid JSON: "),
    # wiring faults, found by replaying the routing through the runtime's gates
    Fault("closed-first-channel", "party_planner",
          {("matrix", "allow"): PARTY["matrix"]["allow"][1:]},
          validate="routing[0]: ChannelClosed"),
    Fault("child-routed-before-spawn", "party_planner",
          {("routing",): [PARTY["routing"][i] for i in (0, 1, 2, 4, 3, 5, 6, 7, 8)]},
          validate="routing[3]: UnknownAgent"),
    Fault("chat-emits-ranked-list", "party_planner",
          {("agents", 0, "output_kinds"): ["ranked_list"]},
          validate="routing[0]: SchemaViolation"),
    Fault("open-pair-names-another-parents-child", "party_planner",
          {("children",): {"sac": dict(PARTY_CHILDREN["sac"], open=PARTY_CHILDREN["sac"]["open"]
                                       + [["favor", "extra"]]),
                           "rank": {"agents": [{"id": "extra"}]}}},
          validate="routing[3]: UnknownAgent"),
    Fault("repeated-tool-name", "party_planner",
          {("agents", 1, "tools"): PARTY["agents"][1]["tools"] * 2},
          validate="agents: InvalidArgument: duplicate tool name: 'MemoryRecall'"),
    Fault("child-repeated-tool-name", "party_planner",
          {("children", "sac", "agents", 0, "tools"):
           PARTY_CHILDREN["sac"]["agents"][0]["tools"] * 2},
          validate="agents: InvalidArgument: duplicate tool name: 'CakeSearch'"),
    Fault("closed-last-channel", "party_planner",
          {("matrix", "allow"): PARTY["matrix"]["allow"][:-1]},
          validate="routing[8]: ChannelClosed"),
    # a replay steps no agent, so a rule's tool call is checked against the agent's tools
    Fault("rule-calls-unknown-tool", "party_planner",
          {("agents", 5, "rules"): [[".*", 'CALL(NoSuchTool, "$input")']]},
          validate="agents: agent rank rule 0 calls unknown tool: NoSuchTool"),
    Fault("child-rule-calls-another-childs-tool", "party_planner",
          {("children", "sac", "agents", 0, "rules"): [[".*", 'CALL(DecorSearch, "$input")']]},
          validate="children: agent cake rule 0 calls unknown tool: DecorSearch"),
    # an item's text is "<slot>: <value>", so such a slot would read back as "a"
    Fault("fact-slot-holding-separator", "party_planner",
          {("agents", 1, "memory_facts"): {"a: b": "x", "a": "y"}},
          validate="agents[1].memory_facts: slot 'a: b' must not contain ': '"),
    Fault("fact-slot-holding-separator-beside-declared-facts", "party_planner",
          {("agents", 1, "memory_facts", "a: b"): "x"},
          validate=("agents[1].memory_facts: slot 'a: b' must not contain ': '",)),
    Fault("profile-fact-slot-holding-separator", "multimodal_bundle",
          {("profile_facts",): {"material_ban: x": "leather"}},
          validate="profile_facts: slot 'material_ban: x' must not contain"),
    Fault("session-fact-slot-holding-separator", "explain_revision", {("facts",): {"a: b": 1}},
          validate="facts: slot 'a: b' must not contain ': '"),
    *(Fault(f"{name}-{literal_name}", scenario, {path + ("budget",): Literal(literal)},
            validate=(f"{field}.budget: must be a string or a finite number",))
      for name, scenario, path, field in FACT_FIELDS
      for literal_name, literal in FACT_LITERALS.items()),
    # a tool call that arrives in the query (echoed by chat's "$input" rule) is
    # no config fault: the episode aborts with the step's error
    Fault("tool-call-in-the-query", "party_planner",
          {("query",): 'plan a party CALL(NoSuchTool, "cake")'},
          error="UnknownTool: unknown tool: 'NoSuchTool'"),
    # the final ranked_list message's text, which a rule template gives
    *(Fault(f"ranked-list-{name}", "party_planner", {("agents", 5, "rules"): [[".*", text]]},
            error=RANKED_LIST_INVALID)
      for name, text in [("plain-text", "hello"), ("array", "[1]"),
                         ("entry-without-score", '{"ranked": [["a"]]}'),
                         ("text-score", '{"ranked": [["cake_1", "x"]]}'),
                         ("nan-score", '{"ranked": [["cake_1", NaN]]}'),
                         ("nested-past-the-parser-depth", DEEP)]),
    Fault("cohort-without-id", "simulate_colony", {("cohorts", 0, "id"): DELETE},
          validate="cohorts"),
    Fault("negative-noise", "simulate_colony", {("cohorts", 0, "noise"): -1}, validate="cohorts"),
    Fault("unknown-reward-kind", "simulate_colony", {("reward", "kind"): "bogus"},
          validate="reward"),
    Fault("zero-horizon", "simulate_colony", {("horizon",): 0}, validate="horizon"),
    Fault("unknown-theta-kind", "simulate_colony", {("cohorts", 1, "theta", "kind"): "psychic"},
          validate="cohorts"),
    Fault("unknown-recommender-kind", "simulate_colony", {("recommender", "kind"): "oracle"},
          validate="recommender"),
    Fault("text-cohort-count", "simulate_colony", {("cohorts", 0, "count"): "two"},
          validate="cohorts"),
    Fault("repeated-cohort-id", "simulate_colony", {("cohorts", 1, "id"): "engaged"},
          validate="cohorts"),
    # simulators are named and seeded from their cohort's id, so two cohorts of
    # one id would run the same sessions and report as one row
    Fault("two-repeated-cohort-ids", "simulate_colony",
          {("cohorts",): COLONY["cohorts"] + [dict(COLONY["cohorts"][1], count=1),
                                              COLONY["cohorts"][0]]},
          validate=("cohorts: duplicate cohort id: drifting",
                    "cohorts: duplicate cohort id: engaged")),
    Fault("simulate-static-top-item-not-in-catalog", "simulate_colony",
          {("recommender",): {"kind": "static_top", "item_id": "nope"}},
          error="UnknownItem", validate="recommender.item_id: UnknownItem: "),
    Fault("text-alpha", "multimodal_bundle", {("alpha",): "half"}, validate="alpha"),
    Fault("text-categories", "multimodal_bundle", {("categories",): "chair"},
          validate="categories"),
    Fault("text-palette-entry", "multimodal_bundle", {("scene_palette",): ["red"]},
          validate="scene_palette"),
    Fault("tau-past-one", "multimodal_bundle", {("tau",): 1.5},
          validate=("tau: must be a finite number in [-1, 1]",)),
    Fault("category-without-palettes", "multimodal_bundle",
          {("categories",): ["chair", "spaceship"]}, error="MissingPalette",
          validate="categories: MissingPalette: "),
    # the catalog's palettes have 3 numbers; a cosine over fewer would read a cut pair
    *(Fault(f"scene-palette-{name}-than-the-catalogs", "multimodal_bundle",
            {("scene_palette",): scene},
            error=f"InvalidArgument: cosine of vectors of different lengths: 3 and {len(scene)}",
            validate=tuple(f"scene_palette: has {len(scene)} numbers, but the palette of item "
                           f"{item} (category {item.split('_')[0]}) has 3"
                           for item in ("chair_leather", "lamp_chrome", "sofa_boho")))
      for name, scene in [("shorter", [0.8, 0.6]), ("longer", [0.8, 0.6, 0.0, 5.0])]),
    Fault("text-transcript", "explain_revision", {("transcript",): "hello"},
          validate="transcript"),
    Fault("zero-max-rounds", "explain_revision", {("max_rounds",): 0}, validate="max_rounds"),
    Fault("list-facts", "explain_revision", {("facts",): ["gluten"]}, validate="facts"),
    # a tag both required and forbidden, which the run's constraints refuse
    Fault("profile-facts-require-and-forbid-a-tag", "multimodal_bundle",
          {("profile_facts",): {"required_x": "wood", "wood_ban": "wood"}},
          validate=(f"profile_facts: {TAG_CLASH}",)),
    Fault("session-facts-require-and-forbid-a-tag", "explain_revision",
          {("facts",): {"required_x": "Wood", "guest_allergy": " wood"}},
          validate=(f"facts: {TAG_CLASH}",)),
    Fault("transcript-requires-and-forbids-a-tag", "explain_revision",
          {("transcript",): ["required_x: wood; wood_ban: wood"]},
          validate=(f"facts: {TAG_CLASH}",)),
    # cascade graphs
    Fault("repeated-node", "error_cascade",
          {("nodes",): ["retrieve", "rank", "present", "rank"]}, validate="nodes"),
    Fault("first-node-listed-again", "error_cascade",
          {("nodes",): CASCADE["nodes"] + CASCADE["nodes"][:1]},
          validate=("nodes: InvalidArgument: repeated node: 'retrieve'",)),
    Fault("back-edge", "error_cascade",
          {("edges",): CASCADE["edges"] + [["present", "retrieve"]]}, validate=(CYCLE,)),
    Fault("self-edge", "error_cascade", {("edges",): [["retrieve", "rank"], ["rank", "rank"]]},
          validate=(CYCLE,)),
    Fault("out-of-range-rate", "error_cascade", {("error_rates", "rank"): 2},
          validate="error_rates"),
    Fault("rate-for-undeclared-node", "error_cascade", {("error_rates", "ghost"): 0.9},
          validate="error_rates"),
    *(Fault(name, "error_cascade", {(field,): value}, validate=field) for name, field, value in [
        ("zero-trials", "trials", 0), ("text-trials", "trials", "many"),
        ("bool-trials", "trials", True),
        ("three-element-edge", "edges", [["retrieve", "rank", "present"]]),
        ("undeclared-node-edge", "edges", [["retrieve", "nowhere"]]),
        ("text-nodes", "nodes", "abc"), ("list-nodes", "nodes", [["retrieve"], ["rank"]]),
        ("list-rates", "error_rates", [0.1])]),
    # an output directory that cannot be made is the OSError's record, on stderr only
    Fault("out-names-a-file", "error_cascade", files={"out": "a file, not a directory\n"},
          error="FileExistsError: [Errno 17] File exists: '<work>/out'"),
    # numbers past the float range; each is finite, but a squared norm may
    # overflow, and a cosine of it would read NaN and clamp it to 1.0
    *(Fault(f"config-{name}", "multimodal_bundle", {path: value}, validate=field)
      for name, path, value, field in [
          ("float", ("alpha",), BIG, "alpha"), ("negative-float", ("tau",), -BIG, "tau"),
          ("scene-palette-entry", ("scene_palette", 2), BIG, "scene_palette"),
          ("scene-palette-norm", ("scene_palette",), [1e308, 1e308, 1e308], "scene_palette"),
          ("int-scene-palette-norm", ("scene_palette",), [10 ** 200, 0, 0], "scene_palette")]),
    *(Fault(f"catalog-{name}", "multimodal_bundle",
            files={"furniture_catalog.json": _edited("furniture_catalog.json", {path: value})},
            validate="catalog: ConfigInvalid: catalog <work>/furniture_catalog.json record 0: ")
      for name, path, value in [
          ("price", (0, "price"), BIG), ("negative-price", (0, "price"), -BIG),
          ("palette-entry", (0, "palette", 1), BIG),
          ("negative-palette-entry", (0, "palette", 1), -BIG),
          ("palette-norm", (0, "palette"), [1e308, 1e308, 1e308]),
          ("int-palette-norm", (0, "palette"), [-10 ** 200, 0, 0])]),
    # data files: what a catalog or policy file holds fails validate as it fails run
    Fault("catalog-invalid-json", "explain_revision",
          files={"party_catalog.json": "[{not json"},
          validate="catalog: ConfigInvalid: catalog <work>/party_catalog.json is malformed: "),
    Fault("catalog-nested-past-the-parser-depth", "explain_revision",
          files={"party_catalog.json": DEEP},
          validate="catalog: ConfigInvalid: catalog <work>/party_catalog.json is malformed: "
                   "RecursionError: "),
    Fault("simulate-config-names-an-unparsable-catalog", "simulate_colony",
          {("catalog",): "bad_catalog.json"}, {"bad_catalog.json": "[{not json"},
          validate="catalog: ConfigInvalid: "),
    Fault("catalog-record-without-id", "explain_revision",
          files={"party_catalog.json": '[{"title": "cake"}]'},
          validate=("catalog: ConfigInvalid: catalog <work>/party_catalog.json record 0: id: "
                    "must be a non-empty string",)),
    Fault("catalog-not-a-list", "simulate_colony",
          files={"rotation_catalog.json": '{"id": "rot_1"}'},
          validate=("catalog: ConfigInvalid: catalog <work>/rotation_catalog.json must be a "
                    "non-empty list of records",)),
    Fault("empty-catalog", "explain_revision", files={"party_catalog.json": "[]"},
          validate=("catalog: ConfigInvalid: catalog <work>/party_catalog.json must be a "
                    "non-empty list of records",)),
    Fault("duplicate-catalog-ids", "simulate_colony",
          files={"rotation_catalog.json": '[{"id": "rot_1"}, {"id": "rot_1"}]'},
          validate=("catalog: ConfigInvalid: catalog <work>/rotation_catalog.json record 1: id: "
                    "must be unique, but 'rot_1' is record 0's id too",)),
    Fault("second-catalog-record-repeats-the-first-id", "simulate_colony",
          files={"rotation_catalog.json": json.dumps(
              [ROTATION[0], dict(ROTATION[1], id=ROTATION[0]["id"]), *ROTATION[2:]])},
          validate=("catalog: ConfigInvalid: catalog <work>/rotation_catalog.json record 1: id: "
                    "must be unique, but 'rot_1' is record 0's id too",)),
    Fault("numeric-catalog-title", "simulate_colony",
          files={"rotation_catalog.json": '[{"id": "rot_1"}, {"id": "rot_2", "title": 5}]'},
          validate="catalog: ConfigInvalid: catalog <work>/rotation_catalog.json record 1: title"),
    Fault("text-catalog-tags", "simulate_colony",
          files={"rotation_catalog.json": '[{"id": "rot_1", "tags": "home"}]'},
          validate="catalog: ConfigInvalid: catalog <work>/rotation_catalog.json record 0: tags"),
    Fault("malformed-policy", "explain_revision", files={"brand_policy.json": '["guaranteed"]'},
          validate="policy: ConfigInvalid: policy "),
    Fault("text-banned-terms", "explain_revision",
          files={"brand_policy.json": '{"banned_terms": "guaranteed"}'},
          validate="policy: ConfigInvalid: policy <work>/brand_policy.json is malformed: "
                   "banned_terms"),
    Fault("numeric-banned-terms-in-a-policy-named-by-the-config", "explain_revision",
          {("policy",): "bad_policy.json"}, {"bad_policy.json": '{"banned_terms": 5}'},
          validate="policy: ConfigInvalid: "),
    Fault("policy-nested-past-the-parser-depth", "explain_revision",
          files={"brand_policy.json": DEEP},
          validate="policy: ConfigInvalid: policy <work>/brand_policy.json is malformed: "
                   "RecursionError: "),
]


def _leg(tmp_path, name, fault):
    """Copies the bundled scenarios to tmp_path / name and makes the row's
    edits; returns that directory and the argv of run and of validate on the
    row's config there."""
    work = _scenario_dir(tmp_path, name)
    config = work / f"{fault.scenario}.json"
    config.write_text(_edited(config.name, fault.config))
    for name, text in fault.files.items():
        if text is None:
            (work / name).unlink()
        else:
            (work / name).write_text(text)
    return work, (["run", str(config), "--out", str(work / "out")], ["validate", str(config)])


def _finish(process):
    out, err = process.communicate(timeout=120)
    return process.returncode, out, err


def _check(fault, work, run, validate):
    """The assertions every row gets, on one leg's (status, stdout, stderr)
    of run and of validate."""
    status, stdout, stderr = run
    assert status == 1 and stdout == "" and "Traceback" not in stderr
    record = json.loads(stderr.splitlines()[-1])
    assert set(record) == {"error", "message"} and all(type(v) is str for v in record.values())
    out = work / "out"
    if out.is_dir():
        assert [path.name for path in out.iterdir()] == ["error.json"]
        assert json.loads((out / "error.json").read_text().replace(str(work), "<work>")) == record
    else:  # the row made --out a file: it is left as it was
        assert out.read_text() == fault.files["out"]
    status, stdout, stderr = validate
    lines = stdout.splitlines()
    assert status == (1 if lines else 0) and stderr == ""
    if fault.validate is None or type(fault.validate) is tuple:
        assert lines == list(fault.validate or ())
    else:
        assert lines and all(line.startswith(fault.validate) for line in lines)
    name, _, message = fault.error.partition(": ")
    assert record["error"] == name
    if message:
        assert record["message"] == message
    elif any(line.partition(": ")[2].startswith(f"{name}: ") for line in lines):
        # a gate's fault: validate's one finding is "<field>: <Error>: <message>"
        assert [line.partition(": ")[2] for line in lines] == [f"{name}: {record['message']}"]
    else:  # the config's findings, joined
        assert name == "ConfigInvalid" and record["message"] == "; ".join(lines)


@pytest.mark.parametrize("fault", FAULTS, ids=[fault.id for fault in FAULTS])
def test_each_fault_ends_in_one_error_record(tmp_path, capsys, fresh_python, fault):
    fresh, fresh_argvs = _leg(tmp_path, "fresh", fault)
    in_process, argvs = _leg(tmp_path, "in-process", fault)
    # the two interpreters run while the in-process leg does
    started = [fresh_python("-m", "agentrec.cli", *argv) for argv in fresh_argvs]
    outcomes = {in_process: [(main(argv), *capsys.readouterr()) for argv in argvs],
                fresh: [_finish(process) for process in started]}
    read = {work: [(status, *(text.replace(str(work), "<work>") for text in texts))
                   for status, *texts in legs] for work, legs in outcomes.items()}
    for work, (run, validate) in read.items():
        _check(fault, work, run, validate)
    assert read[fresh] == read[in_process]


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
