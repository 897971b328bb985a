"""Scenario CLI: validation findings, artifacts, determinism, exit codes."""

import hashlib
import importlib.util
import json
import os
import random
import re
import shutil
from pathlib import Path

import pytest

import agentrec
from agentrec import cli
from agentrec.cli import (
    derive_seed,
    load_catalog,
    load_config,
    main,
    run_scenario,
    validate_config,
)
from agentrec.errors import ConfigInvalid, InvalidArgument, Unreadable
from agentrec.pipelines import RankedList
from agentrec.runtime import (
    CatalogIndex,
    Message,
    catalog_item,
    records_to_jsonl,
    trace_to_jsonl,
)
from agentrec.simulation import SessionStep, SessionTrace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# sha256 of each bundled scenario's trace.jsonl / report.jsonl; read only
GOLDEN = json.loads((SCENARIOS.parent / "perfbench" / "golden.json").read_text())
ALL_SCENARIOS = ["party_planner", "simulate_colony", "multimodal_bundle",
                 "explain_revision", "error_cascade"]


def run_into(tmp_path, name, sub="run", seed=None):
    out = tmp_path / sub
    status = run_scenario(SCENARIOS / f"{name}.json", out=out, seed=seed)
    return status, out


# validation -----------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_bundled_configs_validate_clean(name):
    assert validate_config(SCENARIOS / f"{name}.json") == []


def test_missing_file_is_unreadable():
    with pytest.raises(Unreadable):
        validate_config(SCENARIOS / "does_not_exist.json")


def test_matrix_dimension_mismatch_finding(tmp_path):
    # the matrix's ids are the agents' ids: a leftover matrix.agents, even one
    # that leaves an agent out, is ignored like any unknown key
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    config["matrix"]["agents"] = ["chat", "epi"]
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(config))
    shutil.copy(SCENARIOS / "party_catalog.json", tmp_path / "party_catalog.json")
    assert validate_config(path) == []
    assert load_config(path)["matrix"]["agents"] == ["chat", "epi"]


# running ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_every_bundled_scenario_runs_clean(tmp_path, capsys, name):
    status, out = run_into(tmp_path, name)
    assert status == 0
    for artifact in ("trace.jsonl", "report.jsonl", "report.txt", "manifest.json"):
        assert (out / artifact).exists()
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_artifacts_match_golden_hashes(tmp_path, capsys, name):
    status, out = run_into(tmp_path, name)
    assert status == 0
    got = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
           for artifact in GOLDEN[name]}
    assert got == GOLDEN[name]


def test_benchmark_tracer_wraps_and_restores_every_name():
    # perfbench/spans.py swaps names in these modules for wrappers; a name it
    # wraps that the package no longer has fails here, not only in a benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", SCENARIOS.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = [getattr(agentrec, name) for name in (
        "memory", "agents", "runtime", "pipelines", "blueprints", "simulation", "cli")]
    owners += [agentrec.runtime.MasRuntime, agentrec.runtime.Environment]
    before = [dict(vars(owner)) for owner in owners]
    tools = dict(agentrec.blueprints.TOOL_KINDS)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, agentrec)
        wrapped = sum(vars(owner)[name] is not value
                      for owner, names in zip(owners, before) for name, value in names.items())
        assert wrapped > 0
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        assert vars(owner).keys() == names.keys()
        assert all(vars(owner)[name] is value for name, value in names.items()), owner
    assert agentrec.blueprints.TOOL_KINDS == tools


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rerun_on_reused_catalog_matches_golden_hashes(tmp_path, capsys, name):
    # the second run gets the first run's items back, embeddings already cached
    for sub in ("first", "second"):
        status, out = run_into(tmp_path, name, sub)
        assert status == 0
        got = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
               for artifact in GOLDEN[name]}
        assert got == GOLDEN[name], sub


def test_diversity_penalty_simulation_matches_golden_hashes(tmp_path, capsys):
    # the bundled golden rewards only selects; a static top item repeats on
    # 56 of the 64 steps, so the penalty term is in most of these bytes
    config = json.loads((SCENARIOS / "simulate_colony.json").read_text())
    config.update(catalog=str(SCENARIOS / config["catalog"]),
                  recommender={"kind": "static_top"},
                  reward={"kind": "diversity_penalty", "penalty": 0.25})
    path = tmp_path / "penalty.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_scenario(path, out=out) == 0
    lines = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    rewards = [line["payload"]["reward"] for line in lines if line["kind"] == "user_action"]
    assert len(rewards) == 64 and sum(r in (-0.25, 0.75) for r in rewards) == 56
    got = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
           for artifact in ("trace.jsonl", "report.jsonl")}
    assert got == {
        "trace.jsonl": "f8f176d902fccbd59f4120805827db1ef6d36f823dfdec126a58e8c073b899ea",
        "report.jsonl": "f6cd12d9400ae93c4c5f84b5b0df92414a34db4edba2db184708fe8fcc9c6f9b",
    }


def test_party_planner_kind_sequence_and_gluten(tmp_path):
    status, out = run_into(tmp_path, "party_planner")
    assert status == 0
    kinds = [json.loads(line)["kind"]
             for line in (out / "trace.jsonl").read_text().splitlines()]
    assert kinds == ["query", "episode_list", "validated_episodes", "spawn",
                     "item_set", "item_set", "item_set", "validated_set",
                     "ranked_list"]
    rows = [json.loads(line)
            for line in (out / "report.jsonl").read_text().splitlines()]
    assert rows, "ranked report must be non-empty"
    assert all("gluten" not in row["tags"] for row in rows)


def test_party_planner_episode_embeds_each_distinct_text_once(monkeypatch):
    import agentrec.memory as memory_module
    from agentrec.blueprints import build_interactive_runtime, ranked_entries_from_trace
    from agentrec.runtime import Environment, catalog_item
    memory_module._query_of_text.cache_clear()
    memory_module._sparse_of_text.cache_clear()
    calls, original = [], memory_module.embed_text

    def counting(text):
        calls.append(text)
        return original(text)
    monkeypatch.setattr(memory_module, "embed_text", counting)
    config = load_config(SCENARIOS / "party_planner.json")
    records = json.loads((SCENARIOS / "party_catalog.json").read_text())
    env = Environment(catalog=[catalog_item(record) for record in records])  # none embedded yet
    runtime, routing = build_interactive_runtime(config, env)
    result = runtime.run_episode(routing, seed=0, initial_input=config["query"])
    assert result.error is None and ranked_entries_from_trace(result.trace)
    assert calls and len(calls) == len(set(calls))


def test_party_planner_whose_cores_assemble_their_context_gives_the_same_bytes(
        tmp_path, capsys, monkeypatch):
    # "(?:.*)" matches where ".*" does but is not a catch-all source, so every
    # core of this copy assembles its context; no template reads it
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    config["catalog"] = str(SCENARIOS / config["catalog"])
    for agent in config["agents"] + [agent for child in config["children"].values()
                                     for agent in child["agents"]]:
        assert [pattern for pattern, _ in agent["rules"]] == [".*"]
        agent["rules"] = [["(?:.*)", template] for _, template in agent["rules"]]
    path = tmp_path / "assembling.json"
    path.write_text(json.dumps(config))
    calls, original = [], agentrec.agents.regulate_context

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(agentrec.agents, "regulate_context", counting)
    status, bundled = run_into(tmp_path, "party_planner")
    assert status == 0 and calls == []
    assert run_scenario(path, out=tmp_path / "assembling") == 0
    assert len(calls) == 9  # one per hop
    for artifact in ("trace.jsonl", "report.jsonl", "report.txt"):
        assert (tmp_path / "assembling" / artifact).read_bytes() == (bundled / artifact).read_bytes()


def test_party_planner_retains_facts_only_where_a_store_is_read(tmp_path, capsys, monkeypatch):
    # only epi reads its store, through MemoryRecall, and it reads before its
    # one turn is committed; every text that reaches retention during the run
    # is the query the tools retain from, which is epi's input
    from agentrec.memory import MemoryLabel, make_item, retain, store_to_jsonl
    memory, blueprints = agentrec.memory, agentrec.blueprints
    texts, agents, commits = [], [], []
    facts_of_text, build_agent, update_memory = (
        memory._facts_of_text, blueprints.build_agent, agentrec.agents.update_memory)

    def counting(text):
        texts.append(text)
        return facts_of_text(text)

    def building(*args):
        agents.append(build_agent(*args))
        return agents[-1]

    def committing(store, turns, label, now):
        commits.append((store, list(turns), label, now))
        return update_memory(store, turns, label, now)
    monkeypatch.setattr(memory, "_facts_of_text", counting)
    monkeypatch.setattr(blueprints, "build_agent", building)
    monkeypatch.setattr(agentrec.agents, "update_memory", committing)
    assert run_into(tmp_path, "party_planner")[0] == 0
    capsys.readouterr()
    monkeypatch.setattr(memory, "_facts_of_text", facts_of_text)
    run_agents = {agent.id: agent for agent in agents[-9:]}  # validation built the others
    epi_turns = [text for store, turns, _, _ in commits if store is run_agents["epi"].memory
                 for speaker, text in turns if speaker == "user"]
    config = load_config(SCENARIOS / "party_planner.json")
    assert len(commits) == 9 and epi_turns == [config["query"]]
    assert texts and set(texts) == set(epi_turns)
    declared = {agent["id"]: agent["memory_facts"] for agent in config["agents"] + [
        agent for child in config["children"].values() for agent in child["agents"]]}
    assert sorted(run_agents) == sorted(declared)
    for agent_id, agent in run_agents.items():
        eager = memory.MemoryStore()  # each fact written at its commit
        updates = [(slot, str(value), MemoryLabel.EPI, now)
                   for now, (slot, value) in enumerate(declared[agent_id].items())]
        for store, turns, label, now in commits:
            if store is agent.memory:
                eager.raw_log.extend(turns)
                updates += [(slot, value, label, now) for slot, value in retain(turns)]
        for slot, value, label, now in updates:
            existing = eager.items.get((slot, label))
            eager.items[(slot, label)] = make_item(
                slot, value, label, now if existing is None else existing.meta.timestamp,
                1 if existing is None else existing.meta.update_count + 1)
        assert store_to_jsonl(agent.memory) == store_to_jsonl(eager), agent_id


def test_rerun_same_config_and_seed_byte_identical(tmp_path, capsys):
    for name in ALL_SCENARIOS:
        status_a, out_a = run_into(tmp_path, name, sub=f"{name}_a")
        status_b, out_b = run_into(tmp_path, name, sub=f"{name}_b")
        assert status_a == status_b == 0
        for artifact in ("trace.jsonl", "report.jsonl"):
            assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes(), (
                f"{name}/{artifact} differs between reruns")


def test_seed_override_changes_simulation(tmp_path, capsys):
    _, out_a = run_into(tmp_path, "simulate_colony", sub="a", seed=1)
    _, out_b = run_into(tmp_path, "simulate_colony", sub="b", seed=2)
    assert (out_a / "trace.jsonl").read_bytes() != (out_b / "trace.jsonl").read_bytes()


def test_manifest_hash_matches_recomputation(tmp_path, capsys):
    status, out = run_into(tmp_path, "party_planner")
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256((SCENARIOS / "party_planner.json").read_bytes()).hexdigest()
    assert manifest["config_hash"] == f"sha256:{digest}"
    assert manifest["scenario"] == "interactive"
    assert manifest["seed"] == 7


def test_manifest_times_each_stage(tmp_path, capsys):
    status, out = run_into(tmp_path, "simulate_colony")
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert set(timings) == {"elapsed_seconds", "load_seconds", "run_seconds",
                            "persist_seconds"}
    stages = [timings[f"{stage}_seconds"] for stage in ("load", "run", "persist")]
    assert min(stages) >= 0.0
    assert sum(stages) == pytest.approx(timings["elapsed_seconds"])


def test_trace_reloads_into_equal_structures(tmp_path, capsys):
    status, out = run_into(tmp_path, "party_planner")
    text = (out / "trace.jsonl").read_text()
    messages = trace_messages(text)
    assert trace_to_jsonl(messages) == text


def dumps_lines(records):
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def message_record(m):
    """A message as a trace record; json.dumps(record, sort_keys=True) is its reference line."""
    recipient = list(m.recipient) if isinstance(m.recipient, (tuple, list)) else m.recipient
    return {"seq": m.seq, "from": m.sender, "to": recipient, "kind": m.kind,
            "payload": m.payload, "env_version": m.env_version}


def trace_messages(text):
    """The messages of a trace.jsonl text, each line parsed with json.loads."""
    messages = []
    for record in map(json.loads, text.splitlines()):
        recipient = record["to"]
        messages.append(Message(record["from"], tuple(recipient) if type(recipient) is list
                                else recipient, record["kind"], record["payload"],
                                seq=record["seq"], env_version=record["env_version"]))
    return messages


ODD_RECORDS = [
    {"text": "caf\u00e9 \u2014 \u6587\u5b57 \U0001f389", "z": [1, [2, [3.5, "x"]]], "a": None},
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "b": [True, False]},
    {"nested": {"y": {"list": [[], {}, [[]]]}, "x": -0.0}, "\u00fc": "\n\t\"quoted\""},
]


def test_trace_and_report_lines_are_json_dumps_bytes(tmp_path, capsys):
    # the one reused encoder gives json.dumps(record, sort_keys=True) byte for byte
    for name in ALL_SCENARIOS:
        status, out = run_into(tmp_path, name, name)
        assert status == 0
        messages = trace_messages((out / "trace.jsonl").read_text())
        assert trace_to_jsonl(messages) == dumps_lines(map(message_record, messages))
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        assert records_to_jsonl(rows) == dumps_lines(rows)
    assert trace_to_jsonl([]) == records_to_jsonl([]) == records_to_jsonl(iter([])) == ""
    assert records_to_jsonl(ODD_RECORDS) == dumps_lines(ODD_RECORDS)
    odd = [Message("a\u00e9", ["b", "c"], "note", record, seq=i, env_version=0)
           for i, record in enumerate(ODD_RECORDS)]
    assert trace_to_jsonl(odd) == dumps_lines(map(message_record, odd))


class OddFloat(float):
    def __repr__(self):
        return "odd"


class OddStr(str):
    def __str__(self):
        return "odd"


# pieces of generated text: quotes, backslashes, control characters, DEL,
# non-ASCII, a line separator, an astral character and a lone surrogate
TEXT_PIECES = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u00e9", "\u2028",
               "\u6587", "\U0001f389", "\ud800", "a", "Z", "0", " ", "/", "'"]
NUMBERS = [0, 1, -3, 2**70, True, 0.0, -0.0, 1.0, 0.1, -2.5e-7, 1e300, 5e-324,
           2.2250738585072014e-308 / 3, float("nan"), float("inf"), float("-inf"),
           OddFloat(0.25)]


def odd_text(rng):
    if rng.random() < 0.1:
        return rng.choice(["", OddStr("s\u00e9")])
    return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randrange(1, 8)))


def odd_entries(rng):
    ids = []
    while len(ids) < rng.randrange(1, 6):
        item_id = odd_text(rng)
        if item_id not in ids:
            ids.append(item_id)
    scores = [rng.choice(NUMBERS) for _ in ids]
    ordered = sorted((v for v in scores if v == v), reverse=True)  # NaN compares false
    for nan in (v for v in scores if v != v):
        ordered.insert(rng.randrange(len(ordered) + 1), nan)
    return RankedList(entries=list(zip(ids, ordered)))


def odd_step(rng):
    state = odd_text(rng)
    roll = rng.random()
    if roll < 0.15:
        return SessionStep(state=state, recs=RankedList(entries=[]), action=None,
                           reward=0.0, error=f"UnknownItem: {odd_text(rng)}")
    if roll < 0.25:
        return SessionStep(state=state, recs=RankedList(entries=[]), action=None,
                           reward=0.0, error="EmptyRecommendation")
    return SessionStep(state=state, recs=odd_entries(rng), action=odd_text(rng),
                       reward=rng.choice(NUMBERS))


def posted_messages(traces):
    """The simulate runner's trace as it was built: one posted Message per line."""
    messages = []
    for trace in traces:
        for step in trace.steps:
            if step.error is not None:
                cli._post(messages, "recommender", trace.simulator_id, "eval_event",
                          {"state": step.state, "error": step.error})
                continue
            cli._post(messages, "recommender", trace.simulator_id, "rec_list",
                      {"state": step.state, "items": [[i, s] for i, s in step.recs.entries]})
            cli._post(messages, trace.simulator_id, "eval", "user_action",
                      {"action": step.action, "reward": step.reward})
    return messages


@pytest.mark.parametrize("seed", range(4))
def test_simulate_trace_writer_matches_posted_messages(seed):
    rng = random.Random(seed)
    traces = [SessionTrace(steps=[odd_step(rng) for _ in range(rng.randrange(0, 12))],
                           simulator_id=odd_text(rng), cohort="c")
              for _ in range(60)]
    steps = [step for trace in traces for step in trace.steps]
    assert {step.error for step in steps} >= {None, "EmptyRecommendation"}
    assert {len(step.recs.entries) for step in steps if step.error is None} == {1, 2, 3, 4, 5}
    numbers = {repr(v) for step in steps for v in [step.reward] + [s for _, s in step.recs.entries]}
    assert numbers >= {"0", "True", "-0.0", "5e-324", "nan", "inf", "-inf", "odd"}
    messages = posted_messages(traces)
    text = cli._simulate_trace_jsonl(traces)
    assert text == records_to_jsonl(map(message_record, messages))
    assert text == dumps_lines(map(message_record, messages))
    assert cli._simulate_trace_jsonl([SessionTrace([], "s", "c")]) == ""


def test_exit_code_contract(tmp_path, capsys):
    # invalid config: nonzero exit plus a machine-readable error record
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "interactive", "seed": "not an int"}))
    out = tmp_path / "badout"
    status = run_scenario(bad, out=out)
    captured = capsys.readouterr()
    assert status != 0
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ConfigInvalid"
    assert (out / "error.json").exists()

    # clean config: zero exit and no error record
    status, ok_out = run_into(tmp_path, "error_cascade")
    captured = capsys.readouterr()
    assert status == 0
    assert captured.err.strip() == ""
    assert not (ok_out / "error.json").exists()


def test_only_ranking_runs_build_the_catalog_index(tmp_path, capsys, monkeypatch):
    # simulate and cascade runs (10k-item catalogs in the benchmark) never rank the
    # catalog, so they never pay for its index
    built = []
    init = CatalogIndex.__init__
    monkeypatch.setattr(CatalogIndex, "__init__",
                        lambda index, items: built.append(len(items)) or init(index, items))
    for name in ("simulate_colony", "error_cascade"):
        assert run_scenario(SCENARIOS / f"{name}.json", out=tmp_path / name) == 0
    assert built == []
    for name in ("party_planner", "multimodal_bundle", "explain_revision"):
        assert run_scenario(SCENARIOS / f"{name}.json", out=tmp_path / name) == 0
        assert len(built) == 1, name  # once per run: one catalog version
        built.clear()
    capsys.readouterr()


def test_main_run_and_validate_entry(tmp_path, capsys):
    out = tmp_path / "cli_out"
    status = main(["run", str(SCENARIOS / "error_cascade.json"),
                   "--out", str(out), "--format", "jsonlines"])
    captured = capsys.readouterr()
    assert status == 0
    assert json.loads(captured.out.splitlines()[0])["trials"] == 200000

    status = main(["validate", str(SCENARIOS / "party_planner.json")])
    assert status == 0


def test_parser_is_built_once_and_keeps_its_exit_codes(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as caught:
        main(["run"])  # missing config
    assert caught.value.code == 2
    with pytest.raises(SystemExit) as caught:
        main(["run", "x.json", "--format", "xml"])
    assert caught.value.code == 2
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    assert "usage: agentrec" in capsys.readouterr().out
    assert main(["validate", str(SCENARIOS / "error_cascade.json")]) == 0
    assert main(["run", str(SCENARIOS / "error_cascade.json"), "--out",
                 str(tmp_path / "after-errors")]) == 0
    assert main(["validate", str(tmp_path / "missing.json")]) == 1


def test_jsonlines_format_writes_same_artifacts(tmp_path, capsys):
    out = tmp_path / "fmt"
    status = run_scenario(SCENARIOS / "simulate_colony.json", out=out,
                          report_format="jsonlines")
    assert status == 0
    assert (out / "report.jsonl").exists()
    assert (out / "report.txt").exists()


def test_report_text_renders_each_value_kind():
    rows = [{"s": "two words", "n": None, "l": [1, "x", 0.5], "i": 3, "f": 0.1 + 0.2,
             "d": {"k": 1.5, "a": None}, "b": True}, {}, {"z": -2.0}]
    assert cli._render(rows) == (
        'b=true  d={"a": null, "k": 1.5}  f=0.300000  i=3  l=[1, "x", 0.5]  n=null  s=two words\n'
        '\n'
        'z=-2.000000\n')
    assert cli._render([]) == ""


def test_report_text_writes_a_str_holding_a_line_boundary_as_its_json():
    bare = ["", "plain words", "tab\there", "caf\u00e9"]
    broken = ["a\nb", "trailing\n", "\r", "cr\r\nlf", "\u2028", "\u2029", "\x0b", "\x0c",
              "\x1c", "\x1d", "\x1e", "\x85"]
    rows = [{"s": value} for value in bare + broken]
    text = cli._render(rows)
    assert len(text.splitlines()) == len(rows)
    assert text.splitlines() == ([f"s={value}" for value in bare]
                                 + [f"s={json.dumps(value)}" for value in broken])


def test_a_fact_holding_a_line_break_keeps_one_report_line_per_row(tmp_path, capsys):
    config = json.loads((SCENARIOS / "explain_revision.json").read_text())
    config.update(catalog=str(SCENARIOS / config["catalog"]),
                  policy=str(SCENARIOS / config["policy"]),
                  facts={"guest_allergy": "gluten\nfree", "child_pref": "chocolate"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "gluten\\nfree" in text and capsys.readouterr().out == text
    assert len(text.splitlines()) == len((out / "report.jsonl").read_text().splitlines()) == 1


def _text_cell(value) -> str:
    """report.txt's rule for one value, restated: a float to six decimals, a
    str bare unless it holds a line boundary, anything else as its JSON."""
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, str) and value.splitlines() in ([], [value]):
        return value
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_report_text_is_one_line_per_report_row(tmp_path, capsys, name):
    out = tmp_path / "run"
    assert main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == 0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == text
    rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    lines = text.splitlines()
    assert rows and len(lines) == len(rows) and text.endswith("\n")
    for line, row in zip(lines, rows):  # a report.jsonl row's keys are sorted
        assert line == "  ".join(f"{key}={_text_cell(value)}" for key, value in row.items())


def test_only_explain_loads_a_policy(tmp_path, capsys, monkeypatch):
    loaded = []
    load_policy = cli.load_policy
    monkeypatch.setattr(cli, "load_policy", lambda path: loaded.append(path) or load_policy(path))
    counts = {}
    for name in ALL_SCENARIOS:
        assert validate_config(SCENARIOS / f"{name}.json") == []
        assert run_scenario(SCENARIOS / f"{name}.json", out=tmp_path / name) == 0
        counts[name] = len(loaded)
        loaded.clear()
    assert counts == dict.fromkeys(ALL_SCENARIOS, 0) | {"explain_revision": 2}
    capsys.readouterr()


@pytest.mark.parametrize("name, ok", [("party_planner", True), ("explain_revision", False)])
def test_only_explain_needs_its_policy_file(tmp_path, capsys, name, ok):
    config = json.loads((SCENARIOS / f"{name}.json").read_text())
    config.update(catalog=str(SCENARIOS / config["catalog"]), policy="missing_policy.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    if ok:  # a policy key on another kind is ignored like any unknown key
        assert validate_config(path) == []
        assert run_scenario(path, out=out) == 0
    else:
        assert validate_config(path) == [
            {"field": "policy", "rule": "referenced path does not exist"}]
        assert run_scenario(path, out=out) == 1
        assert json.loads((out / "error.json").read_text()) == {
            "error": "ConfigInvalid", "message": "policy: referenced path does not exist"}
    capsys.readouterr()


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, "alpha-0") == derive_seed(7, "alpha-0")
    assert derive_seed(7, "alpha-0") != derive_seed(7, "alpha-1")
    assert derive_seed(8, "alpha-0") != derive_seed(7, "alpha-0")


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    from agentrec.errors import ConfigInvalid
    with pytest.raises(ConfigInvalid):
        load_config(path)


# catalog loading and reuse ----------------------------------------------------------

def test_identical_catalog_bytes_at_another_path_give_the_same_items(tmp_path):
    first_path, second_path = tmp_path / "first.json", tmp_path / "second.json"
    shutil.copy(SCENARIOS / "party_catalog.json", first_path)
    first = load_catalog(first_path)
    shutil.copy(first_path, second_path)  # same bytes, another inode and mtime
    second = load_catalog(second_path)
    assert second is not first and len(second) == len(first)
    assert all(a is b for a, b in zip(first, second))
    expected = list(second)
    second.append(second[0])
    first.clear()
    assert load_catalog(second_path) == expected


def test_same_length_rewrite_with_old_mtime_gives_the_new_items(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text('[{"id": "aa", "price": 1}]')
    before = path.stat()
    assert [(item.id, item.price) for item in load_catalog(path)] == [("aa", 1.0)]
    path.write_text('[{"id": "bb", "price": 2}]')
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino)
    assert [(item.id, item.price) for item in load_catalog(path)] == [("bb", 2.0)]


def test_run_after_a_same_length_catalog_edit_matches_a_fresh_interpreter(
        tmp_path, capsys, fresh_python):
    # a reused catalog is one whose bytes are all equal, not just its size: the
    # second of two runs in one process reads the edited id, as a new process does
    for name in ("simulate_colony.json", "rotation_catalog.json"):
        shutil.copy(SCENARIOS / name, tmp_path / name)
    config, catalog = str(tmp_path / "simulate_colony.json"), tmp_path / "rotation_catalog.json"
    assert main(["run", config, "--out", str(tmp_path / "first")]) == 0
    text = catalog.read_text()
    assert text.count('"rot_1"') == 1
    catalog.write_text(text.replace('"rot_1"', '"rot_X"'))
    assert main(["run", config, "--out", str(tmp_path / "second")]) == 0
    fresh = fresh_python("-m", "agentrec.cli", "run", config, "--out", str(tmp_path / "fresh"))
    assert fresh.communicate(timeout=120)[1] == "" and fresh.returncode == 0
    first, second, fresh = (tmp_path / run for run in ("first", "second", "fresh"))
    for artifact in ("trace.jsonl", "report.jsonl"):
        assert (second / artifact).read_bytes() == (fresh / artifact).read_bytes()
    assert (first / "trace.jsonl").read_bytes() != (second / "trace.jsonl").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("text", ["[{not json", "[]", '[{"id": "x", "title": 5}]'])
def test_malformed_catalog_after_a_good_one_raises_and_keeps_the_good_one(tmp_path, text):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    shutil.copy(SCENARIOS / "party_catalog.json", good)
    items = load_catalog(good)
    bad.write_text(text)
    with pytest.raises(ConfigInvalid, match="bad.json"):
        load_catalog(bad)
    again = load_catalog(good)
    assert len(again) == len(items) and all(a is b for a, b in zip(items, again))


def long_catalog_bytes(rng, size):
    """A valid catalog of at least ``size`` bytes: long titles of lowercase
    words, so most single-byte edits keep it valid and change one title."""
    words = ["".join(rng.choices("abcdefghij", k=rng.randint(3, 9))) for _ in range(200)]
    records, total = [], 0
    while total < size:
        records.append({"id": f"item{len(records):05d}",
                        "title": " ".join(rng.choices(words, k=rng.randint(100, 300))),
                        "tags": rng.sample(["home", "oak", "red"], rng.randint(0, 2)),
                        "price": rng.randint(1, 400) / 4})
        total += len(json.dumps(records[-1])) + 2
    return json.dumps(records).encode()


def reference_items(data):
    """The items a fresh build of these bytes gives, or None where it fails."""
    try:
        items = [catalog_item(record) for record in json.loads(data)]
    except (ValueError, TypeError, InvalidArgument):
        return None
    if not items or len({item.id for item in items}) != len(items):
        return None
    return items


def catalog_edits(rng, chunk, length):
    """(name, edit) pairs: an edit maps the kept bytes to a near miss of them,
    or to None, a path that cannot be read."""
    def flip(at):  # at -1: the last byte
        def edit(kept):
            where = at % len(kept)
            letter = rng.choice([c for c in b"abcdefghij" if c != kept[where]])
            return kept[:where] + bytes([letter]) + kept[where + 1:]
        return edit

    def cut(kept):
        where = rng.randrange(len(kept))
        return kept[:where] + kept[where + 1:]

    def newline(kept):  # a separator's space, outside every string
        where = rng.choice([m.start() + 1 for m in re.finditer(rb"[,:] ", kept)])
        return kept[:where] + b"\n" + kept[where + 1:]

    offsets = [0, -1] + [boundary + d for boundary in range(chunk, length - 1, chunk)
                         for d in (-1, 0, 1)]
    return [("same bytes", lambda kept: kept)] + [
        (f"flip {at}", flip(at)) for at in offsets] + [
        ("cut", cut), ("cut last", lambda kept: kept[:-1]),
        ("append newline", lambda kept: kept + b"\n"), ("append letter", lambda kept: kept + b"a"),
        ("newline for a space", newline), ("missing path", lambda kept: None),
        ("malformed", lambda kept: b"[{not json")]


@pytest.mark.parametrize("seed", [0, 1])
def test_catalog_byte_check_fuzz(tmp_path, monkeypatch, seed):
    # a call returns the kept Environment exactly when the file's bytes equal
    # the kept bytes; other bytes give a fresh build's items or its error, and
    # an error, between two loads of the kept bytes, leaves that entry reusable
    monkeypatch.setattr(cli, "_last_catalog", (None, None))
    rng, chunk = random.Random(seed), cli._COMPARE_CHUNK
    kept = long_catalog_bytes(rng, 3 * chunk + rng.randrange(chunk))
    assert len(kept) > 3 * chunk

    def load(name, data):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        return cli._catalog_environment(path)

    env = load("base.json", kept)
    assert list(env.catalog) == reference_items(kept)
    edits = catalog_edits(rng, chunk, len(kept)) * 2
    rng.shuffle(edits)
    rebuilt = failed = 0
    for number, (name, edit) in enumerate(edits):
        data = edit(kept)
        expected = None if data is None else reference_items(data)
        if expected is None:
            assert load("before.json", kept) is env, name
            with pytest.raises(ConfigInvalid, match=f"call{number}.json"):
                load(f"call{number}.json", data)
            assert load("after.json", kept) is env, name
            failed += 1
            continue
        got = load(f"call{number}.json", data)
        assert (got is env) == (data == kept), name
        assert list(got.catalog) == expected, name
        rebuilt += got is not env
        kept, env = data, got
    assert rebuilt >= 10 and failed >= 10  # both outcomes are exercised


@pytest.mark.parametrize("record, field", [
    ("5", "record 1: must be an object"),
    ('{"title": "cake"}', "id"),
    ('{"id": ""}', "id"),
    ('{"id": 7}', "id"),
    ('{"id": "x", "title": null}', "title"),
    ('{"id": "x", "tags": "home"}', "tags"),
    ('{"id": "x", "tags": ["home", 1]}', "tags"),
    ('{"id": "x", "price": "5"}', "price"),
    ('{"id": "x", "price": true}', "price"),
    ('{"id": "x", "price": NaN}', "price"),
    ('{"id": "x", "price": 1e999}', "price"),
    ('{"id": "x", "palette": "red"}', "palette"),
    ('{"id": "x", "palette": [0.5, "red"]}', "palette"),
    ('{"id": "x", "palette": [0.5, true]}', "palette"),
    ('{"id": "x", "palette": [0.5, Infinity]}', "palette"),
    ('{"id": "ok", "title": "again"}', "id: must be unique, but 'ok' is record 0's id too"),
])
def test_catalog_record_rules_name_file_record_and_field(tmp_path, record, field):
    path = tmp_path / "catalog.json"
    path.write_text(f'[{{"id": "ok"}}, {record}]')
    with pytest.raises(ConfigInvalid) as caught:
        load_catalog(path)
    assert str(path) in str(caught.value) and "record 1" in str(caught.value)
    assert field in str(caught.value)


def test_catalog_record_defaults_and_accepted_forms(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text('[{"id": "a"}, {"id": "b", "title": "t", "tags": [], "price": 3, '
                    '"palette": null}, {"id": "c", "palette": []}, '
                    '{"id": "d", "price": 2.5, "palette": [1, 0.5, 0]}]')
    assert [(i.id, i.title, i.tags, i.price, i.palette) for i in load_catalog(path)] == [
        ("a", "a", (), 0.0, None), ("b", "t", (), 3.0, None), ("c", "c", (), 0.0, None),
        ("d", "d", (), 2.5, (1, 0.5, 0))]


def test_runs_on_equal_catalog_bytes_share_one_environment(tmp_path, capsys, monkeypatch):
    # two copies of the explain scenario in two directories: equal catalog bytes
    # at different paths give one version-0 Environment, and its index and memo
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        for name in ("explain_revision.json", "party_catalog.json", "brand_policy.json"):
            shutil.copy(SCENARIOS / name, tmp_path / sub / name)
    envs = []
    explain = cli._RUNNERS["explain"]
    monkeypatch.setitem(cli._RUNNERS, "explain",
                        lambda config, env, *rest: envs.append(env) or explain(config, env, *rest))
    for sub in ("a", "b"):
        assert run_scenario(tmp_path / sub / "explain_revision.json", out=tmp_path / sub / "out") == 0
    first, second = envs
    assert first is second and first.version == 0
    assert first._index is not None and len(first._index._results) == 1  # ranked once
    assert (tmp_path / "a" / "out" / "trace.jsonl").read_bytes() == (
        tmp_path / "b" / "out" / "trace.jsonl").read_bytes()
    listed = load_catalog(tmp_path / "a" / "party_catalog.json")
    assert listed == list(first.catalog) and listed is not first.catalog
    assert all(a is b for a, b in zip(listed, first.catalog))
    assert validate_config(tmp_path / "b" / "explain_revision.json") == []
    assert cli._environment(load_config(tmp_path / "b" / "explain_revision.json")) is first

    records = json.loads((tmp_path / "b" / "party_catalog.json").read_text())
    (tmp_path / "b" / "party_catalog.json").write_text(json.dumps(records))  # new bytes
    assert run_scenario(tmp_path / "b" / "explain_revision.json", out=tmp_path / "b" / "new") == 0
    third = envs[-1]
    assert third is not first and third.catalog == first.catalog
    assert (tmp_path / "b" / "new" / "trace.jsonl").read_bytes() == (
        tmp_path / "a" / "out" / "trace.jsonl").read_bytes()
    capsys.readouterr()
