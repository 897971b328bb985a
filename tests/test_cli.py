"""Scenario CLI: validation findings, artifacts, determinism, exit codes."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
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
from agentrec.errors import ConfigInvalid, Unreadable, UnknownItem
from agentrec.runtime import (
    CatalogIndex,
    Message,
    apply_env_update,
    records_to_jsonl,
    trace_from_jsonl,
    trace_to_jsonl,
)

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


def test_duplicate_agent_id_finding(tmp_path):
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    config["agents"].append(dict(config["agents"][0]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(config))
    shutil.copy(SCENARIOS / "party_catalog.json", tmp_path / "party_catalog.json")
    shutil.copy(SCENARIOS / "brand_policy.json", tmp_path / "brand_policy.json")
    findings = validate_config(path)
    assert any("duplicate agent id: chat" in f["rule"] for f in findings)


def test_matrix_dimension_mismatch_finding(tmp_path):
    # the matrix's ids are the agents' ids: a leftover matrix.agents, even one
    # that leaves an agent out, is ignored like any unknown key
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    config["matrix"]["agents"] = ["chat", "epi"]
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(config))
    shutil.copy(SCENARIOS / "party_catalog.json", tmp_path / "party_catalog.json")
    shutil.copy(SCENARIOS / "brand_policy.json", tmp_path / "brand_policy.json")
    assert validate_config(path) == []
    assert load_config(path)["matrix"]["agents"] == ["chat", "epi"]


def test_missing_catalog_path_finding(tmp_path):
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    path = tmp_path / "nocat.json"
    path.write_text(json.dumps(config))  # catalog not copied next to it
    shutil.copy(SCENARIOS / "brand_policy.json", tmp_path / "brand_policy.json")
    findings = validate_config(path)
    assert any(f["field"] == "catalog" for f in findings)


def test_unknown_kind_finding(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"kind": "daydream", "seed": 1}))
    findings = validate_config(path)
    assert any(f["field"] == "kind" for f in findings)


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


def test_trace_reloads_into_equal_structures(tmp_path, capsys):
    status, out = run_into(tmp_path, "party_planner")
    text = (out / "trace.jsonl").read_text()
    messages = trace_from_jsonl(text)
    assert trace_to_jsonl(messages) == text


def dumps_lines(records):
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


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
        messages = trace_from_jsonl((out / "trace.jsonl").read_text())
        assert trace_to_jsonl(messages) == dumps_lines(m.to_record() for m in messages)
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        assert records_to_jsonl(rows) == dumps_lines(rows)
    assert trace_to_jsonl([]) == records_to_jsonl([]) == records_to_jsonl(iter([])) == ""
    assert records_to_jsonl(ODD_RECORDS) == dumps_lines(ODD_RECORDS)
    odd = [Message("a\u00e9", ["b", "c"], "note", record, seq=i, env_version=0)
           for i, record in enumerate(ODD_RECORDS)]
    assert trace_to_jsonl(odd) == dumps_lines(m.to_record() for m in odd)


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


@pytest.mark.parametrize("field, value", [
    ("trials", 0),
    ("trials", "many"),
    ("trials", True),
    ("edges", [["retrieve", "rank", "present"]]),
    ("edges", [["retrieve", "nowhere"]]),
    ("nodes", "abc"),
    ("nodes", [["retrieve"], ["rank"]]),
    ("error_rates", [0.1]),
], ids=["zero-trials", "text-trials", "bool-trials", "three-element-edge",
        "undeclared-node-edge", "text-nodes", "list-nodes", "list-rates"])
def test_malformed_cascade_config_gives_error_record(tmp_path, field, value):
    config = json.loads((SCENARIOS / "error_cascade.json").read_text())
    config[field] = value
    path = tmp_path / "cascade.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "agentrec.cli", "run", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    record = json.loads((out / "error.json").read_text())
    assert set(record) == {"error", "message"}
    assert record["error"] == "ConfigInvalid"
    assert field in record["message"]


def test_unwritable_out_gives_error_record(tmp_path):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "agentrec.cli", "run", str(SCENARIOS / "error_cascade.json"),
         "--out", str(out)], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert set(record) == {"error", "message"}
    assert record["error"] == "FileExistsError" and str(out) in record["message"]
    assert out.read_text() == "a file, not a directory\n"


def test_aborted_episode_reports_module_error_name(tmp_path, capsys):
    # a wiring fault or a rule naming a missing tool is a ConfigInvalid at load; a
    # tool call that arrives in the query (echoed by chat's "$input" rule) is not
    config = json.loads((SCENARIOS / "party_planner.json").read_text())
    config["query"] = 'plan a party CALL(NoSuchTool, "cake")'
    path = tmp_path / "aborted.json"
    path.write_text(json.dumps(config))
    shutil.copy(SCENARIOS / "party_catalog.json", tmp_path / "party_catalog.json")
    shutil.copy(SCENARIOS / "brand_policy.json", tmp_path / "brand_policy.json")
    out = tmp_path / "aborted_out"
    assert validate_config(path) == []
    status = run_scenario(path, out=out)
    captured = capsys.readouterr()
    assert status != 0
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record == {"error": "UnknownTool", "message": "unknown tool: 'NoSuchTool'"}


def test_only_ranking_runs_build_the_catalog_index(tmp_path, capsys, monkeypatch):
    # simulate and cascade runs (10k-item catalogs in the benchmark) never rank the
    # catalog, so they never pay for its index
    built = []
    build = CatalogIndex.build.__func__
    monkeypatch.setattr(CatalogIndex, "build",
                        classmethod(lambda cls, items: built.append(len(items)) or build(cls, items)))
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


def test_runs_on_one_catalog_share_its_id_dict(tmp_path, capsys, monkeypatch):
    for name in ("simulate_colony.json", "rotation_catalog.json"):
        shutil.copy(SCENARIOS / name, tmp_path / name)
    envs = []
    simulate = cli._RUNNERS["simulate"]
    monkeypatch.setitem(cli._RUNNERS, "simulate",
                        lambda config, env, *rest: envs.append(env) or simulate(config, env, *rest))
    config = tmp_path / "simulate_colony.json"
    assert run_scenario(config, out=tmp_path / "first") == 0
    assert run_scenario(config, out=tmp_path / "second") == 0
    first, second = envs
    assert first is not second and first.catalog is not second.catalog
    assert first._by_id is second._by_id
    assert list(first._by_id) == [item.id for item in first.catalog]

    shared = dict(first._by_id)
    updated = apply_env_update(first, [
        {"op": "remove_item", "id": "rot_1"},
        {"op": "set_item_field", "id": "rot_2", "field": "price", "value": 99},
        {"op": "add_item", "item": {"id": "rot_new"}}])
    assert first._by_id == shared and all(first._by_id[i] is shared[i] for i in shared)
    assert updated._by_id is not first._by_id and not updated.has_item("rot_1")

    records = json.loads((tmp_path / "rotation_catalog.json").read_text())
    (tmp_path / "rotation_catalog.json").write_text(json.dumps(records[1:]))
    assert run_scenario(config, out=tmp_path / "third") == 0
    third = envs[-1]
    assert third._by_id is not first._by_id
    assert first._by_id == shared  # the old catalog's dict is left as it was
    with pytest.raises(UnknownItem):
        third.item_by_id("rot_1")
    capsys.readouterr()
