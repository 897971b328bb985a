"""Scenario runner CLI: load config, execute one scenario, persist artifacts.

Usage:
    agentrec run <config.json> [--out DIR] [--seed INT] [--format table|jsonlines]
    agentrec validate <config.json>

Every run writes trace.jsonl, report.jsonl, report.txt, and manifest.json
into the output directory. trace.jsonl and report.jsonl are byte-identical
across re-runs with the same config and seed; wall-clock timings live only
in manifest.json. On failure a machine-readable error record is written to
error.json and echoed to stderr, and the exit status is nonzero.

Paths inside a config resolve relative to the config file. All randomness
flows from the single global seed; per-simulator seeds derive as the first
8 bytes of blake2b("<global seed>/<simulator id>").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from . import __version__
from .blueprints import build_interactive_runtime, ranked_entries_from_trace
from .errors import AgentRecError, ConfigInvalid, Unreadable
from .memory import MemoryLabel, MemoryStore, embed_text, make_item, retrieve_topk
from .pipelines import (
    Transcript,
    compat_check,
    explain_with_revision,
    recommend_interactive,
    recommend_multimodal,
)
from .reliability import (
    AgentGraph,
    BrandPolicy,
    EMPTY_POLICY,
    default_oracle,
    propagation_probability,
    simulate_error_cascade,
)
from .runtime import CatalogItem, Environment, trace_to_jsonl
from .simulation import (
    REWARDS,
    UserSimulator,
    aggregate_report,
    aggregate_rows,
    evaluate,
    make_rotation_recommender,
    make_static_top_recommender,
    random_unit_vector,
    run_sessions,
    summarize_session,
)

SCENARIO_KINDS = ("interactive", "simulate", "multimodal", "explain", "cascade")


def derive_seed(global_seed: int, name: str) -> int:
    digest = hashlib.blake2b(f"{global_seed}/{name}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


# loading -------------------------------------------------------------------

def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise Unreadable(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except ValueError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    config["__path__"] = str(path)
    return config


def _resolve(config: dict, relative) -> Path:
    return (Path(config["__path__"]).parent / relative).resolve()


def load_catalog(path) -> list:
    records = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        CatalogItem(
            record["id"],
            record.get("title", record["id"]),
            tuple(record.get("tags", ())),
            float(record.get("price", 0.0)),
            tuple(record["palette"]) if record.get("palette") else None,
        )
        for record in records
    ]


def load_policy(path) -> BrandPolicy:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    allow = record.get("tone_allowlist")
    return BrandPolicy(
        banned_terms=frozenset(record.get("banned_terms", ())),
        required_disclosures=tuple(
            (trigger, disclosure)
            for trigger, disclosure in record.get("required_disclosures", ())),
        tone_allowlist=frozenset(allow) if allow is not None else None,
    )


def _store_from_facts(facts: dict) -> MemoryStore:
    store = MemoryStore()
    for index, (slot, value) in enumerate(facts.items()):
        store.items[(slot, MemoryLabel.EPI)] = make_item(
            slot, str(value), MemoryLabel.EPI, now=index)
    return store


# validation ----------------------------------------------------------------

def validate_config(path) -> list:
    """Findings as (field, rule) descriptions; empty iff the config can run."""
    findings = []

    def flag(field, rule):
        findings.append({"field": field, "rule": rule})

    try:
        config = load_config(path)
    except Unreadable:
        raise
    except ConfigInvalid as exc:
        return [{"field": "<file>", "rule": str(exc)}]

    kind = config.get("kind")
    if kind not in SCENARIO_KINDS:
        flag("kind", f"must be one of {SCENARIO_KINDS}")
        return findings

    seed = config.get("seed")
    if not isinstance(seed, int):
        flag("seed", "must be an integer")

    for field in ("catalog", "policy"):
        if field in config and not _resolve(config, config[field]).exists():
            flag(field, "referenced path does not exist")

    if kind in ("interactive", "simulate", "multimodal", "explain") and "catalog" not in config:
        flag("catalog", "required for this scenario kind")

    if kind == "interactive":
        agents = config.get("agents", [])
        if not agents:
            flag("agents", "at least one agent declaration required")
        ids = [agent.get("id") for agent in agents]
        for dup in sorted({i for i in ids if ids.count(i) > 1}):
            flag("agents", f"duplicate agent id: {dup}")
        matrix_agents = config.get("matrix", {}).get("agents", [])
        if sorted(matrix_agents) != sorted(set(ids)):
            flag("matrix", "matrix dimension must equal the agent count")
        known = set(ids)
        for decl in config.get("children", {}).values():
            known.update(child.get("id") for child in decl.get("agents", ()))
        for pair in config.get("matrix", {}).get("allow", []):
            for name in pair:
                if name not in set(ids):
                    flag("matrix", f"allow pair references unknown agent: {name}")
        for edge in config.get("routing", []):
            sender, recipient, _ = edge
            recipients = recipient if isinstance(recipient, list) else [recipient]
            for name in [sender] + recipients:
                if name not in known:
                    flag("routing", f"unknown agent in routing: {name}")
        if not config.get("query"):
            flag("query", "interactive scenarios require a query")
    elif kind == "simulate":
        if not config.get("cohorts"):
            flag("cohorts", "at least one cohort required")
        if not isinstance(config.get("horizon", 1), int) or config.get("horizon", 1) < 1:
            flag("horizon", "must be a positive integer")
    elif kind == "multimodal":
        if not config.get("categories"):
            flag("categories", "at least one target category required")
        if not config.get("scene_palette"):
            flag("scene_palette", "scene palette vector required")
    elif kind == "explain":
        if not config.get("transcript"):
            flag("transcript", "explain scenarios require a transcript")
        if "policy" not in config:
            flag("policy", "explain scenarios require a policy path")
    elif kind == "cascade":
        nodes = config.get("nodes")
        if not (nodes and isinstance(nodes, list)
                and all(isinstance(node, str) for node in nodes)):
            flag("nodes", "cascade scenarios require a list of node names")
        trials = config.get("trials", 100000)
        if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
            flag("trials", "must be a positive integer")
        declared = nodes if isinstance(nodes, list) else []
        edges = config.get("edges", [])
        if not isinstance(edges, list):
            flag("edges", "must be a list of [upstream, downstream] pairs")
            edges = []
        for edge in edges:
            if not (isinstance(edge, list) and len(edge) == 2
                    and all(node in declared for node in edge)):
                flag("edges", f"edge must be a [upstream, downstream] pair of "
                              f"declared nodes: {edge!r}")
        rates = config.get("error_rates", {})
        if not isinstance(rates, dict):
            flag("error_rates", "must be an object of node -> rate")
            rates = {}
        for node, p in rates.items():
            if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
                flag("error_rates", f"rate for {node} must be in [0, 1]")
    return findings


# record helpers --------------------------------------------------------------

def _record(seq, sender, recipient, kind, payload, env_version=0) -> dict:
    return {"seq": seq, "from": sender, "to": recipient, "kind": kind,
            "payload": payload, "env_version": env_version}


def _jsonl(records) -> str:
    return "\n".join(json.dumps(record, sort_keys=True) for record in records) + (
        "\n" if records else "")


# scenario runners -------------------------------------------------------------

class ScenarioAborted(AgentRecError):
    """Episode failed mid-run; carries the module error name verbatim."""

    def __init__(self, error_text: str):
        name, _, message = error_text.partition(": ")
        super().__init__(message or error_text)
        self.error_name = name or "ScenarioAborted"


def _run_interactive(config, env, policy, seed, report_format):
    runtime, routing = build_interactive_runtime(config, env)
    result = runtime.run_episode(routing, seed=seed,
                                 initial_input=config["query"])
    if result.error is not None:
        raise ScenarioAborted(result.error)
    entries = ranked_entries_from_trace(result.trace)
    report_rows = []
    for rank, (item_id, score) in enumerate(entries, start=1):
        item = env.item_by_id(item_id)
        report_rows.append({"rank": rank, "item_id": item_id, "score": score,
                            "tags": sorted(item.tags), "price": item.price})
    lines = [f"{'rank':>4}  {'item_id':<24} {'score':>10}  tags"]
    for row in report_rows:
        lines.append(f"{row['rank']:>4}  {row['item_id']:<24} "
                     f"{row['score']:>10.6f}  {','.join(row['tags'])}")
    return (trace_to_jsonl(result.trace),
            _jsonl(report_rows),
            "\n".join(lines) + "\n")


def _build_theta(theta_cfg, env, sim_seed):
    kind = theta_cfg.get("kind", "seeded")
    if kind == "first_item":
        return env.catalog[0].embedding
    if kind == "text":
        return embed_text(theta_cfg["text"])
    if kind == "seeded":
        return random_unit_vector(random.Random(sim_seed))
    raise ConfigInvalid(f"unknown theta kind: {kind!r}")


def _build_recommender(config, env):
    spec = config.get("recommender", {"kind": "rotation"})
    kind = spec.get("kind", "rotation")
    if kind == "rotation":
        return make_rotation_recommender(env)
    if kind == "static_top":
        return make_static_top_recommender(spec.get("item_id", env.catalog[0].id))
    raise ConfigInvalid(f"unknown recommender kind: {kind!r}")


def _run_simulate(config, env, policy, seed, report_format):
    sims = []
    for cohort in config.get("cohorts", ()):
        for index in range(int(cohort.get("count", 1))):
            sim_id = f"{cohort['id']}-{index}"
            sim_seed = derive_seed(seed, sim_id)
            sims.append(UserSimulator(
                simulator_id=sim_id,
                theta=_build_theta(cohort.get("theta", {}), env, sim_seed),
                noise_scale=float(cohort.get("noise", 0.0)),
                seed=sim_seed,
                cohort=cohort["id"],
            ))
    reward_cfg = config.get("reward", {"kind": "select"})
    reward = REWARDS[reward_cfg.get("kind", "select")](reward_cfg)
    traces = run_sessions(
        _build_recommender(config, env), sims,
        horizon=int(config.get("horizon", 5)), env=env,
        sessions_per_sim=int(config.get("sessions_per_sim", 1)),
        top_l=int(config.get("budgets", {}).get("L", 1)),
        reward=reward,
    )

    records, seq = [], 0
    for trace in traces:
        for step in trace.steps:
            if step.error is not None:
                records.append(_record(seq, "recommender", trace.simulator_id,
                                       "eval_event",
                                       {"state": step.state, "error": step.error}))
                seq += 1
                continue
            records.append(_record(seq, "recommender", trace.simulator_id, "rec_list",
                                   {"state": step.state,
                                    "items": [[i, s] for i, s in step.recs.entries]}))
            seq += 1
            records.append(_record(seq, trace.simulator_id, "eval", "user_action",
                                   {"action": step.action, "reward": step.reward}))
            seq += 1

    report = evaluate(traces)
    summaries = [summarize_session(trace) for trace in traces]
    rows = aggregate_rows(summaries)
    overall = {
        "cohort": "__overall__",
        "sessions": report.sessions,
        "psi_hat": report.psi_hat,
        "ctr": report.ctr,
        "diversity_entropy": report.diversity_entropy,
        "halfwidths": report.halfwidths,
    }
    table = aggregate_report(summaries, format="table")
    text = (table + f"\noverall psi_hat={report.psi_hat:.6f} ctr={report.ctr:.6f} "
            f"diversity_entropy={report.diversity_entropy:.6f} "
            f"sessions={report.sessions}\n")
    return _jsonl(records), _jsonl(rows + [overall]), text


def _run_multimodal(config, env, policy, seed, report_format):
    profile = _store_from_facts(config.get("profile_facts", {}))
    bundle = recommend_multimodal(
        text_constraints=config.get("text_constraints", ""),
        scene_features=tuple(config["scene_palette"]),
        profile=profile,
        categories=config["categories"],
        env=env,
        alpha=float(config.get("alpha", 0.5)),
        tau=float(config.get("tau", 0.7)),
    )
    compatible = compat_check(bundle, float(config.get("tau", 0.7)))
    records, seq = [], 0
    for item in bundle.items:
        records.append(_record(seq, "caller", "sem_check", "item_set",
                               {"category": item.category, "id": item.id,
                                "palette": list(item.palette)}))
        seq += 1
    records.append(_record(seq, "comp_check", "chat", "validated_set",
                           {"bundle": [item.id for item in bundle.items],
                            "compat": compatible,
                            "truncated_search": bundle.truncated_search}))
    rows = [{"category": item.category, "item_id": item.id} for item in bundle.items]
    rows.append({"compat": compatible, "truncated_search": bundle.truncated_search})
    lines = [f"{item.category:<12} {item.id}" for item in bundle.items]
    lines.append(f"compat={compatible} truncated_search={bundle.truncated_search}")
    return _jsonl(records), _jsonl(rows), "\n".join(lines) + "\n"


def _user_transcript(texts) -> Transcript:
    turns = []
    for text in texts:
        if turns:
            turns.append(("agent", ""))
        turns.append(("user", text))
    return Transcript(turns=turns)


def _run_explain(config, env, policy, seed, report_format):
    memory = _store_from_facts(config.get("facts", {}))
    transcript = _user_transcript(config["transcript"])
    recs = recommend_interactive(transcript, env, memory,
                                 int(config.get("budgets", {}).get("L", 3)))
    ctx_items = retrieve_topk(memory, " ".join(config["transcript"]),
                              k=int(config.get("context_k", 4))) if memory.items else []
    max_rounds = int(config.get("max_rounds", 3))
    explanation, rounds = explain_with_revision(recs, ctx_items, policy, max_rounds)

    records, seq = [], 0
    records.append(_record(seq, "rec", "expl", "rec_list",
                           {"items": [[i, s] for i, s in recs.entries]}))
    seq += 1
    for failed_round in range(1, rounds):
        records.append(_record(seq, "eval", "expl", "revise",
                               {"round": failed_round}))
        seq += 1
    records.append(_record(seq, "eval", "chat", "final_report",
                           {"text": explanation.text, "rounds": rounds,
                            "cited_items": sorted(explanation.cited_items),
                            "cited_facts": sorted(explanation.cited_facts),
                            "context_missing": explanation.context_missing}))
    rows = [{"text": explanation.text, "rounds": rounds,
             "cited_items": sorted(explanation.cited_items),
             "cited_facts": sorted(explanation.cited_facts)}]
    text = (f"rounds={rounds}\n{explanation.text}\n")
    return _jsonl(records), _jsonl(rows), text


def _run_cascade(config, env, policy, seed, report_format):
    nodes = list(config["nodes"])
    rates = {node: float(config.get("error_rates", {}).get(node, 0.0))
             for node in nodes}
    graph = AgentGraph(nodes=nodes,
                       edges=[tuple(edge) for edge in config.get("edges", ())],
                       error_rates=rates)
    closed_form = propagation_probability([rates[node] for node in nodes])
    empirical = simulate_error_cascade(graph, default_oracle(graph),
                                       trials=int(config.get("trials", 100000)),
                                       seed=seed)
    records = []
    for seq, node in enumerate(nodes):
        records.append(_record(seq, node, "monitor", "eval_event",
                               {"error_rate": rates[node]}))
    records.append(_record(len(nodes), "monitor", "chat", "final_report",
                           {"closed_form": closed_form, "empirical": empirical,
                            "abs_diff": abs(closed_form - empirical)}))
    rows = [{"closed_form": closed_form, "empirical": empirical,
             "abs_diff": abs(closed_form - empirical),
             "trials": int(config.get("trials", 100000))}]
    text = (f"closed_form={closed_form:.6f} empirical={empirical:.6f} "
            f"abs_diff={abs(closed_form - empirical):.6f}\n")
    return _jsonl(records), _jsonl(rows), text


_RUNNERS = {
    "interactive": _run_interactive,
    "simulate": _run_simulate,
    "multimodal": _run_multimodal,
    "explain": _run_explain,
    "cascade": _run_cascade,
}


# top-level entry points -------------------------------------------------------

def _emit_error(out_dir, name, message):
    record = {"error": name, "message": message}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "error.json").write_text(
                json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
        except OSError:
            pass
    return 1


def run_scenario(config_path, out=None, seed=None,
                 report_format: str = "table") -> int:
    """Execute one scenario; returns the process exit status."""
    started = time.perf_counter()
    out_dir = Path(out) if out is not None else None
    try:
        findings = validate_config(config_path)
    except (Unreadable, ConfigInvalid) as exc:
        return _emit_error(out_dir, type(exc).__name__, str(exc))
    if findings:
        detail = "; ".join(f"{f['field']}: {f['rule']}" for f in findings)
        return _emit_error(out_dir, "ConfigInvalid", detail)

    config = load_config(config_path)
    if out_dir is None:
        out_dir = _resolve(config, config.get("out", "out"))
    effective_seed = seed if seed is not None else int(config.get("seed", 0))

    try:
        env = Environment(
            catalog=load_catalog(_resolve(config, config["catalog"]))
            if "catalog" in config else [])
        policy = (load_policy(_resolve(config, config["policy"]))
                  if "policy" in config else EMPTY_POLICY)
        env.rules_kb = policy
        runner = _RUNNERS[config["kind"]]
        trace_text, report_jsonl, report_text = runner(
            config, env, policy, effective_seed, report_format)
    except ScenarioAborted as exc:
        return _emit_error(out_dir, exc.error_name, str(exc))
    except AgentRecError as exc:
        return _emit_error(out_dir, type(exc).__name__, str(exc))

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.jsonl").write_text(trace_text, encoding="utf-8")
    (out_dir / "report.jsonl").write_text(report_jsonl, encoding="utf-8")
    (out_dir / "report.txt").write_text(report_text, encoding="utf-8")
    config_bytes = Path(config["__path__"]).read_bytes()
    manifest = {
        "config_hash": "sha256:" + hashlib.sha256(config_bytes).hexdigest(),
        "seed": effective_seed,
        "version": __version__,
        "scenario": config["kind"],
        "outputs": ["trace.jsonl", "report.jsonl", "report.txt"],
        "timings": {"elapsed_seconds": time.perf_counter() - started},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if report_format == "table":
        sys.stdout.write(report_text)
    else:
        sys.stdout.write(report_jsonl)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="agentrec",
        description="Deterministic multi-agent recommender scenario runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a scenario config")
    run_parser.add_argument("config")
    run_parser.add_argument("--out", default=None, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
    run_parser.add_argument("--format", choices=("table", "jsonlines"),
                            default="table")

    validate_parser = sub.add_parser("validate", help="check a scenario config")
    validate_parser.add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.config, out=args.out, seed=args.seed,
                            report_format=args.format)
    try:
        findings = validate_config(args.config)
    except (Unreadable, ConfigInvalid) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    for finding in findings:
        sys.stdout.write(f"{finding['field']}: {finding['rule']}\n")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
