"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints one PASS line on success (visible with pytest -s); a failed
assertion is the FAIL line. Runtime-bounded criteria assert their own budget.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from agentrec.agents import AgentSpec, LanguageCore
from agentrec.blueprints import build_interactive_runtime, ranked_entries_from_trace
from agentrec.cli import load_catalog, load_config, main, run_scenario
from agentrec.errors import ChannelClosed
from agentrec.memory import (
    EMBED_DIM,
    MemoryLabel,
    MemoryStore,
    embed_text,
    left_sum,
    make_item,
    regulate_context,
    relevance_score,
    retrieve_topk,
)
from agentrec.pipelines import Explanation, RankedList, consistency_check
from agentrec.reliability import (
    BrandPolicy,
    check_compliance,
    propagation_probability,
    simulate_error_cascade,
)
from agentrec.reliability import AgentGraph
from agentrec.runtime import Environment, Message, MasRuntime
from agentrec.simulation import (
    UserSimulator,
    evaluate,
    make_rotation_recommender,
    make_static_top_recommender,
    run_sessions,
    simulate_action,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
WORDS = ("party cake gluten chocolate vanilla berry lamp sofa chair rug "
         "mickey banner balloon favor sticker puzzle red blue green theme "
         "budget guest child decor rattan woven earthy boho modern chrome").split()


def _random_store(rng, max_items):
    store = MemoryStore()
    n = rng.randint(1, max_items)
    for i in range(n):
        slot = f"slot_{i}"
        value = " ".join(rng.choices(WORDS, k=rng.randint(1, 5)))
        label = rng.choice(list(MemoryLabel))
        store.items[(slot, label)] = make_item(slot, value, label, now=rng.randint(0, 5))
    return store


def test_c01_knapsack_exactness():
    started = time.perf_counter()
    rng = random.Random(2024)
    for instance in range(200):
        store = _random_store(rng, max_items=12)
        budget = rng.randint(0, 30)
        query = " ".join(rng.choices(WORDS, k=3))
        selection = regulate_context(store, query, budget)

        items = list(store.items.values())
        scores = [relevance_score(query, m) for m in items]
        lengths = [m.token_length() for m in items]
        # independent 2^n brute force; sums in item-index order
        best = 0.0
        n = len(items)
        for mask in range(1 << n):
            total_len = 0
            total_score = 0.0
            for i in range(n):
                if mask >> i & 1:
                    total_len += lengths[i]
                    total_score += scores[i]
            if total_len <= budget and total_score > best:
                best = total_score
        chosen = set(map(id, selection.items))
        resummed = left_sum(s for m, s in zip(items, scores) if id(m) in chosen)
        assert resummed == best, f"instance {instance}: {resummed} != {best}"
        assert sum(m.token_length() for m in selection.items) <= budget or not selection.items
        assert selection.approximate is False
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"knapsack acceptance took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 (knapsack exactness, 200 instances, {elapsed:.2f}s): PASS")


def test_c02_retrieval_oracle():
    started = time.perf_counter()
    rng = random.Random(505)
    for _ in range(100):
        store = _random_store(rng, max_items=200)
        query = " ".join(rng.choices(WORDS, k=rng.randint(1, 4)))
        k = rng.randint(1, 25)
        got = retrieve_topk(store, query, k)
        scored = [(relevance_score(query, m), m) for m in store.items.values()]
        scored.sort(key=lambda p: (-p[0], p[1].meta.timestamp, p[1].canonical_text()))
        want = [m for _, m in scored[:k]]
        assert got == want
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"retrieval acceptance took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 (top-k oracle, 100 stores, {elapsed:.2f}s): PASS")


def test_c03_memory_round_trip_exact():
    rng = random.Random(77)
    for i in range(1000):
        slot = f"slot_{i}_{rng.randint(0, 999)}"
        value = " ".join(rng.choices(WORDS, k=rng.randint(1, 4)))
        store = MemoryStore()
        label = rng.choice(list(MemoryLabel))
        store.items[(slot, label)] = make_item(slot, value, label, now=i)
        query = f"{slot}: {value}"
        top = retrieve_topk(store, query, 1)
        assert len(top) == 1
        assert top[0].canonical_text() == query
        assert relevance_score(query, top[0]) == 1.0
    print("ACCEPTANCE 3 (self-retrieval, 1000 singleton stores, exact): PASS")


def test_c04_communication_soundness():
    rng = random.Random(31337)
    closed_deliveries = 0
    missing_errors = 0
    total = 0
    for _ in range(20):
        ids = [f"agent{i}" for i in range(rng.randint(2, 6))]
        runtime = MasRuntime(Environment())
        for agent_id in ids:
            runtime.register_agent(AgentSpec(
                id=agent_id, core=LanguageCore([(r".*", "$input")]),
                input_schema=frozenset({"query"}),
                output_schema=frozenset({"query"})))
        for a in ids:
            for b in ids:
                if a != b and rng.random() < 0.5:
                    runtime.toggle_channel(a, b, True)
        for _ in range(500):
            total += 1
            sender, recipient = rng.choice(ids), rng.choice(ids)
            allowed = runtime.allows(sender, recipient)
            before = len(runtime.inboxes[recipient])
            try:
                runtime.send_message(Message(sender=sender, recipient=recipient,
                                             kind="query", payload={"text": "x"}))
                if not allowed:
                    closed_deliveries += 1
            except ChannelClosed:
                if allowed:
                    missing_errors += 1
            after = len(runtime.inboxes[recipient])
            if not allowed and after != before:
                closed_deliveries += 1
    assert total == 10_000
    assert closed_deliveries == 0
    assert missing_errors == 0
    print("ACCEPTANCE 4 (communication soundness, 10^4 fuzzed sends): PASS")


def test_c04_schema_gate_on_every_consumed_message():
    """A mixed-kind inbox aborts on its first kind outside the consumer's input schema."""
    rng = random.Random(4204)
    kinds = ["query", "item_set", "ranked_list"]
    hidden = 0  # inboxes whose first message is accepted but a later one is not
    for trial in range(300):
        runtime = MasRuntime(Environment())
        accepted = frozenset(rng.sample(kinds, rng.randint(1, 2)))
        runtime.register_agent(AgentSpec(
            id="consumer", core=LanguageCore([(r".*", "$input")]),
            input_schema=accepted, output_schema=frozenset({"query"})))
        runtime.register_agent(AgentSpec(
            id="sender", core=LanguageCore([(r".*", "$input")]),
            input_schema=frozenset(kinds), output_schema=frozenset(kinds)))
        runtime.toggle_channel("sender", "consumer", True)
        runtime.toggle_channel("consumer", "sender", True)
        sent = [rng.choice(kinds) for _ in range(rng.randint(1, 4))]
        for kind in sent:
            runtime.send_message(Message(sender="sender", recipient="consumer", kind=kind,
                                         payload={"text": kind}))
        # the initial input is no message, so no schema applies to it
        initial = "start" if rng.random() < 0.5 else ""
        result = runtime.run_episode([("consumer", "sender", "query")], seed=trial,
                                     initial_input=initial)
        rejected = [kind for kind in sent if kind not in accepted]
        if rejected:
            hidden += sent[0] in accepted
            assert result.error == (f"SchemaViolation: agent 'consumer' does not accept "
                                    f"kind {rejected[0]!r}")
            assert result.trace == []
        else:
            assert result.error is None and len(result.trace) == 1
    assert hidden >= 50
    print(f"ACCEPTANCE 4b (schema gate, 300 seeded mixed inboxes, {hidden} hidden): PASS")


EXPECTED_KINDS = ["query", "episode_list", "validated_episodes", "spawn",
                  "item_set", "item_set", "item_set", "validated_set",
                  "ranked_list"]


def test_c05_party_planner_blueprint_100_seeds():
    started = time.perf_counter()
    config = load_config(SCENARIOS / "party_planner.json")
    catalog = load_catalog(SCENARIOS / "party_catalog.json")
    gluten_ids = {item.id for item in catalog if "gluten" in item.tags}
    for seed in range(100):
        env = Environment(catalog=load_catalog(SCENARIOS / "party_catalog.json"))
        runtime, routing = build_interactive_runtime(config, env)
        result = runtime.run_episode(routing, seed=seed,
                                     initial_input=config["query"])
        assert result.error is None
        assert [m.kind for m in result.trace] == EXPECTED_KINDS
        entries = ranked_entries_from_trace(result.trace)
        assert entries, "ranked list must be non-empty"
        assert not ({item_id for item_id, _ in entries} & gluten_ids)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"party planner acceptance took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 (party blueprint, 100 seeds, {elapsed:.2f}s): PASS")


def test_c06_error_propagation_agreement():
    started = time.perf_counter()
    graph = AgentGraph(nodes=["n0", "n1"], edges=[("n0", "n1")],
                       error_rates={"n0": 0.1, "n1": 0.1})
    closed_form = propagation_probability([0.1, 0.1])
    assert closed_form == pytest.approx(0.19, abs=1e-15)
    empirical = simulate_error_cascade(graph, trials=1_000_000, seed=606)
    assert abs(empirical - 0.19) <= 0.002

    rng = random.Random(808)
    for _ in range(500):
        n = rng.randint(1, 6)
        p = [rng.random() for _ in range(n)]
        value = propagation_probability(p)
        assert 0.0 <= value <= 1.0
        i = rng.randrange(n)
        bumped = list(p)
        bumped[i] = min(1.0, bumped[i] + rng.random() * (1.0 - bumped[i]))
        assert propagation_probability(bumped) >= value
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"propagation acceptance took {elapsed:.1f}s"
    print(f"ACCEPTANCE 6 (propagation agreement + monotonicity, {elapsed:.2f}s): PASS")


def _env_single():
    from agentrec.runtime import CatalogItem
    return Environment(catalog=[
        CatalogItem("solo", "the only catalog item", ("home",), 1.0)])


def _orthogonal_unit(vec):
    values = [0.0] * EMBED_DIM
    values[vec.index(0.0)] = 1.0
    return tuple(values)


def test_c07_simulator_calibration():
    env = _env_single()
    e = embed_text(env.item_by_id("solo").text())
    u = _orthogonal_unit(e)
    theta = tuple(0.6 * a + 0.8 * b for a, b in zip(e, u))
    sim = UserSimulator("cal", theta=theta, noise_scale=0.0)
    recs = RankedList(entries=[("solo", 1.0)])
    rng = random.Random(4242)
    draws = 100_000
    selects = sum(1 for _ in range(draws)
                  if simulate_action(sim, recs, env, rng) == "Select")
    freq = selects / draws
    sigma = math.sqrt(0.6 * 0.4 / draws)
    assert abs(freq - 0.6) <= 3 * sigma, f"freq={freq}"

    horizon = 12
    always = UserSimulator("always", theta=e, noise_scale=0.0)
    traces = run_sessions(make_static_top_recommender("solo"), [always],
                          horizon=horizon, env=env)
    assert evaluate(traces)[-1]["psi_hat"] == float(horizon)

    never = UserSimulator("never", theta=u, noise_scale=0.0)
    traces = run_sessions(make_static_top_recommender("solo"), [never],
                          horizon=horizon, env=env)
    assert evaluate(traces)[-1]["psi_hat"] == 0.0
    print(f"ACCEPTANCE 7 (calibration freq={freq:.4f}, degenerate exact): PASS")


def test_c08_entropy_bounds():
    from agentrec.runtime import CatalogItem
    env = Environment(catalog=[
        CatalogItem(f"rot_{i}", f"distinct item {i} word{i}", ("home",), 1.0)
        for i in range(8)])
    sim = UserSimulator("s", theta=embed_text(env.catalog[0].text()))
    traces = run_sessions(make_rotation_recommender(), [sim],
                          horizon=8, env=env)
    entropy = evaluate(traces)[-1]["diversity_entropy"]
    assert abs(entropy - math.log(8)) <= 1e-9

    single = _env_single()
    sim = UserSimulator("s2", theta=embed_text(single.catalog[0].text()))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=10, env=single)
    assert evaluate(traces)[-1]["diversity_entropy"] == 0.0
    print("ACCEPTANCE 8 (entropy ln8 within 1e-9; degenerate 0): PASS")


def _reference_compliance(text, policy):
    import re as _re
    tokens = _re.sub(r"[^0-9a-z]+", " ", text.lower()).split()

    def has(phrase):
        needle = _re.sub(r"[^0-9a-z]+", " ", phrase.lower()).split()
        return bool(needle) and any(
            tokens[i:i + len(needle)] == needle
            for i in range(len(tokens) - len(needle) + 1))

    if any(has(t) for t in policy.banned_terms):
        return False
    for trigger, disclosure in policy.required_disclosures:
        if has(trigger) and not has(disclosure):
            return False
    return True


def test_c09_compliance_soundness():
    rng = random.Random(909)
    vocabulary = ["miracle", "cake", "sale", "terms", "apply", "fresh",
                  "deal", "told", "us", "best", "offer", "today"]
    policy = BrandPolicy(banned_terms=frozenset({"miracle", "told us"}),
                         required_disclosures=(("sale", "terms apply"),))
    verdicts = []
    for _ in range(10_000):
        text = " ".join(rng.choices(vocabulary, k=rng.randint(1, 7)))
        verdict = check_compliance(text, policy)
        assert verdict == _reference_compliance(text, policy), text
        verdicts.append(verdict)
    assert len(verdicts) == 10_000 and True in verdicts and False in verdicts
    print("ACCEPTANCE 9 (compliance, 10^4 fuzzed candidate texts, 100% agreement): PASS")


ALL_SCENARIOS = ["party_planner", "simulate_colony", "multimodal_bundle",
                 "explain_revision", "error_cascade"]


def test_c10_scenario_determinism(tmp_path, capsys):
    for name in ALL_SCENARIOS:
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert run_scenario(SCENARIOS / f"{name}.json", out=out_a) == 0
        assert run_scenario(SCENARIOS / f"{name}.json", out=out_b) == 0
        for artifact in ("trace.jsonl", "report.jsonl"):
            assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes(), (
                f"{name}/{artifact} not byte-identical")
    print("ACCEPTANCE 10 (byte-identical re-runs, all 5 scenarios): PASS")


def test_c11_explanation_consistency_fixtures():
    rng = random.Random(1111)
    policy = BrandPolicy(banned_terms=frozenset({"told us", "guaranteed"}))
    recs = RankedList(entries=[("cake_7", 0.9), ("decor_1", 0.5)])
    ctx = [make_item("guest_allergy", "gluten", MemoryLabel.EPI, 0),
           make_item("theme", "mickey mouse", MemoryLabel.SEM, 1)]

    accepted = rejected = 0
    for i in range(50):
        item_id = rng.choice(["cake_7", "decor_1"])
        slot = rng.choice(["guest_allergy", "theme"])
        text = f"Pick {i}: [item:{item_id}] fits your [fact:{slot}] note."
        explanation = Explanation(text=text, cited_items=frozenset({item_id}),
                                  cited_facts=frozenset({slot}))
        assert consistency_check(explanation, recs, ctx, policy) is True
        accepted += 1

    for i in range(50):
        if i % 2 == 0:
            text = f"Bad {i}: [item:ghost_{i}] cites an unknown item."
            cited = frozenset({f"ghost_{i}"})
        else:
            text = f"Bad {i}: [item:cake_7] is guaranteed to please."
            cited = frozenset({"cake_7"})
        explanation = Explanation(text=text, cited_items=cited,
                                  cited_facts=frozenset())
        assert consistency_check(explanation, recs, ctx, policy) is False
        rejected += 1

    assert accepted == 50 and rejected == 50
    print("ACCEPTANCE 11 (explanation consistency, 50 clean + 50 bad): PASS")


# One number leaf of a bundled config set to an edge value. The size-driving
# integers are left alone: a huge one is valid and would only make a run long.
EDGE_NUMBERS = (10 ** 400, -10 ** 400, 1e308, -1e308, 5e-324, -0.0, 1e16, 2 ** 53 + 1,
                1.5, -1.5)
SIZE_FIELDS = {"trials", "count", "horizon", "sessions_per_sim", "budgets"}


def _number_leaves(value, path=()):
    """Paths of a config's number leaves that lie under no size field."""
    if isinstance(value, dict):
        for key, entry in value.items():
            if key not in SIZE_FIELDS:
                yield from _number_leaves(entry, path + (key,))
    elif isinstance(value, list):
        for index, entry in enumerate(value):
            yield from _number_leaves(entry, path + (index,))
    elif type(value) in (int, float):
        yield path


def _bundled(name) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))


def _edited_config(name, path, value) -> dict:
    """The bundled config with its data paths absolute and one leaf set."""
    config = _bundled(name)
    for field in ("catalog", "policy"):
        if field in config:
            config[field] = str((SCENARIOS / config[field]).resolve())
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def test_c12_edge_number_fuzz_validate_agrees_with_run(tmp_path, capsys):
    started = time.perf_counter()
    rng = random.Random(7)
    cases = [(name, path, value) for name in ALL_SCENARIOS
             for path in _number_leaves(_bundled(name)) for value in EDGE_NUMBERS]
    cases = rng.sample(cases, min(150, len(cases)))
    failed = 0
    for index, case in enumerate(cases):
        config_path, out = tmp_path / f"case{index}.json", tmp_path / f"out{index}"
        config_path.write_text(json.dumps(_edited_config(*case)), encoding="utf-8")
        valid = main(["validate", str(config_path)])  # an exception here is a traceback
        capsys.readouterr()
        ran = main(["run", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert (valid == 0) == (ran == 0), case
        if ran:
            failed += 1
            assert set(json.loads(err.splitlines()[-1])) == {"error", "message"}, case
        else:
            for artifact in out.iterdir():
                text = artifact.read_text(encoding="utf-8")
                assert "NaN" not in text and "Infinity" not in text, (case, artifact.name)
    assert 0 < failed < len(cases)
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 12 (edge-number fuzz, {len(cases)} configs, {failed} rejected, "
          f"{elapsed:.2f}s): PASS")


def _cascade_config(rng) -> tuple:
    """(config, cyclic) for a random graph over n0..n{k-1}: a chain in a
    shuffled order plus forward edges (a DAG), then maybe a back edge along
    the chain or a self-edge."""
    nodes = [f"n{i}" for i in range(rng.randint(1, 6))]
    order = rng.sample(nodes, len(nodes))
    edges = [[a, b] for a, b in zip(order, order[1:])]
    edges += [[order[i], order[j]] for i in range(len(order)) for j in range(i + 2, len(order))
              if rng.random() < 0.3]
    shape = rng.choice(["dag", "back", "self"] if len(nodes) > 1 else ["dag", "self"])
    if shape == "back":
        i, j = sorted(rng.sample(range(len(order)), 2))
        edges.append([order[j], order[i]])
    elif shape == "self":
        node = rng.choice(nodes)
        edges.append([node, node])
    rng.shuffle(edges)
    config = {"kind": "cascade", "seed": rng.randrange(100), "nodes": nodes, "edges": edges,
              "error_rates": {node: rng.choice([0.0, 0.1, 0.5, 1.0]) for node in nodes},
              "trials": rng.randint(1, 50)}
    return config, shape != "dag"


def _fact_map(rng, tags, all_tags) -> tuple:
    """(facts, conflicting): required_* slots name tags of one catalog item
    (`tags`), _ban and _allergy slots tags it lacks, so that item stays
    admissible; a conflicting map also requires and forbids one tag, in
    either case."""
    facts = {}
    for index, tag in enumerate(rng.sample(sorted(tags), rng.randint(0, len(tags)))):
        facts[f"required_{index}"] = tag
    others = sorted(all_tags - tags)
    for index, tag in enumerate(rng.sample(others, rng.randint(0, min(3, len(others))))):
        facts[f"{WORDS[index]}_{rng.choice(['ban', 'allergy'])}"] = tag
    conflicting = rng.random() < 0.5
    if conflicting:
        tag = rng.choice(sorted(all_tags))
        facts[f"required_{rng.choice(['x', 'y'])}"] = rng.choice([tag, tag.upper()])
        facts[f"clash_{rng.choice(['ban', 'allergy'])}"] = rng.choice([tag, f" {tag.title()}"])
    items = list(facts.items())
    rng.shuffle(items)
    return dict(items), conflicting


def _facts_config(rng, name) -> tuple:
    config = _edited_config(name, ("seed",), rng.randrange(100))
    catalog = json.loads(Path(config["catalog"]).read_text(encoding="utf-8"))
    all_tags = {tag for record in catalog for tag in record["tags"]}
    item = rng.choice(catalog)
    facts, conflicting = _fact_map(rng, set(item["tags"]), all_tags)
    if name == "multimodal_bundle":  # one category, so the item alone is a bundle
        config.update(categories=[item["tags"][0]], profile_facts=facts)
    else:
        config["facts"] = facts
    return config, conflicting


def test_c13_cross_field_fuzz_validate_agrees_with_run(tmp_path, capsys):
    started = time.perf_counter()
    rng = random.Random(13)
    cases = ([_cascade_config(rng) for _ in range(40)]
             + [_facts_config(rng, name) for name in ("multimodal_bundle", "explain_revision")
                for _ in range(30)])
    fields = {"cascade": "edges", "multimodal": "profile_facts", "explain": "facts"}
    for index, (config, faulty) in enumerate(cases):
        config_path, out = tmp_path / f"case{index}.json", tmp_path / f"out{index}"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        valid = main(["validate", str(config_path)])
        findings = capsys.readouterr().out
        ran = main(["run", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert (valid == 0) == (ran == 0) == (not faulty), config
        if faulty:
            error = ("CyclicGraph: " if config["kind"] == "cascade"
                     else "InvalidArgument: required and forbidden tags must be disjoint")
            assert findings.startswith(f"{fields[config['kind']]}: {error}"), config
            assert json.loads(err.splitlines()[-1])["error"] == "ConfigInvalid", config
    assert {faulty for _, faulty in cases} == {True, False}
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 13 (cycle and conflicting-facts fuzz, {len(cases)} configs, "
          f"{sum(faulty for _, faulty in cases)} rejected, {elapsed:.2f}s): PASS")
