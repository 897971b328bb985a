"""Reliability: propagation closed form, cascade simulation, consensus, compliance."""

import math
import random

import pytest

from agentrec.errors import CyclicGraph, NoCompliantCandidate, OutOfRange
from agentrec.reliability import (
    CASCADE_BLOCK,
    AgentGraph,
    BrandPolicy,
    EMPTY_POLICY,
    ValidityOracle,
    check_compliance,
    consensus,
    constrained_select,
    default_oracle,
    propagation_probability,
    simulate_error_cascade,
)


# closed form ------------------------------------------------------------------

def test_empty_list_is_zero():
    assert propagation_probability([]) == 0.0


def test_certain_failure_dominates():
    assert propagation_probability([1.0, 0.3]) == 1.0


def test_two_stage_point_one_chain():
    assert propagation_probability([0.1, 0.1]) == pytest.approx(0.19, abs=1e-15)


def test_out_of_range_rejected():
    with pytest.raises(OutOfRange):
        propagation_probability([0.5, 1.5])
    with pytest.raises(OutOfRange):
        propagation_probability([-0.1])


def test_monotone_in_every_coordinate():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 6)
        p = [rng.random() for _ in range(n)]
        base = propagation_probability(p)
        i = rng.randrange(n)
        bumped = list(p)
        bumped[i] = min(1.0, bumped[i] + rng.random() * (1.0 - bumped[i]))
        assert propagation_probability(bumped) >= base
        assert 0.0 <= base <= 1.0


def test_zero_iff_all_zero():
    assert propagation_probability([0.0, 0.0, 0.0]) == 0.0
    assert propagation_probability([0.0, 1e-9]) > 0.0


# cascade simulation ----------------------------------------------------------------

def chain_graph(rates):
    nodes = [f"n{i}" for i in range(len(rates))]
    return AgentGraph(nodes=nodes,
                      edges=list(zip(nodes, nodes[1:])),
                      error_rates=dict(zip(nodes, rates)))


def test_all_zero_rates_give_exact_zero():
    graph = chain_graph([0.0, 0.0, 0.0])
    assert simulate_error_cascade(graph, default_oracle(graph), 1000, seed=1) == 0.0


def test_single_certain_failure_gives_exact_one():
    graph = chain_graph([1.0])
    assert simulate_error_cascade(graph, default_oracle(graph), 1000, seed=1) == 1.0


def test_chain_monte_carlo_matches_closed_form():
    graph = chain_graph([0.1, 0.1])
    rate = simulate_error_cascade(graph, default_oracle(graph), 200_000, seed=42)
    assert abs(rate - 0.19) <= 0.003


def test_random_chains_agree_within_three_sigma():
    rng = random.Random(4)
    for trial in range(2):
        rates = [round(rng.uniform(0.0, 0.4), 3) for _ in range(rng.randint(2, 6))]
        graph = chain_graph(rates)
        trials = 1_000_000
        q = propagation_probability(rates)
        rate = simulate_error_cascade(graph, default_oracle(graph), trials,
                                      seed=100 + trial)
        sigma = math.sqrt(q * (1.0 - q) / trials)
        assert abs(rate - q) <= 3 * sigma + 1e-12


def test_correlated_fanin_diverges_from_independent_form():
    # one upstream feeding two sinks: the closed form over per-node rates
    # treats the sinks as independent, the structural simulation does not
    graph = AgentGraph(nodes=["src", "left", "right"],
                       edges=[("src", "left"), ("src", "right")],
                       error_rates={"src": 0.5, "left": 0.0, "right": 0.0})
    rate = simulate_error_cascade(graph, default_oracle(graph), 100_000, seed=9)
    assert abs(rate - 0.5) <= 0.01  # any-sink-invalid == src failed


def test_cycle_detected():
    graph = AgentGraph(nodes=["a", "b"], edges=[("a", "b"), ("b", "a")],
                       error_rates={"a": 0.1, "b": 0.1})
    with pytest.raises(CyclicGraph):
        simulate_error_cascade(graph, default_oracle(graph), 10, seed=1)


def test_cascade_deterministic_given_seed():
    graph = chain_graph([0.2, 0.3, 0.1])
    oracle = default_oracle(graph)
    a = simulate_error_cascade(graph, oracle, 5000, seed=7)
    b = simulate_error_cascade(graph, oracle, 5000, seed=7)
    assert a == b


def test_bad_rates_rejected_at_graph_construction():
    with pytest.raises(OutOfRange):
        AgentGraph(nodes=["a"], edges=[], error_rates={"a": 1.2})


def reference_simulate_error_cascade(graph, oracle, trials, seed):
    """The one-trial-at-a-time loop simulate_error_cascade must equal exactly."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    order = graph.topological_order()
    index = {node: i for i, node in enumerate(order)}
    sinks = {index[node] for node in graph.sinks()}
    predecessors = [[index[p] for p in graph.predecessors(node)] for node in order]
    rates = [graph.error_rates.get(node, 0.0) for node in order]
    clean_invalid = [not oracle.valid(f"{node}:ok") for node in order]
    corrupt_invalid = [not oracle.valid(f"{node}:corrupt") for node in order]
    rng = random.Random(seed)
    rand = rng.random
    n = len(order)
    bad_trials = 0
    for _ in range(trials):
        invalid = [False] * n
        trial_bad = False
        for i in range(n):
            corrupted = rand() < rates[i] or any(invalid[j] for j in predecessors[i])
            invalid[i] = corrupt_invalid[i] if corrupted else clean_invalid[i]
            if invalid[i] and i in sinks:
                trial_bad = True
        if trial_bad:
            bad_trials += 1
    return bad_trials / trials


def random_dag(rng):
    """1-16 nodes declared in shuffled order; sparse edges leave isolated nodes and several sinks."""
    n = rng.randint(1, 16)
    ranked = [f"v{i}" for i in range(n)]
    density = rng.choice([0.0, 0.15, 0.4])
    edges = [(ranked[a], ranked[b]) for a in range(n) for b in range(a + 1, n)
             if rng.random() < density]
    nodes = list(ranked)
    rng.shuffle(nodes)
    rates = {}
    for node in nodes:
        pick = rng.randrange(6)
        if pick < 5:  # pick == 5 leaves the node out: the default rate 0.0
            rates[node] = [0.0, 1.0, 0, 1, rng.random()][pick]
    return AgentGraph(nodes=nodes, edges=edges, error_rates=rates)


def random_oracle(rng, graph):
    if rng.random() < 0.3:
        return default_oracle(graph)
    truth = {}
    for node in graph.nodes:
        truth[f"{node}:ok"] = rng.random() < 0.8       # clean may be invalid
        truth[f"{node}:corrupt"] = rng.random() < 0.3  # corrupt may be valid
    return ValidityOracle(ground_truth=truth)


def test_block_cascade_equals_reference_loop_exactly():
    rng = random.Random(2024)
    counts = [1, CASCADE_BLOCK - 1, CASCADE_BLOCK, CASCADE_BLOCK + 1,
              "few", "blocks"]
    for case in range(96):
        graph = random_dag(rng)
        oracle = random_oracle(rng, graph)
        trials = counts[case % len(counts)]
        if trials == "few":
            trials = rng.randint(1, 300)
        elif trials == "blocks":
            trials = rng.randint(1, 2 * CASCADE_BLOCK + 3)
        seed = rng.randrange(2**32)
        assert (simulate_error_cascade(graph, oracle, trials, seed)
                == reference_simulate_error_cascade(graph, oracle, trials, seed))


def test_random_is_two_getrandbits_words():
    # the layout simulate_error_cascade reads draws in, on this Python
    for seed in range(20):
        words, floats = random.Random(seed), random.Random(seed)
        for _ in range(50):
            pair = words.getrandbits(64)
            w0, w1 = pair & 0xFFFFFFFF, pair >> 32
            assert ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 == floats.random()
        assert words.random() == floats.random()  # same state afterwards


def test_block_cascade_equals_reference_loop_at_draw_valued_rates():
    """Rates equal to a node's own draws, or one float step either side of
    one, decide ``draw < rate`` at the exact boundary the integer test must
    reproduce; the fixed extremes and the benchmark's rate range ride along."""
    rng = random.Random(53)
    extremes = [2**-53, 1 - 2**-53, 0, 1, 0.0, 1.0]
    for case in range(120):
        n = rng.randint(1, 8)
        trials = rng.choice([1, 2, 37, 300, CASCADE_BLOCK + 9])
        seed = rng.randrange(2**32)
        source = random.Random(seed)
        draws = [source.random() for _ in range(trials * n)]
        nodes = [f"v{i}" for i in range(n)]
        rates = {}
        for i, node in enumerate(nodes):
            pick = rng.randrange(4)
            if pick < 2:
                draw = draws[rng.randrange(trials) * n + i]
                rates[node] = [draw, math.nextafter(draw, 1.0),
                               math.nextafter(draw, 0.0)][rng.randrange(3)]
            elif pick == 2:
                rates[node] = rng.choice(extremes)
            else:
                rates[node] = rng.uniform(0.001, 0.03)
        edges = [(nodes[a], nodes[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.3]
        graph = AgentGraph(nodes=nodes, edges=edges, error_rates=rates)
        oracle = random_oracle(rng, graph)
        assert (simulate_error_cascade(graph, oracle, trials, seed)
                == reference_simulate_error_cascade(graph, oracle, trials, seed)), case


# consensus ---------------------------------------------------------------------------

def test_strict_majority_wins():
    assert consensus(["a", "a", "b"]) == "a"


def test_tie_breaks_lexicographically():
    assert consensus(["a", "b"]) == "a"
    assert consensus(["b", "a"]) == "a"
    assert consensus(["z", "y", "z", "y"]) == "y"


def test_singleton_returned():
    assert consensus(["x"]) == "x"


def test_majority_property_random():
    rng = random.Random(3)
    for _ in range(200):
        majority_reply = "winner"
        n_major = rng.randint(3, 10)
        n_minor = rng.randint(0, n_major - 1)
        replies = [majority_reply] * n_major + [
            f"noise{i}" for i in range(n_minor)]
        rng.shuffle(replies)
        assert consensus(replies) == majority_reply


def test_empty_replies_rejected():
    with pytest.raises(ValueError):
        consensus([])


# compliance ----------------------------------------------------------------------------

def test_banned_term_fails():
    policy = BrandPolicy(banned_terms=frozenset({"miracle"}))
    assert check_compliance("a miracle cure", policy) is False
    assert check_compliance("A MIRACLE!", policy) is False


def test_empty_policy_accepts_anything():
    assert check_compliance("whatever text at all", EMPTY_POLICY) is True
    assert check_compliance("", EMPTY_POLICY) is True


def test_whole_token_matching_no_substring_hits():
    policy = BrandPolicy(banned_terms=frozenset({"cat"}))
    assert check_compliance("concatenate catalogs", policy) is True
    assert check_compliance("the cat sat", policy) is False


def test_multiword_banned_phrase_contiguous():
    policy = BrandPolicy(banned_terms=frozenset({"told us"}))
    assert check_compliance("you told us yesterday", policy) is False
    assert check_compliance("you told them; trust us", policy) is True


def test_required_disclosure():
    policy = BrandPolicy(required_disclosures=(("sale", "terms apply"),))
    assert check_compliance("big sale today", policy) is False
    assert check_compliance("big sale today, terms apply", policy) is True
    assert check_compliance("no trigger here", policy) is True


def test_tone_allowlist():
    policy = BrandPolicy(tone_allowlist=frozenset({"friendly", "formal"}))
    assert check_compliance("hello", policy, tone_tags=("friendly",)) is True
    assert check_compliance("hello", policy, tone_tags=("sassy",)) is False
    assert check_compliance("hello", policy, tone_tags=()) is True


def test_policy_banned_and_disclosures_disjoint():
    with pytest.raises(ValueError):
        BrandPolicy(banned_terms=frozenset({"terms apply"}),
                    required_disclosures=(("sale", "terms apply"),))


def reference_compliance(text, policy):
    """Independent reference checker: token lists via str.split + strip."""
    import re as _re
    tokens = _re.sub(r"[^0-9a-z]+", " ", text.lower()).split()

    def has(phrase):
        needle = _re.sub(r"[^0-9a-z]+", " ", phrase.lower()).split()
        if not needle:
            return False
        return any(tokens[i:i + len(needle)] == needle
                   for i in range(len(tokens) - len(needle) + 1))

    if any(has(term) for term in policy.banned_terms):
        return False
    for trigger, disclosure in policy.required_disclosures:
        if has(trigger) and not has(disclosure):
            return False
    return True


def test_randomized_texts_match_reference_checker():
    rng = random.Random(11)
    vocabulary = ["sale", "terms", "apply", "miracle", "cake", "great",
                  "deal", "today", "told", "us", "offer"]
    policy = BrandPolicy(
        banned_terms=frozenset({"miracle", "told us"}),
        required_disclosures=(("sale", "terms apply"),))
    for _ in range(500):
        text = " ".join(rng.choices(vocabulary, k=rng.randint(0, 10)))
        assert check_compliance(text, policy) == reference_compliance(text, policy)


# constrained selection --------------------------------------------------------------------

def test_constraint_dominates_score():
    policy = BrandPolicy(banned_terms=frozenset({"miracle"}))
    chosen = constrained_select(
        [("a miracle product", 0.9), ("a solid product", 0.7)], policy)
    assert chosen == "a solid product"


def test_all_clean_returns_global_argmax():
    chosen = constrained_select(
        [("low", 0.1), ("high", 0.9), ("mid", 0.5)], EMPTY_POLICY)
    assert chosen == "high"


def test_all_banned_raises():
    policy = BrandPolicy(banned_terms=frozenset({"x"}))
    with pytest.raises(NoCompliantCandidate):
        constrained_select([("x one", 0.9), ("x two", 0.8)], policy)


def test_score_ties_take_lexicographic_smallest():
    assert constrained_select([("bbb", 0.5), ("aaa", 0.5)], EMPTY_POLICY) == "aaa"


def test_nonfinite_scores_rejected():
    with pytest.raises(ValueError):
        constrained_select([("a", float("nan"))], EMPTY_POLICY)


def test_selection_soundness_fuzz():
    rng = random.Random(21)
    vocabulary = ["miracle", "cake", "sale", "terms", "apply", "fresh", "deal"]
    policy = BrandPolicy(banned_terms=frozenset({"miracle"}),
                         required_disclosures=(("sale", "terms apply"),))
    for _ in range(300):
        candidates = [(" ".join(rng.choices(vocabulary, k=rng.randint(1, 6))),
                       round(rng.uniform(0, 1), 6))
                      for _ in range(rng.randint(1, 6))]
        compliant = [(t, s) for t, s in candidates if reference_compliance(t, policy)]
        if not compliant:
            with pytest.raises(NoCompliantCandidate):
                constrained_select(candidates, policy)
            continue
        chosen = constrained_select(candidates, policy)
        assert reference_compliance(chosen, policy)
        best = max(s for _, s in compliant)
        chosen_score = max(s for t, s in compliant if t == chosen)
        assert chosen_score == best
