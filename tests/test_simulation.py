"""Simulation colony: policy calibration, sessions, evaluation, reporting."""

import copy
import hashlib
import json
import math
import random

import pytest

from agentrec.errors import NoFeasibleItem, NoSummaries, NoTraces
from agentrec.memory import EMBED_DIM, embed_text
from agentrec.pipelines import RankedList
from agentrec.runtime import CatalogItem, Environment
from agentrec.simulation import (
    SessionTrace,
    UserSimulator,
    aggregate_report,
    aggregate_rows,
    evaluate,
    make_diversity_penalty_reward,
    make_rotation_recommender,
    make_static_top_recommender,
    run_sessions,
    select_probability,
    simulate_action,
    summarize_session,
)


def rotation_env(n=8):
    return Environment(catalog=[
        CatalogItem(f"rot_{i}", f"unique item number {i} titleword{i}", ("home",), 1.0)
        for i in range(1, n + 1)])


def single_env():
    return Environment(catalog=[
        CatalogItem("solo", "the only catalog item", ("home",), 1.0)])


def matching_theta(env, item_id):
    return embed_text(env.item_by_id(item_id).text())


def orthogonal_theta(env, item_id):
    """Unit vector supported on a bucket where the item embedding is zero."""
    item_vec = embed_text(env.item_by_id(item_id).text())
    free_bucket = item_vec.index(0.0)
    values = [0.0] * EMBED_DIM
    values[free_bucket] = 1.0
    theta = tuple(values)
    assert sum(a * b for a, b in zip(theta, item_vec)) == 0.0
    return theta


def theta_with_cosine(env, item_id, target):
    """theta = target*e + sqrt(1-target^2)*u with u unit and orthogonal to e."""
    e = embed_text(env.item_by_id(item_id).text())
    u = orthogonal_theta(env, item_id)
    scale = math.sqrt(1.0 - target * target)
    return tuple(target * a + scale * b for a, b in zip(e, u))


# simulate_action --------------------------------------------------------------

def test_matching_theta_always_selects():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"), noise_scale=0.0)
    recs = RankedList(entries=[("solo", 1.0)])
    rng = random.Random(0)
    assert select_probability(sim, recs, env, rng) == 1.0
    actions = {simulate_action(sim, recs, env, rng) for _ in range(50)}
    assert actions == {"Select"}


def test_orthogonal_theta_never_selects():
    env = single_env()
    sim = UserSimulator("s1", theta=orthogonal_theta(env, "solo"), noise_scale=0.0)
    recs = RankedList(entries=[("solo", 1.0)])
    rng = random.Random(0)
    assert select_probability(sim, recs, env, rng) == 0.0
    actions = {simulate_action(sim, recs, env, rng) for _ in range(50)}
    assert actions == {"NotSelect"}


def test_calibration_cos_point_six():
    env = single_env()
    theta = theta_with_cosine(env, "solo", 0.6)
    sim = UserSimulator("s1", theta=theta, noise_scale=0.0)
    recs = RankedList(entries=[("solo", 1.0)])
    rng = random.Random(123)
    p = select_probability(sim, recs, env, rng)
    assert p == pytest.approx(0.6, abs=1e-12)
    draws = 20_000
    selects = sum(1 for _ in range(draws)
                  if simulate_action(sim, recs, env, rng) == "Select")
    sigma = math.sqrt(0.6 * 0.4 / draws)
    assert abs(selects / draws - 0.6) <= 3 * sigma


def test_action_draws_deterministic_given_rng_state():
    env = single_env()
    theta = theta_with_cosine(env, "solo", 0.5)
    recs = RankedList(entries=[("solo", 1.0)])

    def run(seed):
        sim = UserSimulator("s1", theta=theta, noise_scale=0.1, seed=seed)
        rng = random.Random(seed)
        return [simulate_action(sim, recs, env, rng) for _ in range(20)]

    assert run(7) == run(7)
    assert run(7) != run(8) or run(7) == run(8)  # same-seed equality is the contract


def test_empty_recs_rejected():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    with pytest.raises(ValueError):
        simulate_action(sim, RankedList(entries=[]), env, random.Random(0))


# run_sessions -------------------------------------------------------------------

def test_single_step_session():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=1, env=env)
    assert len(traces) == 1
    assert len(traces[0].steps) == 1
    assert traces[0].steps[0].action == "Select"


def test_always_select_total_reward_equals_horizon():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=10, env=env)
    assert sum(step.reward for step in traces[0].steps) == 10.0


def test_never_select_total_reward_zero():
    env = single_env()
    sim = UserSimulator("s1", theta=orthogonal_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=10, env=env)
    assert sum(step.reward for step in traces[0].steps) == 0.0


def serialize_traces(traces):
    return json.dumps([
        {"sim": t.simulator_id, "seed": t.seed,
         "steps": [{"state": s.state, "recs": s.recs.entries,
                    "action": s.action, "reward": s.reward, "error": s.error}
                   for s in t.steps]}
        for t in traces], sort_keys=True)


def test_rerun_with_same_seeds_is_byte_identical():
    def run():
        env = rotation_env()
        sims = [UserSimulator(f"s{i}", theta=theta_with_cosine(env, "rot_1", 0.5),
                              noise_scale=0.2, seed=100 + i) for i in range(3)]
        return serialize_traces(run_sessions(
            make_rotation_recommender(), sims, horizon=6, env=env,
            sessions_per_sim=2))

    assert run() == run()


def test_recommender_errors_recorded_in_trace():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))

    calls = {"n": 0}

    def flaky(query, env_, top_l):
        calls["n"] += 1
        if calls["n"] % 2 == 1:
            raise NoFeasibleItem("nothing fits")
        return RankedList(entries=[("solo", 1.0)])

    traces = run_sessions(flaky, [sim], horizon=4, env=env)
    steps = traces[0].steps
    assert [s.error is not None for s in steps] == [True, False, True, False]
    assert all(s.action is None for s in steps if s.error)
    assert len(steps) == 4  # session continues past errors


def test_run_sessions_leaves_simulators_unchanged():
    # a recommender that raises, returns empty lists and shows ids that
    # retain's segment split would cut: no step writes to its simulator
    ids = ["plain", "comma, split", "semi; colon", "dot. end.", "key = value", "a: b"]
    env = Environment(catalog=[CatalogItem(i, f"title {n}", ("home",), 1.0)
                               for n, i in enumerate(ids)])
    rng = random.Random(8)
    sims = [UserSimulator(f"s{i}", theta=matching_theta(env, ids[i]), noise_scale=0.3,
                          seed=i) for i in range(len(ids))]
    before = copy.deepcopy(sims)
    shown = {}

    def recommend(query, env_, top_l):
        if rng.random() < 0.25:
            raise NoFeasibleItem("skipped step")
        if rng.random() < 0.1:
            return RankedList(entries=[])
        top = rng.choice(ids)
        shown[query.split()[0]] = top
        return RankedList(entries=[(top, 1.0)])

    traces = run_sessions(recommend, sims, horizon=7, env=env, sessions_per_sim=3)
    assert sims == before
    # theta_query is the one cached attribute; nothing else is added
    assert all(vars(sim).keys() - {"theta_query"} == vars(old).keys()
               for sim, old in zip(sims, before))
    steps = [step for trace in traces for step in trace.steps]
    assert sum(step.action is not None for step in steps) == 80
    assert sum(step.error is not None for step in steps) == 46
    for sim in sims:
        acted = [step for trace in traces if trace.simulator_id == sim.simulator_id
                 for step in trace.steps if step.action is not None]
        assert acted[-1].recs.entries == [(shown[f"sim={sim.simulator_id}"], 1.0)]
    # the traces, pinned byte for byte: no step, action or reward moved
    digest = hashlib.sha256(serialize_traces(traces).encode()).hexdigest()
    assert digest == "cdc424e7b7b69c72fa864437ede5f0778092d6246d596280843c265d7f2041e3"


# evaluate -----------------------------------------------------------------------

def test_evaluate_requires_traces():
    with pytest.raises(NoTraces):
        evaluate([])


def test_all_select_ctr_is_one():
    env = single_env()
    sims = [UserSimulator(f"s{i}", theta=matching_theta(env, "solo"))
            for i in range(3)]
    traces = run_sessions(make_static_top_recommender("solo"), sims,
                          horizon=5, env=env)
    report = evaluate(traces)
    assert report.ctr == 1.0
    assert report.psi_hat == 5.0
    assert report.halfwidths["psi_hat"] == 0.0


def test_single_item_recommender_entropy_zero():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=10, env=env)
    assert evaluate(traces).diversity_entropy == 0.0


def test_uniform_rotation_entropy_equals_ln8():
    env = rotation_env(8)
    sim = UserSimulator("s1", theta=matching_theta(env, "rot_1"))
    traces = run_sessions(make_rotation_recommender(), [sim],
                          horizon=8, env=env)
    assert abs(evaluate(traces).diversity_entropy - math.log(8)) <= 1e-9


def test_entropy_bounds_hold():
    env = rotation_env(8)
    sims = [UserSimulator(f"s{i}", theta=theta_with_cosine(env, "rot_1", 0.4),
                          noise_scale=0.3, seed=i) for i in range(4)]
    traces = run_sessions(make_rotation_recommender(), sims, horizon=5, env=env)
    report = evaluate(traces)
    assert 0.0 <= report.diversity_entropy <= math.log(len(env.catalog)) + 1e-12


def test_diversity_penalty_reward():
    reward = make_diversity_penalty_reward(0.5)
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=3, env=env, reward=reward)
    rewards = [step.reward for step in traces[0].steps]
    assert rewards == [1.0, 0.5, 0.5]  # repeats penalized after first exposure


# summaries and reports -------------------------------------------------------------

def test_summary_of_empty_action_trace_is_zeros():
    trace = SessionTrace(steps=[], seed=1, simulator_id="s1", cohort="c")
    summary = summarize_session(trace)
    assert summary.total_reward == 0.0
    assert summary.selects == 0
    assert summary.distinct_items == 0
    assert summary.cohort == "c"


def test_summary_counts_selects():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    trace = run_sessions(make_static_top_recommender("solo"), [sim],
                         horizon=10, env=env)[0]
    summary = summarize_session(trace)
    assert summary.selects == 10
    assert summary.distinct_items == 1


def test_summary_matches_recount_oracle():
    env = rotation_env(5)
    sim = UserSimulator("s1", theta=theta_with_cosine(env, "rot_1", 0.5),
                        noise_scale=0.3, seed=17)
    trace = run_sessions(make_rotation_recommender(), [sim],
                         horizon=9, env=env)[0]
    summary = summarize_session(trace)
    # field-by-field independent recount
    actions = [s.action for s in trace.steps if s.action is not None]
    assert summary.total_reward == sum(s.reward for s in trace.steps)
    assert summary.selects == len([a for a in actions if a == "Select"])
    assert summary.distinct_items == len(
        {i for s in trace.steps for i, _ in s.recs.entries})
    assert summary.cohort == trace.cohort


def test_aggregate_requires_summaries():
    with pytest.raises(NoSummaries):
        aggregate_rows([])


def test_aggregate_single_row_and_sorted_cohorts():
    env = single_env()
    sims = [UserSimulator("b-0", theta=matching_theta(env, "solo"), cohort="beta"),
            UserSimulator("a-0", theta=matching_theta(env, "solo"), cohort="alpha")]
    traces = run_sessions(make_static_top_recommender("solo"), sims,
                          horizon=2, env=env)
    summaries = [summarize_session(t) for t in traces]
    rows = aggregate_rows(summaries)
    assert [row["cohort"] for row in rows] == ["alpha", "beta"]
    assert all(row["sessions"] == 1 for row in rows)


def test_aggregate_means_match_recomputation():
    env = rotation_env(4)
    sims = [UserSimulator(f"c-{i}", theta=theta_with_cosine(env, "rot_1", 0.5),
                          noise_scale=0.2, seed=i, cohort="c") for i in range(6)]
    traces = run_sessions(make_rotation_recommender(), sims, horizon=5, env=env)
    summaries = [summarize_session(t) for t in traces]
    row = aggregate_rows(summaries)[0]
    totals = [s.total_reward for s in summaries]
    assert abs(row["mean_total_reward"] - sum(totals) / len(totals)) <= 1e-12




def test_report_is_a_byte_stable_table_of_the_rows():
    env = single_env()
    sims = [UserSimulator("a-0", theta=matching_theta(env, "solo"), cohort="a")]
    traces = run_sessions(make_static_top_recommender("solo"), sims,
                          horizon=3, env=env)
    rows = aggregate_rows([summarize_session(t) for t in traces])
    table = aggregate_report(rows)
    assert table == aggregate_report(aggregate_rows([summarize_session(t) for t in traces]))
    header, line = table.splitlines()
    assert header.split() == list(rows[0])
    assert line.split() == ["a", "1", "3.000000", "0.000000", "3.000000", "0.000000",
                            "1.000000", "0.000000"]
