"""Simulation colony: policy calibration, sessions, evaluation, reporting."""

import copy
import hashlib
import json
import math
import random
import statistics

import pytest

from agentrec import cli
from agentrec.errors import NoFeasibleItem, NoTraces, UnknownItem
from agentrec.memory import EMBED_DIM, embed_text, left_sum
from agentrec.pipelines import RankedList
from agentrec.runtime import CatalogItem, Environment
from agentrec.simulation import (
    SessionTrace,
    UserSimulator,
    evaluate,
    make_rotation_recommender,
    make_static_top_recommender,
    run_sessions,
    select_probability,
    simulate_action,
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
        {"sim": t.simulator_id,
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


def test_static_top_item_outside_the_catalog_raises_out_of_run_sessions():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"), noise_scale=0.1, seed=3)
    with pytest.raises(UnknownItem, match="unknown catalog item: 'nope'"):
        run_sessions(make_static_top_recommender("nope"), [sim], horizon=3, env=env)


def test_recommender_agentrec_error_is_an_eval_event_step():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))

    def failing(query, env_, top_l):
        raise UnknownItem(f"unknown catalog item: {query!r}")

    trace, = run_sessions(failing, [sim], horizon=2, env=env)
    assert [(step.state, step.recs.entries, step.action, step.reward, step.error)
            for step in trace.steps] == [
        (f"sim=s1 session=0 t={t} last=none", [], None, 0.0,
         f"UnknownItem: unknown catalog item: 'sim=s1 session=0 t={t} last=none'")
        for t in range(2)]
    lines = [json.loads(line) for line in cli._simulate_trace_jsonl([trace]).splitlines()]
    assert [(line["seq"], line["from"], line["to"], line["kind"]) for line in lines] == [
        (0, "recommender", "s1", "eval_event"), (1, "recommender", "s1", "eval_event")]
    assert lines[1]["payload"] == {"state": trace.steps[1].state, "error": trace.steps[1].error}


def test_recommender_error_outside_agentrec_propagates():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))

    def broken(query, env_, top_l):
        raise KeyError("not a recommender error")

    with pytest.raises(KeyError, match="not a recommender error"):
        run_sessions(broken, [sim], horizon=2, env=env)


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
    assert digest == "ba126b696b36409de6eaa1d804163b23b49cb7001a7f482727f857a19fd61512"


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
    overall = evaluate(traces)[-1]
    assert overall["ctr"] == 1.0
    assert overall["psi_hat"] == 5.0
    assert overall["halfwidths"]["psi_hat"] == 0.0


def test_single_item_recommender_entropy_zero():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=10, env=env)
    assert evaluate(traces)[-1]["diversity_entropy"] == 0.0


def test_uniform_rotation_entropy_equals_ln8():
    env = rotation_env(8)
    sim = UserSimulator("s1", theta=matching_theta(env, "rot_1"))
    traces = run_sessions(make_rotation_recommender(), [sim],
                          horizon=8, env=env)
    assert abs(evaluate(traces)[-1]["diversity_entropy"] - math.log(8)) <= 1e-9


def test_entropy_bounds_hold():
    env = rotation_env(8)
    sims = [UserSimulator(f"s{i}", theta=theta_with_cosine(env, "rot_1", 0.4),
                          noise_scale=0.3, seed=i) for i in range(4)]
    traces = run_sessions(make_rotation_recommender(), sims, horizon=5, env=env)
    entropy = evaluate(traces)[-1]["diversity_entropy"]
    assert 0.0 <= entropy <= math.log(len(env.catalog)) + 1e-12


def test_diversity_penalty_reward():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=3, env=env, repeat_penalty=0.5)
    rewards = [step.reward for step in traces[0].steps]
    assert rewards == [1.0, 0.5, 0.5]  # repeats penalized after first exposure


# summaries and reports: evaluate's rows ---------------------------------------------

def test_summary_of_empty_action_trace_is_zeros():
    row, _ = evaluate([SessionTrace(steps=[], simulator_id="s1", cohort="c")])
    assert row["cohort"] == "c"
    assert row["sessions"] == 1
    assert row["mean_total_reward"] == 0.0
    assert row["mean_selects"] == 0.0
    assert row["mean_distinct_items"] == 0.0


def test_summary_counts_selects():
    env = single_env()
    sim = UserSimulator("s1", theta=matching_theta(env, "solo"))
    traces = run_sessions(make_static_top_recommender("solo"), [sim],
                          horizon=10, env=env)
    row, _ = evaluate(traces)
    assert row["mean_selects"] == 10.0
    assert row["mean_distinct_items"] == 1.0


def test_summary_matches_recount_oracle():
    env = rotation_env(5)
    sim = UserSimulator("s1", theta=theta_with_cosine(env, "rot_1", 0.5),
                        noise_scale=0.3, seed=17)
    trace = run_sessions(make_rotation_recommender(), [sim],
                         horizon=9, env=env)[0]
    row, _ = evaluate([trace])
    # field-by-field independent recount
    actions = [s.action for s in trace.steps if s.action is not None]
    assert row["mean_total_reward"] == sum(s.reward for s in trace.steps)
    assert row["mean_selects"] == len([a for a in actions if a == "Select"])
    assert row["mean_distinct_items"] == len(
        {i for s in trace.steps for i, _ in s.recs.entries})
    assert row["cohort"] == trace.cohort


def test_aggregate_single_row_and_sorted_cohorts():
    env = single_env()
    sims = [UserSimulator("b-0", theta=matching_theta(env, "solo"), cohort="beta"),
            UserSimulator("a-0", theta=matching_theta(env, "solo"), cohort="alpha")]
    traces = run_sessions(make_static_top_recommender("solo"), sims,
                          horizon=2, env=env)
    *rows, overall = evaluate(traces)
    assert [row["cohort"] for row in rows] == ["alpha", "beta"]
    assert all(row["sessions"] == 1 for row in rows)
    assert overall["cohort"] == "__overall__" and overall["sessions"] == 2


def test_aggregate_means_match_recomputation():
    env = rotation_env(4)
    sims = [UserSimulator(f"c-{i}", theta=theta_with_cosine(env, "rot_1", 0.5),
                          noise_scale=0.2, seed=i, cohort="c") for i in range(6)]
    traces = run_sessions(make_rotation_recommender(), sims, horizon=5, env=env)
    row, _ = evaluate(traces)
    totals = [sum(s.reward for s in t.steps) for t in traces]
    assert abs(row["mean_total_reward"] - sum(totals) / len(totals)) <= 1e-12


def test_report_is_a_byte_stable_table_of_the_rows():
    env = single_env()
    sims = [UserSimulator("a-0", theta=matching_theta(env, "solo"), cohort="a")]
    traces = run_sessions(make_static_top_recommender("solo"), sims,
                          horizon=3, env=env)
    table = cli._render(evaluate(traces))
    assert table == cli._render(evaluate(traces))
    assert table == ("cohort=a  hw_distinct_items=0.000000  hw_selects=0.000000  "
                     "hw_total_reward=0.000000  mean_distinct_items=1.000000  "
                     "mean_selects=3.000000  mean_total_reward=3.000000  sessions=1\n"
                     "cohort=__overall__  ctr=1.000000  diversity_entropy=0.000000  "
                     'halfwidths={"ctr": 0.0, "psi_hat": 0.0}  psi_hat=3.000000  sessions=1\n')


def recount_halfwidth(values):
    if len(values) < 2:
        return 0.0
    return 1.96 * statistics.stdev(values) / math.sqrt(len(values))


def fuzz_recommender(rng, kind, env):
    if kind == "rotation":
        return make_rotation_recommender()
    if kind == "static_top":
        return make_static_top_recommender(rng.choice(env.catalog).id)

    def recommend(query, env_, top_l):
        roll = rng.random()
        if roll < 0.15:
            raise NoFeasibleItem("skipped step")
        if roll < 0.25:
            return RankedList(entries=[])
        ids = rng.sample([item.id for item in env_.catalog], min(top_l, len(env_.catalog)))
        return RankedList(entries=[(item_id, 1.0) for item_id in ids])

    return recommend


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_equals_an_independent_recount(seed):
    rng = random.Random(seed)
    for _ in range(40):
        env = rotation_env(rng.randint(1, 6))
        cohorts = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
        sims = [UserSimulator(f"{cohort}-{i}",
                              theta=theta_with_cosine(env, "rot_1", rng.uniform(0.0, 1.0)),
                              noise_scale=rng.choice([0.0, 0.1, 0.5]),
                              seed=rng.randrange(1000), cohort=cohort)
                for i, cohort in enumerate(cohorts)]
        penalty = rng.choice([0.0, 0.25, 0.5, 1.0, 1 / 3, 2.5])
        sessions_per_sim = rng.randint(1, 3)
        traces = run_sessions(
            fuzz_recommender(rng, rng.choice(["rotation", "static_top", "random"]), env),
            sims, horizon=rng.randint(1, 6), env=env,
            sessions_per_sim=sessions_per_sim, top_l=rng.randint(1, 3),
            repeat_penalty=penalty)
        *cohort_rows, overall = evaluate(traces)

        totals, ctrs, shown_ids, by_cohort = [], [], [], {}
        for trace in traces:
            shown = set()
            for step in trace.steps:
                if step.action is None:
                    assert step.reward == 0.0
                    continue
                top = step.recs.entries[0][0]
                assert step.reward == ((1.0 if step.action == "Select" else 0.0)
                                       - (penalty if top in shown else 0.0))
                shown.add(top)
            acted = [step.action for step in trace.steps if step.action is not None]
            selects = acted.count("Select")
            ids = [item_id for step in trace.steps for item_id, _ in step.recs.entries]
            shown_ids += ids
            total = left_sum(step.reward for step in trace.steps)
            totals.append(total)
            if acted:
                ctrs.append(selects / len(acted))
            rewards, select_counts, distinct = by_cohort.setdefault(trace.cohort, ([], [], []))
            rewards.append(total)
            select_counts.append(float(selects))
            distinct.append(float(len(set(ids))))

        assert overall["sessions"] == len(traces) == len(sims) * sessions_per_sim
        assert overall["psi_hat"] == statistics.fmean(totals)
        assert overall["ctr"] == (statistics.fmean(ctrs) if ctrs else 0.0)
        assert overall["halfwidths"] == {"psi_hat": recount_halfwidth(totals),
                                         "ctr": recount_halfwidth(ctrs)}
        entropy = 0.0
        for item_id in dict.fromkeys(shown_ids):  # first-shown order
            p = shown_ids.count(item_id) / len(shown_ids)
            entropy -= p * math.log(p)
        assert overall["diversity_entropy"] == entropy
        assert cohort_rows == [{
            "cohort": cohort,
            "sessions": len(rewards),
            "mean_total_reward": statistics.fmean(rewards),
            "hw_total_reward": recount_halfwidth(rewards),
            "mean_selects": statistics.fmean(select_counts),
            "hw_selects": recount_halfwidth(select_counts),
            "mean_distinct_items": statistics.fmean(distinct),
            "hw_distinct_items": recount_halfwidth(distinct),
        } for cohort, (rewards, select_counts, distinct) in sorted(by_cohort.items())]
