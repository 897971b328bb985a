"""Synthetic-user colony: stochastic policies, session execution, evaluation.

The user policy is pinned for analyzability: the select probability is
clamp(max(0, cos(theta, top-item embedding)) + gauss(0, noise), 0, 1) and
only the top-ranked item drives the decision (position-1 attention). The
first element of the action space is the positive action, the second the
negative one; degenerate cases (cos 1 / cos 0 at zero noise) are exact.

Sessions are independent given disjoint simulators; one simulator's episodic
memory carries across its own sessions for repeat-exposure effects. That
memory is one ("shown", EPI) fact, the last top item shown verbatim, whose
update count is the number of acted steps; no raw log is kept.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import AgentRecError, InvalidArgument, NoSummaries, NoTraces
from .memory import (
    EMBED_DIM,
    MemoryLabel,
    MemoryStore,
    QueryVector,
    left_sum,
    prepare_query,
    relevance,
    upsert_fact,
)
# Re-exported, not called here: perfbench/spans.py wraps `simulation.cosine`,
# `simulation.embed_text` and `simulation.update_memory`.
from .memory import cosine, embed_text, update_memory  # noqa: F401
from .pipelines import RankedList
from .runtime import Environment

DEFAULT_ACTION_SPACE = ("Select", "NotSelect")


@dataclass
class UserSimulator:
    """Stochastic user policy with a preference embedding and noise scale."""

    simulator_id: str
    theta: tuple
    noise_scale: float = 0.0
    action_space: tuple = DEFAULT_ACTION_SPACE
    seed: int = 0
    cohort: Optional[str] = None
    memory: MemoryStore = field(default_factory=MemoryStore)

    def __post_init__(self):
        if self.cohort is None:
            self.cohort = self.simulator_id
        if not math.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise InvalidArgument("noise_scale must be finite and >= 0")
        if len(self.action_space) < 2:
            raise InvalidArgument("action space needs a positive and a negative action")

    @cached_property
    def theta_query(self) -> QueryVector:
        """``theta`` prepared for scoring, once per simulator (theta is not reassigned)."""
        return prepare_query(self.theta)

    @property
    def positive_action(self) -> str:
        return self.action_space[0]

    @property
    def negative_action(self) -> str:
        return self.action_space[1]


def random_unit_vector(rng: random.Random) -> tuple:
    while True:
        values = [rng.gauss(0.0, 1.0) for _ in range(EMBED_DIM)]
        norm = math.sqrt(left_sum(v * v for v in values))
        if norm > 0:
            return tuple(v / norm for v in values)


def select_probability(sim: UserSimulator, recs: RankedList,
                       env: Environment, rng: random.Random) -> float:
    top_id = recs.entries[0][0]
    p = relevance(sim.theta_query, env.item_by_id(top_id).sparse)
    if sim.noise_scale > 0.0:
        p += rng.gauss(0.0, sim.noise_scale)
    return max(0.0, min(1.0, p))


def simulate_action(sim: UserSimulator, recs: RankedList,
                    env: Environment, rng: random.Random) -> str:
    """Draw the positive action with the clamped cosine-plus-noise probability."""
    if not recs.entries:
        raise InvalidArgument("recs must be non-empty")
    p = select_probability(sim, recs, env, rng)
    return sim.positive_action if rng.random() < p else sim.negative_action


@dataclass
class SessionStep:
    state: str
    recs: RankedList
    action: Optional[str]
    reward: float
    error: Optional[str] = None


@dataclass
class SessionTrace:
    steps: list
    seed: int
    simulator_id: str
    cohort: str


# reward specs -------------------------------------------------------------

def reward_select(sim, step_state, recs, action, shown_before) -> float:
    return 1.0 if action == sim.positive_action else 0.0


def make_diversity_penalty_reward(penalty: float = 0.5):
    """Select indicator minus a penalty whenever the top item repeats."""

    def reward(sim, step_state, recs, action, shown_before) -> float:
        base = 1.0 if action == sim.positive_action else 0.0
        repeat = recs.entries and recs.entries[0][0] in shown_before
        return base - (penalty if repeat else 0.0)

    return reward


def run_sessions(recommender: Callable, sims: Sequence, horizon: int,
                 env: Environment, sessions_per_sim: int = 1,
                 top_l: int = 1, reward: Callable = reward_select) -> list:
    """Alternate recommend -> act -> log for each simulator session.

    ``recommender(query, env, memory, top_l)`` returns a RankedList.
    Recommender errors are recorded in-trace and the step is skipped. Each
    simulator owns one seeded RNG reused across its sessions, so traces are
    fully determined by (sims, env, config).
    """
    if horizon < 1:
        raise InvalidArgument("horizon must be >= 1")
    traces = []
    for sim in sims:
        rng = random.Random(sim.seed)
        for session_index in range(sessions_per_sim):
            steps = []
            shown_before = set()
            last_action = "none"
            for t in range(horizon):
                state = (f"sim={sim.simulator_id} session={session_index} "
                         f"t={t} last={last_action}")
                try:
                    recs = recommender(state, env, sim.memory, top_l)
                except AgentRecError as exc:
                    steps.append(SessionStep(
                        state=state, recs=RankedList(entries=[]), action=None,
                        reward=0.0, error=f"{type(exc).__name__}: {exc}"))
                    continue
                if not recs.entries:
                    steps.append(SessionStep(
                        state=state, recs=recs, action=None, reward=0.0,
                        error="EmptyRecommendation"))
                    continue
                action = simulate_action(sim, recs, env, rng)
                step_reward = reward(sim, state, recs, action, shown_before)
                steps.append(SessionStep(state=state, recs=recs, action=action,
                                         reward=step_reward))
                top_id = recs.entries[0][0]
                shown_before.add(top_id)
                upsert_fact(sim.memory, "shown", top_id, MemoryLabel.EPI,
                            now=session_index * horizon + t)
                last_action = action
            traces.append(SessionTrace(steps=steps, seed=sim.seed,
                                       simulator_id=sim.simulator_id,
                                       cohort=sim.cohort))
    return traces


@dataclass
class EvalReport:
    psi_hat: float
    ctr: float
    diversity_entropy: float
    sessions: int
    halfwidths: dict


def _halfwidth(values: list) -> float:
    if len(values) < 2:
        return 0.0
    return 1.96 * statistics.stdev(values) / math.sqrt(len(values))


def evaluate(traces: Sequence, positive_action: str = "Select") -> EvalReport:
    """Mean total reward, select rate, and Shannon entropy of shown item ids."""
    if not traces:
        raise NoTraces("evaluation requires at least one trace")
    totals = [left_sum(step.reward for step in trace.steps) for trace in traces]
    ctrs = []
    shown_counts = {}
    for trace in traces:
        acted = [step for step in trace.steps if step.action is not None]
        if acted:
            ctrs.append(sum(1 for step in acted
                            if step.action == positive_action) / len(acted))
        for step in trace.steps:
            for item_id, _ in step.recs.entries:
                shown_counts[item_id] = shown_counts.get(item_id, 0) + 1
    total_shown = sum(shown_counts.values())
    entropy = 0.0
    if total_shown:
        for count in shown_counts.values():
            p = count / total_shown
            entropy -= p * math.log(p)
    return EvalReport(
        psi_hat=statistics.fmean(totals),
        ctr=statistics.fmean(ctrs) if ctrs else 0.0,
        diversity_entropy=entropy,
        sessions=len(traces),
        halfwidths={"psi_hat": _halfwidth(totals), "ctr": _halfwidth(ctrs)},
    )


@dataclass
class SessionSummary:
    simulator_id: str
    cohort: str
    seed: int
    total_reward: float
    selects: int
    distinct_items: int
    first_action: str
    last_action: str


def summarize_session(trace: SessionTrace,
                      positive_action: str = "Select") -> SessionSummary:
    """Fixed-shape digest of one session's salient outcomes."""
    actions = [step.action for step in trace.steps if step.action is not None]
    shown = {item_id for step in trace.steps for item_id, _ in step.recs.entries}
    return SessionSummary(
        simulator_id=trace.simulator_id,
        cohort=trace.cohort,
        seed=trace.seed,
        total_reward=left_sum(step.reward for step in trace.steps),
        selects=sum(1 for action in actions if action == positive_action),
        distinct_items=len(shown),
        first_action=actions[0] if actions else "",
        last_action=actions[-1] if actions else "",
    )


_REPORT_COLUMNS = (
    "cohort", "sessions",
    "mean_total_reward", "hw_total_reward",
    "mean_selects", "hw_selects",
    "mean_distinct_items", "hw_distinct_items",
)


def aggregate_rows(summaries: Sequence) -> list:
    if not summaries:
        raise NoSummaries("aggregation requires at least one summary")
    by_cohort = {}
    for summary in summaries:
        by_cohort.setdefault(summary.cohort, []).append(summary)
    rows = []
    for cohort in sorted(by_cohort):
        group = by_cohort[cohort]
        rewards = [s.total_reward for s in group]
        selects = [float(s.selects) for s in group]
        distinct = [float(s.distinct_items) for s in group]
        rows.append({
            "cohort": cohort,
            "sessions": len(group),
            "mean_total_reward": statistics.fmean(rewards),
            "hw_total_reward": _halfwidth(rewards),
            "mean_selects": statistics.fmean(selects),
            "hw_selects": _halfwidth(selects),
            "mean_distinct_items": statistics.fmean(distinct),
            "hw_distinct_items": _halfwidth(distinct),
        })
    return rows


def aggregate_report(summaries: Sequence, format: str = "table") -> str:
    """Per-cohort means and halfwidths, as a text table or JSON lines."""
    rows = aggregate_rows(summaries)
    if format == "jsonlines":
        return "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"
    if format != "table":
        raise InvalidArgument(f"unknown report format: {format!r}")
    header = "  ".join(f"{name:>20}" for name in _REPORT_COLUMNS)
    lines = [header]
    for row in rows:
        cells = []
        for name in _REPORT_COLUMNS:
            value = row[name]
            if isinstance(value, float):
                cells.append(f"{value:>20.6f}")
            else:
                cells.append(f"{str(value):>20}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


# built-in recommenders for simulation scenarios ---------------------------

def make_rotation_recommender(env: Environment):
    """Cycles deterministically through the catalog, one item per step."""
    counter = {"i": 0}

    def recommend(query, env_, memory, top_l):
        items = env_.catalog
        entries = []
        for offset in range(min(top_l, len(items))):
            item = items[(counter["i"] + offset) % len(items)]
            entries.append((item.id, 1.0))
        counter["i"] = (counter["i"] + 1) % max(1, len(items))
        return RankedList(entries=entries)

    return recommend


def make_static_top_recommender(item_id: str):
    """Always shows the same single item."""

    def recommend(query, env_, memory, top_l):
        return RankedList(entries=[(item_id, 1.0)])

    return recommend
