"""Synthetic-user colony: stochastic policies, session execution, evaluation.

The user policy is pinned for analyzability: the select probability is
clamp(max(0, cos(theta, top-item embedding)) + gauss(0, noise), 0, 1) and
only the top-ranked item drives the decision (position-1 attention). A
simulator acts SELECT or NOT_SELECT, and the step reward (see ``run_sessions``)
and the metrics count SELECT; degenerate cases (cos 1 / cos 0 at zero noise) are exact.

Sessions are independent given disjoint simulators. A simulator keeps no
state across sessions but its seeded RNG: it is a policy scored on what it
was shown, and writes no memory.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import AgentRecError, InvalidArgument, NoTraces
from .memory import EMBED_DIM, QueryVector, left_sum, prepare_query, relevance, vector_norm
# Re-exported, not called here: perfbench/spans.py wraps `simulation.cosine`,
# `simulation.embed_text` and `simulation.update_memory`.
from .memory import cosine, embed_text, update_memory  # noqa: F401
from .pipelines import RankedList
from .runtime import Environment

SELECT, NOT_SELECT = "Select", "NotSelect"  # a simulator's two actions


@dataclass
class UserSimulator:
    """Stochastic user policy with a preference embedding and noise scale."""

    simulator_id: str
    theta: tuple
    noise_scale: float = 0.0
    seed: int = 0
    cohort: Optional[str] = None

    def __post_init__(self):
        if self.cohort is None:
            self.cohort = self.simulator_id
        if not math.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise InvalidArgument("noise_scale must be finite and >= 0")

    @cached_property
    def theta_query(self) -> QueryVector:
        """``theta`` prepared for scoring, once per simulator (theta is not reassigned)."""
        return prepare_query(self.theta)


def random_unit_vector(rng: random.Random) -> tuple:
    while True:
        values = [rng.gauss(0.0, 1.0) for _ in range(EMBED_DIM)]
        norm = vector_norm(values)
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
    """Draw SELECT with the clamped cosine-plus-noise probability."""
    if not recs.entries:
        raise InvalidArgument("recs must be non-empty")
    p = select_probability(sim, recs, env, rng)
    return SELECT if rng.random() < p else NOT_SELECT


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
    simulator_id: str
    cohort: str


def run_sessions(recommender: Callable, sims: Sequence, horizon: int,
                 env: Environment, sessions_per_sim: int = 1,
                 top_l: int = 1, repeat_penalty: float = 0.0) -> list:
    """Alternate recommend -> act -> log for each simulator session.

    ``recommender(query, env, top_l)`` returns a RankedList. A step's reward
    is 1.0 for SELECT (else 0.0) minus ``repeat_penalty`` when its top item
    was already shown in the session.
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
            append = steps.append
            shown_before = set()
            last_action = "none"
            prefix = f"sim={sim.simulator_id} session={session_index} t="
            for t in range(horizon):
                state = f"{prefix}{t} last={last_action}"
                try:
                    recs = recommender(state, env, top_l)
                except AgentRecError as exc:
                    append(SessionStep(
                        state=state, recs=RankedList(entries=[]), action=None,
                        reward=0.0, error=f"{type(exc).__name__}: {exc}"))
                    continue
                if not recs.entries:
                    append(SessionStep(
                        state=state, recs=recs, action=None, reward=0.0,
                        error="EmptyRecommendation"))
                    continue
                action = simulate_action(sim, recs, env, rng)
                top_id = recs.entries[0][0]
                reward = ((1.0 if action == SELECT else 0.0)
                          - (repeat_penalty if top_id in shown_before else 0.0))
                append(SessionStep(state=state, recs=recs, action=action, reward=reward))
                shown_before.add(top_id)
                last_action = action
            traces.append(SessionTrace(steps, sim.simulator_id, sim.cohort))
    return traces


def _halfwidth(values: Sequence) -> float:
    if len(values) < 2:
        return 0.0
    return 1.96 * statistics.stdev(values) / math.sqrt(len(values))


def evaluate(traces: Sequence) -> list:
    """The simulate report rows: one per cohort, sorted by cohort id, with its
    per-session means and halfwidths of total reward, selects and distinct
    items shown (counted once per session); then the ``__overall__`` row with
    the session count, the mean total reward ``psi_hat``, the mean select
    rate ``ctr``, the Shannon entropy of shown item ids and the two means'
    halfwidths."""
    if not traces:
        raise NoTraces("evaluation requires at least one trace")
    totals = []
    ctrs = []
    shown_counts = {}
    by_cohort = {}
    for trace in traces:
        total = left_sum(step.reward for step in trace.steps)
        acted = selects = 0
        shown = set()
        for step in trace.steps:
            if step.action is not None:
                acted += 1
                selects += step.action == SELECT
            for item_id, _ in step.recs.entries:
                shown_counts[item_id] = shown_counts.get(item_id, 0) + 1
                shown.add(item_id)
        totals.append(total)
        if acted:
            ctrs.append(selects / acted)
        by_cohort.setdefault(trace.cohort, []).append(
            (total, float(selects), float(len(shown))))
    total_shown = sum(shown_counts.values())
    entropy = 0.0
    if total_shown:
        for count in shown_counts.values():
            p = count / total_shown
            entropy -= p * math.log(p)
    rows = []
    for cohort in sorted(by_cohort):
        rewards, selects, distinct = zip(*by_cohort[cohort])
        rows.append({
            "cohort": cohort,
            "sessions": len(rewards),
            "mean_total_reward": statistics.fmean(rewards),
            "hw_total_reward": _halfwidth(rewards),
            "mean_selects": statistics.fmean(selects),
            "hw_selects": _halfwidth(selects),
            "mean_distinct_items": statistics.fmean(distinct),
            "hw_distinct_items": _halfwidth(distinct),
        })
    rows.append({
        "cohort": "__overall__",
        "sessions": len(traces),
        "psi_hat": statistics.fmean(totals),
        "ctr": statistics.fmean(ctrs) if ctrs else 0.0,
        "diversity_entropy": entropy,
        "halfwidths": {"psi_hat": _halfwidth(totals), "ctr": _halfwidth(ctrs)},
    })
    return rows


# built-in recommenders for simulation scenarios ---------------------------

def make_rotation_recommender():
    """Cycles deterministically through the catalog, one item per step."""
    counter = {"i": 0}

    def recommend(query, env_, top_l):
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

    def recommend(query, env_, top_l):
        return RankedList(entries=[(item_id, 1.0)])

    return recommend
