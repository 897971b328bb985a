"""Error propagation and brand-compliance checking.

The closed-form invalid-output probability assumes independent residual
errors; the structural cascade simulator exists to expose where graph shape
(shared fan-in) breaks that assumption. Divergence between the two is
reported by callers, not reconciled here.

Compliance matching is whole-token and case-insensitive: the text is split
into lowercase alphanumeric tokens and a multi-word term matches only as a
contiguous token run. Substring matches never trigger.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import CyclicGraph, InvalidArgument, OutOfRange
from .memory import tokenize

# trials per block of simulate_error_cascade; the block's draw buffer holds
# CASCADE_BLOCK * len(nodes) draws of 8 bytes each
CASCADE_BLOCK = 4096


@dataclass
class AgentGraph:
    """Directed acyclic dependency graph with per-node residual error rates."""

    nodes: list
    edges: list               # list[tuple[upstream, downstream]]
    error_rates: dict         # node -> p in [0, 1]

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            repeated = next(node for i, node in enumerate(self.nodes) if node in self.nodes[:i])
            raise InvalidArgument(f"repeated node: {repeated!r}")
        for node in self.nodes:
            p = self.error_rates.get(node, 0.0)
            if not (0.0 <= p <= 1.0):
                raise OutOfRange(f"error rate for {node!r} out of [0, 1]: {p}")
        for upstream, downstream in self.edges:
            if upstream not in self.nodes or downstream not in self.nodes:
                raise InvalidArgument(f"edge references unknown node: {(upstream, downstream)}")

    def topological_order(self) -> list:
        incoming = {node: 0 for node in self.nodes}
        for _, downstream in self.edges:
            incoming[downstream] += 1
        ready = [node for node in self.nodes if incoming[node] == 0]
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for upstream, downstream in self.edges:
                if upstream == node:
                    incoming[downstream] -= 1
                    if incoming[downstream] == 0:
                        ready.append(downstream)
        if len(order) != len(self.nodes):
            raise CyclicGraph("agent dependency graph contains a cycle")
        return order

    def sinks(self) -> list:
        with_out = {upstream for upstream, _ in self.edges}
        return [node for node in self.nodes if node not in with_out]

    def predecessors(self, node: str) -> list:
        return [upstream for upstream, downstream in self.edges if downstream == node]


def propagation_probability(error_rates: Sequence) -> float:
    """Probability that at least one stage is invalid: 1 - prod(1 - p_i)."""
    product = 1.0
    for p in error_rates:
        if not (0.0 <= p <= 1.0):
            raise OutOfRange(f"probability out of [0, 1]: {p}")
        product *= 1.0 - p
    return 1.0 - product


def _draw_test(rate) -> tuple:
    """How simulate_error_cascade tests ``random() < rate`` on a draw's two words.

    ``random()`` is ``k / 2**53`` with ``k = (w0 >> 5) * 2**26 + (w1 >> 6)``,
    where ``w0`` and ``w1`` are the two 32-bit words it consumes, so the draw
    is below ``rate`` exactly when ``k < threshold = ceil(rate * 2**53)``.
    Returns ``(threshold, table)``: ``table`` maps ``w0``'s top byte to 1
    when every such draw is below the rate, 0 when none is and 2 when only
    ``k`` can tell. Rates 0 and 1 need no table.
    """
    threshold = math.ceil(rate * 2 ** 53)
    if threshold <= 0 or threshold >= 2 ** 53:
        return threshold, None
    top = threshold >> 45  # k >> 45 is w0's top byte
    return threshold, b"\x01" * top + b"\x02" + b"\x00" * (255 - top)


def simulate_error_cascade(graph: AgentGraph, trials: int, seed: int) -> float:
    """Empirical fraction of trials in which any sink emits an invalid message.

    Per trial every node fails intrinsically with its own rate; an invalid
    upstream emission deterministically corrupts every consumer, and a
    node's emission is invalid exactly when it is corrupted. Each trial
    draws one ``random()`` per node, in topological order, and trials draw
    one after another (trial-major), so the draw for trial ``t`` and node
    ``i`` is draw ``t * len(nodes) + i`` of ``random.Random(seed)``; node
    ``i`` fails intrinsically iff that draw is ``< rate``. The result is the
    exact count of bad trials divided by ``trials``.

    Trials run in blocks of ``CASCADE_BLOCK``. A block's draws are read as
    the 32-bit words ``random()`` would consume, from one ``getrandbits``
    call, and compared with each rate as integers (``_draw_test``): a byte
    table on each draw's first word decides all but about one lane in 256,
    which are compared exactly. Over a block each node's outcome is one int
    with one byte-wide lane per trial, so corruption is an OR of masks and
    the bad count a ``bit_count``.
    """
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    order = graph.topological_order()
    index = {node: i for i, node in enumerate(order)}
    sinks = {index[node] for node in graph.sinks()}
    predecessors = [[index[p] for p in graph.predecessors(node)] for node in order]
    tests = [_draw_test(graph.error_rates.get(node, 0.0)) for node in order]
    rng = random.Random(seed)
    n = len(order)
    bad_trials = 0
    for start in range(0, trials, CASCADE_BLOCK):
        m = min(CASCADE_BLOCK, trials - start)
        # draw d is bytes 8d..8d+7: its first word, then its second, little-endian
        draws = rng.getrandbits(64 * m * n).to_bytes(8 * m * n, "little")
        ones = int.from_bytes(b"\x01" * m, "big")
        invalid = []
        bad = 0
        for i in range(n):
            threshold, table = tests[i]
            if table is None:
                corrupted = ones if threshold > 0 else 0
            else:
                lanes = draws[8 * i + 3::8 * n].translate(table)
                if 2 in lanes:
                    lanes = bytearray(lanes)
                    lane = lanes.find(2)
                    while lane >= 0:
                        at = 8 * (lane * n + i)
                        k = ((int.from_bytes(draws[at:at + 4], "little") >> 5) << 26
                             | int.from_bytes(draws[at + 4:at + 8], "little") >> 6)
                        lanes[lane] = k < threshold
                        lane = lanes.find(2, lane + 1)
                corrupted = int.from_bytes(lanes, "big")
            for j in predecessors[i]:
                corrupted |= invalid[j]
            invalid.append(corrupted)
            if i in sinks:
                bad |= corrupted
        bad_trials += bad.bit_count()
    return bad_trials / trials


# brand compliance --------------------------------------------------------

@dataclass(frozen=True)
class BrandPolicy:
    """Finite rule set: banned terms and trigger->disclosure pairs."""

    banned_terms: frozenset = frozenset()
    required_disclosures: tuple = ()   # tuple[(trigger, disclosure), ...]

    def __post_init__(self):
        disclosures = {disclosure for _, disclosure in self.required_disclosures}
        if self.banned_terms & disclosures:
            raise InvalidArgument("banned terms and required disclosures must be disjoint")


def _contains_phrase(tokens: list, phrase: str) -> bool:
    needle = tokenize(phrase)
    if not needle:
        return False
    span = len(needle)
    return any(tokens[i:i + span] == needle
               for i in range(len(tokens) - span + 1))


def check_compliance(text: str, policy: BrandPolicy) -> bool:
    """True iff the text satisfies every rule in the policy."""
    tokens = tokenize(text)
    for term in policy.banned_terms:
        if _contains_phrase(tokens, term):
            return False
    for trigger, disclosure in policy.required_disclosures:
        if _contains_phrase(tokens, trigger) and not _contains_phrase(tokens, disclosure):
            return False
    return True
