"""Blueprint pipelines: interactive ranking, multi-modal bundles, explanations.

Constraint extraction is shared across the pipelines and pinned as follows:
facts whose slot is ``guest_allergy`` / ends in ``_allergy`` or ``_ban``
contribute forbidden tags; slots named ``require``/``required``/
``required_*`` contribute required tags; a ``budget`` slot caps price.
Everything else (theme, preferences) only augments the scoring query, never
hard-filters.

Item relevance is the clamped-cosine score between the constraint-augmented
query and the item's title+tags text. A catalog request asks the version's
``runtime.CatalogIndex``, through its methods only, which items its tags,
category and budget admit (``admitted``: positions only that index reads),
which of them rank best (``rank``) and how relevant a bundle's candidates
are (``palette_relevance``), each by ``memory.relevance``'s own rule and
so bit for bit what scoring item by item with it gives. Every catalog cut
keeps the best ``l`` by one rule, higher score first, ties broken by item
id: ``rank`` takes a ranking's, and ``_fit_cut`` keeps exactly those of a
bundle's candidates.
``rank`` scores only the admitted items whose dot product reaches a cut
set by the ``l``-th largest admitted dot and the index's norm range, below
which no item can outscore or tie any of the ``l`` at or above that dot,
so its order is the full sort's; a bundle's text scores read the same dot
table and are all computed.

A bundle's palette fit is ``memory.cosine_with_norms`` of the item's palette
and the scene, with the palette norm the item keeps and the scene norm
taken once a request: the dense ``cosine`` bit for bit. A bundle's
candidates are a category's admitted items that carry a palette; only when
there are none does ``CatalogIndex.palette_ids`` tell a category without
palettes (MissingPalette) from one whose palettes are all filtered out. An
item scores ``text + (1.0 - alpha) * fit`` with ``text`` its relevance
times ``alpha``; every candidate's ``text`` is computed, but fits only
until the kept three beat what any unfitted item could score (a threshold
stop, as in Fagin, Lotem and Naor's Threshold Algorithm), so most feasible
items are never fitted.

Memos: an interactive ranking and a bundle are each computed once per
request key and catalog version. The version's ``CatalogIndex.result``
keeps the finished entries (a ranking) or items and truncation flag (a
bundle), and every call builds new ``RankedList``/``Bundle`` objects from
them; a call that raises keeps nothing. A ranking is keyed on the query
text, the constraints and ``top_l``; a bundle on the text, the scene, the
profile's constraints, the categories, ``alpha`` and ``tau``, each number
with its type (an int and an equal float may round differently). The
blueprint category search is not memoized: its query carries the agent's
accumulated memory, so its keys do not repeat.

Explanations are template-rendered with inline citation markers
``[item:ID]`` and ``[fact:SLOT]``; the consistency check re-parses the text
rather than trusting the recorded citation sets.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import re
from dataclasses import dataclass
from string import Template
from typing import Iterable, Optional, Sequence

from .errors import (
    InvalidArgument,
    MissingPalette,
    NoCompatibleBundle,
    NoFeasibleItem,
    RevisionExhausted,
)
from .memory import (
    MemoryLabel,
    MemoryStore,
    cosine,
    cosine_with_norms,
    left_sum,
    prepare_query,
    relevance_score,
    retain,
    vector_norm,
)
# Re-exported, not called here: perfbench/spans.py wraps `pipelines.embed_text`.
from .memory import embed_text  # noqa: F401
from .reliability import BrandPolicy, check_compliance
from .runtime import CatalogItem, Environment

DEFAULT_COMPAT_TAU = 0.7
DEFAULT_PALETTE_WEIGHT = 0.5
TOP_CANDIDATES_PER_CATEGORY = 3


@dataclass
class Transcript:
    """Alternating (speaker, text) turns ending with a user turn."""

    turns: list

    def __post_init__(self):
        if not self.turns:
            raise InvalidArgument("transcript requires at least one turn")
        expected = "user"
        for speaker, _ in self.turns:
            if speaker != expected:
                raise InvalidArgument("transcript must alternate user/agent turns")
            expected = "agent" if expected == "user" else "user"
        if self.turns[-1][0] != "user":
            raise InvalidArgument("transcript must end with a user turn")

    def user_turns(self) -> list:
        return [text for speaker, text in self.turns if speaker == "user"]


@dataclass
class RankedList:
    """Score-ordered (item id, score) entries with unique ids."""

    entries: list

    def __post_init__(self):
        entries = self.entries
        if type(entries) is list and len(entries) < 2:  # no pair to compare
            for item_id, _ in entries:  # an entry must still be a pair with a hashable id
                hash(item_id)
            return
        ids = [item_id for item_id, _ in entries]
        if len(ids) != len(set(ids)):
            raise InvalidArgument("ranked list ids must be unique")
        scores = [score for _, score in entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise InvalidArgument("ranked list scores must be nonincreasing")

    def ids(self) -> list:
        return [item_id for item_id, _ in self.entries]


@dataclass(frozen=True)
class ConstraintSet:
    required_tags: frozenset = frozenset()
    forbidden_tags: frozenset = frozenset()
    budget_max: Optional[float] = None

    def __post_init__(self):
        if self.required_tags & self.forbidden_tags:
            raise InvalidArgument("required and forbidden tags must be disjoint")


@dataclass(frozen=True)
class BundleItem:
    id: str
    category: str
    palette: Optional[tuple]


@dataclass
class Bundle:
    items: list
    truncated_search: bool = False


@dataclass
class Explanation:
    text: str
    cited_items: frozenset
    cited_facts: frozenset
    context_missing: bool = False


# constraint extraction ---------------------------------------------------

_FORBIDDEN_SLOT_RE = re.compile(r"(^guest_allergy$|_allergy$|_ban$)")
_REQUIRED_SLOT_RE = re.compile(r"(^require[d]?$|^required_)")


def constraints_from_facts(facts: Iterable) -> ConstraintSet:
    required, forbidden = set(), set()
    budget = None
    for slot, value in facts:
        value = value.strip().lower()
        if _FORBIDDEN_SLOT_RE.search(slot):
            forbidden.add(value)
        elif _REQUIRED_SLOT_RE.search(slot):
            required.add(value)
        elif slot == "budget":
            try:
                budget = float(value)
            except ValueError:
                continue
    return ConstraintSet(required_tags=frozenset(required),
                         forbidden_tags=frozenset(forbidden),
                         budget_max=budget)


def facts_from_memory(memory: MemoryStore) -> list:
    """The (slot, value) facts of the EPI items, then of the SEM items."""
    facts = []
    for label in (MemoryLabel.EPI, MemoryLabel.SEM):
        for item in memory.labelled_items(label):
            slot, value = item.fact()
            if value:
                facts.append((slot, value))
    return facts


def violations_for(item: CatalogItem, constraints: ConstraintSet) -> list:
    """Rule names broken by one catalog item, in pinned rule order."""
    found = []
    tags = set(item.tags)
    for tag in sorted(constraints.forbidden_tags & tags):
        found.append(f"forbidden_tag:{tag}")
    for tag in sorted(constraints.required_tags - tags):
        found.append(f"missing_required_tag:{tag}")
    if constraints.budget_max is not None and item.price > constraints.budget_max:
        found.append("over_budget")
    return found


# a catalog item is scored as a memory item is: relevance_score reads only ``item.sparse``
score_item = relevance_score


def _fit_cut(scored: list, l: int, alpha: float, scene: tuple, scene_norm: float) -> list:
    """The best ``l`` of ``(relevance, item)`` pairs by ``CatalogIndex.rank``'s
    cut rule, scored ``text + (1.0 - alpha) * fit`` with ``text`` being
    ``alpha * relevance`` and ``fit`` the palette fit (``alpha`` finite). Of
    the items whose fit raises, the smallest id's raises, whatever their order.

    A threshold walk: items are fitted in ascending ``(-bound, id)`` order,
    ``bound`` being ``text + abs(1.0 - alpha)``, until ``l`` are kept and
    the worst kept score is above the next bound. A fit lies in [-1, 1] and
    rounding is monotone, so ``(1.0 - alpha) * fit`` rounds to at most
    ``abs(1.0 - alpha)`` and no score exceeds its bound. The stop is strict,
    as an equal score with a smaller id would still enter.
    """
    slack, width = abs(1.0 - alpha), len(scene)
    heap, odd = [], []
    for relevance, item in scored:
        if len(item.palette) != width or not math.isfinite(item.palette_norm * scene_norm):
            odd.append((item.id, item))
        text = alpha * relevance
        heap.append((-(text + slack), item.id, text, item))
    for _, item in sorted(odd):
        cosine_with_norms(item.palette, scene, item.palette_norm, scene_norm)  # may raise
    heapq.heapify(heap)
    kept = []  # the best (-score, id, item) triples so far, ascending
    while heap and not (len(kept) == l and kept[-1][0] < heap[0][0]):
        _, item_id, text, item = heapq.heappop(heap)
        bisect.insort(kept, (-(text + (1.0 - alpha) * cosine_with_norms(
            item.palette, scene, item.palette_norm, scene_norm)), item_id, item))
        del kept[l:]
    return [(-score, item) for score, _, item in kept]


# interactive recommendation ----------------------------------------------

def extract_session_constraints(transcript: Transcript,
                                memory: MemoryStore):
    """(constraint set, augmented query) from the dialogue plus EPI/SEM memory."""
    facts = (retain([("user", text) for text in transcript.user_turns()])
             + facts_from_memory(memory))
    constraints = constraints_from_facts(facts)
    query_parts = transcript.user_turns() + [f"{slot}: {value}" for slot, value in facts]
    return constraints, " ".join(query_parts)


def recommend_interactive(transcript: Transcript, env: Environment,
                          memory: MemoryStore, top_l: int) -> RankedList:
    """Filter the catalog by the session constraints, then rank by relevance.

    The entries are kept in the version's result memo, keyed on the query
    text, the constraints and ``top_l`` (with its type).
    """
    if not len(env):
        raise InvalidArgument("catalog must be non-empty")
    constraints, query = extract_session_constraints(transcript, memory)
    index = env.catalog_index()

    def rank() -> tuple:
        admitted = index.admitted(constraints.required_tags, constraints.forbidden_tags,
                                  constraints.budget_max)
        if not admitted:
            raise NoFeasibleItem("all catalog items violate the session constraints")
        return tuple((item.id, score)
                     for score, item in index.rank(admitted, prepare_query(query), top_l))

    return RankedList(entries=list(index.result((query, constraints, top_l, type(top_l)), rank)))


def check_collection_consistency(ranked: RankedList, constraints: ConstraintSet,
                                 env: Environment) -> list:
    """Every (item id, violated rule) pair; empty iff the list is compliant."""
    violations = []
    for item_id, _ in ranked.entries:
        item = env.item_by_id(item_id)  # raises UnknownItem
        for rule in violations_for(item, constraints):
            violations.append((item_id, rule))
    return violations


# multi-modal bundles ------------------------------------------------------

def compat_check(bundle: Bundle, tau: float = DEFAULT_COMPAT_TAU) -> bool:
    """True iff the minimum pairwise palette cosine reaches the threshold."""
    palettes = []
    for item in bundle.items:
        if item.palette is None:
            raise MissingPalette(f"item {item.id!r} carries no palette vector")
        palettes.append(item.palette)
    if len(palettes) <= 1:
        return True
    worst = min(cosine(a, b) for a, b in itertools.combinations(palettes, 2))
    return worst >= tau


def recommend_multimodal(text_constraints: str, scene_features: Sequence,
                         profile: MemoryStore, categories: Iterable,
                         env: Environment,
                         alpha: float = DEFAULT_PALETTE_WEIGHT,
                         tau: float = DEFAULT_COMPAT_TAU) -> Bundle:
    """One item per category maximizing text relevance blended with palette fit.

    Combinations of the top candidates per category are tried in descending
    joint-score order until one passes the compatibility check. The items
    and the truncation flag are kept in the version's result memo, keyed on
    the text, the scene, the profile's constraints, the categories, ``alpha``
    and ``tau``, each number with its type. A non-finite ``alpha`` raises
    InvalidArgument.
    """
    categories = sorted(set(categories))
    if not categories:
        raise InvalidArgument("at least one target category required")
    if not math.isfinite(alpha):  # a NaN score would leave the order to set iteration
        raise InvalidArgument(f"alpha must be a finite number, not {alpha!r}")
    constraints = constraints_from_facts(facts_from_memory(profile))
    scene = tuple(scene_features)
    index = env.catalog_index()

    def search() -> tuple:
        scene_norm = vector_norm(scene)
        text_vec = prepare_query(text_constraints)
        per_category = []
        truncated = False
        for category in categories:
            feasible = index.palette_relevance(text_vec, index.admitted(
                constraints.required_tags, constraints.forbidden_tags, constraints.budget_max,
                category))
            if not feasible:
                index.palette_ids(category)  # MissingPalette comes first
                raise NoCompatibleBundle(f"category {category!r} has no feasible candidate")
            if len(feasible) > TOP_CANDIDATES_PER_CATEGORY:
                truncated = True
            per_category.append(_fit_cut(feasible, TOP_CANDIDATES_PER_CATEGORY, alpha, scene,
                                         scene_norm))

        combos = sorted(
            itertools.product(*per_category),
            key=lambda combo: (-left_sum(score for score, _ in combo),
                               tuple(item.id for _, item in combo)),
        )
        for combo in combos:
            items = [BundleItem(id=item.id, category=category, palette=item.palette)
                     for category, (_, item) in zip(categories, combo)]
            if compat_check(Bundle(items=items), tau):
                return tuple(items), truncated
        raise NoCompatibleBundle(
            "no candidate combination passes the compatibility check")

    key = (text_constraints, scene, tuple(map(type, scene)), constraints, tuple(categories),
           alpha, type(alpha), tau, type(tau))
    items, truncated = index.result(key, search)
    return Bundle(items=list(items), truncated_search=truncated)


# explanations -------------------------------------------------------------

ITEM_MARKER_RE = re.compile(r"\[item:([^\]]+)\]")
FACT_MARKER_RE = re.compile(r"\[fact:([^\]]+)\]")

DEFAULT_EXPLANATION_TEMPLATES = (
    "We recommend [item:$item] because you told us [fact:$slot] ($value).",
    "Because of [fact:$slot] ($value), [item:$item] is a strong fit for you.",
    "[item:$item] matches what we know about you: [fact:$slot] is $value.",
)

ITEM_ONLY_TEMPLATE = "We recommend [item:$item] based on overall relevance."


def parse_citations(text: str):
    """(cited item ids, cited fact slots) as they syntactically appear."""
    return (frozenset(ITEM_MARKER_RE.findall(text)),
            frozenset(FACT_MARKER_RE.findall(text)))


def _render_explanation(template: str, recs: RankedList, ctx_items: list,
                        context_missing: bool) -> Explanation:
    top_item = recs.entries[0][0]
    mapping = {"item": top_item}
    if ctx_items:
        slot, value = ctx_items[0].fact()
        mapping.update({"slot": slot, "value": value or ctx_items[0].value})
    text = Template(template).safe_substitute(mapping)
    cited_items, cited_facts = parse_citations(text)
    return Explanation(text=text, cited_items=cited_items,
                       cited_facts=cited_facts, context_missing=context_missing)


def consistency_check(explanation: Explanation, recs: RankedList, ctx_items: list,
                      policy: BrandPolicy) -> bool:
    """Factual alignment plus brand compliance, judged on the reparsed text."""
    cited_items, cited_facts = parse_citations(explanation.text)
    if not cited_items <= frozenset(recs.ids()):
        return False
    known_slots = frozenset(item.slot() for item in ctx_items)
    if not cited_facts <= known_slots:
        return False
    return check_compliance(explanation.text, policy)


def explain_with_revision(recs: RankedList, ctx_items: list, policy: BrandPolicy,
                          max_rounds: int):
    """Generate-check loop over ``DEFAULT_EXPLANATION_TEMPLATES`` (the item-only
    template without context items); each failed round drops the violating template.

    Returns (explanation, rounds used) or raises RevisionExhausted once the
    round budget or the template pool runs out.
    """
    if max_rounds < 1:
        raise InvalidArgument("max_rounds must be >= 1")
    candidates = list(DEFAULT_EXPLANATION_TEMPLATES) if ctx_items else [ITEM_ONLY_TEMPLATE]
    for round_number in range(1, max_rounds + 1):
        if not candidates:
            break
        template = candidates.pop(0)
        explanation = _render_explanation(template, recs, ctx_items,
                                          context_missing=not ctx_items)
        if consistency_check(explanation, recs, ctx_items, policy):
            return explanation, round_number
    raise RevisionExhausted(
        f"no compliant explanation within {max_rounds} round(s)")
