"""Blueprint pipelines: interactive ranking, multi-modal bundles, explanations.

Constraint extraction is shared across the pipelines and pinned as follows:
facts whose slot is ``guest_allergy`` / ends in ``_allergy`` or ``_ban``
contribute forbidden tags; slots named ``require``/``required``/
``required_*`` contribute required tags; a ``budget`` slot caps price.
Everything else (theme, preferences) only augments the scoring query, never
hard-filters.

Item relevance is the clamped-cosine score between the constraint-augmented
query and the item's title+tags text. Catalog ranking ties break by item id.
A ranking call embeds its query once; each item's vector is the item's own
cached ``CatalogItem.embedding``.

Explanations are template-rendered with inline citation markers
``[item:ID]`` and ``[fact:SLOT]``; the consistency check re-parses the text
rather than trusting the recorded citation sets.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from string import Template
from typing import Iterable, Optional, Sequence, Union

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
    Vector,
    cosine,
    embed_text,
    query_vector,
    retain,
)
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
        ids = [item_id for item_id, _ in self.entries]
        if len(ids) != len(set(ids)):
            raise InvalidArgument("ranked list ids must be unique")
        scores = [score for _, score in self.entries]
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
    target_categories: frozenset
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


def facts_from_memory(memory: MemoryStore,
                      labels=(MemoryLabel.EPI, MemoryLabel.SEM)) -> list:
    facts = []
    for label in labels:
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


def score_item(query: Union[str, Vector], item: CatalogItem) -> float:
    """Clamped cosine of the query (text or its embedding) and the item's embedding."""
    return max(0.0, cosine(query_vector(query), item.embedding))


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
    """Filter the catalog by the session constraints, then rank by relevance."""
    if not env.catalog:
        raise InvalidArgument("catalog must be non-empty")
    constraints, query = extract_session_constraints(transcript, memory)
    survivors = [item for item in env.catalog if not violations_for(item, constraints)]
    if not survivors:
        raise NoFeasibleItem("all catalog items violate the session constraints")
    query_vec = embed_text(query)
    scored = sorted(
        ((score_item(query_vec, item), item) for item in survivors),
        key=lambda pair: (-pair[0], pair[1].id),
    )
    return RankedList(entries=[(item.id, score) for score, item in scored[:top_l]])


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
    joint-score order until one passes the compatibility check.
    """
    categories = sorted(set(categories))
    if not categories:
        raise InvalidArgument("at least one target category required")
    constraints = constraints_from_facts(facts_from_memory(profile))
    scene = tuple(scene_features)
    text_vec = embed_text(text_constraints)

    per_category = []
    truncated = False
    for category in categories:
        with_palette = [item for item in env.catalog
                        if category in item.tags and item.palette is not None]
        if not with_palette:
            raise MissingPalette(
                f"category {category!r} has no catalog item with a palette vector")
        feasible = [item for item in with_palette
                    if not violations_for(item, constraints)]
        if not feasible:
            raise NoCompatibleBundle(
                f"category {category!r} has no feasible candidate")
        scored = sorted(
            ((alpha * score_item(text_vec, item)
              + (1.0 - alpha) * cosine(item.palette, scene), item)
             for item in feasible),
            key=lambda pair: (-pair[0], pair[1].id),
        )
        if len(scored) > TOP_CANDIDATES_PER_CATEGORY:
            truncated = True
        per_category.append(scored[:TOP_CANDIDATES_PER_CATEGORY])

    combos = sorted(
        itertools.product(*per_category),
        key=lambda combo: (-sum(score for score, _ in combo),
                           tuple(item.id for _, item in combo)),
    )
    for combo in combos:
        bundle = Bundle(
            items=[BundleItem(id=item.id, category=category, palette=item.palette)
                   for category, (_, item) in zip(categories, combo)],
            target_categories=frozenset(categories),
            truncated_search=truncated,
        )
        if compat_check(bundle, tau):
            return bundle
    raise NoCompatibleBundle(
        "no candidate combination passes the compatibility check")


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


def generate_explanation(recs: RankedList, user_ctx: list,
                         templates: tuple = DEFAULT_EXPLANATION_TEMPLATES) -> Explanation:
    """Template-based narrative citing at least one item and one user fact.

    With no user context available, an item-only explanation is emitted and
    flagged instead of failing.
    """
    if not recs.entries:
        raise InvalidArgument("cannot explain an empty recommendation list")
    if not user_ctx:
        return _render_explanation(ITEM_ONLY_TEMPLATE, recs, [], context_missing=True)
    return _render_explanation(templates[0], recs, user_ctx, context_missing=False)


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
                          max_rounds: int,
                          templates: tuple = DEFAULT_EXPLANATION_TEMPLATES):
    """Generate-check loop; each failed round drops the violating template.

    Returns (explanation, rounds used) or raises RevisionExhausted once the
    round budget or the template pool runs out.
    """
    if max_rounds < 1:
        raise InvalidArgument("max_rounds must be >= 1")
    candidates = list(templates) if ctx_items else [ITEM_ONLY_TEMPLATE]
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
