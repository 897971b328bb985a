"""Pipelines: constraint filtering, ranking, bundles, explanations."""

import copy
import itertools
import json
import math
import operator
import random

import pytest

from agentrec.errors import (
    InvalidArgument,
    MissingPalette,
    NoCompatibleBundle,
    NoFeasibleItem,
    RevisionExhausted,
    UnknownItem,
)
from agentrec.memory import (
    MemoryLabel,
    MemoryStore,
    cosine,
    embed_text,
    left_sum,
    make_item,
)
from agentrec.pipelines import (
    DEFAULT_EXPLANATION_TEMPLATES,
    Bundle,
    BundleItem,
    ConstraintSet,
    Explanation,
    RankedList,
    Transcript,
    _render_explanation,
    check_collection_consistency,
    compat_check,
    consistency_check,
    constraints_from_facts,
    explain_with_revision,
    facts_from_memory,
    recommend_interactive,
    recommend_multimodal,
    score_item,
    violations_for,
)
from agentrec.reliability import BrandPolicy
from agentrec.runtime import CatalogItem, Environment

# three unit palettes with hand-computed pairwise cosines (0.9, 0.72, 0.69)
PALETTE_A = (1.0, 0.0, 0.0)
PALETTE_B = (0.9, 0.4358898943540673, 0.0)
PALETTE_C = (0.72, 0.0963546082256358, 0.687252347739667)


def cake_env():
    return Environment(catalog=[
        CatalogItem("g1", "wheat chocolate cake", ("cake", "chocolate", "gluten"), 20.0),
        CatalogItem("g2", "classic sponge cake", ("cake", "vanilla", "gluten"), 18.0),
        CatalogItem("f1", "flourless chocolate cake", ("cake", "chocolate", "gluten_free"), 25.0),
        CatalogItem("f2", "almond chocolate cake", ("cake", "chocolate", "gluten_free"), 28.0),
        CatalogItem("f3", "berry meringue cake", ("cake", "berry", "gluten_free"), 22.0),
    ])


def fact_store(**facts):
    store = MemoryStore()
    for now, (slot, value) in enumerate(facts.items()):
        store.items[(slot, MemoryLabel.EPI)] = make_item(slot, value, MemoryLabel.EPI, now)
    return store


# transcript / ranked list types ------------------------------------------------

def test_transcript_must_alternate_and_end_with_user():
    Transcript(turns=[("user", "hi")])
    Transcript(turns=[("user", "hi"), ("agent", "hello"), ("user", "ok")])
    with pytest.raises(ValueError):
        Transcript(turns=[("agent", "hello")])
    with pytest.raises(ValueError):
        Transcript(turns=[("user", "hi"), ("agent", "hello")])
    with pytest.raises(ValueError):
        Transcript(turns=[("user", "a"), ("user", "b")])


def test_ranked_list_invariants():
    RankedList(entries=[("a", 0.9), ("b", 0.9), ("c", 0.1)])
    with pytest.raises(ValueError):
        RankedList(entries=[("a", 0.1), ("b", 0.9)])
    with pytest.raises(ValueError):
        RankedList(entries=[("a", 0.9), ("a", 0.8)])


def reference_ranked_list_checks(entries):
    """RankedList's checks as they ran on every list, before one-entry lists
    returned early."""
    ids = [item_id for item_id, _ in entries]
    if len(ids) != len(set(ids)):
        raise InvalidArgument("ranked list ids must be unique")
    scores = [score for _, score in entries]
    if any(a < b for a, b in zip(scores, scores[1:])):
        raise InvalidArgument("ranked list scores must be nonincreasing")


def raised(call):
    try:
        call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


RANKED_LIST_CASES = [
    [], [("a", 0.9)], [("a", 0.9), ("b", 0.9)], [("a", 0.9), ("b", 0.1)],
    [("a", 0.9), ("a", 0.8)], [("a", 0.1), ("b", 0.9)], [("a", 0.1), ("a", 0.9)],
    [("a", float("nan"))], [("a", "high")], [("a", None)], ["ab"], [("a", 1.0), "bc"],
    # malformed one-entry lists: not a pair, or an unhashable id
    [5], [None], [("a",)], [("a", 0.9, 0.8)], [(["a"], 0.9)], [({"a": 1}, 0.9)],
    [("a", 0.9), 5], [(["a"], 0.9), ("b", 0.1)], [("a", 0.9), ("b", "x")],
    # containers other than a list take the pairwise checks as before
    (("a", 0.9),), (("a", 0.1), ("b", 0.9)), (("a",),), None, 5, "ab",
]


@pytest.mark.parametrize("entries", RANKED_LIST_CASES, ids=repr)
def test_ranked_list_raises_what_the_pairwise_checks_raise(entries):
    expected = raised(lambda: reference_ranked_list_checks(copy.deepcopy(entries)))
    assert raised(lambda: RankedList(entries=copy.deepcopy(entries))) == expected
    generated = raised(lambda: RankedList(entries=iter(copy.deepcopy(entries))))
    assert generated == raised(lambda: reference_ranked_list_checks(iter(copy.deepcopy(entries))))


def test_ranked_list_case_outcomes():
    outcomes = [raised(lambda: RankedList(entries=copy.deepcopy(e))) for e in RANKED_LIST_CASES]
    assert outcomes[:3] == [None, None, None]
    assert outcomes[4] == outcomes[6] == (InvalidArgument, "ranked list ids must be unique")
    assert outcomes[5] == (InvalidArgument, "ranked list scores must be nonincreasing")
    assert outcomes[RANKED_LIST_CASES.index([5])] == (
        TypeError, "cannot unpack non-iterable int object")
    assert outcomes[RANKED_LIST_CASES.index([("a",)])] == (
        ValueError, "not enough values to unpack (expected 2, got 1)")
    assert outcomes[RANKED_LIST_CASES.index([(["a"], 0.9)])] == (
        TypeError, "unhashable type: 'list'")


def test_constraint_set_disjointness():
    with pytest.raises(ValueError):
        ConstraintSet(required_tags=frozenset({"x"}), forbidden_tags=frozenset({"x"}))


def test_constraints_from_facts_slot_conventions():
    constraints = constraints_from_facts([
        ("guest_allergy", "gluten"),
        ("material_ban", "Leather"),
        ("required_style", "boho"),
        ("budget", "200"),
        ("theme", "mickey mouse"),
    ])
    assert constraints.forbidden_tags == {"gluten", "leather"}
    assert constraints.required_tags == {"boho"}
    assert constraints.budget_max == 200.0


# interactive recommendation ------------------------------------------------------

def test_gluten_scenario_returns_only_gluten_free():
    transcript = Transcript(turns=[
        ("user", "remember that two of my guests require a gluten-free diet")])
    ranked = recommend_interactive(transcript, cake_env(), MemoryStore(), top_l=3)
    assert sorted(ranked.ids()) == ["f1", "f2", "f3"]
    scores = [score for _, score in ranked.entries]
    assert scores == sorted(scores, reverse=True)


def test_memory_constraints_apply_without_transcript_mention():
    transcript = Transcript(turns=[("user", "i need a party cake")])
    memory = fact_store(guest_allergy="gluten")
    ranked = recommend_interactive(transcript, cake_env(), memory, top_l=5)
    assert sorted(ranked.ids()) == ["f1", "f2", "f3"]


def test_empty_constraints_returns_all_score_sorted():
    transcript = Transcript(turns=[("user", "chocolate cake please")])
    ranked = recommend_interactive(transcript, cake_env(), MemoryStore(), top_l=10)
    assert len(ranked.entries) == 5
    scores = [score for _, score in ranked.entries]
    assert scores == sorted(scores, reverse=True)


def test_no_feasible_item():
    transcript = Transcript(turns=[("user", "my guests require a cake-free diet")])
    with pytest.raises(NoFeasibleItem):
        recommend_interactive(transcript, cake_env(), MemoryStore(), top_l=3)


def random_catalog(rng, size=30):
    tag_pool = ["cake", "decor", "favor", "gluten", "gluten_free", "red",
                "mickey", "vanilla", "chocolate", "berry"]
    items = []
    for i in range(size):
        tags = tuple(sorted(rng.sample(tag_pool, k=rng.randint(1, 4))))
        items.append(CatalogItem(
            id=f"item{i:02d}",
            title=" ".join(rng.choices(tag_pool, k=3)),
            tags=tags,
            price=float(rng.randint(1, 60)),
        ))
    return Environment(catalog=items)


def filter_sort_oracle(env, constraints, query, top_l):
    survivors = []
    for item in env.catalog:
        tags = set(item.tags)
        if constraints.forbidden_tags & tags:
            continue
        if not constraints.required_tags <= tags:
            continue
        if constraints.budget_max is not None and item.price > constraints.budget_max:
            continue
        survivors.append(item)
    scored = sorted(((score_item(query, i), i) for i in survivors),
                    key=lambda pair: (-pair[0], pair[1].id))
    return [(item.id, score) for score, item in scored[:top_l]]


def test_interactive_matches_filter_sort_oracle():
    rng = random.Random(31)
    from agentrec.pipelines import extract_session_constraints
    for trial in range(20):
        env = random_catalog(rng, size=200 if trial == 0 else 30)
        facts = {}
        if rng.random() < 0.7:
            facts["guest_allergy"] = rng.choice(["gluten", "vanilla"])
        if rng.random() < 0.5:
            facts["budget"] = str(rng.randint(10, 50))
        memory = fact_store(**facts)
        transcript = Transcript(turns=[("user", "plan a mickey chocolate party")])
        constraints, query = extract_session_constraints(transcript, memory)
        want = filter_sort_oracle(env, constraints, query, 7)
        if not want:
            with pytest.raises(NoFeasibleItem):
                recommend_interactive(transcript, env, memory, top_l=7)
            continue
        ranked = recommend_interactive(transcript, env, memory, top_l=7)
        assert ranked.entries == want


# collection consistency ------------------------------------------------------------

def test_collection_check_compliant_list_is_empty():
    constraints = ConstraintSet(forbidden_tags=frozenset({"gluten"}))
    ranked = RankedList(entries=[("f1", 0.9), ("f2", 0.5)])
    assert check_collection_consistency(ranked, constraints, cake_env()) == []


def test_collection_check_names_single_violation():
    constraints = ConstraintSet(forbidden_tags=frozenset({"gluten"}))
    ranked = RankedList(entries=[("f1", 0.9), ("g1", 0.5)])
    violations = check_collection_consistency(ranked, constraints, cake_env())
    assert violations == [("g1", "forbidden_tag:gluten")]


def test_collection_check_unknown_item():
    ranked = RankedList(entries=[("nope", 0.9)])
    with pytest.raises(UnknownItem):
        check_collection_consistency(ranked, ConstraintSet(), cake_env())


def test_collection_check_matches_per_rule_oracle():
    rng = random.Random(5)
    env = random_catalog(rng, size=25)
    for _ in range(15):
        forbidden = frozenset(rng.sample(["gluten", "red", "mickey"], k=rng.randint(0, 2)))
        required = frozenset() if rng.random() < 0.5 else frozenset({"cake"}) - forbidden
        constraints = ConstraintSet(required_tags=required, forbidden_tags=forbidden,
                                    budget_max=rng.choice([None, 30.0]))
        chosen = rng.sample(env.catalog, k=6)
        ranked = RankedList(entries=[(item.id, 0.0) for item in chosen])
        want = []
        for item in chosen:
            tags = set(item.tags)
            for tag in sorted(forbidden & tags):
                want.append((item.id, f"forbidden_tag:{tag}"))
            for tag in sorted(required - tags):
                want.append((item.id, f"missing_required_tag:{tag}"))
            if constraints.budget_max is not None and item.price > constraints.budget_max:
                want.append((item.id, "over_budget"))
        assert check_collection_consistency(ranked, constraints, env) == want


# compat ------------------------------------------------------------------------------

def bundle_of(*palettes):
    return Bundle(items=[BundleItem(id=f"b{i}", category=f"c{i}", palette=p)
                         for i, p in enumerate(palettes)])


def test_compat_identical_palettes_true():
    assert compat_check(bundle_of(PALETTE_A, PALETTE_A), tau=1.0) is True


def test_compat_orthogonal_false_at_default_tau():
    assert compat_check(bundle_of((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))) is False


def test_compat_single_item_always_true():
    assert compat_check(bundle_of(PALETTE_A)) is True


def test_compat_min_rule_pinned_fixture():
    # pairwise cosines are (0.9, 0.72, 0.69); the min rule fails at tau=0.7
    assert cosine(PALETTE_A, PALETTE_B) == pytest.approx(0.9, abs=1e-12)
    assert cosine(PALETTE_A, PALETTE_C) == pytest.approx(0.72, abs=1e-12)
    assert cosine(PALETTE_B, PALETTE_C) == pytest.approx(0.69, abs=1e-12)
    assert compat_check(bundle_of(PALETTE_A, PALETTE_B, PALETTE_C), tau=0.7) is False
    assert compat_check(bundle_of(PALETTE_A, PALETTE_B, PALETTE_C), tau=0.69) is True


def test_compat_invariant_under_permutation():
    palettes = [PALETTE_A, PALETTE_B, PALETTE_C]
    results = {compat_check(bundle_of(*perm), tau=0.7)
               for perm in itertools.permutations(palettes)}
    assert results == {False}


def test_compat_requires_palettes():
    bundle = Bundle(items=[BundleItem(id="x", category="c", palette=None)])
    with pytest.raises(MissingPalette):
        compat_check(bundle)


# multimodal --------------------------------------------------------------------------

def furniture_env():
    return Environment(catalog=[
        CatalogItem("chair_rattan", "rattan bohemian armchair", ("chair", "rattan"),
                    120.0, palette=(0.8, 0.6, 0.0)),
        CatalogItem("chair_leather", "tan leather club chair", ("chair", "leather"),
                    240.0, palette=(0.6, 0.8, 0.0)),
        CatalogItem("sofa_boho", "earthy bohemian loveseat", ("sofa", "fabric"),
                    420.0, palette=(0.96, 0.28, 0.0)),
        CatalogItem("sofa_modern", "grey modern modular sofa", ("sofa", "modern"),
                    520.0, palette=(0.0, 0.6, 0.8)),
        CatalogItem("lamp_woven", "woven bohemian floor lamp", ("lamp", "woven"),
                    60.0, palette=(0.6, 0.8, 0.0)),
    ])


def test_multimodal_single_category_exact_palette():
    env = Environment(catalog=[
        CatalogItem("only", "bohemian chair", ("chair",), 10.0, palette=(0.8, 0.6, 0.0))])
    bundle = recommend_multimodal("bohemian", (0.8, 0.6, 0.0), MemoryStore(),
                                  categories={"chair"}, env=env)
    assert [item.id for item in bundle.items] == ["only"]
    assert compat_check(bundle) is True


def test_multimodal_material_ban_removes_leather():
    profile = fact_store(material_ban="leather")
    bundle = recommend_multimodal("bohemian earthy", (0.8, 0.6, 0.0), profile,
                                  categories={"chair"}, env=furniture_env())
    assert [item.id for item in bundle.items] == ["chair_rattan"]


def test_multimodal_two_categories_only_one_pair_compatible():
    env = Environment(catalog=[
        CatalogItem("c_warm", "warm chair", ("chair",), 10.0, palette=(1.0, 0.0, 0.0)),
        CatalogItem("c_cool", "cool chair", ("chair",), 10.0, palette=(0.0, 1.0, 0.0)),
        CatalogItem("s_warm", "warm sofa", ("sofa",), 10.0, palette=(1.0, 0.0, 0.0)),
    ])
    # brute force over all chair x sofa pairs: only (c_warm, s_warm) passes
    passing = []
    for chair_id in ("c_warm", "c_cool"):
        for sofa_id in ("s_warm",):
            pair = Bundle(items=[
                BundleItem(chair_id, "chair", env.item_by_id(chair_id).palette),
                BundleItem(sofa_id, "sofa", env.item_by_id(sofa_id).palette)])
            if compat_check(pair):
                passing.append((chair_id, sofa_id))
    assert passing == [("c_warm", "s_warm")]

    bundle = recommend_multimodal("cool chair please", (0.0, 1.0, 0.0), MemoryStore(),
                                  categories={"chair", "sofa"}, env=env)
    assert sorted(item.id for item in bundle.items) == ["c_warm", "s_warm"]


def test_multimodal_no_compatible_bundle():
    env = Environment(catalog=[
        CatalogItem("c1", "chair", ("chair",), 1.0, palette=(1.0, 0.0, 0.0)),
        CatalogItem("s1", "sofa", ("sofa",), 1.0, palette=(0.0, 1.0, 0.0)),
    ])
    with pytest.raises(NoCompatibleBundle):
        recommend_multimodal("any", (1.0, 0.0, 0.0), MemoryStore(),
                             categories={"chair", "sofa"}, env=env)


def test_multimodal_missing_palette_category():
    env = Environment(catalog=[
        CatalogItem("c1", "chair", ("chair",), 1.0, palette=None)])
    with pytest.raises(MissingPalette):
        recommend_multimodal("any", (1.0, 0.0, 0.0), MemoryStore(),
                             categories={"chair"}, env=env)


def test_palette_error_names_the_smallest_odd_id_under_every_hash_seed(fresh_python):
    # palettes of 2 and 4 numbers against a 3-number scene: the error is the
    # smallest id's (the item validate names), whatever the set order
    code = ("from agentrec.errors import InvalidArgument\n"
            "from agentrec.memory import MemoryStore\n"
            "from agentrec.pipelines import recommend_multimodal\n"
            "from agentrec.runtime import CatalogItem, Environment\n"
            "env = Environment(catalog=[CatalogItem(f'chair{i}', 'oak chair', ('chair',), 1.0,\n"
            "                                       (0.5,) * (2 + 2 * (i % 2))) for i in range(8)])\n"
            "try:\n"
            "    recommend_multimodal('oak', (0.8, 0.6, 0.0), MemoryStore(), ['chair'], env)\n"
            "except InvalidArgument as exc:\n"
            "    print(exc)\n")
    outputs = {fresh_python("-c", code, PYTHONHASHSEED=str(seed)).communicate(timeout=120)
               for seed in range(6)}
    assert outputs == {("cosine of vectors of different lengths: 2 and 3\n", "")}


def test_multimodal_truncation_flag():
    items = [CatalogItem(f"c{i}", f"chair {i}", ("chair",), 1.0,
                         palette=(1.0, 0.0, 0.0)) for i in range(5)]
    env = Environment(catalog=items)
    bundle = recommend_multimodal("chair", (1.0, 0.0, 0.0), MemoryStore(),
                                  categories={"chair"}, env=env)
    assert bundle.truncated_search is True


# the version's result memo: every repeat returns and raises what the first call did --

def test_memo_keeps_an_empty_ranking_apart_from_nothing_admitted():
    env = cake_env()
    transcript = Transcript(turns=[("user", "a chocolate cake")])
    for _ in range(2):
        assert recommend_interactive(transcript, env, MemoryStore(), top_l=0) == RankedList([])
    banned = Transcript(turns=[("user", "my guests require a cake-free diet")])
    for _ in range(2):
        with pytest.raises(NoFeasibleItem):
            recommend_interactive(banned, env, MemoryStore(), top_l=0)
    assert list(env.catalog_index()._results.values()) == [()]


def test_memo_checks_bundle_categories_before_the_profile():
    clashing = fact_store(guest_allergy="chair", required_kind="chair")
    for _ in range(2):
        with pytest.raises(InvalidArgument, match="at least one target category required"):
            recommend_multimodal("chair", (0.8, 0.6, 0.0), clashing, [], furniture_env())
        with pytest.raises(InvalidArgument, match="required and forbidden tags must be disjoint"):
            recommend_multimodal("chair", (0.8, 0.6, 0.0), clashing, ["chair"], furniture_env())


def test_memo_keeps_no_bundle_search_that_raises():
    env = furniture_env()
    for scene, categories, error in (
            ((0.8, 0.6), ["chair"], InvalidArgument),
            ((0.8, 0.6, 0.0), ["chair", "sofa"], NoCompatibleBundle)):
        for _ in range(3):
            with pytest.raises(error):
                recommend_multimodal("bohemian", scene, MemoryStore(), categories, env,
                                     0.5, 0.999)
    # one category reads no tau, so an unhashable one still gives the bundle, kept nowhere
    for _ in range(2):
        bundle = recommend_multimodal("bohemian", (0.8, 0.6, 0.0), MemoryStore(), ["chair"],
                                      env, 0.5, [0.999])
        assert [item.id for item in bundle.items] == ["chair_rattan"]
    assert not env.catalog_index()._results


def test_memo_results_are_new_objects_each_call():
    env, store = furniture_env(), MemoryStore()
    transcript = Transcript(turns=[("user", "bohemian chair")])
    first = recommend_interactive(transcript, env, store, top_l=3)
    want = list(first.entries)
    first.entries.append(("extra", 0.0))
    first.entries[0] = ("edited", 1.0)
    assert recommend_interactive(transcript, env, store, top_l=3).entries == want
    bundle = recommend_multimodal("bohemian", (0.8, 0.6, 0.0), store, ["chair", "lamp"], env)
    want = list(bundle.items)
    bundle.items.reverse()
    bundle.items.append(BundleItem("extra", "chair", None))
    assert recommend_multimodal("bohemian", (0.8, 0.6, 0.0), store, ["chair", "lamp"],
                                env).items == want


# cached embeddings against a loop that re-embeds everything ---------------------------

QUERY_WORDS = ["plan", "a", "mickey", "chocolate", "berry", "red", "party", "cake",
               "bohemian", "earthy", "woven", "modern"]


def reembedding_scored(query, items, alpha=1.0, scene=None):
    """(score, item) best first; the query and every item embedded afresh per item."""
    def score(item):
        text = max(0.0, cosine(embed_text(query), embed_text(item.text())))
        if scene is None:
            return text
        return alpha * text + (1.0 - alpha) * cosine(item.palette, scene)
    return sorted(((score(item), item) for item in items),
                  key=lambda pair: (-pair[0], pair[1].id))


def test_interactive_equals_reembedding_loop():
    from agentrec.pipelines import extract_session_constraints
    rng = random.Random(41)
    env = random_catalog(rng, size=120)
    for _ in range(15):
        facts = {}
        if rng.random() < 0.6:
            facts["guest_allergy"] = rng.choice(["gluten", "vanilla"])
        memory = fact_store(**facts)
        transcript = Transcript(turns=[
            ("user", " ".join(rng.choices(QUERY_WORDS, k=rng.randint(1, 6))))])
        constraints, query = extract_session_constraints(transcript, memory)
        survivors = [item for item in env.catalog if not violations_for(item, constraints)]
        want = [(item.id, score) for score, item in reembedding_scored(query, survivors)[:8]]
        # twice: the second call scores from the items' cached vectors only
        for _ in range(2):
            assert recommend_interactive(transcript, env, memory, top_l=8).entries == want


def reembedding_bundle(text, scene, profile, categories, env, alpha, tau):
    constraints = constraints_from_facts(facts_from_memory(profile))
    per_category = []
    for category in sorted(categories):
        feasible = [item for item in env.catalog
                    if category in item.tags and item.palette is not None
                    and not violations_for(item, constraints)]
        per_category.append(reembedding_scored(text, feasible, alpha, scene)[:3])
    combos = sorted(itertools.product(*per_category),
                    key=lambda combo: (-left_sum(score for score, _ in combo),
                                       tuple(item.id for _, item in combo)))
    for combo in combos:
        palettes = [item.palette for _, item in combo]
        if all(cosine(a, b) >= tau for a, b in itertools.combinations(palettes, 2)):
            return [item.id for _, item in combo]
    return None


def test_multimodal_equals_reembedding_loop():
    rng = random.Random(42)
    categories = ["chair", "lamp", "sofa"]
    items = []
    for i in range(60):
        palette = [rng.random() for _ in range(3)]
        norm = sum(v * v for v in palette) ** 0.5
        items.append(CatalogItem(
            f"m{i:02d}", " ".join(rng.choices(QUERY_WORDS, k=3)),
            (rng.choice(categories), rng.choice(["leather", "fabric", "rattan"])),
            float(rng.randint(10, 500)), palette=tuple(v / norm for v in palette)))
    env = Environment(catalog=items)
    found = 0
    for _ in range(20):
        profile = fact_store(**({"material_ban": "leather"} if rng.random() < 0.5 else {}))
        text = " ".join(rng.choices(QUERY_WORDS, k=rng.randint(1, 5)))
        scene = tuple(rng.random() for _ in range(3))
        chosen = rng.sample(categories, k=rng.randint(1, 3))
        alpha, tau = rng.choice([0.3, 0.5, 0.8]), rng.choice([0.6, 0.8, 0.9])
        want = reembedding_bundle(text, scene, profile, chosen, env, alpha, tau)
        if want is None:
            with pytest.raises(NoCompatibleBundle):
                recommend_multimodal(text, scene, profile, chosen, env, alpha, tau)
            continue
        found += 1
        bundle = recommend_multimodal(text, scene, profile, chosen, env, alpha, tau)
        assert [item.id for item in bundle.items] == want
    assert found >= 10


# catalog index: ranking against the per-item scan ------------------------------------

EDGE_WORDS = ["red", "rug", "lamp", "oak", "cake", "mickey", "gluten", "--", "!!", ""]
EDGE_TAGS = ["cake", "decor", "chair", "lamp", "gluten", "red", "!!"]


def edge_record(rng, ident):
    """A catalog record whose title or tags may carry no token at all."""
    palette = None
    if rng.random() < 0.7:
        palette = [rng.random() for _ in range(3)]
        norm = sum(v * v for v in palette) ** 0.5
        palette = [v / norm for v in palette]
    return {"id": ident, "title": " ".join(rng.choices(EDGE_WORDS, k=rng.randint(0, 3))),
            "tags": rng.sample(EDGE_TAGS, k=rng.randint(0, 3)),
            "price": float(rng.randint(1, 50)), "palette": palette}


def edge_delta(rng, env):
    """One valid add, remove or field edit."""
    ids = [item.id for item in env.catalog]
    kind = rng.choice(["add", "add", "remove", "edit", "edit", "edit"])
    if kind == "add" or len(ids) < 3:
        return {"op": "add_item", "item": edge_record(rng, f"z{env.version:04d}")}
    if kind == "remove":
        return {"op": "remove_item", "id": rng.choice(ids)}
    fresh = edge_record(rng, "unused")
    field = rng.choice(["title", "tags", "price", "palette"])
    return {"op": "set_item_field", "id": rng.choice(ids), "field": field, "value": fresh[field]}


def edge_query(rng, env):
    """A query with no token, of random words, or equal to an item's text."""
    roll = rng.random()
    if roll < 0.15:
        return "-- !!"
    if roll < 0.35 and env.catalog:
        return rng.choice(env.catalog).text()
    return " ".join(rng.choices(EDGE_WORDS, k=rng.randint(1, 5)))


def edge_facts(rng):
    facts = {}
    if rng.random() < 0.5:
        facts["guest_allergy"] = rng.choice(["gluten", "red", "!!", "cake"])
    if rng.random() < 0.3:
        facts["required_kind"] = rng.choice(
            [tag for tag in ("cake", "decor", "lamp", "oak") if tag != facts.get("guest_allergy")])
    if rng.random() < 0.4:
        facts["budget"] = str(rng.randint(0, 50))
    return facts


def scan_candidates(text, scene, profile, categories, env, alpha):
    """Each category's candidates by filter, per-item score and a full sort
    cut after three, and the truncation flag: the bundle search as it was
    before the index and the threshold walk, errors in the same order."""
    constraints = constraints_from_facts(facts_from_memory(profile))
    per_category, truncated = [], False
    for category in sorted(set(categories)):
        with_palette = [item for item in env.catalog
                        if category in item.tags and item.palette is not None]
        if not with_palette:
            raise MissingPalette(
                f"category {category!r} has no catalog item with a palette vector")
        feasible = [item for item in with_palette if not violations_for(item, constraints)]
        if not feasible:
            raise NoCompatibleBundle(f"category {category!r} has no feasible candidate")
        truncated = truncated or len(feasible) > 3
        per_category.append(sorted(
            ((alpha * score_item(text, item) + (1.0 - alpha) * cosine(item.palette, scene),
              item) for item in feasible), key=lambda pair: (-pair[0], pair[1].id))[:3])
    return per_category, truncated


def scan_bundle(text, scene, profile, categories, env, alpha, tau):
    """``scan_candidates``'s bundle: the first combination in descending
    joint-score order that passes the compatibility check."""
    categories = sorted(set(categories))
    per_category, truncated = scan_candidates(text, scene, profile, categories, env, alpha)
    combos = sorted(itertools.product(*per_category),
                    key=lambda combo: (-left_sum(score for score, _ in combo),
                                       tuple(item.id for _, item in combo)))
    for combo in combos:
        bundle = Bundle([BundleItem(item.id, category, item.palette)
                         for category, (_, item) in zip(categories, combo)],
                        truncated)
        if compat_check(bundle, tau):
            return bundle
    raise NoCompatibleBundle("no candidate combination passes the compatibility check")


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (MissingPalette, NoCompatibleBundle, NoFeasibleItem) as exc:
        return type(exc).__name__, str(exc)
    return result


def test_catalog_index_ranking_fuzz_equals_per_item_scan():
    from agentrec.blueprints import _category_search_tool
    from agentrec.pipelines import extract_session_constraints
    from agentrec.runtime import apply_env_update, catalog_item
    rng = random.Random(1302)
    seen = set()
    env = Environment(catalog=[catalog_item(edge_record(rng, f"e{i:02d}")) for i in range(25)])
    for trial in range(300):
        if trial % 3:  # the index is patched from the parent's when that one is built
            env = apply_env_update(env, [edge_delta(rng, env)])
        facts = edge_facts(rng)
        memory = fact_store(**facts)
        query = edge_query(rng, env)
        transcript = Transcript(turns=[("user", query)])
        constraints, text = extract_session_constraints(transcript, memory)
        l = rng.randint(1, len(env.catalog) + 2)
        want = filter_sort_oracle(env, constraints, text, l)
        got = outcome(lambda: recommend_interactive(transcript, env, memory, l).entries)
        assert got == (want or ("NoFeasibleItem",
                                "all catalog items violate the session constraints"))
        if want:
            seen.add("exact" if want[0][1] == 1.0 else "ranked")
            seen.add("zero-fill" if want[-1][1] == 0.0 else "positive")
            if not any(embed_text(text)):
                seen.add("zero-token query")
        else:
            seen.add("no survivor")

        category = rng.choice(EDGE_TAGS + ["sofa"])
        tool = _category_search_tool(env, {}, memory, {"name": "Search", "category": category,
                                                      "limit": l})
        record = json.loads(tool.handler(f"query={query} | facts=" + "; ".join(
            f"{slot}: {value}" for slot, value in facts.items())))
        tool_constraints = constraints_from_facts(list(facts.items()))
        tool_text = " ".join(part for part in (query, "; ".join(
            f"{slot}: {value}" for slot, value in facts.items())) if part)
        in_category = Environment(catalog=[item for item in env.catalog
                                           if category in item.tags])
        assert record["items"] == [[item_id, score] for item_id, score in filter_sort_oracle(
            in_category, tool_constraints, tool_text, l)]

        profile = fact_store(**{("material_ban" if slot == "guest_allergy" else slot): value
                                for slot, value in facts.items()})
        chosen = rng.sample(["cake", "decor", "chair", "lamp", "sofa"], k=rng.randint(1, 3))
        scene = tuple(rng.random() for _ in range(3))
        tau = rng.choice([0.5, 0.8, 0.95])
        want_bundle = outcome(scan_bundle, query, scene, profile, chosen, env, 0.5, tau)
        got_bundle = outcome(recommend_multimodal, query, scene, profile, chosen, env, 0.5, tau)
        assert got_bundle == want_bundle
        seen.add(want_bundle[0] if type(want_bundle) is tuple else "bundle")
    assert seen >= {"exact", "ranked", "zero-fill", "positive", "zero-token query",
                    "no survivor", "MissingPalette", "NoCompatibleBundle", "bundle"}


def dots_by_id(index, dots):
    """Item id -> dot product, for the nonzero entries of a dot table."""
    return {index._slots[p].id: dot for p, dot in enumerate(dots) if dot}


def test_dot_tables_reused_across_queries_and_versions_equal_fresh_tables():
    from agentrec.memory import QueryVector, prepare_query
    from agentrec.runtime import CatalogIndex, apply_env_update, catalog_item
    rng = random.Random(1616)
    envs = [Environment(catalog=[catalog_item(edge_record(rng, f"e{i:02d}"))
                                 for i in range(25)])]
    for _ in range(6):
        envs[-1].catalog_index()  # so it is handed to the next version and patched
        envs.append(apply_env_update(envs[-1], [edge_delta(rng, envs[-1])]))
        assert envs[-1].catalog_index()._last_dots is None
    # "red rug" and "rug red" embed alike; "red red rug" has their buckets, not their values
    texts = ["red rug", "rug red", "red red rug", "cake mickey", "gluten cake", "-- !!"]
    reused = 0
    for _ in range(600):
        env, text = rng.choice(envs), rng.choice(texts)
        query = rng.choice([prepare_query(text), QueryVector(embed_text(text))])
        index = env.catalog_index()
        last = index._last_dots
        got = index._dots(query)
        # its positions may differ from a patched one's
        fresh = CatalogIndex({item.id: item for item in env.catalog})
        assert dots_by_id(index, got) == dots_by_id(fresh, fresh._dots(query))
        reused += last is not None and got is last[1]
        admitted = index.admitted((), (), None)
        l = rng.randint(1, len(admitted) + 1)
        assert index.rank(admitted, query, l) == fresh.rank(fresh.admitted((), (), None), query, l)
    assert 0 < reused < 600


def churn_delta(rng, env):
    """1-3 ops, each on its own item: an add, a removal, or a tag, title, price
    or palette edit. The catalog drifts between 4 and about 20 items; a new
    price is often one the catalog already holds, so prices tie."""
    ids = [item.id for item in env.catalog]
    rng.shuffle(ids)
    delta = []
    for n in range(rng.randint(1, 3)):
        kind = rng.choice(["add", "remove", "tags", "title", "price", "palette"])
        if kind == "add" or len(ids) < 4:
            delta.append({"op": "add_item", "item": edge_record(rng, f"c{env.version}-{n}")})
        elif kind == "remove" or len(ids) > 20:
            delta.append({"op": "remove_item", "id": ids.pop()})
        else:
            value = edge_record(rng, "unused")[kind]
            if kind == "price" and rng.random() < 0.5:
                value = int(rng.choice(env.catalog).price)
            delta.append({"op": "set_item_field", "id": ids.pop(), "field": kind,
                          "value": value})
    return delta


def index_snapshot(index):
    """Copies of everything of an index but its slots' items, price order and
    dot table, each value group of its postings as a set of positions."""
    postings = [{value: set(group) for value, group in groups.items()}
                for groups in index._postings]
    return copy.deepcopy((index._pos, index._norm_lo, index._norm_hi, postings, index._tags))


def ranked(env, query, facts, l):
    """``recommend_interactive``'s entries, or the error ``outcome`` names."""
    transcript = Transcript(turns=[("user", query)])
    return outcome(lambda: recommend_interactive(transcript, env, fact_store(**facts), l).entries)


def scanned(env, query, facts, l):
    """``ranked`` by ``filter_sort_oracle``'s per-item scan."""
    from agentrec.pipelines import extract_session_constraints
    constraints, text = extract_session_constraints(Transcript(turns=[("user", query)]),
                                                    fact_store(**facts))
    return filter_sort_oracle(env, constraints, text, l) or (
        "NoFeasibleItem", "all catalog items violate the session constraints")


def test_catalog_index_churn_keeps_positions_bounded_and_rankings_exact():
    # each update takes the parent's index and patches it in place; the parent
    # builds a new one when it is ranked again, and ranks as before
    from agentrec.runtime import CatalogIndex, apply_env_update, catalog_item
    rng = random.Random(1717)
    env = Environment(catalog=[catalog_item(edge_record(rng, f"e{i:02d}")) for i in range(12)])
    peak, reused, freed, edits = len(env.catalog), 0, 0, 0
    for _ in range(2000):
        parent, parent_index = env, env.catalog_index()
        parent_ids, parent_positions = set(parent_index._pos), len(parent_index._slots)
        asked = (edge_query(rng, parent), edge_facts(rng), rng.randint(1, 8))
        parent_ranked = ranked(parent, *asked)
        delta = churn_delta(rng, parent)
        unindexed = {op.get("field") for op in delta} <= {"price", "palette"}
        before = index_snapshot(parent_index) if unindexed else None
        env = apply_env_update(parent, delta)
        index = env.catalog_index()
        assert index is parent_index and parent._index is None
        assert ranked(parent, *asked) == parent_ranked and parent._index is not index
        # the price order holds each item's price and position once, in order
        assert list(zip(index._prices, index._by_price)) == sorted(
            (item.price, p) for p, item in enumerate(index._slots) if item is not None)
        if unindexed:  # price and palette edits move no position, posting or tag set
            assert index_snapshot(index) == before
            edits += 1

        peak = max(peak, len(env.catalog))
        assert len(index._slots) <= peak
        assert index._pos == {item.id: p for p, item in enumerate(index._slots) if item is not None}
        assert len(index._pos) == len(env.catalog)
        assert all(index._slots[index._pos[item.id]] is item for item in env.catalog)
        for bucket, groups in enumerate(index._postings):
            positions = [p for group in groups.values() for p in group]
            assert len(positions) == len(set(positions)) and all(groups.values())
            for value, group in groups.items():  # each position under its item's component
                for p in group:
                    sparse = index._slots[p].sparse
                    assert sparse.values[sparse.buckets.index(bucket)] == value
        freed += None in index._slots
        reused += any(index._pos[item_id] < parent_positions
                      for item_id in index._pos.keys() - parent_ids)

        facts = edge_facts(rng)
        query = edge_query(rng, env)
        l = rng.randint(1, len(env.catalog) + 2)
        assert ranked(env, query, facts, l) == scanned(env, query, facts, l)
        memory = fact_store(**facts)
        chosen = rng.sample(["cake", "decor", "chair", "lamp"], k=rng.randint(1, 2))
        scene = tuple(rng.random() for _ in range(3))
        assert outcome(recommend_multimodal, query, scene, memory, chosen, env, 0.5, 0.8) == (
            outcome(scan_bundle, query, scene, memory, chosen, env, 0.5, 0.8))
    assert freed > 200 and reused > 200 and edits > 100


def test_catalog_index_two_updates_from_one_parent_rank_as_the_scan():
    # the first update takes the parent's index; the second finds none, or the
    # one the parent built again when it was ranked in between
    from agentrec.runtime import apply_env_update, catalog_item
    rng = random.Random(1818)
    env = Environment(catalog=[catalog_item(edge_record(rng, f"e{i:02d}")) for i in range(12)])
    for trial in range(300):
        parent, parent_index = env, env.catalog_index()
        first = apply_env_update(parent, churn_delta(rng, parent))
        if trial % 2:
            ranked(parent, edge_query(rng, parent), {}, 3)
        rebuilt = parent._index
        second = apply_env_update(parent, churn_delta(rng, parent))
        assert first._index is parent_index and second._index is rebuilt
        assert (rebuilt is None) == (trial % 2 == 0)
        envs = [first, second, parent]
        rng.shuffle(envs)
        for version in envs:
            facts, query = edge_facts(rng), edge_query(rng, version)
            l = rng.randint(1, len(version.catalog) + 2)
            assert ranked(version, query, facts, l) == scanned(version, query, facts, l)
        assert first._index is not second._index
        env = rng.choice([first, second])


def test_catalog_index_scores_a_query_equal_to_an_item_exactly_one():
    # unnormalized cached vectors, whose self-cosine by division can round below
    # 1.0: only the identical-vector shortcut makes it exactly 1.0
    from agentrec.memory import QueryVector, SparseVector
    rng = random.Random(1303)
    items, below = [], 0
    for i in range(60):
        item = CatalogItem(f"u{i:02d}", "x", (), 1.0)
        values = [rng.uniform(-3.0, 3.0) for _ in range(64)]
        for bucket in rng.sample(range(64), rng.randint(0, 60)):
            values[bucket] = 0.0
        item.__dict__["sparse"] = SparseVector(values)  # the cached_property's slot
        items.append((item, tuple(values)))
    env = Environment(catalog=[item for item, _ in items])
    index = env.catalog_index()
    for item, values in items:
        query = QueryVector(values)
        ranked = index.rank(index.admitted((), (), None), query, 3)
        assert [(i.id, score) for score, i in ranked] == filter_sort_oracle(
            env, ConstraintSet(), query, 3)
        assert ranked[0] == (1.0, item)
        dot = left_sum(v * v for v in item.sparse.values)
        below += dot / (query.norm * item.sparse.norm) < 1.0
    assert below > 0


def test_catalog_index_palette_edit_then_bundle_reads_the_new_palette():
    # a palette edit takes patch's one edit path: the old item leaves and the new
    # one is added at its position, whose palette the bundle fits and returns
    from agentrec.runtime import apply_env_update
    env = Environment(catalog=[CatalogItem("a", "oak lamp", ("decor",), 1.0, (1.0, 0.0)),
                               CatalogItem("b", "oak lamp", ("decor",), 1.0, (0.0, 1.0))])
    scene = (1.0, 0.0)
    bundle = recommend_multimodal("oak lamp", scene, MemoryStore(), ["decor"], env)
    assert bundle.items == [BundleItem(id="a", category="decor", palette=(1.0, 0.0))]
    edited = apply_env_update(env, [
        {"op": "set_item_field", "id": "a", "field": "palette", "value": [0.0, 1.0]},
        {"op": "set_item_field", "id": "b", "field": "palette", "value": [1.0, 0.0]}])
    assert edited._index is not None  # patched, not built afresh
    bundle = recommend_multimodal("oak lamp", scene, MemoryStore(), ["decor"], edited)
    assert bundle.items == [BundleItem(id="b", category="decor", palette=(1.0, 0.0))]
    assert bundle == recommend_multimodal("oak lamp", scene, MemoryStore(), ["decor"],
                                          Environment(catalog=list(edited.catalog)))


def test_catalog_index_price_order_budget_edges_equal_the_linear_scan():
    # int and float prices that tie, both zeros, and an int a float budget cannot
    # hold exactly: the ids past ``bisect_right(budget)`` are those over budget
    from agentrec.runtime import apply_env_update
    prices = [0, -0.0, 0.0, 5, 5.0, 7.5, 7.5, 10, 10.0, 2 ** 60, 2 ** 60 + 1, 1e300]
    env = Environment(catalog=[
        CatalogItem(f"p{i:02d}", "x", ("cake",) if i % 3 else ("cake", "decor"), price)
        for i, price in enumerate(prices)])
    env.catalog_index()  # so the update patches it
    edited = apply_env_update(env, [
        {"op": "set_item_field", "id": "p03", "field": "price", "value": 7.5},
        {"op": "set_item_field", "id": "p11", "field": "price", "value": 0},
        {"op": "remove_item", "id": "p06"},
        {"op": "add_item", "item": {"id": "p99", "tags": ["decor"], "price": 10}}])
    budgets = ["nan", "inf", "-inf", "1e400", "-1e400", "-0", "0", "5", "7.5", "9.999",
               "10", str(2 ** 60), "1e300", "-5"]
    sizes = set()
    for version in (env, edited):
        index = version.catalog_index()
        for budget in budgets:
            for tag_facts in ([], [("required", "cake")], [("guest_allergy", "decor")]):
                constraints = constraints_from_facts([("budget", budget)] + tag_facts)
                for category in (None, "cake", "decor", "sofa"):
                    want = {item.id for item in version.catalog
                            if not violations_for(item, constraints)
                            and (category is None or category in item.tags)}
                    admitted = index.admitted(constraints.required_tags,
                                              constraints.forbidden_tags, constraints.budget_max,
                                              category)
                    assert {index._slots[p].id for p in admitted} == want
                    if not tag_facts and category is None:
                        sizes.add((budget, len(want)))
    assert {("nan", 12), ("inf", 12), ("1e400", 12), ("-inf", 0), ("-0", 3), ("-5", 0),
            (str(2 ** 60), 10)} <= sizes


def dense_cosine(a, b):
    """The clamped dense cosine written out with its norms inline, the
    ``left_sum`` order of the README's pinned conventions."""
    if len(a) != len(b):
        raise InvalidArgument(f"cosine of vectors of different lengths: {len(a)} and {len(b)}")
    if tuple(a) == tuple(b):
        return 1.0 if any(a) else 0.0
    na = math.sqrt(left_sum(map(operator.mul, a, a)))
    nb = math.sqrt(left_sum(map(operator.mul, b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    if not math.isfinite(na * nb):
        raise InvalidArgument("cosine of vectors whose norms overflow")
    return max(-1.0, min(1.0, left_sum(map(operator.mul, a, b)) / (na * nb)))


def test_catalog_index_bundle_palette_fit_equals_cosine_bit_for_bit():
    # the bundle search takes each palette's norm from its item and the scene's
    # once a request; every fit is still the dense cosine, bit for bit
    from agentrec.memory import cosine_with_norms, vector_norm
    rng = random.Random(2424)

    def component():
        return rng.choice([rng.uniform(-2.0, 2.0), rng.random(), -0.0, 0.0,
                           rng.randint(-3, 3)])

    def palette(scene):
        roll = rng.random()
        if roll < 0.15:
            return tuple(scene)
        if roll < 0.25:
            return tuple(rng.choice([0.0, -0.0, 0]) for _ in range(3))
        if roll < 0.4:
            return tuple(rng.randint(-5, 5) for _ in range(3))
        return tuple(component() for _ in range(3))

    seen = set()
    for _ in range(400):
        scene = tuple(component() for _ in range(3))
        items = [CatalogItem(f"c{i}", "chair", ("chair",), 1.0, palette=palette(scene))
                 for i in range(6)]
        fits = {}
        for item in items:
            want = dense_cosine(item.palette, scene)
            assert cosine(item.palette, scene).hex() == want.hex()
            got = cosine_with_norms(item.palette, scene, item.palette_norm, vector_norm(scene))
            assert got.hex() == want.hex()
            fits[item.id] = want
            seen.add("identical" if item.palette == scene else
                     "zero" if not any(item.palette) or not any(scene) else
                     "int" if set(map(type, item.palette)) == {int} else "mixed")
        bundle = recommend_multimodal("chair", scene, MemoryStore(), ["chair"],
                                      Environment(catalog=items), 0.0, 0.7)
        assert bundle.items[0].id == min(fits, key=lambda item_id: (-fits[item_id], item_id))
        assert all(vars(item)["palette_norm"] == vector_norm(item.palette) for item in items)
    assert seen == {"identical", "zero", "int", "mixed"}

    chairs = [CatalogItem("c0", "chair", ("chair",), 1.0, palette=(0.8, 0.6, 0.0))]
    for scene, catalog, message in (
            ((0.8, 0.6), chairs, "cosine of vectors of different lengths: 3 and 2"),
            ((1e200, 1.0, 0.0), chairs, "cosine of vectors whose norms overflow"),
            ((0.8, 0.6, 0.0), chairs + [CatalogItem("c1", "chair", ("chair",), 1.0,
                                                    palette=(1e200, 0.0, 0.0))],
             "cosine of vectors whose norms overflow"),
            ((0.8, 0.6, 0.0), chairs + [CatalogItem("c1", "chair", ("chair",), 1.0,
                                                    palette=(10 ** 200, 0, 0))],
             "cosine of vectors whose norms overflow")):
        with pytest.raises(InvalidArgument) as caught:
            recommend_multimodal("chair", scene, MemoryStore(), ["chair"],
                                 Environment(catalog=catalog), 0.5, 0.7)
        assert str(caught.value) == message


# every alpha the walk's bound must hold for: ints, a slack of 0, a negative
# slack's abs, and a slack of one ulp
WALK_ALPHAS = [0, 0.0, 1, 1.0, 0.5, 0.25, -0.5, 1.5, 0.9999999999999999]
WALK_TITLES = ["oak", "oak", "red", "oak red", "lamp", ""]
# the fits of these palettes against (1.0, 0.0, 0.0): 1, -1, 0, 0.6, 0.8, -0.6 and
# 2/3 rounded, which ties 0.25 + 0.75 * fit with 0.75 and -0.0 + 1.5 * fit with 1.0
WALK_PALETTES = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (3, 4, 0), (4, 3, 0),
                 (-3, 4, 0), (2, 2, 1)]


def walk_catalog(rng, scene, exact):
    """A small catalog whose titles and palettes repeat, with palettes equal,
    opposite or parallel to the scene (fits of exactly 1 or -1) and negative
    components, and some items the profile's ban or budget filters out.

    An ``exact`` catalog is of the "!!" category, whose tag has no token, so
    against the query "oak" an "oak" item's relevance is exactly 1 and a
    "red" one's exactly 0; with the scene (1.0, 0.0, 0.0) and exact fits, a
    left-out item may tie the third's score from a higher bound, which only
    the strict stop keeps out."""
    if exact:
        titles, categories, pool = ["oak", "red"], ["!!"], WALK_PALETTES
    else:
        titles, categories = WALK_TITLES, ["chair", "!!"]
        pool = WALK_PALETTES + [scene, tuple(-v for v in scene), tuple(2 * v for v in scene),
                                tuple(rng.uniform(-1.0, 1.0) for _ in range(3))]
    ids = rng.sample(range(100), k=rng.randint(1, 14))
    return [CatalogItem(f"w{i:02d}", rng.choice(titles),
                        (rng.choice(categories),) + rng.choice([(), (), ("leather",)]),
                        rng.choice([10.0, 50.0]),
                        rng.choice(pool) if rng.random() < 0.9 else None)
            for i in ids]


def test_bundle_fit_walk_fuzz_keeps_what_fitting_every_item_keeps(monkeypatch):
    # the threshold walk keeps each category's three (score, item) pairs of a
    # full sort of every feasible item, bit for bit, so the bundle and its
    # truncation flag are the scan's too
    from agentrec import pipelines
    fit_cut, kept = pipelines._fit_cut, []
    monkeypatch.setattr(pipelines, "_fit_cut", lambda *args: kept.append(fit_cut(*args)) or kept[-1])
    rng = random.Random(3131)
    seen = set()
    for _ in range(2000):
        exact = rng.random() < 0.5
        scene = (1.0, 0.0, 0.0) if exact else tuple(
            rng.choice([rng.uniform(-1.0, 1.0), 0.5, -1.0, 0.0]) for _ in range(3))
        categories = ["!!"] if exact else rng.sample(["chair", "!!"], k=rng.randint(1, 2))
        env = Environment(catalog=walk_catalog(rng, scene, exact))
        facts = {}
        if rng.random() < 0.4:
            facts["material_ban"] = "leather"
        if rng.random() < 0.3:
            facts["budget"] = "20"
        profile = fact_store(**facts)
        text = "oak" if exact else rng.choice(["oak", "oak chair", "red", "sofa", "chair lamp"])
        # the alphas at which the exact fits tie a score with a lower bound
        alpha = rng.choice([0.5, 0.25, -0.5] if exact else WALK_ALPHAS)
        tau = rng.choice([-1.0, 0.5, 0.95])
        kept.clear()
        got = outcome(recommend_multimodal, text, scene, profile, categories, env, alpha, tau)
        assert got == outcome(scan_bundle, text, scene, profile, categories, env, alpha, tau)
        try:
            want, _ = scan_candidates(text, scene, profile, categories, env, alpha)
        except (MissingPalette, NoCompatibleBundle):
            continue
        assert [[(score.hex(), item.id) for score, item in cut] for cut in kept] == \
            [[(score.hex(), item.id) for score, item in cut] for cut in want]
        seen.add(alpha)
        constraints = constraints_from_facts(facts_from_memory(profile))
        for category, cut in zip(sorted(categories), want):
            feasible = [item for item in env.catalog if category in item.tags
                        and item.palette is not None and not violations_for(item, constraints)]
            seen.add(f"{min(len(feasible), 4)} feasible")
            if any(cosine(item.palette, scene) < 0.0 for _, item in cut):
                seen.add("negative fit kept")
            third, rest = cut[-1], [item for item in feasible if item not in [i for _, i in cut]]
            if len(cut) == 3 and rest:
                text_of = {item.id: alpha * score_item(text, item) for item in feasible}
                if any(text_of[item.id] + (1.0 - alpha) * cosine(item.palette, scene) == third[0]
                       for item in rest):
                    seen.add("tie at third place")
                if third[0] in [text_of[item.id] + abs(1.0 - alpha) for item in rest]:
                    seen.add("third score equals a bound left out")
                if third[0] == text_of[third[1].id] + abs(1.0 - alpha) and any(
                        text_of[item.id] > text_of[third[1].id] and text_of[item.id]
                        + (1.0 - alpha) * cosine(item.palette, scene) == third[0]
                        for item in rest):
                    seen.add("third at its bound, tied by a higher bound left out")
    assert seen >= set(WALK_ALPHAS) | {"1 feasible", "2 feasible", "3 feasible", "4 feasible",
                                       "negative fit kept", "tie at third place",
                                       "third score equals a bound left out",
                                       "third at its bound, tied by a higher bound left out"}


def test_bundle_fit_walk_raises_for_an_item_it_never_fits():
    # the walk stops before the odd item, but its fit would raise, so the bundle does
    chairs = [CatalogItem(f"c{i}", "oak chair", ("chair",), 1.0, palette=(0.8, 0.6, 0.0))
              for i in range(4)]
    for odd, scene, message in (
            ((0.8, 0.6), (0.8, 0.6, 0.0), "cosine of vectors of different lengths: 2 and 3"),
            ((1e200, 0.0, 0.0), (1e200, 1.0, 0.0), "cosine of vectors whose norms overflow")):
        catalog = chairs + [CatalogItem("c9", "lamp", ("chair",), 1.0, palette=odd)]
        with pytest.raises(InvalidArgument) as caught:
            recommend_multimodal("oak chair", scene, MemoryStore(), ["chair"],
                                 Environment(catalog=catalog), 0.5, 0.7)
        assert str(caught.value) == message


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_bundle_refuses_a_non_finite_alpha(alpha):
    env = furniture_env()
    with pytest.raises(InvalidArgument, match="at least one target category"):
        recommend_multimodal("oak chair", PALETTE_A, MemoryStore(), [], env, alpha)
    with pytest.raises(InvalidArgument) as caught:
        recommend_multimodal("oak chair", PALETTE_A, MemoryStore(), ["chair"], env, alpha)
    assert str(caught.value) == f"alpha must be a finite number, not {alpha!r}"
    assert not env.catalog_index()._results  # refused before the memo is read


def test_bundle_fits_fewer_palettes_than_it_has_feasible_items(monkeypatch):
    from agentrec import pipelines
    rng = random.Random(4242)
    words = ["oak", "walnut", "red", "blue", "linen", "velvet", "round", "low", "tall", "soft"]
    catalog = [CatalogItem(f"i{i:04d}", " ".join(rng.sample(words, k=3)),
                           (rng.choice(["sofa", "rug", "lamp", "table"]),), 10.0,
                           tuple(rng.uniform(-1.0, 1.0) for _ in range(3)))
               for i in range(2000)]
    fits = []
    cosine_with_norms = pipelines.cosine_with_norms
    monkeypatch.setattr(pipelines, "cosine_with_norms",
                        lambda *args: fits.append(args) or cosine_with_norms(*args))
    bundle = recommend_multimodal("red oak round", (0.2, 0.5, 0.3), MemoryStore(),
                                  ["sofa", "rug", "lamp"], Environment(catalog=catalog))
    feasible = sum(1 for item in catalog if item.tags[0] != "table")
    assert bundle.truncated_search and 0 < len(fits) < feasible // 2


def memo_record(rng, ident):
    """``edge_record`` with a price that may be zero of either sign."""
    return dict(edge_record(rng, ident), price=rng.choice([0, -0.0, 0.0, 10, 30, 45.0]))


def memo_delta(rng, env):
    """One op: an add, a removal, a title or tag edit, a price-only edit or a
    palette-only edit (which sends no item to the index's ``patch``)."""
    ids = [item.id for item in env.catalog]
    kind = rng.choice(["add", "remove", "title", "tags", "price", "palette"])
    if kind == "add" or len(ids) < 8:
        return kind, {"op": "add_item", "item": memo_record(rng, f"m{env.version}")}
    if kind == "remove":
        return kind, {"op": "remove_item", "id": rng.choice(ids)}
    value = memo_record(rng, "unused")[kind]
    if kind == "palette" and value is None:
        value = [rng.choice([1, 0.5, -0.0]), 1.0, 0]
    return kind, {"op": "set_item_field", "id": rng.choice(ids), "field": kind, "value": value}


def memo_requests(rng):
    """A pool of rankings and bundle searches, some of which differ only in
    the sign of a zero, an int for an equal float, or a NaN budget."""
    scenes = [(1, 0, 0), (1.0, 0.0, 0.0), (1.0, -0.0, 0.0), (0.6, 0.8, 0), (0.6, 0.8, 0.0)]
    pool = []
    for _ in range(8):
        facts = {}
        if rng.random() < 0.25:
            facts["guest_allergy"] = rng.choice(EDGE_TAGS)
        if rng.random() < 0.6:
            facts["budget"] = rng.choice(["0", "-0.0", "0.0", "30", "30.0", "nan"])
        query = " ".join(rng.choices(EDGE_WORDS, k=rng.randint(1, 3)))
        pool.append(("rank", query, facts, rng.choice([0, 1, 3, 40])))
        profile = {("material_ban" if slot == "guest_allergy" else slot): value
                   for slot, value in facts.items()}
        pool.append(("bundle", query, rng.choice(scenes), profile,
                     rng.sample(["cake", "decor", "chair", "lamp"], k=rng.randint(1, 2)),
                     rng.choice([0.5, 0, 0.0, -0.0, 1, 1.0]), rng.choice([0.5, 0.9, 1, 0.0])))
    return pool


def memo_outcome(env, request):
    """The repr of the request's result on ``env``, or of the error it raises."""
    try:
        if request[0] == "rank":
            _, query, facts, l = request
            return repr(recommend_interactive(Transcript(turns=[("user", query)]), env,
                                              fact_store(**facts), l))
        _, text, scene, profile, categories, alpha, tau = request
        return repr(recommend_multimodal(text, scene, fact_store(**profile), categories, env,
                                         alpha, tau))
    except (InvalidArgument, MissingPalette, NoCompatibleBundle, NoFeasibleItem) as exc:
        return repr(exc)


def test_catalog_index_result_memo_equals_fresh_computation(monkeypatch):
    # a small bound, so the pool's keys evict each other
    from agentrec import runtime
    from agentrec.runtime import CatalogIndex, apply_env_update, catalog_item
    monkeypatch.setattr(runtime, "_RESULT_MEMO_SIZE", 9)
    hits = []
    result = CatalogIndex.result

    def counted(index, key, compute):
        hits.append(key in index._results)
        return result(index, key, compute)

    monkeypatch.setattr(CatalogIndex, "result", counted)
    rng = random.Random(2727)
    pool = memo_requests(rng)
    envs = [Environment(catalog=[catalog_item(memo_record(rng, f"e{i:02d}")) for i in range(24)])]
    emptied, full, served = set(), 0, 0
    for _ in range(1500):
        if rng.random() < 0.03:
            parent = envs[-1]
            kind, op = memo_delta(rng, parent)
            envs.append(apply_env_update(parent, [op]))
            if parent._index is None and envs[-1]._index is not None:
                assert not envs[-1]._index._results  # handed on and patched
                emptied.add(kind)
        env = envs[-1] if rng.random() < 0.9 else rng.choice(envs)
        request = rng.choice(pool)
        want = memo_outcome(Environment(catalog=list(env.catalog)), request)
        hits.clear()
        assert memo_outcome(env, request) == want
        served += sum(hits)
        full += len(env.catalog_index()._results) == 9
        assert len(env.catalog_index()._results) <= 9
    assert emptied == {"add", "remove", "title", "tags", "price", "palette"}
    assert full and 300 < served < 1200


# explanations -------------------------------------------------------------------------

def ctx_items(**facts):
    return [make_item(slot, value, MemoryLabel.EPI, now=i)
            for i, (slot, value) in enumerate(facts.items())]


def test_explanation_cites_item_and_fact():
    recs = RankedList(entries=[("cake_7", 0.9)])
    explanation, _ = explain_with_revision(recs, ctx_items(guest_allergy="gluten"),
                                           BrandPolicy(), 1)
    assert explanation.cited_items == {"cake_7"}
    assert explanation.cited_facts == {"guest_allergy"}
    assert "gluten" in explanation.text
    assert explanation.context_missing is False


def test_explanation_empty_context_flagged_item_only():
    recs = RankedList(entries=[("cake_7", 0.9)])
    explanation, _ = explain_with_revision(recs, [], BrandPolicy(), 1)
    assert explanation.context_missing is True
    assert explanation.cited_items == {"cake_7"}
    assert explanation.cited_facts == frozenset()


def test_cited_sets_match_independent_scanner():
    import re
    recs = RankedList(entries=[("itemx", 0.5)])
    explanation, _ = explain_with_revision(recs, ctx_items(theme="space"), BrandPolicy(), 1)
    # independent scanner with its own regexes
    items = set(re.findall(r"\[item:([^\]]+)\]", explanation.text))
    facts = set(re.findall(r"\[fact:([^\]]+)\]", explanation.text))
    assert explanation.cited_items == items
    assert explanation.cited_facts == facts


def test_consistency_rejects_out_of_list_citation():
    expl = Explanation(text="See [item:ghost].", cited_items=frozenset({"ghost"}),
                       cited_facts=frozenset())
    recs = RankedList(entries=[("real", 0.9)])
    assert consistency_check(expl, recs, [], BrandPolicy()) is False


def test_consistency_accepts_clean_explanation():
    recs = RankedList(entries=[("real", 0.9)])
    items = ctx_items(theme="space")
    explanation, _ = explain_with_revision(recs, items, BrandPolicy(), 1)
    assert consistency_check(explanation, recs, items, BrandPolicy()) is True


def test_consistency_rejects_banned_phrase():
    policy = BrandPolicy(banned_terms=frozenset({"told us"}))
    recs = RankedList(entries=[("real", 0.9)])
    items = ctx_items(theme="space")
    # the first template says "told us"
    explanation = _render_explanation(DEFAULT_EXPLANATION_TEMPLATES[0], recs, items, False)
    assert "told us" in explanation.text
    assert consistency_check(explanation, recs, items, policy) is False


def test_consistency_reparses_text_not_fields():
    # recorded citation fields lie; the text is what counts
    expl = Explanation(text="All good, no markers.",
                       cited_items=frozenset({"ghost"}),
                       cited_facts=frozenset({"bogus"}))
    recs = RankedList(entries=[("real", 0.9)])
    assert consistency_check(expl, recs, [], BrandPolicy()) is True


# revision loop -------------------------------------------------------------------------

def test_revision_first_pass_clean():
    recs = RankedList(entries=[("real", 0.9)])
    items = ctx_items(theme="space")
    explanation, rounds = explain_with_revision(recs, items, BrandPolicy(), max_rounds=3)
    assert rounds == 1
    assert consistency_check(explanation, recs, items, BrandPolicy())


def test_revision_second_variant_passes():
    policy = BrandPolicy(banned_terms=frozenset({"told us"}))
    recs = RankedList(entries=[("real", 0.9)])
    items = ctx_items(guest_allergy="gluten")
    explanation, rounds = explain_with_revision(recs, items, policy, max_rounds=3)
    assert rounds == 2
    assert "told us" not in explanation.text


def test_revision_exhausted_when_all_variants_banned():
    policy = BrandPolicy(banned_terms=frozenset({"real"}))  # item id appears in every text
    recs = RankedList(entries=[("real", 0.9)])
    items = ctx_items(theme="space")
    with pytest.raises(RevisionExhausted):
        explain_with_revision(recs, items, policy, max_rounds=3)


def test_revision_template_pool_shrinks_each_round():
    # the first template says "recommend", the second "because"; only the third passes
    policy = BrandPolicy(banned_terms=frozenset({"recommend", "because"}))
    recs = RankedList(entries=[("x", 1.0)])
    items = ctx_items(theme="space")
    explanation, rounds = explain_with_revision(recs, items, policy, max_rounds=5)
    assert rounds == 3
    assert explanation.text == _render_explanation(
        DEFAULT_EXPLANATION_TEMPLATES[2], recs, items, context_missing=False).text
    assert explanation.text.startswith("[item:x] matches")
