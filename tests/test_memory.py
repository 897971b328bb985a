"""Memory core: embeddings, retrieval, retention, merge, knapsack, snapshots."""

import itertools
import json
import math
import random
import re
import struct

import pytest

from agentrec.errors import InvalidArgument
from agentrec.memory import (
    EMBED_DIM,
    MemoryItem,
    MemoryLabel,
    MemoryStore,
    QueryVector,
    RETENTION_RULES,
    SparseVector,
    _TEXT_MEMO_SIZE,
    _bucket_sign,
    _facts_of_text,
    _query_of_text,
    _sparse_of_text,
    build_store,
    cosine,
    embed_text,
    left_sum,
    make_item,
    prepare_query,
    regulate_context,
    relevance,
    relevance_score,
    retain,
    retrieve_topk,
    store_from_jsonl,
    store_to_jsonl,
    tail_window,
    tokenize,
    update_memory,
    upsert_fact,
)

# golden values computed once with a standalone dict-based reference script
GOLDEN_COS_GLUTEN_VS_CHOCOLATE = 0.0
GOLDEN_COS_GLUTEN_VS_GLUTENFREE = 0.4082482904638631
GOLDEN_COS_CHOC_VS_FLOURLESS = 0.8164965809277261
GOLDEN_SCORE_ALLERGY = 0.5163977794943224
GOLDEN_SCORE_CHILDPREF = 0.2581988897471612


def fact_store(*facts, label=MemoryLabel.EPI):
    store = MemoryStore()
    for now, (slot, value) in enumerate(facts):
        store.items[(slot, label)] = make_item(slot, value, label, now)
    return store


# embedding ------------------------------------------------------------

def test_embed_empty_text_is_zero_vector():
    vec = embed_text("")
    assert len(vec) == EMBED_DIM
    assert all(v == 0.0 for v in vec)
    assert embed_text("   !!! ") == vec


def test_embed_identity_cosine_is_exactly_one():
    a = embed_text("gluten allergy")
    b = embed_text("gluten allergy")
    assert a == b
    assert cosine(a, b) == 1.0


def test_cosine_of_vectors_of_different_lengths_raises_naming_both():
    # zip would cut the longer one short: this pair read 0.743 before
    for a, b in (((0.8, 0.6, 0.9), (0.8, 0.6)), ((0.8, 0.6), (0.8, 0.6, 0.0, 5.0))):
        with pytest.raises(InvalidArgument, match=f"lengths: {len(a)} and {len(b)}$"):
            cosine(a, b)


def test_cosine_of_vectors_whose_norms_overflow_raises():
    # the squared norm overflows to inf and inf/inf is NaN, which a clamp
    # to [-1, 1] would turn into a perfect 1.0
    for a, b in [((1e308,) * 3, (0.8, 0.6, 0.9)), ((1e200, 0.0), (1.0, 1.0))]:
        for pair in ((a, b), (b, a)):
            with pytest.raises(InvalidArgument, match="overflow"):
                cosine(*pair)


def test_embed_unit_norm():
    for text in ("gluten allergy", "chocolate", "a b c d e f g", "MiXeD CaSe!"):
        vec = embed_text(text)
        norm = math.sqrt(sum(v * v for v in vec))
        assert abs(norm - 1.0) < 1e-9


def test_embed_golden_cosines():
    assert cosine(embed_text("gluten allergy"),
                  embed_text("chocolate cake")) == GOLDEN_COS_GLUTEN_VS_CHOCOLATE
    assert cosine(embed_text("gluten allergy"),
                  embed_text("gluten free cake")) == pytest.approx(
        GOLDEN_COS_GLUTEN_VS_GLUTENFREE, abs=1e-15)
    assert cosine(embed_text("chocolate cake"),
                  embed_text("flourless chocolate cake")) == pytest.approx(
        GOLDEN_COS_CHOC_VS_FLOURLESS, abs=1e-15)


def test_embed_case_and_punctuation_insensitive():
    assert embed_text("Gluten-Free!") == embed_text("gluten free")


# reference arithmetic: the generator-expression forms the module once used,
# with every float sum left to right as the README pins it

def reference_embed_text(text):
    values = [0.0] * EMBED_DIM
    for token in tokenize(text):
        bucket, sign = _bucket_sign(token)
        values[bucket] += sign
    norm = math.sqrt(left_sum(v * v for v in values))
    if norm == 0.0:
        return tuple(values)
    return tuple(v / norm for v in values)


def reference_cosine(a, b):
    if tuple(a) == tuple(b):
        if any(x != 0.0 for x in a):
            return 1.0
        return 0.0
    na = math.sqrt(left_sum(x * x for x in a))
    nb = math.sqrt(left_sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = left_sum(x * y for x, y in zip(a, b))
    return max(-1.0, min(1.0, dot / (na * nb)))


def bits(values):
    """Exact bit pattern, so 0.0 and -0.0 differ where == would not."""
    return struct.pack(f"{len(values)}d", *values)


EMBED_WORDS = ("gluten free cake chocolate mickey mouse party Banner lamp rug "
               "sofa-bed 200 red, blue! a an the x y z theme: budget= mango cherry").split()


def random_text(rng):
    return " ".join(rng.choices(EMBED_WORDS, k=rng.randint(0, 12)))


def random_unit(rng, dim):
    values = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(sum(v * v for v in values))
    return tuple(v / norm for v in values)


def test_embed_text_bit_identical_to_reference():
    rng = random.Random(20)
    texts = ["", "   !!! ", "mango", "cherry", "a a a", "x y x y"]
    texts += [random_text(rng) for _ in range(400)]
    for text in texts:
        vec = embed_text(text)
        assert bits(vec) == bits(reference_embed_text(text)), text
        # every zero component is one shared object
        assert len({id(v) for v in vec if v == 0.0}) <= 1


def test_cosine_bit_identical_to_reference():
    rng = random.Random(21)
    zero = (0.0,) * EMBED_DIM
    palettes = [(1.0, 0.0, 0.0), (0.9, 0.4358898943540673, 0.0),
                (0.72, 0.0963546082256358, 0.687252347739667), (0.0, 0.0, 0.0)]
    pairs = [(a, b) for a in palettes for b in palettes]
    pairs += [(zero, zero), (zero, embed_text("mango")),
              (embed_text("mango"), embed_text("cherry"))]
    for _ in range(300):
        a = embed_text(random_text(rng))
        b = rng.choice([embed_text(random_text(rng)), random_unit(rng, EMBED_DIM),
                        a, tuple(a), zero,
                        tuple(rng.uniform(-3.0, 3.0) for _ in range(EMBED_DIM))])
        pairs.append((a, b))
        pairs.append((random_unit(rng, 3), random_unit(rng, 3)))
    for a, b in pairs:
        got, want = cosine(a, b), reference_cosine(a, b)
        assert bits((got,)) == bits((want,)), (a, b)


def cancelling_pair():
    """Two tokens that hash to one bucket with opposite signs, so together they embed to 0."""
    seen = {}
    for i in itertools.count():
        token = f"w{i}"
        bucket, sign = _bucket_sign(token)
        other = seen.get((bucket, -sign))
        if other is not None:
            return other, token
        seen.setdefault((bucket, sign), token)


def test_sparse_relevance_bit_identical_to_dense_cosine():
    rng = random.Random(23)
    first, second = cancelling_pair()
    zero = (0.0,) * EMBED_DIM
    texts = ["", "!!!", f"{first} {second}", f"{first} {second} mango",
             f"{first} mango", f"{second} {second} {first} cherry", "mango", "mango"]
    texts += [random_text(rng) for _ in range(150)]
    texts += [f"{random_text(rng)} {first} {second}" for _ in range(50)]
    assert embed_text(f"{first} {second}") == zero
    cancelled = embed_text(f"{first} {second} mango")
    assert cancelled == embed_text("mango")
    items = [embed_text(text) for text in texts]
    for _ in range(50):  # unnormalized vectors: self-similarity is 1.0 only by the shortcut
        values = [rng.uniform(-3.0, 3.0) for _ in range(EMBED_DIM)]
        for bucket in rng.sample(range(EMBED_DIM), rng.randint(0, 60)):
            values[bucket] = 0.0
        items.append(tuple(values))
    queries = list(items) + [zero]
    for _ in range(150):
        theta = list(random_unit(rng, EMBED_DIM))
        for bucket in rng.sample(range(EMBED_DIM), rng.randint(0, 60)):
            theta[bucket] = rng.choice((0.0, -0.0))
        queries.append(tuple(theta))
        queries.append(tuple(rng.uniform(-3.0, 3.0) for _ in range(EMBED_DIM)))
    for item_vec in items:
        sparse = SparseVector(item_vec)
        assert bits(sparse.to_dense()) == bits(item_vec)
        assert list(sparse.buckets) == sorted(sparse.buckets)
        assert 0.0 not in sparse.values
        for query_vec in rng.sample(queries, 40) + [item_vec, zero]:
            want = max(0.0, cosine(query_vec, item_vec))
            assert bits((want,)) == bits((max(0.0, reference_cosine(query_vec, item_vec)),))
            got = relevance(prepare_query(query_vec), sparse)
            assert bits((got,)) == bits((want,)), (query_vec, item_vec)
    # identical vectors score exactly 1.0, the all-zero sentinel 0.0 even against itself
    mango = SparseVector(embed_text("mango"))
    assert relevance(prepare_query("mango"), mango) == 1.0
    assert relevance(prepare_query(cancelled), mango) == 1.0
    assert relevance(prepare_query(zero), SparseVector(zero)) == 0.0
    assert relevance(prepare_query(""), mango) == 0.0
    # a query whose squares all underflow has norm 0.0 but positive dots: 0.0, as cosine gives
    tiny = (1e-200,) * EMBED_DIM
    assert prepare_query(tiny).norm == 0.0 and max(0.0, cosine(tiny, mango.to_dense())) == 0.0
    assert relevance(prepare_query(tiny), mango) == 0.0


def test_memory_item_caches_only_its_sparse_vector():
    item = make_item("theme", "pirate ship", MemoryLabel.EPI, now=0)
    assert item.key == embed_text("theme: pirate ship")
    relevance_score("pirates", item)
    assert item.token_length() == 3
    assert set(vars(item)) == {"value", "meta", "sparse"}
    assert bits(item.key) == bits(embed_text("theme: pirate ship"))


def test_token_hash_cache_is_bounded():
    assert _bucket_sign.cache_info().maxsize == 4096


def test_scoring_with_query_vector_equals_reembedding_loop():
    rng = random.Random(22)
    for _ in range(30):
        store = fact_store(*((f"s{i}", random_text(rng) or "x")
                             for i in range(rng.randint(1, 25))))
        query = random_text(rng)
        want = sorted(
            ((max(0.0, reference_cosine(reference_embed_text(query),
                                        reference_embed_text(m.canonical_text()))), m)
             for m in store.all_items()),
            key=lambda pair: (-pair[0], pair[1].meta.timestamp,
                              pair[1].canonical_text()))
        vec = embed_text(query)
        for m in store.all_items():
            assert relevance_score(query, m) == relevance_score(vec, m)
        assert [relevance_score(query, m) for _, m in want] == [s for s, _ in want]
        k = rng.randint(1, 6)
        assert retrieve_topk(store, query, k) == [m for _, m in want[:k]]
        assert retrieve_topk(store, vec, k) == [m for _, m in want[:k]]


# relevance ------------------------------------------------------------

def test_relevance_identical_text_scores_one():
    item = make_item("guest_allergy", "gluten", MemoryLabel.EPI, now=0)
    assert relevance_score("guest_allergy: gluten", item) == 1.0


def test_relevance_empty_query_is_zero():
    item = make_item("guest_allergy", "gluten", MemoryLabel.EPI, now=0)
    assert relevance_score("", item) == 0.0


def test_relevance_negative_cosine_clamped_to_zero():
    # "cherry" and "mango" hash to the same bucket with opposite signs,
    # so their raw cosine is -1.0 (pinned by the reference script)
    item = MemoryItem(value="cherry", meta=make_item("x", "y", MemoryLabel.SEM, 0).meta)
    assert cosine(embed_text("mango"), embed_text("cherry")) == -1.0
    assert relevance_score("mango", item) == 0.0


# top-k retrieval --------------------------------------------------------

def test_retrieve_party_example_order():
    store = fact_store(("guest_allergy", "gluten"),
                       ("child_pref", "chocolate"),
                       ("sofa_color", "blue"))
    query = "find gluten-free chocolate cake"
    top2 = retrieve_topk(store, query, 2)
    assert [item.canonical_text() for item in top2] == [
        "guest_allergy: gluten", "child_pref: chocolate"]
    assert relevance_score(query, top2[0]) == pytest.approx(GOLDEN_SCORE_ALLERGY)
    assert relevance_score(query, top2[1]) == pytest.approx(GOLDEN_SCORE_CHILDPREF)


def test_retrieve_from_empty_store():
    assert retrieve_topk(MemoryStore(), "anything", 5) == []


def exhaustive_topk(store, query, k):
    # independent oracle: score everything, sort with the pinned tie-break
    scored = [(relevance_score(query, m), m) for m in store.items.values()]
    scored.sort(key=lambda pair: (-pair[0], pair[1].meta.timestamp,
                                  pair[1].canonical_text()))
    return [m for _, m in scored[:k]]


def test_retrieve_matches_bruteforce_on_random_store():
    rng = random.Random(42)
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lamp sofa cake party gluten chocolate banner rug vase").split()
    store = MemoryStore()
    for i in range(50):
        slot = f"slot_{i}"
        value = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        label = rng.choice(list(MemoryLabel))
        store.items[(slot, label)] = make_item(slot, value, label, now=i)
    query = "gluten chocolate party lamp"
    got = retrieve_topk(store, query, 7)
    assert got == exhaustive_topk(store, query, 7)


def test_retrieve_equals_full_sort_on_tied_stores():
    # few words, timestamps and slots, so scores, timestamps and texts tie,
    # and items with equal texts tie on the whole sort key
    rng = random.Random(2718)
    words = ("cake", "gluten", "lamp", "party")
    for _ in range(60):
        store = MemoryStore()
        for _ in range(rng.randint(0, 30)):
            slot = rng.choice(("a", "b", "c"))
            label = rng.choice(list(MemoryLabel))
            value = " ".join(rng.choices(words, k=rng.randint(1, 2)))
            store.items[(slot + str(rng.randint(0, 3)), label)] = make_item(
                slot, value, label, now=rng.randint(0, 2))
        query = " ".join(rng.choices(words + ("",), k=rng.randint(0, 3)))
        for k in range(1, len(store.items) + 2):
            assert retrieve_topk(store, query, k) == exhaustive_topk(store, query, k)


def test_retrieve_tiebreak_older_then_lexicographic():
    # all items score 0 against the query: order must be timestamp, then text
    store = fact_store(("b_slot", "zzz"), ("a_slot", "zzz"))
    got = retrieve_topk(store, "", 2)
    assert [item.canonical_text() for item in got] == ["b_slot: zzz", "a_slot: zzz"]

    same_time = MemoryStore()
    same_time.items[("b", MemoryLabel.EPI)] = make_item("b", "v", MemoryLabel.EPI, 5)
    same_time.items[("a", MemoryLabel.EPI)] = make_item("a", "v", MemoryLabel.EPI, 5)
    got = retrieve_topk(same_time, "", 2)
    assert [item.canonical_text() for item in got] == ["a: v", "b: v"]


def test_retrieve_rejects_bad_k():
    with pytest.raises(ValueError):
        retrieve_topk(MemoryStore(), "q", 0)


# retention --------------------------------------------------------------

def ctx(*turns):
    return list(turns)


def test_retain_gluten_diet_sentence():
    facts = retain(ctx(("user", "remember that two of my guests require a gluten-free diet")))
    assert facts == [("guest_allergy", "gluten")]


def test_retain_ignores_agent_turns():
    facts = retain(ctx(("agent", "theme = mickey mouse"),
                       ("agent", "the sofa is blue")))
    assert facts == []


def test_retain_smalltalk_yields_nothing():
    facts = retain(ctx(("user", "thanks so much"), ("user", "sounds great")))
    assert facts == []


def test_retain_pair_assignments_pinned_walkthrough():
    # hand-traced against the pattern table before implementation
    facts = retain(ctx(("user", "theme = mickey mouse; budget = 200")))
    assert facts == [("theme", "mickey mouse"), ("budget", "200")]


def test_retain_is_are_pattern():
    facts = retain(ctx(("user", "the sofa is blue")))
    assert facts == [("sofa", "blue")]


def test_retain_order_follows_turns():
    facts = retain(ctx(("user", "budget = 50"),
                       ("agent", "noted"),
                       ("user", "theme: space")))
    assert facts == [("budget", "50"), ("theme", "space")]



# memory update -----------------------------------------------------------

GLUTEN_TURN = ("user", "remember that two of my guests require a gluten-free diet")


def test_update_inserts_single_epi_item():
    store = update_memory(MemoryStore(), ctx(GLUTEN_TURN), MemoryLabel.EPI, now=1)
    assert len(store.items) == 1
    item = store.items[("guest_allergy", MemoryLabel.EPI)]
    assert item.canonical_text() == "guest_allergy: gluten"
    assert item.meta.update_count == 1
    assert item.meta.timestamp == 1
    assert len(store.raw_log) == 1


def test_update_same_fact_twice_merges_not_duplicates():
    store = MemoryStore()
    update_memory(store, ctx(GLUTEN_TURN), MemoryLabel.EPI, now=1)
    update_memory(store, ctx(GLUTEN_TURN), MemoryLabel.EPI, now=2)
    assert len(store.items) == 1
    item = store.items[("guest_allergy", MemoryLabel.EPI)]
    assert item.meta.update_count == 2
    assert item.meta.timestamp == 1  # creation tick survives the merge


def test_update_overwrites_value_and_recomputes_key():
    store = MemoryStore()
    update_memory(store, ctx(("user", "theme = pirates")), MemoryLabel.SEM, now=1)
    update_memory(store, ctx(("user", "theme = mickey mouse")), MemoryLabel.SEM, now=2)
    item = store.items[("theme", MemoryLabel.SEM)]
    assert item.canonical_text() == "theme: mickey mouse"
    assert item.key == embed_text("theme: mickey mouse")
    assert item.meta.update_count == 2


def test_update_unchanged_value_keeps_key_and_counts():
    store = MemoryStore()
    update_memory(store, ctx(("user", "theme = pirates")), MemoryLabel.EPI, now=1)
    first = store.items[("theme", MemoryLabel.EPI)]
    update_memory(store, ctx(("user", "Theme = pirates")), MemoryLabel.EPI, now=2)
    again = store.items[("theme", MemoryLabel.EPI)]
    assert again.value == first.value
    assert (again.meta.timestamp, again.meta.update_count) == (1, 2)


def count_embeds(monkeypatch):
    """Counts the calls to ``memory.embed_text`` from here on, by the text embedded."""
    import agentrec.memory as memory_module
    calls, original = [], memory_module.embed_text

    def counting(text):
        calls.append(text)
        return original(text)
    monkeypatch.setattr(memory_module, "embed_text", counting)
    return calls


def test_update_memory_embeds_nothing(monkeypatch):
    rng = random.Random(1618)
    slots, values = ("theme", "budget", "colour", "cake"), ("pirates", "space", "200", "blue")
    calls = count_embeds(monkeypatch)
    store = MemoryStore()
    for now in range(200):
        turn = ("user", "; ".join(f"{rng.choice(slots)} = {rng.choice(values)}"
                                  for _ in range(rng.randint(1, 3))))
        update_memory(store, [turn, ("agent", "noted")], rng.choice(list(MemoryLabel)), now)
    assert len(store.items) > 1
    assert calls == []


def test_scoring_a_store_twice_embeds_each_item_once(monkeypatch):
    # the memos are process-wide: start them empty so the counts below do not
    # depend on what earlier tests embedded
    _query_of_text.cache_clear()
    _sparse_of_text.cache_clear()
    store = MemoryStore()
    for now, turn in enumerate(["theme = pirates", "budget = 200", "theme = space",
                                "colour = blue; cake = vanilla", "budget = 200"]):
        update_memory(store, ctx(("user", turn)), MemoryLabel.EPI, now)
    calls = count_embeds(monkeypatch)
    query = embed_text("pirates cake")
    first = retrieve_topk(store, query, 3)
    assert sorted(calls) == sorted(item.value for item in store.all_items())
    calls.clear()
    assert retrieve_topk(store, query, 3) == first
    regulate_context(store, "pirates cake", 4)
    assert calls == ["pirates cake"]  # the query text only
    calls.clear()
    regulate_context(store, "pirates cake", 4)
    assert calls == []  # the prepared query comes from its memo


def test_upsert_keeping_the_value_embeds_nothing_again(monkeypatch):
    _query_of_text.cache_clear()
    _sparse_of_text.cache_clear()
    store = fact_store(("theme", "pirates ahoy"))
    calls = count_embeds(monkeypatch)
    regulate_context(store, "pirates", 8)
    assert sorted(calls) == ["pirates", "theme: pirates ahoy"]
    calls.clear()
    upsert_fact(store, "theme", "pirates ahoy", MemoryLabel.EPI, now=5)
    other = fact_store(("theme", "pirates ahoy"))  # another agent's item, same text
    regulate_context(store, "pirates", 8)
    regulate_context(other, "pirates", 8)
    assert store.items[("theme", MemoryLabel.EPI)].meta.update_count == 2
    assert calls == []


# text memos ------------------------------------------------------------------

MEMO_WORDS = ("theme budget colour cake pirates space mickey blue 200 the sofa is are my "
              "guests require a gluten-free diet = : ; , . !!").split()


def memo_texts(rng, count):
    """``count`` distinct texts, each unique by its last word."""
    return [" ".join(rng.choices(MEMO_WORDS, k=rng.randint(0, 8)) + [f"w{i}"])
            for i in range(count)]


def reference_retain(turns):
    """``retain`` with no memo: every segment of every user turn matched afresh."""
    facts = []
    for speaker, text in turns:
        if speaker.lower() != "user":
            continue
        for segment in re.split(r";\s*|[.,](?:\s+|$)", text):
            if not segment.strip():
                continue
            for pattern, fixed_slot in RETENTION_RULES:
                match = re.search(pattern.pattern, segment, re.IGNORECASE)
                if match is None:
                    continue
                slot = fixed_slot or "_".join(match.group("slot").strip().lower().split())
                value = match.group("value").strip()
                if slot and value:
                    facts.append((slot, value))
                break
    return facts


def test_text_memos_fuzz_equal_fresh_computation_past_their_bound():
    rng = random.Random(1616)
    for memo in (_query_of_text, _sparse_of_text, _facts_of_text):
        memo.cache_clear()
    texts = memo_texts(rng, _TEXT_MEMO_SIZE + 150)
    for _ in range(4 * len(texts)):
        text = rng.choice(texts)
        fresh = embed_text(text)
        query, want = prepare_query(text), QueryVector(fresh)
        assert (query.buckets, bits(query.values), bits([query.norm]), bits(query.dense)) == (
            want.buckets, bits(want.values), bits([want.norm]), bits(want.dense))
        item = make_item("note", text, MemoryLabel.EPI, 0)
        sparse, want = item.sparse, SparseVector(embed_text(item.value))
        assert (sparse.buckets, bits(sparse.values), bits([sparse.norm])) == (
            want.buckets, bits(want.values), bits([want.norm]))
        turns = [(rng.choice(["user", "User", "agent"]), text), ("user", rng.choice(texts))]
        got = retain(turns)
        assert got == reference_retain(turns)
        got.insert(0, ("mutated", "by caller"))
        assert retain(turns) == reference_retain(turns)
    for memo in (_query_of_text, _sparse_of_text, _facts_of_text):
        info = memo.cache_info()
        assert info.currsize == info.maxsize == _TEXT_MEMO_SIZE
        assert info.hits > 0 and info.misses > len(texts)  # evicted texts recomputed


def test_update_snapshot_equals_reembedding_every_upsert():
    # oracle: every upsert builds its item from the text, as make_item does;
    # composed: the raw log appended by hand, then retain and upsert_fact
    rng = random.Random(3141)
    slots, values = ("theme", "budget", "colour"), ("pirates", "space", "200", "blue sky")
    for _ in range(40):
        store, oracle, composed = MemoryStore(), MemoryStore(), MemoryStore()
        for now in range(rng.randint(1, 12)):
            turn = ("user", "; ".join(f"{rng.choice(slots)} = {rng.choice(values)}"
                                      for _ in range(rng.randint(1, 3))))
            label = rng.choice(list(MemoryLabel))
            update_memory(store, ctx(turn), label, now)
            oracle.raw_log.append(turn)
            composed.raw_log.append(turn)
            for slot, value in retain(ctx(turn)):
                existing = oracle.items.get((slot, label))
                oracle.items[(slot, label)] = make_item(
                    slot, value, label,
                    now if existing is None else existing.meta.timestamp,
                    1 if existing is None else existing.meta.update_count + 1)
                assert upsert_fact(composed, slot, value, label, now) is composed
        assert store_to_jsonl(store) == store_to_jsonl(oracle) == store_to_jsonl(composed)


def test_upsert_fact_writes_the_value_verbatim_and_no_log():
    store = MemoryStore()
    upsert_fact(store, "shown", "a, b; c. d", MemoryLabel.EPI, now=4)
    upsert_fact(store, "shown", "e: f", MemoryLabel.EPI, now=9)
    item = store.items[("shown", MemoryLabel.EPI)]
    assert (item.value, item.fact()) == ("shown: e: f", ("shown", "e: f"))
    assert (item.meta.timestamp, item.meta.update_count) == (4, 2)
    assert store.raw_log == [] and len(store.items) == 1


def test_update_two_facts_grows_log_by_turn_count():
    store = MemoryStore()
    context = ctx(("user", "theme = mickey mouse"), ("user", "budget = 200"))
    update_memory(store, context, MemoryLabel.EPI, now=3)
    assert len(store.items) == 2
    assert len(store.raw_log) == 2


def test_same_slot_different_labels_coexist():
    store = MemoryStore()
    update_memory(store, ctx(("user", "theme = space")), MemoryLabel.EPI, now=1)
    update_memory(store, ctx(("user", "theme = space")), MemoryLabel.SEM, now=2)
    assert len(store.items) == 2


def test_self_retrieval_invariant():
    store = update_memory(MemoryStore(), ctx(GLUTEN_TURN), MemoryLabel.EPI, now=1)
    item = retrieve_topk(store, "guest_allergy: gluten", 1)[0]
    assert relevance_score("guest_allergy: gluten", item) == 1.0


def test_raw_log_is_monotone_across_operations():
    store = MemoryStore()
    lengths = [len(store.raw_log)]
    for turn in (GLUTEN_TURN, ("user", "budget = 10"), ("agent", "ok")):
        update_memory(store, ctx(turn), MemoryLabel.EPI, now=len(lengths))
        retrieve_topk(store, "anything", 3)
        regulate_context(store, "anything", 8)
        lengths.append(len(store.raw_log))
    assert lengths == sorted(lengths)


def test_replay_determinism_bit_identical_stores():
    def build():
        store = MemoryStore()
        update_memory(store, ctx(GLUTEN_TURN), MemoryLabel.EPI, now=1)
        update_memory(store, ctx(("user", "theme = mickey mouse; budget = 200")),
                      MemoryLabel.SEM, now=2)
        return store
    assert store_to_jsonl(build()) == store_to_jsonl(build())


@pytest.mark.parametrize("turns, index", [
    ([("user", 5)], 0),
    ([(5, "x")], 0),
    ([("user", "theme = pirates"), ("user",)], 1),
    ([("user", "theme = pirates"), "ab"], 1),
    ([("agent", "ok"), ("user", "budget = 200"), ("user", "a", "b")], 2),
    ([None], 0),
])
def test_update_memory_refuses_a_turn_that_is_not_a_pair_of_strings_before_any_write(
        turns, index):
    store = update_memory(MemoryStore(), ctx(GLUTEN_TURN), MemoryLabel.EPI, now=1)
    before = store_to_jsonl(store)
    with pytest.raises(InvalidArgument, match=rf"^turn {index}: "):
        update_memory(store, turns, MemoryLabel.EPI, now=2)
    assert store_to_jsonl(store) == before
    assert store_to_jsonl(store_from_jsonl(before)) == before


def test_update_memory_reads_its_turns_once():
    store = update_memory(MemoryStore(), iter([("user", "theme = pirates"), ("agent", "ok")]),
                          MemoryLabel.EPI, now=3)
    assert store.raw_log == [("user", "theme = pirates"), ("agent", "ok")]
    assert store.items[("theme", MemoryLabel.EPI)].value == "theme: pirates"


def test_upsert_fact_refuses_a_slot_its_item_could_not_read_back():
    store = MemoryStore()
    with pytest.raises(InvalidArgument, match="fact slot 'a: b' must not contain ': '"):
        upsert_fact(store, "a: b", "x", MemoryLabel.EPI, now=0)
    with pytest.raises(InvalidArgument, match="'a: b'"):
        build_store({"a: b": "x", "a": "y"})
    upsert_fact(store, "a:b", "x: y", MemoryLabel.EPI, now=0)  # ":" alone, or in a value
    assert store_from_jsonl(store_to_jsonl(store)) == store
    assert store.items[("a:b", MemoryLabel.EPI)].fact() == ("a:b", "x: y")


def counting_facts(monkeypatch):
    """The texts ``memory._facts_of_text`` is called with from here on."""
    import agentrec.memory as memory_module
    calls, original = [], memory_module._facts_of_text

    def counting(text):
        calls.append(text)
        return original(text)
    monkeypatch.setattr(memory_module, "_facts_of_text", counting)
    return calls


def test_a_store_retains_its_queued_user_turns_on_first_read(monkeypatch):
    calls = counting_facts(monkeypatch)
    store = MemoryStore()
    turns = [("user", "theme = pirates"), ("agent", "budget = 1"), ("User", "budget = 200"),
             ("user", "hello")]
    for now, turn in enumerate(turns):
        update_memory(store, [turn], MemoryLabel.SEM, now)
    tail_window(store, 4)
    assert calls == []  # a store nobody reads runs no retention
    assert [(m.value, m.meta.timestamp) for m in store.all_items()] == [
        ("theme: pirates", 0), ("budget: 200", 2)]
    assert calls == ["theme = pirates", "budget = 200", "hello"]
    store.labelled_items(MemoryLabel.SEM)
    assert len(calls) == 3  # retained once


# lazy against eager retention ------------------------------------------------

LAZY_SLOTS = ("theme", "budget", "colour", "the sofa")
LAZY_TEXTS = ("smalltalk only", "", "my guests are vegan", "the sofa is blue",
              "two guests require a nut-free diet", "Budget: 50, theme = space.")


def eager_upsert(store, slot, value, label, now):
    """``upsert_fact`` as the items themselves define it, written through at once."""
    existing = store.items.get((slot, label))
    store.items[(slot, label)] = make_item(
        slot, value, label, now if existing is None else existing.meta.timestamp,
        1 if existing is None else existing.meta.update_count + 1)


def lazy_fuzz_text(rng):
    if rng.random() < 0.3:
        return rng.choice(LAZY_TEXTS)
    return "; ".join(f"{rng.choice(LAZY_SLOTS)} = {rng.choice(['pirates', '200', 'blue', 'x y'])}"
                     for _ in range(rng.randint(1, 3)))


def lazy_fuzz_read(rng, store):
    """One read through each public reader, chosen by `rng`; returns what it read."""
    query = rng.choice(["pirates", "blue sofa", "200", ""])
    return rng.choice([
        lambda: dict(store.items),
        lambda: store.items.get((rng.choice(LAZY_SLOTS), rng.choice(list(MemoryLabel)))),
        store.all_items,
        lambda: store.labelled_items(rng.choice(list(MemoryLabel))),
        lambda: retrieve_topk(store, query, rng.randint(1, 4)),
        lambda: regulate_context(store, query, rng.randint(0, 12)),
        lambda: store_to_jsonl(store),
    ])()


@pytest.mark.parametrize("seed", range(6))
def test_lazy_retention_equals_retention_at_every_commit(seed):
    rng = random.Random(seed)
    for _ in range(25):
        if rng.random() < 0.5:
            store, eager = MemoryStore(), MemoryStore()
        else:
            facts = {slot: rng.choice(["a", "b c"]) for slot in rng.sample(LAZY_SLOTS, 2)}
            store, eager = build_store(facts), MemoryStore()
            for index, (slot, value) in enumerate(facts.items()):
                eager_upsert(eager, slot, value, MemoryLabel.EPI, index)
        now = 0
        for _ in range(rng.randint(1, 30)):
            now += rng.choice([0, 1, 1, 3])
            label = rng.choice(list(MemoryLabel))
            op = rng.random()
            if op < 0.45:
                turns = [(rng.choice(["user", "User", "agent"]), lazy_fuzz_text(rng))
                         for _ in range(rng.randint(1, 3))]
                update_memory(store, turns, label, now)
                eager.raw_log.extend(turns)
                for slot, value in reference_retain(turns):
                    eager_upsert(eager, slot, value, label, now)
            elif op < 0.55:
                slot, value = rng.choice(LAZY_SLOTS), rng.choice(["w", "pirates"])
                upsert_fact(store, slot, value, label, now)
                eager_upsert(eager, slot, value, label, now)
            elif op < 0.65:
                item = make_item(rng.choice(LAZY_SLOTS), "set", label, now, rng.randint(1, 9))
                store.items[(item.slot(), label)] = item
                eager.items[(item.slot(), label)] = item
            else:
                state = rng.getstate()
                got = lazy_fuzz_read(rng, store)
                rng.setstate(state)
                assert got == lazy_fuzz_read(rng, eager)
                assert store_to_jsonl(store) == store_to_jsonl(eager)
                assert [(key, m.meta) for key, m in store.items.items()] == [
                    (key, m.meta) for key, m in eager.items.items()]
                assert store == eager
        assert store_to_jsonl(store) == store_to_jsonl(eager)


# tail window ---------------------------------------------------------------

def test_tail_shorter_log_returned_whole():
    store = MemoryStore(raw_log=[("user", "one two three")])
    assert tail_window(store, 10) == "one two three"


def test_tail_exact_suffix():
    words = [f"w{i}" for i in range(100)]
    store = MemoryStore(raw_log=[("user", " ".join(words))])
    assert tail_window(store, 10) == " ".join(words[-10:])


def test_tail_straddles_turn_boundary():
    store = MemoryStore(raw_log=[("user", "a b c"), ("agent", "d e"), ("user", "f g h")])
    # independent token-by-token oracle
    all_tokens = []
    for _, text in store.raw_log:
        all_tokens.extend(text.split())
    for limit in range(1, len(all_tokens) + 2):
        assert tail_window(store, limit) == " ".join(all_tokens[-limit:])


def test_tail_equals_join_everything_oracle_fuzz():
    rng = random.Random(1618)
    pieces = ("a", "bb", "ccc", "dd-d", " ", "  ", "\t", "\n", " \t\n ", "\u3000", "")
    for _ in range(150):
        log = []
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.15:
                text = rng.choice(("", " ", "\t\n", "   "))
            elif rng.random() < 0.1:
                text = " ".join(f"long{i}" for i in range(rng.randint(10, 30)))
            else:
                text = "".join(rng.choices(pieces, k=rng.randint(1, 12)))
            log.append((rng.choice(("user", "agent")), text))
        store = MemoryStore(raw_log=log)
        tokens = " ".join(text for _, text in log).split()
        for limit in range(1, len(tokens) + 2):
            assert tail_window(store, limit) == " ".join(tokens[-limit:])


def test_tail_reads_only_the_suffix_it_needs():
    # an entry read by the walk would raise on None.split()
    untouchable = [("user", None)] * 50
    store = MemoryStore(raw_log=untouchable + [("user", "a b c"), ("agent", ""),
                                               ("agent", "d e f")])
    assert tail_window(store, 2) == "e f"
    assert tail_window(store, 3) == "d e f"
    assert tail_window(store, 4) == "c d e f"
    assert tail_window(store, 6) == "a b c d e f"


def test_tail_rejects_bad_limit():
    with pytest.raises(ValueError):
        tail_window(MemoryStore(), 0)


# regulated context window -----------------------------------------------------

def knapsack_bruteforce(scores, lengths, budget):
    """Independent 2^n oracle; sums follow item-index order."""
    best = 0.0
    n = len(scores)
    for mask in range(1 << n):
        total_len = 0
        total_score = 0.0
        for i in range(n):
            if mask >> i & 1:
                total_len += lengths[i]
                total_score += scores[i]
        if total_len <= budget and total_score > best:
            best = total_score
    return best


def test_regulate_zero_budget_selects_nothing():
    store = fact_store(("a", "one two"), ("b", "three"))
    selection = regulate_context(store, "one", 0)
    assert selection.items == []
    assert selection.approximate is False


def test_regulate_everything_fits():
    store = fact_store(("a", "one two"), ("b", "three"), ("c", "zzz"))
    selection = regulate_context(store, "one three", 100)
    assert len(selection.items) == 3
    assert selection.approximate is False


def test_regulate_pinned_three_item_instance():
    # scores {.9, .8, .5}, lengths {6, 5, 4}, budget 10 -> {.9, .5} total 1.4
    # brute force over all 8 subsets done by hand before implementation;
    # lengths count the full "slot: value" text
    store = MemoryStore()
    specs = [("s1", "a b c d e", 0.9), ("s2", "g h i j", 0.8),
             ("s3", "l m n", 0.5)]
    for now, (slot, value, _) in enumerate(specs):
        store.items[(slot, MemoryLabel.EPI)] = make_item(slot, value, MemoryLabel.EPI, now)

    import agentrec.memory as memory_module
    fixed = {f"{slot}: {value}": score for slot, value, score in specs}
    original = memory_module.relevance_score
    memory_module.relevance_score = lambda q, item: fixed[item.canonical_text()]
    try:
        selection = memory_module.regulate_context(store, "q", 10)
    finally:
        memory_module.relevance_score = original
    texts = {item.canonical_text() for item in selection.items}
    assert texts == {"s1: a b c d e", "s3: l m n"}
    assert left_sum(fixed[item.canonical_text()] for item in selection.items) == pytest.approx(1.4)
    assert sum(item.token_length() for item in selection.items) == 10


def test_regulate_matches_bruteforce_small_instances():
    rng = random.Random(13)
    words = "party cake gluten chocolate lamp rug sofa mickey banner".split()
    for _ in range(40):
        store = MemoryStore()
        n = rng.randint(1, 10)
        for i in range(n):
            value = " ".join(rng.choices(words, k=rng.randint(1, 5)))
            store.items[(f"s{i}", MemoryLabel.EPI)] = make_item(
                f"s{i}", value, MemoryLabel.EPI, now=i)
        budget = rng.randint(0, 12)
        query = " ".join(rng.choices(words, k=3))
        selection = regulate_context(store, query, budget)
        items = list(store.items.values())
        scores = [relevance_score(query, m) for m in items]
        lengths = [m.token_length() for m in items]
        assert sum(m.token_length() for m in selection.items) <= budget or not selection.items
        chosen = set(map(id, selection.items))
        resummed = left_sum(s for m, s in zip(items, scores) if id(m) in chosen)
        assert resummed == knapsack_bruteforce(scores, lengths, budget)
        assert selection.approximate is False


def test_regulate_large_store_uses_flagged_greedy():
    store = MemoryStore()
    for i in range(25):
        store.items[(f"s{i}", MemoryLabel.EPI)] = make_item(
            f"s{i}", f"word{i} extra", MemoryLabel.EPI, now=i)
    selection = regulate_context(store, "word1 word2", 10)
    assert selection.approximate is True
    assert sum(item.token_length() for item in selection.items) <= 10


def test_regulate_output_sorted_by_score_descending():
    store = fact_store(("a", "gluten"), ("b", "unrelated"), ("c", "gluten cake"))
    selection = regulate_context(store, "gluten", 100)
    scores = [relevance_score("gluten", item) for item in selection.items]
    assert scores == sorted(scores, reverse=True)


# persistence -------------------------------------------------------------------

def test_snapshot_round_trip():
    store = MemoryStore()
    update_memory(store, ctx(GLUTEN_TURN, ("agent", "noted")), MemoryLabel.EPI, now=1)
    update_memory(store, ctx(("user", "theme = mickey mouse")), MemoryLabel.SEM, now=2)

    text = store_to_jsonl(store)
    loaded = store_from_jsonl(text)
    assert loaded.raw_log == store.raw_log
    assert loaded.items == store.items
    assert store_to_jsonl(loaded) == text


SNAPSHOT_WORDS = ["cake", "decor", "theme", "budget", "pirates", "vanilla", "guest", "party"]


def snapshot_store(rng):
    """A store built only by the public writers: turns and facts under every label."""
    store = MemoryStore()
    for now in range(rng.randint(3, 12)):
        turns = [("user", rng.choice([
            f"{rng.choice(SNAPSHOT_WORDS)} = "
            f"{' '.join(rng.choices(SNAPSHOT_WORDS, k=rng.randint(1, 3)))}",
            f"the {rng.choice(SNAPSHOT_WORDS)} is {rng.choice(SNAPSHOT_WORDS)}",
            GLUTEN_TURN[1], "", "   ", "caf\u00e9: na\u00efve \u2028 text"]))]
        if rng.random() < 0.5:
            turns.append(("agent", " ".join(rng.choices(SNAPSHOT_WORDS, k=3))))
        update_memory(store, turns, rng.choice(list(MemoryLabel)), now=now)
    # a value text with no [0-9a-z] token: its key is the all-zero vector
    store.items[("\u2014", MemoryLabel.PROC)] = make_item(
        "\u2014", "\u2026", MemoryLabel.PROC, now=99)
    return store


def test_snapshot_round_trip_of_every_record_kind():
    rng = random.Random(2718)
    for _ in range(40):
        store = snapshot_store(rng)
        text = store_to_jsonl(store)
        lines = text.splitlines()
        lines.insert(rng.randint(0, len(lines)), "  ")  # blank lines are skipped
        loaded = store_from_jsonl("\n".join(lines))
        assert loaded.raw_log == store.raw_log
        assert loaded.items == store.items
        assert store_to_jsonl(loaded) == text


def test_every_loaded_item_scores_one_against_its_own_value():
    rng = random.Random(1414)
    for _ in range(20):
        loaded = store_from_jsonl(store_to_jsonl(snapshot_store(rng)))
        for item in loaded.all_items():
            # a value with no [0-9a-z] token embeds to the all-zero sentinel
            assert relevance_score(item.value, item) == (1.0 if tokenize(item.value) else 0.0)


def test_loaded_items_keep_the_key_the_loader_checked(monkeypatch):
    text = store_to_jsonl(fact_store(("theme", "pirates"), ("budget", "200")))
    loaded = store_from_jsonl(text)
    calls = count_embeds(monkeypatch)
    retrieve_topk(loaded, embed_text("pirates"), 2)
    assert calls == []


VALID_ITEM = {"kind": "item", "value": "theme: pirates",
              "meta": {"timestamp": 1, "label": "EPI", "update_count": 1}}


def item_with(**fields):
    """An item line; unless given, its key is the embedding of its value."""
    record = dict(VALID_ITEM, **fields)
    record.setdefault("key", list(embed_text(str(record["value"]))))
    return json.dumps(record)


@pytest.mark.parametrize("line", [
    "not json",
    '{"kind": "turn"}',
    "[1]",
    item_with(meta=dict(VALID_ITEM["meta"], label="LTM")),
    item_with(value=["a", "b"]),
    item_with(value=["user", "likes", "cake"]),
    item_with(key=[0.5, 0.5, 0.5]),
    item_with(value=7),
    item_with(key="0.125"),
    item_with(key=[0.125] * (EMBED_DIM - 1) + ["x"]),
    item_with(key=[0.125] * (EMBED_DIM - 1) + [float("nan")]),
    item_with(meta=dict(VALID_ITEM["meta"], timestamp="1")),
    # a triple is not a snapshot record kind
    '{"kind": "triple", "subject": "user", "relation": "likes", "object": 5}',
    '{"kind": "triple", "subject": "", "relation": "likes", "object": "cake"}',
    '{"kind": "error"}',
    # the value was edited and the key was not
    item_with(value="theme: vanilla cake", key=list(embed_text("theme: pirates"))),
    # line 1 holds the same slot under the same label
    item_with(meta=dict(VALID_ITEM["meta"], timestamp=7)),
], ids=["not-json", "turn-without-fields", "not-an-object", "unknown-label",
        "pair-value", "triple-value", "short-key", "number-value", "string-key",
        "string-in-key", "nan-in-key", "string-timestamp", "number-in-triple",
        "empty-triple-part", "unknown-kind", "other-value-key", "repeated-slot-label"])
def test_snapshot_rejects_each_malformed_line_naming_it(line):
    text = "\n".join([item_with(), "", line, item_with(value="budget: 5")])
    with pytest.raises(InvalidArgument, match=r"^snapshot line 3: ") as excinfo:
        store_from_jsonl(text)
    assert excinfo.type is InvalidArgument


def test_snapshot_triple_line_is_an_unknown_kind():
    line = '{"kind": "triple", "object": "cake", "relation": "likes", "subject": "user"}'
    with pytest.raises(InvalidArgument) as excinfo:
        store_from_jsonl("\n".join([item_with(), line]))
    assert str(excinfo.value) == "snapshot line 2: unknown snapshot record kind: 'triple'"


def test_snapshot_same_slot_under_another_label_loads():
    sem = item_with(meta=dict(VALID_ITEM["meta"], label="SEM"))
    loaded = store_from_jsonl("\n".join([item_with(), sem]))
    assert sorted(label.value for _, label in loaded.items) == ["EPI", "SEM"]


WRONG_TYPES = [None, True, 3, 2.5, "", "x", [], ["a", "b", "c"], {}]


def mutate(rng, record):
    """A copy of one snapshot record that no snapshot may hold, as its JSON line."""
    kind = record["kind"]
    fields = {"turn": ("speaker", "text"), "item": ("key", "value", "meta")}[kind]
    choice = rng.randrange(6)
    if choice == 0:  # a cut line: every record line starts with "{"
        line = json.dumps(record, sort_keys=True)
        return line[:rng.randrange(1, len(line))]
    if choice == 1:
        return json.dumps(rng.choice([[record], "x", 5, None, True, []]))
    if choice == 2:
        del record[rng.choice(("kind",) + fields)]
    elif choice == 3:
        record["kind"] = rng.choice(["Turn", "ITEM", "", None, 5, "error"])
    elif choice == 4 or kind != "item":  # a wrong-typed field; items also get choice 5
        name = rng.choice(fields)
        record[name] = rng.choice([value for value in WRONG_TYPES
                                   if name in ("key", "meta") or type(value) is not str])
    else:  # a bad component of an item's key or meta
        key, meta = record["key"], record["meta"]
        rng.choice([
            lambda: key.pop(rng.randrange(len(key))),
            lambda: key.append(0.0),
            lambda: key.__setitem__(rng.randrange(len(key)), rng.choice(
                ["0.1", None, True, 1, [0.1], float("inf"), float("nan")])),
            lambda: meta.pop(rng.choice(sorted(meta))),
            lambda: meta.__setitem__("label", rng.choice(["epi", "", None, 1, ["EPI"]])),
            lambda: meta.__setitem__(rng.choice(["timestamp", "update_count"]),
                                     rng.choice([None, "1", 1.0, True, [1]])),
        ])()
    return json.dumps(record, sort_keys=True)


def test_snapshot_mutation_fuzz_names_the_bad_line():
    rng = random.Random(3141)
    base = store_to_jsonl(snapshot_store(rng)).splitlines()
    base.insert(1, "")  # line numbers count blank lines too
    for _ in range(600):
        index = rng.choice([i for i, line in enumerate(base) if line])
        lines = list(base)
        lines[index] = mutate(rng, json.loads(base[index]))
        with pytest.raises(InvalidArgument) as excinfo:
            store_from_jsonl("\n".join(lines))
        assert excinfo.type is InvalidArgument
        assert str(excinfo.value).startswith(f"snapshot line {index + 1}: "), lines[index]
