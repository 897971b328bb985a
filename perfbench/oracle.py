"""Independent re-implementation of the pinned conventions in README.md.

Nothing here imports agentrec: the benchmark scores, filters and orders with
its own code, so a check built on these functions does not trust the
program under test. The arithmetic follows the pinned formulas step by step
(the same summation order), so results must match the program's exactly.
"""

import hashlib
import itertools
import math
import re

EMBED_DIM = 64
_PERSON = b"embed-v1"
_SPLIT = re.compile(r"[^0-9a-z]+")

_FORBIDDEN_SLOT = re.compile(r"(^guest_allergy$|_allergy$|_ban$)")
_REQUIRED_SLOT = re.compile(r"(^require[d]?$|^required_)")


def tokens(text):
    return [t for t in _SPLIT.split(text.lower()) if t]


class Embedder:
    """blake2b signed feature hashing into 64 buckets, L2-normalized.

    Memoizes per token and per text; it is the benchmark's checker, so its
    own caching never touches the program under test.
    """

    def __init__(self):
        self._token = {}
        self._text = {}

    def _bucket_sign(self, token):
        hit = self._token.get(token)
        if hit is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9,
                                     person=_PERSON).digest()
            hit = (int.from_bytes(digest[:8], "big") % EMBED_DIM,
                   1.0 if digest[8] % 2 == 0 else -1.0)
            self._token[token] = hit
        return hit

    def embed(self, text):
        vec = self._text.get(text)
        if vec is None:
            values = [0.0] * EMBED_DIM
            for token in tokens(text):
                bucket, sign = self._bucket_sign(token)
                values[bucket] += sign
            norm = math.sqrt(sum(v * v for v in values))
            vec = tuple(values) if norm == 0.0 else tuple(v / norm for v in values)
            self._text[text] = vec
        return vec


def cosine(a, b):
    """Cosine with the pinned shortcuts: 1.0 for identical nonzero vectors."""
    a, b = tuple(a), tuple(b)
    if a == b:
        return 1.0 if any(x != 0.0 for x in a) else 0.0
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(x * y for x, y in zip(a, b))
    return max(-1.0, min(1.0, dot / (na * nb)))


def relevance(embedder, query_vec, text):
    return max(0.0, cosine(query_vec, embedder.embed(text)))


def item_text(item):
    return " ".join([item["title"]] + list(item["tags"]))


def constraints(facts):
    """(forbidden tags, required tags, budget) from (slot, value) facts."""
    forbidden, required, budget = set(), set(), None
    for slot, value in facts:
        value = value.strip().lower()
        if _FORBIDDEN_SLOT.search(slot):
            forbidden.add(value)
        elif _REQUIRED_SLOT.search(slot):
            required.add(value)
        elif slot == "budget":
            try:
                budget = float(value)
            except ValueError:
                continue
    return forbidden, required, budget


def violates(item, forbidden, required, budget):
    tags = set(item["tags"])
    return bool(forbidden & tags) or not required <= tags or (
        budget is not None and item["price"] > budget)


def rank(embedder, query, items, top_l):
    """Clamped-cosine relevance, ties broken by item id; top_l entries."""
    qvec = embedder.embed(query)
    scored = sorted(((relevance(embedder, qvec, item_text(item)), item["id"])
                     for item in items), key=lambda pair: (-pair[0], pair[1]))
    return [(item_id, score) for score, item_id in scored[:top_l]]


def topk(embedder, query, store_items, k):
    """Profile retrieval order: score desc, older timestamp, smaller text."""
    qvec = embedder.embed(query)
    scored = [(max(0.0, cosine(qvec, entry["key"])), entry["timestamp"], entry["text"])
              for entry in store_items]
    scored.sort(key=lambda row: (-row[0], row[1], row[2]))
    return [text for _, _, text in scored[:k]]


def bundle(embedder, text_query, scene, items, categories, limits, alpha, tau,
           per_category=3):
    """One item id per sorted category, or None if no combination is compatible.

    `limits` is the (forbidden, required, budget) triple from `constraints`.
    """
    qvec = embedder.embed(text_query)
    pools = []
    for category in sorted(set(categories)):
        feasible = [item for item in items
                    if category in item["tags"] and item.get("palette")
                    and not violates(item, *limits)]
        if not feasible:
            return None
        scored = sorted(
            ((alpha * relevance(embedder, qvec, item_text(item))
              + (1.0 - alpha) * cosine(tuple(item["palette"]), tuple(scene)), item)
             for item in feasible),
            key=lambda pair: (-pair[0], pair[1]["id"]))
        pools.append(scored[:per_category])
    combos = sorted(itertools.product(*pools),
                    key=lambda combo: (-sum(s for s, _ in combo),
                                       tuple(item["id"] for _, item in combo)))
    for combo in combos:
        palettes = [tuple(item["palette"]) for _, item in combo]
        if len(palettes) <= 1 or min(
                cosine(a, b) for a, b in itertools.combinations(palettes, 2)) >= tau:
            return [item["id"] for _, item in combo]
    return None


def compliant(text, banned_terms):
    """Whole-token, case-insensitive banned-phrase check."""
    toks = tokens(text)
    for term in banned_terms:
        needle = tokens(term)
        span = len(needle)
        if needle and any(toks[i:i + span] == needle
                          for i in range(len(toks) - span + 1)):
            return False
    return True


def cascade_bound(rates, trials, sigmas=4.0):
    """(exact invalid-output probability, allowed deviation at `sigmas`)."""
    product = 1.0
    for p in rates:
        product *= 1.0 - p
    exact = 1.0 - product
    return exact, sigmas * math.sqrt(exact * (1.0 - exact) / trials)
