"""Seeded input generator: the same (workload, seed) always writes the same files.

The program under test sees these inputs only through its public loaders
(`cli.load_catalog`, `cli.load_config`, `memory.load_store`). Free text is
drawn from a fixed vocabulary that contains none of the words the retention
rules or the brand policy react to, so every constraint a request carries is
known here, in structured form, for the independent output checks.
"""

import json
import random
from pathlib import Path

import oracle

THEMES = ("pirate", "jungle", "space", "unicorn", "dinosaur", "princess", "superhero",
          "ocean", "safari", "circus", "garden", "winter", "robot", "fairy", "castle",
          "rainbow")
FLAVORS = ("chocolate", "vanilla", "berry", "lemon", "caramel", "strawberry",
           "coconut", "mint", "cinnamon", "honey", "mango", "cherry")
COLOURS = ("red", "blue", "green", "gold", "silver", "pastel", "neon", "teal", "coral",
           "ivory", "plum", "amber")
STYLES = ("classic", "deluxe", "mini", "giant", "handmade", "sparkly", "rustic",
          "modern", "vintage", "cozy", "bright", "soft", "round", "tall", "layered",
          "glazed", "woven", "painted", "printed", "folded")
ALLERGENS = ("gluten", "nut", "dairy", "egg")
MATERIALS = ("leather", "rattan", "wood", "plastic", "paper", "metal", "fabric", "glass")
FOOD = ("cake", "cupcake", "cookie")
RANK_CATEGORIES = FOOD + ("candle", "balloon", "banner", "favor", "plate", "lamp",
                          "chair", "sofa", "rug")
PLANNER_CATEGORIES = ("cake", "decor", "favor")
PALETTES = ((0.8, 0.6, 0.0), (0.6, 0.8, 0.0), (0.0, 0.6, 0.8), (0.7, 0.0, 0.7),
            (0.5, 0.5, 0.7), (0.9, 0.2, 0.4))

RANK_ITEMS = 2000
RANK_USERS = 48
RANK_TEMPLATES = 64
RANK_REQUESTS = 4000
KIND_BLOCK = ("interactive",) * 5 + ("multimodal",) * 2 + ("explain",)
DELTA_BLOCK = ("price", "add", "remove", "tags")
PLANNER_PER_CATEGORY = 40
PLANNER_CONVERSATIONS = 24
PLANNER_TURNS = 200
COLONY_ITEMS = 10000
COLONY_BLOCKS = 34      # of 12 jobs: 9 simulate (3 of them static_top), 3 cascade


def _blocks(rng, block, count):
    """`count` entries drawn as shuffled copies of `block`: exact proportions."""
    out = []
    while len(out) < count:
        chunk = list(block)
        rng.shuffle(chunk)
        out.extend(chunk)
    return out[:count]


def _zipf(rng, n, count, s=1.1):
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    order = list(range(n))
    rng.shuffle(order)
    return [order[i] for i in rng.choices(range(n), weights=weights, k=count)]


def make_item(rng, item_id, category, max_price=400):
    tags = [category]
    if category in FOOD or category == "favor":  # edible: diet tags
        tags += [a for a in ALLERGENS if rng.random() < 0.25]
    else:
        tags.append(rng.choice(MATERIALS))
    if rng.random() < 0.85:
        tags.append("in_stock")
    if rng.random() < 0.4:
        tags.append("eco")
    words = [rng.choice(STYLES), rng.choice(COLOURS + FLAVORS), rng.choice(THEMES)]
    if rng.random() < 0.5:
        words.append(rng.choice(STYLES))
    item = {"id": item_id, "title": " ".join(words + [category]),
            "tags": tags, "price": rng.randint(5, max_price)}
    if rng.random() < 0.8:
        base = rng.choice(PALETTES)
        item["palette"] = [round(max(0.0, c + rng.gauss(0.0, 0.08)), 3) for c in base]
    return item


def _catalog(rng, n, categories):
    return [make_item(rng, f"item-{i:05d}", rng.choice(categories)) for i in range(n)]


def _snapshot(embedder, facts):
    """memory.load_store JSONL: one item record per (slot, value, label)."""
    lines = []
    for timestamp, (slot, value, label) in enumerate(facts):
        text = f"{slot}: {value}"
        lines.append(json.dumps({
            "kind": "item", "key": list(embedder.embed(text)), "value": text,
            "meta": {"timestamp": timestamp, "label": label, "update_count": 1},
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def _write(path, data):
    Path(path).write_text(json.dumps(data, sort_keys=True), encoding="utf-8")


def _template(rng, index):
    """A repeated request: query text, structured constraints, scene, categories.

    Every template keeps a similar share of the catalog (about 70-78 %), so
    which templates a seed makes popular barely moves the cost of a request.
    """
    query = (f"{rng.choice(STYLES)} {rng.choice(FLAVORS)} {rng.choice(THEMES)} "
             f"{rng.choice(RANK_CATEGORIES)} for a {rng.choice(COLOURS)} "
             f"{rng.choice(THEMES)} party")
    allergen = rng.choice(ALLERGENS)
    budget = rng.randint(360, 400)
    if index % 2 == 0:
        segments = [f"guest_allergy = {allergen}"]
    else:
        segments = [f"two guests require a {allergen}-free diet"]
    segments += [f"budget = {budget}", "required = in_stock"]
    facts = [("guest_allergy", allergen), ("budget", str(budget)), ("required", "in_stock")]
    return {"query": query, "constraint_turn": "; ".join(segments), "facts": facts,
            "scene": list(rng.choice(PALETTES)),
            "categories": rng.sample(RANK_CATEGORIES, 3)}


def _users(rng, embedder, out):
    """Per user: a profile store of 5..40 facts (both sides of the exact-knapsack
    limit) for bundles and explanations, and a session store for rankings."""
    users = []
    sizes = [5 + round(35 * i / (RANK_USERS - 1)) for i in range(RANK_USERS)]
    rng.shuffle(sizes)
    slot_names = [f"{a}_{b}" for a in ("likes", "wants", "prefers", "enjoys")
                  for b in STYLES + COLOURS]
    for uid, size in enumerate(sizes):
        ban = rng.choice(MATERIALS[:4]) if uid % 3 == 0 else None
        facts = [(slot, f"{rng.choice(COLOURS + FLAVORS)} {rng.choice(THEMES)}",
                  "EPI" if rng.random() < 0.7 else "SEM")
                 for slot in rng.sample(slot_names, size)]
        if ban is not None:
            facts[0] = ("material_ban", ban, "EPI")
        # session memory feeds the interactive query: 0-5 preference facts,
        # each size on eight of the users, so query lengths differ
        session = [(slot, f"{rng.choice(COLOURS + FLAVORS)} {rng.choice(THEMES)}", "EPI")
                   for slot in rng.sample(slot_names, uid % 6)]
        if ban is not None:
            session.append(("material_ban", ban, "EPI"))
        (out / f"profile-{uid}.jsonl").write_text(_snapshot(embedder, facts))
        (out / f"session-{uid}.jsonl").write_text(_snapshot(embedder, session))
        users.append({"profile": facts, "session": session})
    return users


def _deltas(rng, catalog, count):
    """One single-op delta per request; targets track the evolving catalog."""
    live = [item["id"] for item in catalog]
    tags = {item["id"]: item["tags"] for item in catalog}
    deltas = []
    for n, kind in enumerate(_blocks(rng, DELTA_BLOCK, count)):
        if kind == "add":
            item = make_item(rng, f"new-{n:05d}", rng.choice(RANK_CATEGORIES))
            live.append(item["id"])
            tags[item["id"]] = item["tags"]
            deltas.append({"op": "add_item", "item": item})
            continue
        pos = rng.randrange(len(live))
        target = live[pos]
        if kind == "remove":
            live[pos] = live[-1]
            live.pop()
            deltas.append({"op": "remove_item", "id": target})
        elif kind == "price":
            deltas.append({"op": "set_item_field", "id": target, "field": "price",
                           "value": rng.randint(5, 400)})
        else:
            new = [t for t in tags[target] if t != "eco"]
            if "eco" not in tags[target]:
                new.append("eco")
            tags[target] = new
            deltas.append({"op": "set_item_field", "id": target, "field": "tags",
                           "value": new})
    return deltas


def gen_rank(rng, out, churn):
    embedder = oracle.Embedder()
    catalog = _catalog(rng, RANK_ITEMS, RANK_CATEGORIES)
    _write(out / "catalog.json", catalog)
    templates = [_template(rng, i) for i in range(RANK_TEMPLATES)]
    users = _users(rng, embedder, out)
    kinds = _blocks(rng, KIND_BLOCK, RANK_REQUESTS)
    who = []
    while len(who) < RANK_REQUESTS:
        block = list(range(RANK_USERS))
        rng.shuffle(block)
        who.extend(block)
    which = _zipf(rng, RANK_TEMPLATES, RANK_REQUESTS)
    requests = [{"kind": k, "user": u, "template": t}
                for k, u, t in zip(kinds, who, which)]
    spec = {"templates": templates, "users": users, "requests": requests}
    if churn:
        spec["deltas"] = _deltas(rng, catalog, RANK_REQUESTS)
    _write(out / "spec.json", spec)


def _turn(rng):
    """Request first, then constraints, as in the bundled party-planner query."""
    segments = [rng.choice((
        f"plan a {rng.choice(THEMES)} birthday party",
        f"add {rng.choice(FLAVORS)} treats for the {rng.choice(THEMES)} table",
        f"we want {rng.choice(COLOURS)} decorations and {rng.choice(STYLES)} favors",
        f"find a {rng.choice(STYLES)} {rng.choice(FLAVORS)} cake for {rng.randint(4, 30)} kids",
    ))]
    allergens = []
    if rng.random() < 0.4:
        allergens.append(rng.choice(ALLERGENS))
        segments.append(f"two of my guests require a {allergens[0]}-free diet")
    budget = None
    if rng.random() < 0.3:
        budget = rng.randint(20, 80)
        segments.append(f"budget = {budget}")
    return {"text": "; ".join(segments), "allergens": allergens, "budget": budget}


def gen_planner(rng, out):
    catalog = [make_item(rng, f"{category}-{i:03d}", category, max_price=60)
               for category in PLANNER_CATEGORIES
               for i in range(PLANNER_PER_CATEGORY)]
    _write(out / "catalog.json", catalog)
    conversations = [[_turn(rng) for _ in range(PLANNER_TURNS)]
                     for _ in range(PLANNER_CONVERSATIONS)]
    _write(out / "spec.json", {"conversations": conversations})


def _stratified(rng, low, high, n):
    """n integers, one from each of n equal slices of [low, high], shuffled."""
    width = (high - low + 1) / n
    values = [low + int(width * (k + rng.random())) for k in range(n)]
    rng.shuffle(values)
    return values


def _simulate_config(rng, job, n_sims, horizon, recommender):
    kinds = ("first_item", "text", "seeded")
    n_cohorts = rng.randint(1, 3)
    counts = [n_sims // n_cohorts] * n_cohorts
    counts[0] += n_sims - sum(counts)
    cohorts = []
    for c, count in enumerate(counts):
        theta = {"kind": kinds[(job + c) % 3]}
        if theta["kind"] == "text":
            theta["text"] = f"{rng.choice(STYLES)} {rng.choice(FLAVORS)} {rng.choice(THEMES)}"
        cohorts.append({"id": f"c{c}", "count": count,
                        "noise": round(rng.uniform(0.0, 0.2), 3), "theta": theta})
    reward = {"kind": "select"}
    if job % 2:
        reward = {"kind": "diversity_penalty", "penalty": round(rng.uniform(0.1, 0.9), 2)}
    return {"kind": "simulate", "catalog": "catalog.json", "seed": rng.randrange(2 ** 31),
            "horizon": horizon, "sessions_per_sim": 1, "budgets": {"L": 1},
            "recommender": recommender, "reward": reward, "cohorts": cohorts}


def _cascade_config(rng, n, trials):
    """A fan-in DAG: each node feeds one to three later nodes."""
    nodes = [f"n{i}" for i in range(n)]
    edges = set()
    for i in range(n - 1):
        for j in rng.sample(range(i + 1, n), min(rng.randint(1, 3), n - 1 - i)):
            edges.add((nodes[i], nodes[j]))
    return {"kind": "cascade", "seed": rng.randrange(2 ** 31), "trials": trials,
            "nodes": nodes, "edges": [list(edge) for edge in sorted(edges)],
            "error_rates": {node: round(rng.uniform(0.001, 0.03), 4) for node in nodes}}


def _colony_block(rng, ids, first):
    """Twelve jobs whose sizes cover their ranges evenly (stratified draws).

    Nine simulate jobs, smallest to largest: 8-24 simulators and a 15-40 step
    horizon rise together, and the 2nd, 5th and 8th run static_top on an item
    from the first, middle and last third of the catalog, so a block's
    costliest jobs are alike from seed to seed. Three cascade jobs: 6-16
    nodes, 10k-20k trials.
    """
    far = iter(sorted(_stratified(rng, 0, len(ids) - 1, 3)))
    configs = []
    for k, (n_sims, horizon) in enumerate(zip(sorted(_stratified(rng, 8, 24, 9)),
                                              sorted(_stratified(rng, 15, 40, 9)))):
        recommender = {"kind": "rotation"}
        if k % 3 == 1:
            recommender = {"kind": "static_top", "item_id": ids[next(far)]}
        configs.append(_simulate_config(rng, first + k, n_sims, horizon, recommender))
    configs += [_cascade_config(rng, n, trials) for n, trials in
                zip(_stratified(rng, 6, 16, 3), _stratified(rng, 10000, 20000, 3))]
    rng.shuffle(configs)
    return configs


def gen_colony(rng, out):
    catalog = _catalog(rng, COLONY_ITEMS, RANK_CATEGORIES)
    _write(out / "catalog.json", catalog)
    ids = [item["id"] for item in catalog]
    warmup = [_simulate_config(rng, 0, 9, 15, {"kind": "rotation"}),
              _cascade_config(rng, 6, 10000)]
    configs = [config for block in range(COLONY_BLOCKS)
               for config in _colony_block(rng, ids, 12 * block)]
    names = {"warmup": [], "jobs": []}
    for key, group in (("warmup", warmup), ("jobs", configs)):
        for n, config in enumerate(group):
            names[key].append(f"{key}-{n:04d}.json")
            _write(out / names[key][-1], config)
    _write(out / "spec.json", names)


# workload -> (generator family, writer); both rank workloads share one
# family, so a seed gives them the same catalog and request stream.
GENERATORS = {
    "rank_stream": ("rank", lambda rng, out: gen_rank(rng, out, churn=False)),
    "rank_churn": ("rank", lambda rng, out: gen_rank(rng, out, churn=True)),
    "planner_dialogue": ("planner", gen_planner),
    "colony_eval": ("colony", gen_colony),
}


def generate(workload, seed, out):
    """Write the inputs of one workload run into the directory `out`."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    family, writer = GENERATORS[workload]
    writer(random.Random(f"{family}/{seed}"), out)
