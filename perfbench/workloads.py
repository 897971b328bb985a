"""Benchmark worker: one fresh interpreter per set-up sample or measured run.

    python3 perfbench/workloads.py --workload W --inputs DIR --mode setup|measure
        --seconds S --trace 0|1 --t0 T --result FILE

`--t0` is the parent's `time.perf_counter()` just before it started this
process (the clock is system-wide), so `setup_s` counts interpreter start,
`import agentrec`, loading the generated inputs through the program's own
loaders, building runtimes and the warm-up ops. A measured run then runs the
workload's closed loop, one op at a time, until `--seconds` of wall time
have passed and the current unit is whole (a block of 8 requests, a
conversation, a block of 12 jobs: every run then holds the same mix of
work), checks every op's output outside the op's timer, and finally re-runs
the bundled scenarios against their recorded artifact hashes.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCENARIOS = ROOT / "scenarios"
GOLDEN = HERE / "golden.json"

TOP_L = 10
CONTEXT_K = 4
MAX_ROUNDS = 3
ALPHA, TAU = 0.5, 0.7
REFERENCE_LOOP = 40_000  # iterations of the machine-speed reference loop
RESCORE_EVERY = 8      # exact re-scoring with the pinned embedding on every 8th op
DIGEST_OPS = 64        # the printed digest covers the first 64 timed ops
PLANNER_HOPS = 9

perf = time.perf_counter
agentrec = None        # bound by load_program()
oracle = None


def load_program():
    """Import the checkout's agentrec; returns the import time in ms."""
    global agentrec, oracle
    sys.path.insert(0, str(ROOT / "src"))
    started = perf()
    import agentrec.cli  # noqa: F401  (imports every layer)
    import_ms = (perf() - started) * 1000.0
    import agentrec as package
    import oracle as checker
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"agentrec imported from outside the checkout: {package.__file__}")
    agentrec, oracle = package, checker
    return import_ms


def reference_s():
    """One pass of a fixed pure-Python loop: how fast the machine runs right now."""
    started = perf()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return perf() - started


def _read(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _facts_query(facts):
    return [f"{slot}: {value}" for slot, value in facts]


def _memory_facts(facts):
    """Facts in facts_from_memory order: EPI items, then SEM, each in store order."""
    return ([(s, v) for s, v, label in facts if label == "EPI"]
            + [(s, v) for s, v, label in facts if label == "SEM"])


def _ranked_ok(entries, items, limits, top_l):
    """Unique ids, non-increasing scores, every item present and unconstrained."""
    ids = [item_id for item_id, _ in entries]
    scores = [score for _, score in entries]
    return (len(entries) <= top_l and len(set(ids)) == len(ids)
            and all(a >= b for a, b in zip(scores, scores[1:]))
            and all(i in items and not oracle.violates(items[i], *limits) for i in ids))


class RankClient:
    """rank_stream / rank_churn: interactive ranking, bundles, explanations."""

    def __init__(self, inputs, churn):
        self.inputs = inputs
        spec = _read(inputs / "spec.json")
        self.templates, self.users = spec["templates"], spec["users"]
        self.requests = spec["requests"]
        self.deltas = spec.get("deltas") if churn else None
        self.items = {item["id"]: item for item in _read(inputs / "catalog.json")}
        self.banned = _read(SCENARIOS / "brand_policy.json")["banned_terms"]
        self.embedder = oracle.Embedder()
        self.version = 0
        self.last_ranked = None
        self.unit = 8
        self.n_ops = len(self.requests) - self.unit  # the last block warms up

    def setup(self):
        cli, memory, runtime = agentrec.cli, agentrec.memory, agentrec.runtime
        self.env = runtime.Environment(catalog=cli.load_catalog(self.inputs / "catalog.json"))
        self.policy = cli.load_policy(SCENARIOS / "brand_policy.json")
        self.profiles = [memory.load_store(self.inputs / f"profile-{u}.jsonl")
                         for u in range(len(self.users))]
        self.sessions = [memory.load_store(self.inputs / f"session-{u}.jsonl")
                         for u in range(len(self.users))]
        tail = self.requests[-8:]
        for kind in ("interactive", "multimodal", "explain"):
            request = next(r for r in tail if r["kind"] == kind)
            out = self._serve(request)
            if not self._check(request, out, None, sample=True)[0]:
                raise SystemExit(f"warm-up {kind} op failed its output check")

    # ops --------------------------------------------------------------

    def op(self, i):
        if self.deltas is not None:
            self.env = agentrec.runtime.apply_env_update(self.env, [self.deltas[i]])
        return self._serve(self.requests[i])

    def _serve(self, request):
        pipelines, memory = agentrec.pipelines, agentrec.memory
        t, u = self.templates[request["template"]], request["user"]
        if request["kind"] == "interactive":
            transcript = pipelines.Transcript(turns=[
                ("user", t["query"]), ("agent", ""), ("user", t["constraint_turn"])])
            ranked = pipelines.recommend_interactive(transcript, self.env,
                                                     self.sessions[u], TOP_L)
            forbidden, required, budget = self._limits(t, u)
            constraints = pipelines.ConstraintSet(
                required_tags=frozenset(required), forbidden_tags=frozenset(forbidden),
                budget_max=budget)
            violations = pipelines.check_collection_consistency(ranked, constraints, self.env)
            self.last_ranked = ranked
            return ranked, violations
        if request["kind"] == "multimodal":
            return pipelines.recommend_multimodal(
                t["query"], t["scene"], self.profiles[u], t["categories"], self.env,
                alpha=ALPHA, tau=TAU)
        ctx = memory.retrieve_topk(self.profiles[u], t["query"], CONTEXT_K)
        explanation, rounds = pipelines.explain_with_revision(
            self.last_ranked, ctx, self.policy, MAX_ROUNDS)
        return ctx, explanation, rounds, self.last_ranked

    # checks -----------------------------------------------------------

    def observe(self, tracer):
        """Per-op counts only a traced run records; none beyond the wrappers here."""

    def _limits(self, t, u):
        session = _memory_facts(self.users[u]["session"])
        return oracle.constraints([tuple(f) for f in t["facts"]] + session)

    def check(self, i, out, error):
        if self.deltas is not None:
            self._mirror(self.deltas[i])
            if error is None and self.env.version != self.version:
                return False, "version"
        return self._check(self.requests[i], out, error, sample=i % RESCORE_EVERY == 0)

    def _mirror(self, delta):
        """The benchmark's own copy of the catalog follows every delta."""
        self.version += 1
        if delta["op"] == "add_item":
            self.items[delta["item"]["id"]] = delta["item"]
        elif delta["op"] == "remove_item":
            del self.items[delta["id"]]
        else:
            self.items[delta["id"]] = dict(self.items[delta["id"]],
                                           **{delta["field"]: delta["value"]})

    def _check(self, request, out, error, sample):
        t, u = self.templates[request["template"]], request["user"]
        kind = request["kind"]
        if kind == "interactive":
            limits = self._limits(t, u)
            survivors = [item for item in self.items.values()
                         if not oracle.violates(item, *limits)]
            if error is not None:
                confirmed = not survivors and type(error).__name__ == "NoFeasibleItem"
                return confirmed, type(error).__name__
            ranked, violations = out
            entries = [(i, s) for i, s in ranked.entries]
            if violations or len(entries) != min(TOP_L, len(survivors)):
                return False, "interactive"
            if not _ranked_ok(entries, self.items, limits, TOP_L):
                return False, "interactive"
            if sample:
                session = _memory_facts(self.users[u]["session"])
                query = " ".join([t["query"], t["constraint_turn"]]
                                 + _facts_query(t["facts"]) + _facts_query(session))
                if oracle.rank(self.embedder, query, survivors, TOP_L) != entries:
                    return False, "interactive-rescore"
            return True, json.dumps(entries)
        if kind == "multimodal":
            limits = oracle.constraints(_memory_facts(self.users[u]["profile"]))
            if error is not None:
                confirmed = (type(error).__name__ == "NoCompatibleBundle" and oracle.bundle(
                    self.embedder, t["query"], t["scene"], self.items.values(),
                    t["categories"], limits, ALPHA, TAU) is None)
                return confirmed, type(error).__name__
            ids = [item.id for item in out.items]
            categories = sorted(set(t["categories"]))
            if [item.category for item in out.items] != categories:
                return False, "bundle"
            for item_id, category in zip(ids, categories):
                item = self.items.get(item_id)
                if (item is None or category not in item["tags"] or not item.get("palette")
                        or oracle.violates(item, *limits)):
                    return False, "bundle"
            palettes = [tuple(self.items[i]["palette"]) for i in ids]
            if any(oracle.cosine(a, b) < TAU
                   for n, a in enumerate(palettes) for b in palettes[n + 1:]):
                return False, "bundle-compat"
            if sample and oracle.bundle(self.embedder, t["query"], t["scene"],
                                        self.items.values(), t["categories"], limits,
                                        ALPHA, TAU) != ids:
                return False, "bundle-rescore"
            return True, json.dumps(ids)
        if error is not None:
            return False, type(error).__name__
        ctx, explanation, rounds, recs = out
        store = [{"key": tuple(item.key), "timestamp": item.meta.timestamp,
                  "text": item.canonical_text()} for item in self.profiles[u].all_items()]
        expected = oracle.topk(self.embedder, t["query"], store, CONTEXT_K)
        if [item.canonical_text() for item in ctx] != expected:
            return False, "retrieve_topk"
        slot = expected[0].split(": ", 1)[0]
        text = explanation.text
        if (not 1 <= rounds <= MAX_ROUNDS or not oracle.compliant(text, self.banned)
                or f"[item:{recs.entries[0][0]}]" not in text or f"[fact:{slot}]" not in text):
            return False, "explain"
        return True, json.dumps([text, rounds])


class PlannerClient:
    """planner_dialogue: long party-planner conversations, one runtime each."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.conversations = _read(inputs / "spec.json")["conversations"]
        self.items = {item["id"]: item for item in _read(inputs / "catalog.json")}
        self.turns = len(self.conversations[0])
        self.n_ops = (len(self.conversations) - 1) * self.turns
        self.unit = self.turns
        self.logged = {}

    def setup(self):
        cli, runtime = agentrec.cli, agentrec.runtime
        self.config = cli.load_config(SCENARIOS / "party_planner.json")
        self.env = runtime.Environment(catalog=cli.load_catalog(self.inputs / "catalog.json"))
        self.seed = int(self.config["seed"])
        warm = self.conversations[-1]
        self._start()
        for turn in warm[:4]:
            if not self.check(-1, self._turn(turn["text"]), None, turn)[0]:
                raise SystemExit("warm-up planner turn failed its output check")

    def _start(self):
        self.runtime, self.routing = agentrec.blueprints.build_interactive_runtime(
            self.config, self.env)
        self.logged = {}

    def _turn(self, text):
        return self.runtime.run_episode(self.routing, seed=self.seed, initial_input=text)

    def op(self, i):
        conversation, turn = divmod(i, self.turns)
        if turn == 0:
            self._start()
        return self._turn(self.conversations[conversation][turn]["text"])

    def observe(self, tracer):
        """Whitespace tokens in every agent's raw log, counted incrementally."""
        total = 0
        for agent_id, agent in self.runtime.agents.items():
            start, tokens = self.logged.get(agent_id, (0, 0))
            log = agent.memory.raw_log
            tokens += sum(len(text.split()) for _, text in log[start:])
            self.logged[agent_id] = (len(log), tokens)
            total += tokens
        tracer.add("memory.raw_log_tokens", total)

    def check(self, i, result, error, turn=None):
        if turn is None:
            conversation, index = divmod(i, self.turns)
            turn = self.conversations[conversation][index]
        if error is not None:
            return False, type(error).__name__
        if result.aborted or len(result.trace) != PLANNER_HOPS:
            return False, "aborted"
        entries = agentrec.blueprints.ranked_entries_from_trace(result.trace)
        limits = (set(turn["allergens"]), set(), turn["budget"])
        if not _ranked_ok(entries, self.items, limits, 5):
            return False, "planner"
        return True, json.dumps(entries)


class ColonyClient:
    """colony_eval: `agentrec run` jobs in-process on generated configs."""

    ARTIFACTS = ("trace.jsonl", "report.jsonl", "report.txt", "manifest.json")

    def __init__(self, inputs, work):
        self.inputs = inputs
        spec = _read(inputs / "spec.json")
        self.jobs, self.warmup = spec["jobs"], spec["warmup"]
        self.out = work / "job-out"
        self.n_ops = len(self.jobs)
        self.unit = 12
        self.trace_bytes = 0

    def setup(self):
        for name in self.warmup:
            if not self._check_job(name, self._run(name), None)[0]:
                raise SystemExit(f"warm-up job {name} failed its output check")

    def _run(self, name):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return agentrec.cli.main(["run", str(self.inputs / name), "--out", str(self.out)])

    def op(self, i):
        return self._run(self.jobs[i])

    def check(self, i, status, error):
        return self._check_job(self.jobs[i], status, error)

    def observe(self, tracer):
        tracer.add("cli.trace_bytes", self.trace_bytes)

    def _check_job(self, name, status, error):
        try:
            if error is not None or status != 0:
                return False, f"exit {status} {type(error).__name__}"
            if not all((self.out / a).is_file() for a in self.ARTIFACTS):
                return False, "artifacts"
            trace = (self.out / "trace.jsonl").read_bytes()
            report = (self.out / "report.jsonl").read_bytes()
            self.trace_bytes = len(trace)
            rows = [json.loads(line) for line in report.decode().splitlines()]
            if not self._rates_ok(_read(self.inputs / name), rows, trace.count(b"\n")):
                return False, "rates"
            return True, hashlib.sha256(trace + report).hexdigest()
        finally:
            for artifact in self.ARTIFACTS + ("error.json",):
                (self.out / artifact).unlink(missing_ok=True)

    @staticmethod
    def _rates_ok(config, rows, trace_lines):
        if config["kind"] == "cascade":
            row = rows[0]
            exact, allowed = oracle.cascade_bound(
                [config["error_rates"][n] for n in config["nodes"]], config["trials"])
            return (abs(row["closed_form"] - exact) <= 1e-12
                    and abs(row["empirical"] - exact) <= allowed)
        sims = sum(c["count"] for c in config["cohorts"])
        horizon = config["horizon"]
        overall = rows[-1]
        low = -config["reward"].get("penalty", 0.0) * horizon
        return (overall["sessions"] == sims and trace_lines == 2 * sims * horizon
                and 0.0 <= overall["ctr"] <= 1.0
                and 0.0 <= overall["diversity_entropy"] <= math.log(sims * horizon) + 1e-9
                and low <= overall["psi_hat"] <= horizon
                and len(rows) == len(config["cohorts"]) + 1)


def golden_failures(work):
    """Bundled scenarios whose trace/report bytes differ from the recorded hashes."""
    failed = []
    for name, expected in _read(GOLDEN).items():
        out = work / "golden" / name
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            status = agentrec.cli.run_scenario(SCENARIOS / f"{name}.json", out=out)
        got = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
               for a in expected if (out / a).is_file()}
        if status != 0 or got != expected:
            failed.append(name)
    return failed


def measure(client, seconds, tracer):
    """The closed loop: one op at a time until `seconds` passed and a unit is whole.

    After each op (outside its timer) the reference loop runs once, so the
    machine's speed is known next to every op.
    """
    latencies, refs, failures, digest = [], [], {}, hashlib.sha256()
    deadline = perf() + seconds
    i = 0
    while i < client.n_ops and (perf() < deadline or i % client.unit):
        if tracer is not None:
            tracer.op = i
        started = perf()
        try:
            out, error = client.op(i), None
        except Exception as exc:  # every op failure is counted, never fatal
            out, error = None, exc
        latencies.append(perf() - started)
        if tracer is not None:
            tracer.op = "check"
        ok, canonical = client.check(i, out, error)
        if not ok:
            failures[canonical] = failures.get(canonical, 0) + 1
        if i < DIGEST_OPS:
            digest.update(f"{i}:{ok}:{canonical}\n".encode())
        if tracer is not None:
            client.observe(tracer)
        refs.append(reference_s())
        i += 1
    return latencies, refs, failures, digest.hexdigest(), min(i, DIGEST_OPS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    import_ms = load_program()
    tracer = None
    if args.trace and args.mode == "measure":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer, agentrec)
    work = args.inputs.parent
    if args.workload == "planner_dialogue":
        client = PlannerClient(args.inputs)
    elif args.workload == "colony_eval":
        client = ColonyClient(args.inputs, work)
    else:
        client = RankClient(args.inputs, churn=args.workload == "rank_churn")
    client.setup()
    result = {"setup_s": perf() - args.t0, "import_ms": import_ms,
              "setup_refs": [reference_s() for _ in range(5)]}
    if args.mode == "measure":
        if tracer is not None:
            tracer.start_timed_phase()
        latencies, refs, failures, digest, digest_ops = measure(client, args.seconds, tracer)
        result.update(latencies=latencies, refs=refs, failures=failures, digest=digest,
                      digest_ops=digest_ops,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            tracer.write_spans(work / "spans.jsonl")
            result["layers"] = spans.layer_metrics(tracer, len(latencies))
        result["golden_failed"] = golden_failures(work)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
