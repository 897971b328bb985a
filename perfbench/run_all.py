"""Every workload, one command: metrics, output checks, steadiness and tracing cost.

    python3 perfbench/run_all.py --seeds 1                # each workload once
    python3 perfbench/run_all.py --seeds 1-10             # steadiness: ten seeds each
    python3 perfbench/run_all.py --seeds 1 --trace        # plus a traced run each
    python3 perfbench/run_all.py --seeds 1-4 --seconds 5  # short runs, for contrast
    python3 perfbench/run_all.py --seeds 1-10 --trace --summary perfbench/baseline.json
    python3 perfbench/run_all.py --seeds 1-10 --against perfbench/baseline.json

Run from the root of a checkout. Each run is `perfbench/run.py` in its own
process. The command prints every end-to-end metric of every workload by
name with its unit (the median over the seeds when there are several), the
failed-op ratio and the output digest of each run, and with several seeds
the spread of each metric: the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. With `--trace` it also prints the per-layer metrics and the
tracing overhead, 1 - traced ops_per_s / untraced ops_per_s. `--summary`
writes all of it, with the machine record (nproc, Python version, load
average and a reference loop's time at the start and end of every run), as
one JSON file. `--against` compares this invocation with such a file: each
median's change against the metric's bound, and, for the same seeds, the
output digests, which must be identical.

Exit status is nonzero if any output check failed, if with several seeds a
spread (other than set-up time's) exceeds its bound, or if with `--against` a
median is worse than its bound allows or a digest differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace, machine):
    """One run.py run; returns (result object, digest). Appends to `machine`."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None, ""
    printed = {line.split()[0]: line.split(None, 1)[1] for line in lines[:-1]
               if line.startswith("  ")}
    machine.append(dict(json.loads(printed["machine"]), workload=workload, seed=seed,
                        trace=trace))
    return json.loads(lines[-1]), printed["digest"].split()[0]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(summary, earlier):
    """Median changes against the bounds, and digests when the seeds match."""
    ok = True
    for workload, record in summary["workloads"].items():
        old = earlier["workloads"].get(workload)
        if old is None:
            continue
        if earlier["seeds"] == summary["seeds"]:
            same = old["digests"] == record["digests"]
            ok &= same
            print(f"{workload}: output digests {'identical' if same else 'DIFFER'}")
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            if name not in record["end_to_end"] or name not in old["end_to_end"]:
                continue
            before = old["end_to_end"][name]["median"]
            now = record["end_to_end"][name]["median"]
            change = (now - before) / before
            worse = change if metric["better"] == "lower" else -change
            ok &= worse <= metric["bound"]
            print(f"  {name:<14} {before:>12.4f} -> {now:>12.4f} {metric['unit']:<5} "
                  f"{change:+.3f} (bound {metric['bound']:.2f})"
                  + ("" if worse <= metric["bound"] else "  WORSE THAN BOUND"))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="a seed or a range like 1-10")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--trace", action="store_true", help="add a traced run per seed")
    parser.add_argument("--summary", type=Path, help="write every figure to this JSON file")
    parser.add_argument("--against", type=Path, help="compare with an earlier --summary file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    ok = True
    machine = []
    summary = {"seconds": args.seconds, "seeds": seeds, "machine": machine,
               "workloads": {}}

    for workload in args.workloads:
        values, digests, traced = {}, [], []
        for seed in seeds:
            result, digest = run_once(workload, seed, args.seconds, 0, machine)
            if result is None or not result["correct"]:
                ok = False
            if result is None:
                print(f"{workload} seed {seed}: run failed")
                continue
            digests.append(digest)
            print(f"{workload} seed {seed}: failed_ratio "
                  f"{result['failed'] / result['attempted']:.4f} "
                  f"({result['failed']} of {result['attempted']}), digest {digest[:16]}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if args.trace:
                layers, _ = run_once(workload, seed, args.seconds, 1, machine)
                if layers is None or not layers["correct"]:
                    ok = False
                if layers is not None:
                    traced.append(layers["metrics"])
        print(f"{workload}: {len(values.get('ops_per_s', []))} run(s), "
              f"{args.seconds:g} s each")
        record = summary["workloads"][workload] = {"digests": digests, "end_to_end": {}}
        for metric in BENCHMARK["end_to_end"]:
            name, got = metric["name"], values.get(metric["name"], [])
            if not got:
                continue
            record["end_to_end"][name] = {"unit": metric["unit"], "values": got,
                                          "median": statistics.median(got),
                                          "spread": spread(got)}
            row = f"  {name:<14} {statistics.median(got):>12.4f} {metric['unit']:<5}"
            if len(got) > 1:
                s = spread(got)
                steady = s <= bounds[name] or name == "setup_s"
                ok &= steady
                row += (f" spread {s:.3f} bound {bounds[name]:.2f} "
                        f"min {min(got):.4f} max {max(got):.4f}"
                        + ("" if steady else "  NOT STEADY"))
            print(row)
        if traced:
            record["per_layer"] = {}
            print(f"  per-layer medians over {len(traced)} traced run(s):")
        for metric in BENCHMARK["per_layer"] if traced else ():
            name = metric["name"]
            median = statistics.median([layers[name]["value"] for layers in traced])
            record["per_layer"][name] = {"unit": metric["unit"], "median": median}
            print(f"  {name:<40} {median:>14.4f} {metric['unit']}")
        if traced and values.get("ops_per_s"):
            untraced = statistics.median(values["ops_per_s"])
            with_trace = statistics.median(
                [layers["bench.traced_ops_per_s"]["value"] for layers in traced])
            record["tracing_overhead"] = 1.0 - with_trace / untraced
            print(f"  tracing overhead {record['tracing_overhead']:+.3f} "
                  f"(traced {with_trace:.4f} op/s vs untraced {untraced:.4f} op/s)")
    if args.against is not None:
        ok &= compare(summary, json.loads(args.against.read_text(encoding="utf-8")))
    if args.summary is not None:
        args.summary.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
