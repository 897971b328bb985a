"""agentrec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rank_stream --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The run generates its inputs from the
seed, times set-up in several fresh interpreters, measures the workload's
closed loop in one more, checks every output, and prints a line per metric
followed by one JSON object (the last line of standard output). With
`--trace 0` that object carries the end-to-end metrics; with `--trace 1` it
carries the per-layer metrics of a traced run, whose spans are written to
`.perfbench/spans/<workload>-<seed>.jsonl`.

Times are reported at nominal machine speed: a fixed reference loop runs
after every op and after every set-up, and each time is scaled by
NOMINAL_REF_S / (the loop's median time next to it). The machine this was
built on switches, for seconds at a time, between two speeds about 1.7x
apart; unscaled figures of whole runs then spread by up to 50 %. The
unscaled figures are printed too.

Exit status: 0 when a result was printed, nonzero when the checkout holds no
program to measure or a worker crashed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
from workloads import reference_s  # noqa: E402

WORKLOADS = ("rank_stream", "rank_churn", "planner_dialogue", "colony_eval")
SETUP_SAMPLES = 5          # set-up runs per run: 4 set-up-only + the measured one
WORKER_TIMEOUT_S = 150
NOMINAL_REF_S = 0.003      # the reference loop's time at nominal machine speed
SPEED_WINDOW = 8           # ops whose reference-loop times set one speed estimate
END_TO_END = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def machine_now():
    """Load average and the reference loop's median time, for the run's record."""
    return {"loadavg": list(os.getloadavg()),
            "ref_loop_ms": statistics.median(reference_s() for _ in range(5)) * 1000.0}


def spawn(workload, inputs, mode, seconds, trace, result):
    """One fresh interpreter; returns its result record."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--inputs", str(inputs), "--mode", mode, "--seconds", str(seconds),
               "--trace", str(trace), "--result", str(result)]
    t0 = time.perf_counter()
    proc = subprocess.run(command + ["--t0", repr(t0)], env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def at_nominal_speed(latencies, refs):
    """Each op's latency scaled by the machine speed measured around it."""
    scaled = []
    for start in range(0, len(latencies), SPEED_WINDOW):
        factor = NOMINAL_REF_S / statistics.median(refs[start:start + SPEED_WINDOW])
        scaled.extend(latency * factor for latency in latencies[start:start + SPEED_WINDOW])
    return scaled


def end_to_end(latencies, setups, peak_rss_mb):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def run(workload, seed, seconds, trace):
    root = Path.cwd()
    if not (root / "src" / "agentrec" / "__init__.py").is_file() or not (
            root / "scenarios" / "party_planner.json").is_file():
        raise SystemExit("run from the root of an agentrec checkout: src/agentrec "
                         "and scenarios/ are missing")
    start = machine_now()
    work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.generate(workload, seed, work / "inputs")
        samples = [spawn(workload, work / "inputs", "setup", seconds, 0,
                         work / f"setup-{n}.json") for n in range(SETUP_SAMPLES - 1)]
        res = spawn(workload, work / "inputs", "measure", seconds, trace,
                    work / "measure.json")
        if trace:
            spans_dir = root / ".perfbench" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            shutil.move(str(work / "spans.jsonl"), spans_dir / f"{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples.append(res)
    speeds = [NOMINAL_REF_S / statistics.median(s["setup_refs"]) for s in samples]
    setups = [s["setup_s"] for s in samples]
    latencies = res["latencies"]
    failed_ops = sum(res["failures"].values())
    attempted = len(latencies) + len(golden_names())
    failed = failed_ops + len(res["golden_failed"])
    raw = end_to_end(latencies, setups, res["peak_rss_mb"])
    e2e = end_to_end(at_nominal_speed(latencies, res["refs"]),
                     [t * f for t, f in zip(setups, speeds)], res["peak_rss_mb"])

    if trace:
        speed = NOMINAL_REF_S / statistics.median(res["refs"])
        metrics = {name: value * speed if spans.LAYER_METRICS[name] in ("ms", "us")
                   else value for name, value in res["layers"].items()}
        metrics["cli.import_ms"] = statistics.median(
            s["import_ms"] * f for s, f in zip(samples, speeds))
        metrics["bench.traced_ops_per_s"] = e2e["ops_per_s"]
        units = spans.LAYER_METRICS
    else:
        metrics, units = e2e, END_TO_END
    end = machine_now()

    print(f"workload {workload} seed {seed} trace {trace}: {len(latencies)} ops "
          f"in {sum(latencies):.3f} s of op time, {len(setups)} set-up samples; "
          f"times at nominal speed (reference loop {NOMINAL_REF_S * 1000:g} ms)")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.4f} {unit}")
    print("  unscaled: " + ", ".join(f"{name} {value:.4f}" for name, value in raw.items()
                                     if name != "peak_rss_mb")
          + f"; reference loop median {statistics.median(res['refs']) * 1000:.4f} ms")
    print(f"  failed_ratio{'':<28} {failed / attempted:>14.4f} ratio "
          f"({failed} of {attempted}: {len(latencies)} ops + "
          f"{len(golden_names())} bundled-scenario hash checks)")
    for reason, count in sorted(res["failures"].items()):
        print(f"  failed check {reason}: {count}")
    for name in res["golden_failed"]:
        print(f"  bundled scenario {name}: artifact hashes differ from perfbench/golden.json")
    print(f"  digest {res['digest']} over the first {res['digest_ops']} ops")
    print("  machine " + json.dumps({"nproc": os.cpu_count(),
                                     "python": platform.python_version(),
                                     "start": start, "end": end}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def golden_names():
    return list(json.loads((HERE / "golden.json").read_text(encoding="utf-8")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
