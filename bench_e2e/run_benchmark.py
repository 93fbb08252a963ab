#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see bench_e2e/README.md).

One run (the form BENCHMARK.json's command uses):
    python3 bench_e2e/run_benchmark.py --workload NAME --seed N \
        --seconds T --trace 0|1
  builds bench_e2e from source into .bench_build (first call only), runs one
  workload and prints, as its last stdout line, one JSON object with the
  keys correct, attempted, failed and metrics: the end-to-end metrics with
  --trace 0, the per-layer metrics with --trace 1 (whose Chrome trace lands
  in .bench_build/trace-NAME.json).

Every workload:
    python3 bench_e2e/run_benchmark.py --all [--reps N] [--seed S]
        [--seconds T] [--out results.json]
  runs each workload listed in BENCHMARK.json in its own process, N untraced
  repetitions (seeds S..S+N-1) plus one traced run, alternating whether the
  traced run goes first, and prints every metric by name and unit with its
  median, quartiles and sample count.

Parent against change (choosing-metrics guide, section 8):
    python3 bench_e2e/run_benchmark.py --pair PARENT_DIR CHANGE_DIR
        [--reps N] [--seed S] [--seconds T] [--out pairs.json]
  builds bench_e2e in both checkouts and runs N (at least 10) pairs per
  workload, seeds S..S+N-1, alternating which side runs first, then
  compares them as --compare does.

Comparison:
    python3 bench_e2e/run_benchmark.py --compare pairs.json
    python3 bench_e2e/run_benchmark.py --compare parent.json change.json
  reports each pairing of end-to-end metric and workload as improved, pass,
  regressed or unresolved, and flags a change of the simulated-statistics
  digest on fig4a-grid64. A gain is claimed only from a --pair file with at
  least ten pairs; two --all files give pass, regressed or unresolved.
  Exit status 1 when anything regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
MIN_PAIRS = 10
# info.host keys holding each end-to-end metric before host-speed scaling.
RAW_KEYS = {"setup_s": "raw_setup_s",
            "throughput_per_s": "raw_throughput_per_s",
            "latency_mean_ms": "raw_latency_mean_ms"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root=ROOT):
    """Configures (once) and builds bench_e2e of the checkout at @p root;
    returns the binary path."""
    out = build_dir(root)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "bench_e2e"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run_benchmark: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "bench_e2e")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_bench(binary, workload, seed, seconds, traced):
    """One bench_e2e process, run in its build directory; returns its result
    object, or None when it refused to run (host too small) or failed to
    produce a result."""
    cwd = os.path.dirname(binary)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd += ["--trace-out", os.path.join(cwd, "trace-%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run_benchmark: %s timed out" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("run_benchmark: %s exited %d without a result"
            % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def one_run(args):
    binary = build()
    traced = args.trace == 1
    result = run_bench(binary, args.workload, args.seed, args.seconds, traced)
    if result is None:
        sys.exit(2)
    want = [m["name"] for m in load_spec()["per_layer" if traced
                                           else "end_to_end"]]
    if result["correct"] and sorted(want) != sorted(result["metrics"]):
        log("run_benchmark: bench_e2e metrics do not match BENCHMARK.json")
        sys.exit(2)
    print(json.dumps({"workload": result["workload"], "mode": result["mode"],
                      "info": result["info"]}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(0 if result["correct"] else 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(results):
    for workload, runs in results["workloads"].items():
        print("\n== %s  (%d untraced, %d traced)"
              % (workload, len(runs["untraced"]), len(runs["traced"])))
        for mode in ("untraced", "traced"):
            done = [r for r in runs[mode] if r is not None]
            if not done:
                continue
            print("  %-24s %-9s %12s %12s %12s %3s"
                  % ("metric", "unit", "median", "q1", "q3", "n"))
            for name, first in done[0]["metrics"].items():
                vals = [r["metrics"][name]["value"] for r in done]
                q1, q2, q3 = quartiles(vals)
                print("  %-24s %-9s %12.5g %12.5g %12.5g %3d"
                      % (name, first["unit"], q2, q1, q3, len(vals)))
            info = done[0]["info"]
            if mode == "untraced":
                # Per-run latency distribution: p50 and the highest quantile
                # with at least ten samples beyond it.
                dists = [r["info"]["latency"] for r in done]
                print("  latency distribution per run: p50 %.5g ms, p%g %.5g "
                      "ms (medians over runs; %d samples in the first run)"
                      % (statistics.median(d["p50_ms"] for d in dists),
                         100 * dists[0]["tail_q"],
                         statistics.median(d["tail_ms"] for d in dists),
                         dists[0]["n"]))
                print("  host scale (mean speed pass / 3 ms): median %.4g"
                      % statistics.median(r["info"]["host"]["scale"]
                                          for r in done))
            for key in ("digest", "hotpotato_speedup_pct",
                        "speedup_minus_paper_pct", "server_cache_hit_pct"):
                if key in info:
                    print("  %s: %s" % (key, info[key]))
        prov = next((r["info"]["provenance"] for m in ("untraced", "traced")
                     for r in runs[m] if r is not None), None)
        if prov:
            print("  provenance: " + json.dumps(prov))


def failed_runs(results):
    return [w for w, runs in results["workloads"].items()
            for m in runs.values() for r in m if r is None or not r["correct"]]


def run_all(args):
    binary = build()
    spec = load_spec()
    results = {"seconds": args.seconds, "seed": args.seed, "reps": args.reps,
               "workloads": {}}
    for i, w in enumerate(spec["workloads"]):
        name = w["name"]
        runs = {"untraced": [], "traced": []}
        order = [False] * args.reps
        order.insert(0 if i % 2 == 0 else len(order), True)
        rep = 0
        for traced in order:
            seed = args.seed if traced else args.seed + rep
            log("run_benchmark: %s seed %d %s"
                % (name, seed, "traced" if traced else "untraced"))
            r = run_bench(binary, name, seed, args.seconds, traced)
            runs["traced" if traced else "untraced"].append(r)
            if not traced:
                rep += 1
        results["workloads"][name] = runs
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    print_table(results)
    sys.exit(1 if failed_runs(results) else 0)


def run_pairs(args):
    if args.reps < MIN_PAIRS:
        log("run_benchmark: --pair needs --reps %d or more" % MIN_PAIRS)
        sys.exit(2)
    roots = [os.path.abspath(d) for d in args.pair]
    if build_dir(roots[0]) == build_dir(roots[1]):
        log("run_benchmark: both checkouts would build into %s"
            % build_dir(roots[0]))
        sys.exit(2)
    binaries = [build(root) for root in roots]
    sides = [{"dir": root, "workloads": {}} for root in roots]
    for w in load_spec()["workloads"]:
        name = w["name"]
        for side in sides:
            side["workloads"][name] = {"untraced": [], "traced": []}
        for rep in range(args.reps):
            seed = args.seed + rep
            for s in ((0, 1) if rep % 2 == 0 else (1, 0)):
                log("run_benchmark: %s seed %d %s"
                    % (name, seed, ("parent", "change")[s]))
                sides[s]["workloads"][name]["untraced"].append(
                    run_bench(binaries[s], name, seed, args.seconds, False))
    pairs = {"paired": True, "seconds": args.seconds, "seed": args.seed,
             "reps": args.reps, "parent": sides[0], "change": sides[1]}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(pairs, f, indent=1)
    bad = failed_runs(sides[0]) + failed_runs(sides[1])
    regressed = print_comparison(sides[0], sides[1], paired=True)
    sys.exit(1 if regressed or bad else 0)


def better_fn(metric):
    if metric["better"] == "lower":
        return lambda new, old: new < old
    return lambda new, old: new > old


def verdict(metric, a, b, paired):
    """Section 8 of the choosing-metrics guide for parent values @p a and
    change values @p b (pairs are a[i], b[i] when @p paired)."""
    q1, a_med, q3 = quartiles(a)
    b_med = statistics.median(b)
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * (b_med - a_med) / a_med
    spread = (q3 - q1) / a_med
    better = better_fn(metric)
    if spread > metric["bound"] and not all(better(y, x) for x in a for y in b):
        return worse, spread, "unresolved"
    if worse > metric["bound"]:
        return worse, spread, "regressed"
    if paired and len(a) >= MIN_PAIRS:
        wins = sum(1 for x, y in zip(a, b) if better(y, x))
        if wins >= 0.9 * len(a) and -worse > spread:
            return worse, spread, "improved (%d/%d pairs)" % (wins, len(a))
    return worse, spread, "pass"


def print_comparison(base, change, paired):
    spec = load_spec()
    regressed = False
    print("%-18s %-18s %25s %25s %8s %8s %6s %8s  %s"
          % ("workload", "metric", "parent q1/median/q3",
             "change q1/median/q3", "worse", "spread", "bound", "raw worse",
             "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        a_all = base["workloads"].get(name, {}).get("untraced", [])
        b_all = change["workloads"].get(name, {}).get("untraced", [])
        if paired:
            kept = [(x, y) for x, y in zip(a_all, b_all)
                    if x is not None and y is not None]
            a_runs = [x for x, _ in kept]
            b_runs = [y for _, y in kept]
        else:
            a_runs = [r for r in a_all if r is not None]
            b_runs = [r for r in b_all if r is not None]
        if not a_runs or not b_runs:
            print("%-18s missing runs" % name)
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            worse, spread, v = verdict(m, a, b, paired)
            regressed = regressed or v == "regressed"
            # The same comparison before host-speed scaling, as a check on
            # the scaling.
            raw = ""
            if m["name"] in RAW_KEYS:
                key = RAW_KEYS[m["name"]]
                raw_worse, _, _ = verdict(
                    m, [r["info"]["host"][key] for r in a_runs],
                    [r["info"]["host"][key] for r in b_runs], paired)
                raw = "%+7.1f%%" % (100 * raw_worse)
            qa, qb = quartiles(a), quartiles(b)
            print("%-18s %-18s %25s %25s %+7.1f%% %7.1f%% %5.0f%% %8s  %s"
                  % (name, m["name"], "%.4g/%.4g/%.4g" % qa,
                     "%.4g/%.4g/%.4g" % qb, 100 * worse, 100 * spread,
                     100 * m["bound"], raw, v))
        digests_a = {r["seed"]: r["info"].get("digest") for r in a_runs}
        for r in b_runs:
            d = r["info"].get("digest")
            if d is not None and digests_a.get(r["seed"], d) != d:
                print("%-18s %-18s seed %d: %s -> %s  SIMULATED STATISTICS "
                      "CHANGED" % (name, "digest", r["seed"],
                                   digests_a[r["seed"]], d))
        for key in ("cpu", "simd", "nproc", "build_type"):
            pa = a_runs[0]["info"]["provenance"].get(key)
            pb = b_runs[0]["info"]["provenance"].get(key)
            if pa != pb:
                print("%-18s provenance %s differs: %s vs %s"
                      % (name, key, pa, pb))
    if not paired:
        print("\nThe runs were not interleaved pairs, so no gain is claimed; "
              "use --pair for at least %d pairs." % MIN_PAIRS)
    return regressed


def compare(args):
    loaded = []
    for path in args.compare:
        with open(path) as f:
            loaded.append(json.load(f))
    if len(loaded) == 1:
        if not loaded[0].get("paired"):
            log("run_benchmark: one file to --compare must come from --pair")
            sys.exit(2)
        regressed = print_comparison(loaded[0]["parent"], loaded[0]["change"],
                                     paired=True)
    else:
        regressed = print_comparison(loaded[0], loaded[1], paired=False)
    sys.exit(1 if regressed else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--reps", type=int,
                   help="repetitions (--all, default 5) or pairs "
                        "(--pair, default %d)" % MIN_PAIRS)
    p.add_argument("--out")
    p.add_argument("--pair", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    p.add_argument("--compare", nargs="+", metavar="RESULTS")
    args = p.parse_args()
    if args.compare:
        if len(args.compare) > 2:
            p.error("--compare takes one --pair file or two --all files")
        compare(args)
    elif args.pair:
        args.reps = args.reps or MIN_PAIRS
        run_pairs(args)
    elif args.all:
        args.reps = args.reps or 5
        run_all(args)
    elif args.workload:
        one_run(args)
    else:
        p.error("give --workload, --all, --pair or --compare")


if __name__ == "__main__":
    main()
