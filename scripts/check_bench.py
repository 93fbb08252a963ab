#!/usr/bin/env python3
"""Bench-regression gate: compare fresh bench JSONs to the committed baseline.

Usage:
    check_bench.py CANDIDATE [CANDIDATE ...]
                   [--baseline BENCH_hotpath_smoke.json [BENCH_server_smoke.json ...]]
                   [--tolerance 0.25] [--server-tolerance 1.0]
                   [--floor-ns 2000] [--alloc-slack 0.5]

Candidates and baselines may each be several files (bench_hotpath and
bench_server emit the same JSON schema); their case lists are merged before
comparison, so one invocation gates the whole bench surface. Every file must
have been measured in the same bench mode (the "mode" field), because smoke
runs amortize warmup over far fewer steps than full runs — the
whole-simulator cases systematically measure several times slower per step
in smoke mode, so a cross-mode comparison gates nothing but the mode
difference. The repo commits two baselines per benchmark:
BENCH_hotpath.json / BENCH_server.json (full mode, the perf-trajectory
artefacts) and BENCH_hotpath_smoke.json / BENCH_server_smoke.json (smoke
mode, what CI's bench job and the ctest smoke runs actually execute).
Regenerate them whenever the hot path or the server intentionally changes:

    build/bench/bench_hotpath --out BENCH_hotpath.json
    build/bench/bench_hotpath --smoke --out BENCH_hotpath_smoke.json
    build/bench/bench_server   --out BENCH_server.json
    build/bench/bench_server   --smoke --out BENCH_server_smoke.json

A candidate case regresses when BOTH hold:

  * ns_per_op exceeds baseline * (1 + tolerance), and
  * the absolute increase exceeds --floor-ns (shields sub-microsecond cases
    from timer noise on loaded CI runners).

Cases whose name starts with "server_" use --server-tolerance (default 1.0 =
+100%) instead of --tolerance: they measure sustained qps and tail latency
of a multi-threaded daemon through real sockets, which swings with runner
load far more than the single-threaded hot-path cases. Cross-machine runs
are additionally flagged by the provenance warnings (warn-only, as for every
case), and so is a server_qps_Nclients case whose N exceeds the
hardware_threads its file recorded.

allocs_per_op is gated much tighter: the zero-allocation contract is exact,
so any increase beyond --alloc-slack (default 0.5, absorbing warmup-fraction
jitter in smoke mode's short runs) fails. Cases present only in one file are
reported but never fail the gate (smoke and full mode measure the same case
names today; this keeps the gate usable if a mode ever drops one).

Exit code 0 = no regression, 1 = regression, 2 = bad invocation/input.
"""

import argparse
import json
import re
import sys

# Cases a candidate run must contain (see --require). The 256-core entries
# gate the modal backend's scaling claim; the campaign entries gate the
# execution layer's throughput claim (pinned workers + arena workspaces);
# the server entries gate the advice daemon's sustained-load claim.
REQUIRED_CASES = ("solver_setup_256", "sim_step_256core", "rotation_peak_256",
                  "campaign_run_64core", "campaign_run_256core",
                  "server_qps_8clients", "server_p99_us",
                  "server_qps_256core", "server_p99_256core_us")

# Additionally required in full mode only: the 1024-core scale-up entries.
# bench_hotpath skips them in smoke mode (the one-time 2049-node
# eigendecomposition is too heavy for the tier-1 ctest invocation), so they
# gate the full-mode perf-trajectory artefact but not the smoke baseline.
REQUIRED_CASES_FULL = ("sim_step_1024core", "rotation_peak_1024")


def load_cases(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        print(f"check_bench: {path} has no cases", file=sys.stderr)
        sys.exit(2)
    out = {}
    for c in cases:
        try:
            out[c["name"]] = (float(c["ns_per_op"]), float(c["allocs_per_op"]))
        except (KeyError, TypeError, ValueError) as e:
            print(f"check_bench: malformed case in {path}: {c!r} ({e})",
                  file=sys.stderr)
            sys.exit(2)
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict):
        provenance = {}
    return doc.get("mode", "unknown"), provenance, out


def load_merged(paths, role):
    """Loads several bench JSONs and merges their case dicts. All files must
    agree on the bench mode; a case name appearing twice is an invocation
    error (the same file passed twice, or two runs of one benchmark)."""
    mode = None
    provenance = {}
    merged = {}
    for path in paths:
        file_mode, file_prov, cases = load_cases(path)
        if mode is None:
            mode = file_mode
            provenance = file_prov
        elif file_mode != mode:
            print(f"check_bench: {role} files mix modes — {paths[0]} is "
                  f"'{mode}' but {path} is '{file_mode}'", file=sys.stderr)
            sys.exit(2)
        duplicates = set(merged) & set(cases)
        if duplicates:
            print(f"check_bench: case(s) {sorted(duplicates)} appear in more "
                  f"than one {role} file (at {path})", file=sys.stderr)
            sys.exit(2)
        merged.update(cases)
    return mode, provenance, merged


def warn_provenance(base_prov, cand_prov):
    """Warns (never fails) when the timing comparison crosses machines,
    SIMD dispatch tiers or build types — ns_per_op is only meaningful
    against a baseline measured in the same environment."""
    if not base_prov or not cand_prov:
        which = [name for name, p in (("baseline", base_prov),
                                      ("candidate", cand_prov)) if not p]
        print(f"check_bench: WARNING — no provenance in {' and '.join(which)} "
              "(old bench_hotpath build?); cannot verify the runs are "
              "comparable", file=sys.stderr)
        return
    for field in ("cpu", "dispatch", "build_type", "compiler"):
        base = base_prov.get(field, "unknown")
        cand = cand_prov.get(field, "unknown")
        if base != cand:
            print(f"check_bench: WARNING — {field} differs: baseline "
                  f"'{base}' vs candidate '{cand}'; timings are not "
                  "comparable across "
                  f"{'machines' if field == 'cpu' else field + 's'} and the "
                  "time gate may misfire either way", file=sys.stderr)
    # Host topology / pinning provenance (warn-only, like dispatch): the
    # campaign_run_* throughput cases saturate one worker per hardware
    # thread, so a different node count, CPUs-per-node, thread count or pin
    # policy shifts those timings without any code regression. Baselines
    # written before a field existed read as "unknown".
    for field in ("numa_nodes", "cpus_per_node", "hardware_threads",
                  "pin_policy"):
        base = base_prov.get(field, "unknown")
        cand = cand_prov.get(field, "unknown")
        if base != cand:
            print(f"check_bench: WARNING — topology field {field} differs: "
                  f"baseline '{base}' vs candidate '{cand}'; the "
                  "campaign-throughput cases scale with worker placement and "
                  "their time gate may misfire either way", file=sys.stderr)


def warn_oversubscribed(role, provenance, cases):
    """Warns (never fails) for each server_qps_Nclients case measured with
    more client threads than the host had hardware threads: such a case
    measures the scheduler's time slicing as much as the daemon."""
    hardware_threads = provenance.get("hardware_threads", "unknown")
    if not isinstance(hardware_threads, int) or hardware_threads <= 0:
        return  # "unknown": warn_provenance already flags the difference
    for name in sorted(cases):
        match = re.fullmatch(r"server_qps_(\d+)clients", name)
        if not match:
            continue
        clients = int(match.group(1))
        if clients > hardware_threads:
            print(f"check_bench: WARNING — {role} {name} ran {clients} "
                  f"clients on {hardware_threads} hardware threads; its qps "
                  "measures oversubscription, not multi-client scaling",
                  file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("candidates", nargs="+", metavar="CANDIDATE",
                    help="fresh bench JSON(s) to check; case lists are merged")
    ap.add_argument("--baseline", nargs="+",
                    default=["BENCH_hotpath_smoke.json"],
                    help="committed baseline JSON(s); case lists are merged")
    ap.add_argument("--allow-mode-mismatch", action="store_true",
                    help="compare across bench modes anyway (see docstring)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="relative ns_per_op headroom (default 0.25 = +25%%)")
    ap.add_argument("--server-tolerance", type=float, default=1.0,
                    help="relative headroom for server_* cases (default 1.0 "
                         "= +100%%; daemon qps/latency swing with runner "
                         "load)")
    ap.add_argument("--floor-ns", type=float, default=2000.0,
                    help="absolute ns_per_op slack floor (default 2000)")
    ap.add_argument("--alloc-slack", type=float, default=0.5,
                    help="allowed allocs_per_op increase (default 0.5)")
    ap.add_argument("--require", action="append", default=None,
                    metavar="CASE",
                    help="case name that must be present in the candidate "
                         "(repeatable; default: the 256-core scale-up and "
                         "server-load entries). Pass --require '' to require "
                         "nothing.")
    args = ap.parse_args()

    base_mode, base_prov, baseline = load_merged(args.baseline, "baseline")
    cand_mode, cand_prov, candidate = load_merged(args.candidates,
                                                  "candidate")
    warn_provenance(base_prov, cand_prov)
    warn_oversubscribed("baseline", base_prov, baseline)
    warn_oversubscribed("candidate", cand_prov, candidate)
    if base_mode != cand_mode and not args.allow_mode_mismatch:
        print(f"check_bench: mode mismatch — baseline is '{base_mode}' but "
              f"candidate is '{cand_mode}'; smoke and full runs are not "
              "comparable (pass --allow-mode-mismatch to override)",
              file=sys.stderr)
        sys.exit(2)

    # The 256-core scale-up and server-load entries are load-bearing (they
    # gate the modal backend's scaling claim and the advice daemon's
    # throughput claim): their absence from a fresh run is a failure, not a
    # skip.
    required = (args.require if args.require is not None
                else list(REQUIRED_CASES)
                + (list(REQUIRED_CASES_FULL) if cand_mode == "full" else []))
    missing_required = [n for n in required if n and n not in candidate]
    if missing_required:
        print("check_bench: required case(s) missing from candidate: "
              + ", ".join(missing_required), file=sys.stderr)
        return 1

    failures = []
    print(f"{'case':<34} {'base ns':>12} {'now ns':>12} "
          f"{'ratio':>7} {'base a/op':>10} {'now a/op':>9}")
    for name in sorted(set(baseline) | set(candidate)):
        if name not in candidate:
            print(f"{name:<34} (missing from candidate — skipped)")
            continue
        if name not in baseline:
            print(f"{name:<34} (new case, no baseline — skipped)")
            continue
        base_ns, base_allocs = baseline[name]
        now_ns, now_allocs = candidate[name]
        tolerance = (args.server_tolerance if name.startswith("server_")
                     else args.tolerance)
        ratio = now_ns / base_ns if base_ns > 0 else float("inf")
        verdicts = []
        if (now_ns > base_ns * (1.0 + tolerance)
                and now_ns - base_ns > args.floor_ns):
            verdicts.append(f"time regressed {ratio:.2f}x")
        if now_allocs > base_allocs + args.alloc_slack:
            verdicts.append(
                f"allocs regressed {base_allocs:.3f} -> {now_allocs:.3f}")
        flag = "  FAIL: " + "; ".join(verdicts) if verdicts else ""
        print(f"{name:<34} {base_ns:>12.1f} {now_ns:>12.1f} "
              f"{ratio:>6.2f}x {base_allocs:>10.3f} {now_allocs:>9.3f}{flag}")
        if verdicts:
            failures.append((name, verdicts))

    if failures:
        print(f"\ncheck_bench: {len(failures)} regressed case(s):",
              file=sys.stderr)
        for name, verdicts in failures:
            print(f"  {name}: {'; '.join(verdicts)}", file=sys.stderr)
        return 1
    print("\ncheck_bench: OK — no regressions "
          f"(tolerance +{args.tolerance:.0%}, server +"
          f"{args.server_tolerance:.0%}, floor {args.floor_ns:.0f} ns, "
          f"alloc slack {args.alloc_slack})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
