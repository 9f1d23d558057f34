#!/usr/bin/env python3
"""Machine-independent regression gate over google-benchmark JSON.

Raw nanosecond timings are not comparable across machines, so the gate
never compares them directly. Instead every benchmark in a file is
normalized by that same file's reference benchmark (the single-threaded
scalar sweep evaluation), and the committed snapshot's *ratios* are
compared against the freshly measured ones:

    fresh[b] / fresh[ref]  <=  (1 + tolerance) * committed[b] / committed[ref]

A benchmark is gated only when it appears in both files and matches
--filter; the default filter keeps the single-threaded entries, whose
ratios do not depend on the runner's core count.

The gate also enforces the batched path's headline win: the fresh file
must show the scalar reference running at least --min-speedup times
slower than its batched counterpart (0 disables the check).

Exit status: 0 clean, 1 regression or missing data.
"""

import argparse
import json
import re
import sys

DEFAULT_REFERENCE = "BM_SweepEvalScalar/1"
DEFAULT_BATCHED = "BM_SweepEvalBatched/1"
# Single-threaded entries only: multi-worker ratios depend on how many
# cores the runner has, which is exactly what normalization can't fix.
# The campaign rows carry google-benchmark's /real_time suffix (they
# time file-system work, so wall clock is what counts).
DEFAULT_FILTER = r"(/1$)|(/1/real_time$)|(NoRel)|(CampaignMerge)"


TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(paths):
    """benchmark name -> real_time in ns for the plain iteration rows
    of every file in `paths`."""
    if isinstance(paths, str):
        paths = [paths]
    times = {}
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        for row in doc.get("benchmarks", []):
            if row.get("run_type", "iteration") != "iteration":
                continue  # skip _mean/_median/_stddev aggregates
            scale = TIME_UNIT_NS.get(row.get("time_unit", "ns"), 1.0)
            times[row["name"]] = float(row["real_time"]) * scale
    if not times:
        sys.exit(f"error: {', '.join(paths)} hold no benchmark rows")
    return times


def normalized(times, reference, path):
    if reference not in times:
        sys.exit(f"error: {path} lacks reference '{reference}'")
    ref = times[reference]
    if ref <= 0.0:
        sys.exit(f"error: {path} reference time is {ref}")
    return {name: time / ref for name, time in times.items()}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("committed", help="committed snapshot JSON")
    parser.add_argument("fresh", nargs="+",
                        help="freshly measured JSON (several files "
                             "merge, e.g. perf_sweep + perf_campaign)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized slowdown (default 0.25)")
    parser.add_argument("--reference", default=DEFAULT_REFERENCE,
                        help="normalization benchmark (default %(default)s)")
    parser.add_argument("--filter", default=DEFAULT_FILTER,
                        help="regex of benchmarks to gate "
                             "(default %(default)s)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required fresh reference/batched speedup; "
                             "0 disables (default %(default)s)")
    parser.add_argument("--batched", default=DEFAULT_BATCHED,
                        help="batched counterpart of the reference "
                             "(default %(default)s)")
    args = parser.parse_args()

    committed = load_times(args.committed)
    fresh = load_times(args.fresh)
    fresh_label = ", ".join(args.fresh)
    committed_norm = normalized(committed, args.reference, args.committed)
    fresh_norm = normalized(fresh, args.reference, fresh_label)

    pattern = re.compile(args.filter)
    gated = [name for name in sorted(committed_norm)
             if name in fresh_norm and pattern.search(name)
             and name != args.reference]
    if not gated:
        sys.exit("error: no benchmarks matched the gate filter")

    failures = []
    for name in gated:
        was, now = committed_norm[name], fresh_norm[name]
        verdict = "ok"
        if now > (1.0 + args.tolerance) * was:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"{name}: committed x{was:.3f} -> fresh x{now:.3f} "
              f"of {args.reference} [{verdict}]")

    if args.min_speedup > 0.0:
        if args.batched not in fresh:
            sys.exit(f"error: {fresh_label} lacks '{args.batched}'")
        speedup = fresh[args.reference] / fresh[args.batched]
        verdict = "ok" if speedup >= args.min_speedup else "TOO SLOW"
        print(f"batched speedup: x{speedup:.2f} "
              f"(required x{args.min_speedup:.2f}) [{verdict}]")
        if speedup < args.min_speedup:
            failures.append("batched-speedup")

    if failures:
        print(f"bench gate FAILED: {', '.join(failures)}")
        return 1
    print(f"bench gate passed: {len(gated)} benchmarks within "
          f"{args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
