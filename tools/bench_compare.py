#!/usr/bin/env python3
"""Compare google-benchmark JSON output against a baseline and fail on
regressions in named benchmark families.

Usage (local, same machine as the baseline):

    python3 tools/bench_compare.py \
        --baseline BENCH_micro.json --current /tmp/bench_out.json \
        --families BM_LoopHopPacket BM_PacketSlabPutTake --threshold 0.15

Usage (CI, different machine than the baseline): normalize both runs by an
anchor benchmark first, so only the *relative* structure is compared —
"batched hop is N x the plain schedule loop" carries across machines even
though absolute nanoseconds do not:

    python3 tools/bench_compare.py \
        --baseline BENCH_micro.json --current /tmp/bench_out.json \
        --families BM_LoopHopPacket --anchor BM_EventLoopScheduleRun/10000

Inputs may be raw `--benchmark_format=json` output or the repo's
BENCH_micro.json (whose `benchmarks` array uses the same schema). Only the
Python standard library is used.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Returns {name: entry} from a google-benchmark JSON file (or any JSON
    object with a compatible `benchmarks` array)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("name")
        # Skip aggregate rows (mean/median/stddev) — compare raw runs only.
        if name and entry.get("run_type", "iteration") == "iteration":
            out[name] = entry
    return out


def metric(entry):
    """(value, higher_is_better) — throughput when reported, else time."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"]), True
    return float(entry["real_time"]), False


def in_families(name, families):
    return any(name.startswith(f) for f in families)


def compare(baseline, current, families, threshold, anchor):
    """Yields (name, change) where change > 0 means regression fraction."""
    base_anchor = cur_anchor = 1.0
    if anchor:
        if anchor not in baseline or anchor not in current:
            sys.exit(f"bench_compare: anchor '{anchor}' missing from input")
        base_anchor, _ = metric(baseline[anchor])
        cur_anchor, _ = metric(current[anchor])
    for name, base_entry in sorted(baseline.items()):
        if not in_families(name, families) or name not in current:
            continue
        base_value, higher_better = metric(base_entry)
        cur_value, _ = metric(current[name])
        if anchor:
            base_value /= base_anchor
            cur_value /= cur_anchor
        if base_value == 0:
            continue
        if higher_better:
            change = (base_value - cur_value) / base_value
        else:
            change = (cur_value - base_value) / base_value
        yield name, change, higher_better


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON (e.g. BENCH_micro.json)")
    parser.add_argument("--current", required=True,
                        help="fresh --benchmark_format=json output")
    parser.add_argument("--families", nargs="+", required=True,
                        help="benchmark-name prefixes to compare")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated regression fraction (default 0.15)")
    parser.add_argument("--anchor", default=None,
                        help="normalize both runs by this benchmark first "
                             "(for cross-machine comparison)")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    failures = []
    compared = 0
    for name, change, higher_better in compare(
            baseline, current, args.families, args.threshold, args.anchor):
        compared += 1
        status = "FAIL" if change > args.threshold else "ok"
        kind = "items/s" if higher_better else "time"
        print(f"{status:>4}  {name}: {kind} changed {change:+.1%} "
              f"(threshold {args.threshold:.0%})")
        if change > args.threshold:
            failures.append(name)
    if compared == 0:
        sys.exit("bench_compare: no benchmarks matched the named families")

    if failures:
        print(f"bench_compare: {len(failures)} regression(s): "
              f"{', '.join(failures)}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
