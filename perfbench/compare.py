#!/usr/bin/env python3
"""Compares two sets of recorded benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --record FILE` appends. For every
workload, trace mode and metric the script prints each side's median and
quartiles and the change of the median. It refuses (exit code 2) when the
two sides were measured on different machines (a different fingerprint,
ignoring the commit and source hash), or when `job_ms_tail` of one workload
reads different percentiles.
"""

import argparse
import json
import statistics
import sys

# Fingerprint fields that identify the code, not the machine.
CODE_FIELDS = {"git_commit", "source_sha256"}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def machines(records):
    return {json.dumps({k: v for k, v in r["fingerprint"].items() if k not in CODE_FIELDS},
                       sort_keys=True) for r in records}


def tail_percentiles(records):
    out = {}
    for r in records:
        if r["trace"] == 0:
            out.setdefault(r["workload"], set()).add(r.get("tail_percentile"))
    return out


def refuse(msg, lines):
    print(msg, file=sys.stderr)
    for line in lines:
        print("  " + line, file=sys.stderr)
    sys.exit(2)


def series(records):
    out = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    ms = machines(base) | machines(new)
    if len(ms) > 1:
        refuse("refusing to compare runs from different machines:", sorted(ms))
    tb, tn = tail_percentiles(base), tail_percentiles(new)
    for w in sorted(tb.keys() | tn.keys()):
        ps = tb.get(w, set()) | tn.get(w, set())
        if len(ps) > 1:
            refuse(f"refusing to compare {w}: job_ms_tail reads different percentiles:",
                   [f"p{p}" for p in sorted(ps, key=str)])
    sb, sn = series(base), series(new)
    print("workload\ttrace\tmetric\tbase q1/med/q3\tnew q1/med/q3\tchange")
    for key in sorted(sb.keys() & sn.keys()):
        b, n = summary(sb[key]), summary(sn[key])
        change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
        print(f"{key[0]}\t{key[1]}\t{key[2]}\t"
              f"{b[0]:.4g}/{b[1]:.4g}/{b[2]:.4g}\t{n[0]:.4g}/{n[1]:.4g}/{n[2]:.4g}\t{change:+.2%}")


if __name__ == "__main__":
    main()
