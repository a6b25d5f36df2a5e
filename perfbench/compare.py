"""Compare benchmark runs of a parent and a change, metric by metric.

    python3 perfbench/compare.py --parent ../parent --change . --out pairs.jsonl
    python3 perfbench/compare.py --results pairs.jsonl

The first form runs alternating pairs in two source checkouts that hold the
same ``perfbench/``: pair i runs both sides on seed ``BASE_SEED + i``, and the
side that goes first alternates.  Every run is appended to ``--out`` as one
JSON line.  The second form judges saved runs again.

For every workload and every end-to-end metric of ``BENCHMARK.json``:

- gain: the change wins at least 9 of 10 pairs (ties count for neither),
  the medians differ by more than the parent's interquartile range, and the
  change fails no more ops than the parent;
- unresolved: the spread (interquartile range over median) of either side
  exceeds the metric's bound, unless every change run beats every parent run;
- regressed: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- within bound: none of the above.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import run

MIN_PAIRS = 10
WIN_SHARE = 0.9
BASE_SEED = 1000


def judge(parent, change, better, bound, more_failures=False):
    """The verdict for one metric on one workload; values in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = run.quartiles(parent)
    c1, cm, c3 = run.quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    improved = sign * (cm - pm) > 0
    if (improved and wins >= WIN_SHARE * len(parent) and abs(cm - pm) > p3 - p1
            and not more_failures):
        verdict = "gain"
    elif (max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound
          and not all(sign * (c - p) > 0 for p in parent for c in change)):
        verdict = "unresolved"
    elif sign * (pm - cm) / abs(pm) > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(parent), "verdict": verdict}


def report(records, spec, out=None):
    """Print one row per (workload, metric); returns False on a regression,
    on more failed ops, or on too few pairs."""
    runs = {}
    for r in records:
        runs.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]
    clean = True
    fmt = "%-11s %-13s %-28s %-28s %-6s %s"
    print(fmt % ("workload", "metric", "parent q1/median/q3", "change q1/median/q3",
                 "wins", "verdict"), file=out)
    for workload in sorted(runs):
        pairs = [p for _, p in sorted(runs[workload].items())
                 if "parent" in p and "change" in p]
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        attempted = {side: sum(p[side]["attempted"] for p in pairs)
                     for side in ("parent", "change")}
        more_failures = failed["change"] > failed["parent"]
        print("%-11s failed ops: parent %d of %d, change %d of %d%s"
              % (workload, failed["parent"], attempted["parent"], failed["change"],
                 attempted["change"], "  MORE FAILURES" if more_failures else ""),
              file=out)
        clean = clean and not more_failures
        if len(pairs) < MIN_PAIRS:
            print("%-11s only %d complete pairs; need %d" % (workload, len(pairs), MIN_PAIRS),
                  file=out)
            clean = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = judge([p["parent"]["metrics"][name]["value"] for p in pairs],
                        [p["change"]["metrics"][name]["value"] for p in pairs],
                        metric["better"], metric["bound"], more_failures)
            print(fmt % (workload, name, "%.4g / %.4g / %.4g" % row["parent"],
                         "%.4g / %.4g / %.4g" % row["change"],
                         "%d/%d" % (row["wins"], row["pairs"]), row["verdict"]), file=out)
            clean = clean and row["verdict"] != "regressed"
    return clean


def bench_digest(checkout):
    """A digest of a checkout's benchmark sources, to refuse unequal ones."""
    h = hashlib.sha256()
    base = os.path.join(checkout, "perfbench")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__")
                             and not d.startswith(".work-"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_pairs(args, spec, out_path):
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if bench_digest(sides["parent"]) != bench_digest(sides["change"]):
        sys.exit("error: the two checkouts hold different perfbench/ sources")
    records = []
    with open(out_path, "a", encoding="utf-8") as log:
        for workload in (w["name"] for w in spec["workloads"]):
            for i in range(MIN_PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(BASE_SEED + i),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.PIPE,
                                          text=True, check=False)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        sys.exit("error: %s run of %s exited %d"
                                 % (side, workload, proc.returncode))
                    record = {"workload": workload, "pair": i, "side": side,
                              "seed": BASE_SEED + i, "result": json.loads(lines[-1])}
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    records.append(record)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--results", help="judge the runs saved in this file instead")
    parser.add_argument("--out", default="perfbench/out/pairs.jsonl",
                        help="file the runs are appended to")
    args = parser.parse_args(argv)
    spec = run.load_spec()
    if args.results:
        with open(args.results, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    elif args.parent and args.change:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        records = run_pairs(args, spec, args.out)
    else:
        parser.error("give --parent and --change, or --results")
    return 0 if report(records, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
