"""Compare `bench/run.sh --json` results of a base and a head commit.

    python3 .github/bench_gate.py BENCHMARK.json BASE.json... HEAD.json...

The result files split in half, the base's runs first. For every workload
and every end_to_end metric of BENCHMARK.json it prints the base and head
medians over the runs and their ratio. It exits 1 when a head median is
worse than the base's by more than the metric's bound, when a head run
reports correct: false, or when a head run fails a larger share of its
operations than the base's runs do.
"""
import json
import statistics
import sys


def main(args):
    if len(args) < 3 or len(args) % 2 == 0:
        sys.exit("usage: bench_gate.py BENCHMARK.json BASE.json... HEAD.json... (as many of each)")
    spec, paths = json.load(open(args[0])), args[1:]
    runs = []
    for p in paths:
        try:
            runs.append(json.load(open(p)))
        except (OSError, ValueError) as e:
            sys.exit(f"FAIL {p}: no benchmark result: {e}")
    base, head = runs[: len(runs) // 2], runs[len(runs) // 2 :]
    fails = []
    print(f"{'workload':22} {'metric':22} {'base':>12} {'head':>12} {'ratio':>7}")
    for w in (w["name"] for w in spec["workloads"]):
        if any(w not in r for r in head):
            fails.append(f"{w}: missing from a head run")
            continue
        if any(w not in r for r in base):
            print(f"{w:22} not in every base run; not compared")
            continue
        failed = sum(r[w]["failed"] for r in base) / max(1, sum(r[w]["attempted"] for r in base))
        for i, r in enumerate(head, 1):
            if not r[w]["correct"]:
                fails.append(f"{w}: head run {i} reports correct: false")
            if r[w]["failed"] / max(1, r[w]["attempted"]) > failed:
                fails.append(f"{w}: head run {i} fails {r[w]['failed']} of {r[w]['attempted']}, more than the base")
        for m in spec["end_to_end"]:
            if any(m["name"] not in r[w]["metrics"] for r in head):
                fails.append(f"{w}: {m['name']} missing from a head run")
                continue
            if any(m["name"] not in r[w]["metrics"] for r in base):
                print(f"{w:22} {m['name']:22} not in every base run; not compared")
                continue
            b, h = (statistics.median(r[w]["metrics"][m["name"]]["value"] for r in side) for side in (base, head))
            ratio = h / b if b else (1.0 if h == b else float("inf"))
            worse = ratio > 1 + m["bound"] if m["better"] == "lower" else ratio < 1 - m["bound"]
            print(f"{w:22} {m['name']:22} {b:12.4g} {h:12.4g} {ratio:7.3f}{'  FAIL' if worse else ''}")
            if worse:
                fails.append(f"{w}: {m['name']} {ratio:.3f}x the base, beyond the {m['bound']} bound")
    for f in fails:
        print("FAIL", f)
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
