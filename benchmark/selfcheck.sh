#!/usr/bin/env bash
# Noise self-check: two sets of RUNS runs of every workload on one build,
# alternating workloads, each run with another seed. Prints each set's median
# and quartiles per end-to-end metric and fails if any pair of set medians
# differs by more than half the metric's bound, if any set's quartile spread
# exceeds the bound, or if BENCHMARK.json is not what the binary describes.
# One traced run per workload follows, for the per-layer table.
#
#   benchmark/selfcheck.sh > benchmark/BASELINE.md
#
# Environment: RUNS (default 5, at least 5), SEED0 (default 1).
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${RUNS:-5}
SEED0=${SEED0:-1}
if [ "$RUNS" -lt 5 ]; then
    echo "selfcheck: RUNS must be at least 5" >&2
    exit 2
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN=${CARGO_TARGET_DIR:-benchmark/target}/release/tm-benchmark

if ! "$BIN" describe | cmp -s - BENCHMARK.json; then
    echo "selfcheck: BENCHMARK.json differs from 'tm-benchmark describe'" >&2
    exit 1
fi

mkdir -p benchmark/out
LOG=benchmark/out/selfcheck.jsonl
: > "$LOG"
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

seed=$SEED0
for pass in 1 2; do
    for _ in $(seq "$RUNS"); do
        for w in $WORKLOADS; do
            result=$("$BIN" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
            echo "{\"set\": $pass, \"workload\": \"$w\", \"seed\": $seed, \"result\": $result}" >> "$LOG"
            echo "set $pass $w seed $seed done" >&2
        done
        seed=$((seed + 1))
    done
done
for w in $WORKLOADS; do
    result=$("$BIN" --workload "$w" --seed "$SEED0" --seconds "$SECONDS_PER_RUN" --trace 1 | tail -n 1)
    echo "{\"set\": 0, \"workload\": \"$w\", \"seed\": $SEED0, \"result\": $result}" >> "$LOG"
    echo "traced $w done" >&2
done

python3 - "$LOG" "$RUNS" <<'EOF'
import collections, json, statistics, subprocess, sys

log, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
workloads = [w["name"] for w in bench["workloads"]]

sets = collections.defaultdict(lambda: collections.defaultdict(list))  # (workload, set) -> metric -> values
layers = {}
failed = 0
for line in open(log):
    row = json.loads(line)
    res = row["result"]
    failed += res["failed"] + (0 if res["correct"] else 1)
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if row["set"] == 0:
        layers[row["workload"]] = values
    else:
        for k, v in values.items():
            sets[(row["workload"], row["set"])][k].append(v)

def fmt(x):
    return f"{x:.6g}"

def quartiles(v):
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]

cpus = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
print("# Benchmark baseline (output of `benchmark/selfcheck.sh`)")
print()
print(f"Two sets of {runs} runs per workload on one build, workloads alternating, a new seed")
print(f"per run; {bench['run_seconds']} s measured per run; {cpus} CPUs. `spread` is (q3 - q1) / median within a set;")
print("`drift` is how much worse set 2's median is than set 1's (negative: better).")
print("A drift beyond half the bound, or a spread beyond the bound, fails the check.")
print()
print("## End-to-end metrics")
print()
print("| workload | metric | unit | bound | set 1 q1 / median / q3 | set 2 q1 / median / q3 | spread 1 | spread 2 | drift | ok |")
print("|---|---|---|---|---|---|---|---|---|---|")
bad = []
for w in workloads:
    for name, bound in bounds.items():
        a, b = sets[(w, 1)][name], sets[(w, 2)][name]
        qa, qb = quartiles(a), quartiles(b)
        spread = [(q[2] - q[0]) / q[1] for q in (qa, qb)]
        drift = (qb[1] - qa[1]) / qa[1]
        ok = abs(drift) <= bound / 2 and (name == "setup_s" or max(spread) <= bound)
        if name == "virtual_ms" and sorted(a) != sorted(set(a)):
            ok = False  # a deterministic time must still differ from seed to seed
        if not ok:
            bad.append(f"{w}/{name}")
        cells = [w, name, units[name], f"{bound:.1%}",
                 " / ".join(map(fmt, qa)), " / ".join(map(fmt, qb)),
                 f"{spread[0]:.2%}", f"{spread[1]:.2%}", f"{drift:+.2%}", "yes" if ok else "**NO**"]
        print("| " + " | ".join(cells) + " |")
print()
print("## Per-layer metrics (one traced run per workload)")
print()
print("| metric | unit | " + " | ".join(workloads) + " |")
print("|---|---|" + "---|" * len(workloads))
for m in bench["per_layer"]:
    print(f"| {m['name']} | {m['unit']} | " + " | ".join(fmt(layers[w][m["name"]]) for w in workloads) + " |")
print()

print("## Do the workloads separate the layers?")
print()
sep = []
# The scheduler-bound workload must cost less host time per message than the
# compute-bound control, by 2x, and lose more to a second CPU.
x, y = layers["sync64_fast"]["sim.host_us_per_msg"], layers["sor16_fast"]["sim.host_us_per_msg"]
sep.append(y / x >= 2)
print(f"- `sim.host_us_per_msg`: sync64_fast {fmt(x)} vs sor16_fast {fmt(y)} — {y / x:.1f}x apart ({'ok' if y / x >= 2 else 'NOT 2x'})")
x, y = layers["sync64_fast"]["sim.multicore_penalty"], layers["sor16_fast"]["sim.multicore_penalty"]
sep.append(x > y)
print(f"- `sim.multicore_penalty`: sync64_fast {fmt(x)} vs sor16_fast {fmt(y)} — {x / y:.1f}x apart ({'ok' if x > y else 'NOT larger'})")
for name in ("tmk.rpc.retransmits", "udp.dgrams_dropped"):
    only = all((layers[w][name] > 0) == (w == "mig8_udp_loss") for w in workloads)
    sep.append(only)
    print(f"- `{name}` non-zero only on mig8_udp_loss: {'ok' if only else 'NO'} (" +
          ", ".join(f"{w} {fmt(layers[w][name])}" for w in workloads) + ")")
print()
if failed:
    bad.append(f"{failed} failed rep(s)")
if not all(sep):
    bad.append("layer separation")
print("**Self-check: " + ("PASS" if not bad else "FAIL — " + ", ".join(bad)) + "**")
sys.exit(1 if bad else 0)
EOF
