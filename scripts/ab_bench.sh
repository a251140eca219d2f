#!/usr/bin/env bash
# A/B benchmark: perfbench on the working tree against another revision,
# in alternating pairs of runs.
#
#   scripts/ab_bench.sh <rev> <workload> [pairs] [seconds] [seed]
#
# <rev> is exported with `git archive` into .bench_build/ab/<sha>/src
# (once per revision), and perfbench is built `--offline` in release
# mode for <rev> and for the working tree, into separate target dirs
# under .bench_build/ab/. Each pair runs both builds once, untraced, on
# the same workload and seed, the order alternating from pair to pair.
# `seconds` defaults to BENCHMARK.json's run_seconds, `pairs` to 10 and
# `seed` to 1.
#
# Prints, for each end-to-end metric of BENCHMARK.json, the median and
# quartiles of each side and the number of pairs the working tree won,
# plus the unbounded throughput metrics (pipeline_mips, interp_mips,
# cases_per_s) where the workload reports them. Writes the same figures,
# keyed by metric name, to BENCH_<workload>.json at the repository root;
# a set with the same base revision and seed replaces an earlier one,
# other sets are kept.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
usage="usage: scripts/ab_bench.sh <rev> <workload> [pairs] [seconds] [seed]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-$(jq .run_seconds BENCHMARK.json)}
seed=${5:-1}
sha=$(git rev-parse --verify "$rev^{commit}")

cache=$root/.bench_build/ab
base_src=$cache/$sha/src
if [[ ! -d $base_src ]]; then
    rm -rf "$base_src.part"
    mkdir -p "$base_src.part"
    git archive "$sha" | tar -x -C "$base_src.part"
    mv "$base_src.part" "$base_src"
fi
echo "==> building perfbench at $rev ($sha)"
cargo build --release --offline -q --manifest-path "$base_src/perfbench/Cargo.toml" \
    --target-dir "$cache/$sha/target"
echo "==> building perfbench in the working tree"
cargo build --release --offline -q --manifest-path "$root/perfbench/Cargo.toml" \
    --target-dir "$cache/tree/target"

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

# run_side SIDE PAIR: one untraced run; keeps perfbench's last line.
run_side() {
    local side=$1 pair=$2 dir bin
    if [[ $side == base ]]; then
        dir=$base_src bin=$cache/$sha/target/release/perfbench
    else
        dir=$root bin=$cache/tree/target/release/perfbench
    fi
    (cd "$dir" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        > "$runs/$side.$pair.out" || true
    tail -n 1 "$runs/$side.$pair.out" > "$runs/$side.$pair.json"
}

echo "==> $pairs pairs of $workload, seed $seed, $seconds s per run"
for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then
        run_side base "$pair"
        run_side tree "$pair"
    else
        run_side tree "$pair"
        run_side base "$pair"
    fi
    echo "  pair $((pair + 1))/$pairs done"
done

python3 - "$runs" "$root/BENCHMARK.json" "$root/BENCH_$workload.json" \
    "$workload" "$sha" "$seed" "$seconds" "$pairs" <<'EOF'
import json, os, subprocess, sys

runs, manifest, out, workload, sha, seed, seconds, pairs = sys.argv[1:]
pairs, seed, seconds = int(pairs), int(seed), float(seconds)
bench = json.load(open(manifest))

def load(side):
    """Each run's last line, with the printed-only metrics (`name value
    unit` lines, e.g. pipeline_mips) added to its metrics."""
    result = []
    for pair in range(pairs):
        try:
            run = json.load(open(f"{runs}/{side}.{pair}.json"))
        except ValueError:
            run = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        for line in open(f"{runs}/{side}.{pair}.out"):
            fields = line.split()
            if len(fields) == 3 and line.startswith("  "):
                try:
                    value = float(fields[1])
                except ValueError:
                    continue
                run["metrics"].setdefault(fields[0], {"value": value, "unit": fields[2]})
        result.append(run)
    return result

base, tree = load("base"), load("tree")

def quantile(values, q):
    v = sorted(values)
    at = (len(v) - 1) * q
    lo = int(at)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (at - lo)

def summary(values):
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "runs": values}

throughput = [
    {"name": name, "unit": unit, "better": "higher", "bound": None}
    for name, unit in [("pipeline_mips", "MIPS"), ("interp_mips", "MIPS"), ("cases_per_s", "1/s")]
]
metrics = {}
print(f"{'metric':<14} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'delta':>8} {'wins':>6}")
for spec in bench["end_to_end"] + throughput:
    name = spec["name"]
    values = [[r["metrics"].get(name, {}).get("value") for r in side] for side in (base, tree)]
    if any(v is None for side in values for v in side):
        continue
    b, t = values
    lower = spec["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, t))
    sb, st = summary(b), summary(t)
    delta = st["median"] / sb["median"] - 1 if sb["median"] else 0.0
    metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound"),
                     "base": sb, "change": st, "delta_median": delta, "change_better": wins}
    fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
    print(f"{name:<14} {fmt(sb):>30} {fmt(st):>30} {delta:>+8.1%} {wins:>3}/{pairs}")

def failures(side):
    return {"attempted": sum(r["attempted"] for r in side),
            "failed": sum(r["failed"] for r in side),
            "all_correct": all(r["correct"] for r in side)}

ops = {"base": failures(base), "change": failures(tree)}
for label, f in ops.items():
    print(f"{label}: {f['failed']} of {f['attempted']} operations failed, all correct: {f['all_correct']}")

head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                       capture_output=True, text=True).stdout.strip() != ""
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "?")
record = {"base": sha, "change": head + (" + working-tree changes" if dirty else ""),
          "seed": seed, "seconds": seconds, "pairs": pairs,
          "host": f"{os.cpu_count()} vCPU, {cpu}", "operations": ops, "metrics": metrics}
doc = json.load(open(out)) if os.path.exists(out) else {"workload": workload, "sets": []}
doc["sets"] = [s for s in doc["sets"] if (s["base"], s["seed"]) != (sha, seed)] + [record]
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"==> wrote {os.path.relpath(out)}")
EOF
