#!/usr/bin/env bash
# Byte-identity check: the shipped outputs of the working tree must
# equal those of another revision, byte for byte.
#
#   scripts/same_outputs.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory (so the
# repository's own .git is left untouched), builds it and the working
# tree in release mode offline, and runs the same command set on each
# build:
#   - reproduce all;
#   - masm on crates/pipeline/tests/golden/msim_prog.s, then
#     msim --perf --trace --metrics on that image on both engines;
#   - mfuzz --seed 1 --cases 400, --inject-bug mul --seed 7 --cases 200
#     and --lint --seed 11 --cases 120, each with its corpus;
#   - mfault --seed 1 --cases 200 --json and
#     mfault --seed 7 --cases 60 --workload fuzz --engine interp --json.
# Every command's stdout, stderr, exit status and written files are kept,
# with the output directory replaced by <out>, and the two sets are
# compared with `diff -r`. Exits non-zero on any difference.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
rev=${1:?usage: scripts/same_outputs.sh <rev>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "==> building $rev"
mkdir "$work/src"
git archive "$rev" | tar -x -C "$work/src"
(cd "$work/src" && cargo build --release --offline -q --workspace)
echo "==> building the working tree"
cargo build --release --offline -q --workspace

# run NAME COMMAND...: records the command's stdout, stderr and status.
run() {
    local name=$1 status=0
    shift
    "$@" > "$out/$name.stdout" 2> "$out/$name.stderr" || status=$?
    echo "$status" > "$out/$name.status"
}

# run_set BIN_DIR OUT_DIR: runs the whole command set with one build.
run_set() {
    local bin=$1
    out=$2
    mkdir "$out"
    run reproduce "$bin/reproduce" all
    run masm "$bin/masm" "$root/crates/pipeline/tests/golden/msim_prog.s" -o "$out/prog.bin"
    for engine in pipeline interp; do
        run "msim_$engine" "$bin/msim" "$out/prog.bin" --engine "$engine" --perf \
            --trace "$out/msim_$engine.trace.json" --metrics "$out/msim_$engine.metrics.json"
    done
    run mfuzz_seed1 "$bin/mfuzz" --seed 1 --cases 400 --corpus "$out/corpus_seed1"
    run mfuzz_mul "$bin/mfuzz" --inject-bug mul --seed 7 --cases 200 --corpus "$out/corpus_mul"
    run mfuzz_lint "$bin/mfuzz" --lint --seed 11 --cases 120 --corpus "$out/corpus_lint"
    run mfault_seed1 "$bin/mfault" --seed 1 --cases 200 --json "$out/mfault_seed1.json"
    run mfault_fuzz "$bin/mfault" --seed 7 --cases 60 --workload fuzz --engine interp \
        --json "$out/mfault_fuzz.json"
    grep -rlZ -F "$out" "$out" | xargs -0 -r sed -i "s#$out#<out>#g"
}

echo "==> running the command set on both builds"
run_set "$work/src/target/release" "$work/base"
run_set "$root/target/release" "$work/tree"
if diff -r "$work/base" "$work/tree"; then
    echo "==> outputs are byte-identical to $rev"
else
    echo "==> outputs differ from $rev" >&2
    exit 1
fi
