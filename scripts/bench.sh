#!/usr/bin/env sh
# A/B performance comparison of the working tree against another commit,
# on this machine, in one session.
#
#   scripts/bench.sh <base-rev>
#
# Exports <base-rev> with `git archive` into a temporary directory, builds
# rootbench there and in the working tree, then runs `rootbench all` at its
# default length (BENCHMARK.json's run_seconds) ten times on the base (A)
# and ten times on the working tree (B), interleaved A B, B A, A B, ..., so
# drift of the host during the session hits both sides alike. Each run
# gives one value per (workload, metric): its median over passes. The ten
# runs of a side are pooled into one record, and a single `rootbench
# compare` judges the medians of those ten values against the working
# tree's BENCHMARK.json bounds; a metric whose runs spread wider than its
# bound reads `unresolved`. Exits non-zero on any failed check or any
# `worse` row (compare also counts a new failure as worse). Needs `jq` for
# the pooling. Records and logs are kept in $BENCH_OUT (default: a fresh
# temporary directory, printed at the end).
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/bench.sh <base-rev>" >&2
  exit 2
fi
command -v jq >/dev/null || {
  echo "bench.sh: needs jq to pool the runs" >&2
  exit 2
}
base_rev=$1
base_commit=$(git rev-parse --verify "$base_rev^{commit}")
rounds=10

export_dir=$(mktemp -d)
trap 'rm -rf "$export_dir"' EXIT
out=${BENCH_OUT:-$(mktemp -d)}
mkdir -p "$out"

git archive "$base_commit" | tar -x -C "$export_dir"
if [ ! -f "$export_dir/rootbench/Cargo.toml" ]; then
  echo "bench.sh: $base_rev has no rootbench/ to compare against" >&2
  exit 2
fi
# rootbench stamps each record with the revision in ./.git/HEAD. An export
# has no .git, so give it a detached HEAD holding the base commit.
mkdir "$export_dir/.git"
echo "$base_commit" >"$export_dir/.git/HEAD"
echo "building rootbench at $base_rev ($base_commit) and in the working tree"
cargo build --release --offline --quiet --manifest-path "$export_dir/rootbench/Cargo.toml" \
  --target-dir "$export_dir/target"
cargo build --release --offline --quiet --manifest-path rootbench/Cargo.toml \
  --target-dir rootbench/target
a_bin="$export_dir/target/release/rootbench"
b_bin="$PWD/rootbench/target/release/rootbench"

status=0
run_a() {
  (cd "$export_dir" && "$a_bin" all --out "$out/A$i.json" >"$out/A$i.log") || {
    echo "bench.sh: run $i: $base_rev failed a check, see $out/A$i.log" >&2
    status=1
  }
}
# B runs in the working tree, so its records carry the working tree's HEAD
# revision, even when uncommitted changes sit on top of it.
run_b() {
  "$b_bin" all --out "$out/B$i.json" >"$out/B$i.log" || {
    echo "bench.sh: run $i: the working tree failed a check, see $out/B$i.log" >&2
    status=1
  }
}
i=1
while [ "$i" -le "$rounds" ]; do
  echo "run $i of $rounds"
  # Alternate which side goes first, so neither always runs on a host
  # the other has just warmed.
  if [ $((i % 2)) -eq 1 ]; then
    run_a
    run_b
  else
    run_b
    run_a
  fi
  i=$((i + 1))
done

# Folds one side's runs into the record shape `compare` reads: per
# (workload, metric), `values` holds each run's median; failed_share is the
# worst run's, and the fingerprint lists every distinct one the runs gave.
pool() {
  jq -s '{workloads: ([.[].workloads[]] | group_by(.workload) | map(. as $runs | {
    workload: .[0].workload,
    failed_share: (map(.failed_share) | max),
    fingerprint: (map(.fingerprint) | unique | join(" / ")),
    metrics: (.[0].metrics | with_entries(.key as $m | .value = {values: [$runs[].metrics[$m].value]}))
  }))}' "$@"
}
pool "$out"/A[0-9]*.json >"$out/A.json"
pool "$out"/B[0-9]*.json >"$out/B.json"
echo
echo "== $rounds runs each: A = $base_rev, B = working tree (medians over runs)"
"$b_bin" compare "$out/A.json" "$out/B.json" || status=1
echo "records and logs: $out"
exit "$status"
