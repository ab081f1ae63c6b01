#!/usr/bin/env sh
# Tier-1 gate: run this before sending a PR.
#
# Build + tests + lint, offline-friendly: all dependencies resolve to
# vendored path crates (see vendor/), so no network or registry access is
# needed. `cargo test -q` covers the root crate (the ROADMAP tier-1
# definition); the workspace test sweep runs too so crate-local suites
# can't rot silently.
set -eu
cd "$(dirname "$0")/.."

# --workspace so binary targets (the experiments CLI the cmp gates below
# drive) are rebuilt too: the root package depends on the experiments
# *library*, so a bare `cargo build` can leave target/release/experiments
# stale and the byte-equality gates comparing an old binary to itself.
cargo build --release --workspace --offline
cargo test -q --offline
cargo test -q --workspace --offline
# The benchmark is a package of its own (rootbench/, outside the
# workspace). Its tests include a reduced-size pass of all five workloads
# with every per-pass correctness check on, and each workload's planted
# twin, which must fail.
cargo test -q --offline --manifest-path rootbench/Cargo.toml
# Codec property suites, called out by name so a filter typo can't skip
# them: wire round-trips + view laziness, and the flat-Name model tests.
cargo test -q -p rootless-proto --test prop_roundtrip --test prop_name_flat --offline
# Robustness gates, also by name: the §4 fault-scenario matrix (fixed-seed
# mode-by-mode outcomes, backoff + serve-stale regression tripwires) and
# the packet-conservation property over random fault schedules.
cargo test -q --test fault_matrix --offline
cargo test -q -p rootless-netsim --test prop_fault --offline
# Observability gates, by name: the metrics-conservation sweep (snapshot
# invariants over scenarios × modes × seeds), the trace-replay byte
# determinism check (inside fault_matrix above), the zero-allocation audit
# of the instrumented resolver hot path, the DNSSEC negative-path suite,
# and the distribution-channel byte-equivalence tests.
cargo test -q --test metrics_conservation --offline
cargo test -q -p rootless-resolver --test alloc_free --offline
# Scheduler gates, by name: the timing-wheel ordering suite (same-tick
# FIFO, overflow cascades, cancel-then-reschedule, the wheel-vs-heap
# property test) and the event-slot reclaim regression.
cargo test -q -p rootless-netsim --test sched_wheel --offline
# Streaming-trace gates, by name: the TraceStream ≡ generate / exact-shard
# -partition property suite, and the hard memory ceiling (peak-tracking
# allocator proves a multi-million-query replay never materializes).
cargo test -q -p rootless-ditl --test prop_stream --offline
cargo test -q -p rootless-ditl --test stream_mem --offline
# Serving-runtime gates, by name: the runtime-vs-simulation determinism
# suite (counters, classification, and the id-independent response
# checksum equal across thread counts, batch shapes, and memo on/off),
# the steady-state zero-allocation audit of the serve hot path, and the
# Send/move-only concurrency audit.
cargo test -q -p rootless-runtime --test determinism --offline
cargo test -q -p rootless-runtime --test alloc_serve --offline
cargo test -q -p rootless-runtime --test send_audit --offline
# Parallel-sweep determinism gate: the robust/perf/rootload reports must
# be byte-identical between --jobs 1, 2 and 4 (stdout only; wall-clock
# throughput goes to stderr by design).
for exp in robust perf rootload; do
  target/release/experiments "$exp" --fast --jobs 1 >"/tmp/tier1_${exp}_j1.out" 2>/dev/null
  target/release/experiments "$exp" --fast --jobs 2 >"/tmp/tier1_${exp}_j2.out" 2>/dev/null
  target/release/experiments "$exp" --fast --jobs 4 >"/tmp/tier1_${exp}_j4.out" 2>/dev/null
  cmp "/tmp/tier1_${exp}_j1.out" "/tmp/tier1_${exp}_j2.out"
  cmp "/tmp/tier1_${exp}_j1.out" "/tmp/tier1_${exp}_j4.out"
  rm -f "/tmp/tier1_${exp}_j1.out" "/tmp/tier1_${exp}_j2.out" "/tmp/tier1_${exp}_j4.out"
done
# Parallel-simulation determinism gate: the PARSIM sections run one
# simulated world on N share-nothing sim shards under conservative
# lookahead epochs (DESIGN.md §16); stdout must be byte-identical at
# --sim-threads 1, 2 and 4.
for exp in perf robust rootload; do
  target/release/experiments "$exp" --fast --sim-threads 1 >"/tmp/tier1_${exp}_st1.out" 2>/dev/null
  target/release/experiments "$exp" --fast --sim-threads 2 >"/tmp/tier1_${exp}_st2.out" 2>/dev/null
  target/release/experiments "$exp" --fast --sim-threads 4 >"/tmp/tier1_${exp}_st4.out" 2>/dev/null
  cmp "/tmp/tier1_${exp}_st1.out" "/tmp/tier1_${exp}_st2.out"
  cmp "/tmp/tier1_${exp}_st1.out" "/tmp/tier1_${exp}_st4.out"
  rm -f "/tmp/tier1_${exp}_st1.out" "/tmp/tier1_${exp}_st2.out" "/tmp/tier1_${exp}_st4.out"
done
# Sharded-engine property gate, by name: random worlds at random shard
# counts must leave the trace ring byte-identical to the unsharded Sim.
cargo test -q -p rootless-netsim --test prop_psim --offline
# Sharded-replay determinism gate: at a fixed --scale, the traffic report
# must be byte-identical across shard counts and jobs values — shards are
# disjoint resolver ranges folded in shard order, so the partition cannot
# show through.
target/release/experiments traffic --fast --scale 2 --shards 1 --jobs 1 >/tmp/tier1_traffic_s1.out 2>/dev/null
for layout in "2 1" "3 2" "4 4"; do
  set -- $layout
  target/release/experiments traffic --fast --scale 2 --shards "$1" --jobs "$2" >/tmp/tier1_traffic_alt.out 2>/dev/null
  cmp /tmp/tier1_traffic_s1.out /tmp/tier1_traffic_alt.out
done
rm -f /tmp/tier1_traffic_s1.out /tmp/tier1_traffic_alt.out
# Cross-scale determinism net: the scale-free "vs paper" table (fractions
# and paper-volume projections) must not move by a byte between --scale 1
# and --scale 3 — unit replication multiplies every count by exactly k, so
# any drift means the replicas are not independent copies.
target/release/experiments traffic --fast --scale 1 2>/dev/null | sed -n '/TRAFFIC vs paper/,$p' >/tmp/tier1_scale1.tbl
target/release/experiments traffic --fast --scale 3 2>/dev/null | sed -n '/TRAFFIC vs paper/,$p' >/tmp/tier1_scale3.tbl
cmp /tmp/tier1_scale1.tbl /tmp/tier1_scale3.tbl
rm -f /tmp/tier1_scale1.tbl /tmp/tier1_scale3.tbl
# Serving-runtime equivalence gate: routing traffic/rootload through the
# thread-per-core runtime (--runtime-threads) must leave stdout
# byte-identical to the sweep path, at every thread count — the runtime's
# whole determinism story, end to end through the binary.
for exp in traffic rootload; do
  target/release/experiments "$exp" --fast >"/tmp/tier1_${exp}_sim.out" 2>/dev/null
  for rt in 1 2 4; do
    target/release/experiments "$exp" --fast --runtime-threads "$rt" >"/tmp/tier1_${exp}_rt.out" 2>/dev/null
    cmp "/tmp/tier1_${exp}_sim.out" "/tmp/tier1_${exp}_rt.out"
  done
  rm -f "/tmp/tier1_${exp}_sim.out" "/tmp/tier1_${exp}_rt.out"
done
# Model-checker gates, by name: the exhaustive-exploration suite on the
# correct build (all interleavings clean, four modes agree, bounds honest),
# then the planted-bug build, where the explorer MUST find the cache's
# deliberate stale-window off-by-one and negative resurrection as minimal
# replayable counterexamples — the proof the zero-violation reports above
# are not vacuous.
cargo test -q -p rootless-mc --offline
cargo test -q -p rootless-mc --features plant-stale-bug --test planted_bug --offline
# Modelcheck report determinism: two runs, byte-identical stdout.
target/release/experiments modelcheck >/tmp/tier1_mc_a.out 2>/dev/null
target/release/experiments modelcheck >/tmp/tier1_mc_b.out 2>/dev/null
cmp /tmp/tier1_mc_a.out /tmp/tier1_mc_b.out
grep -q "0 truncated, 0 invariant violations" /tmp/tier1_mc_a.out
rm -f /tmp/tier1_mc_a.out /tmp/tier1_mc_b.out
cargo test -q -p rootless-dnssec --test adversarial --offline
cargo test -q -p rootless-delta --test distribution_equivalence --offline
cargo test -q -p rootless-zone --test prop_zone --offline
# Incremental-verification gates, by name: the randomized churn
# differential (incremental verdicts, state digests and denial answers
# byte-equal to from-scratch validation), the sampled 2009–2019 history
# replay with its hand-built attacks (silent delegation removal, DS strip,
# replayed ZONEMD), and the ZoneDiff codec edge suite the diffs ride on.
cargo test -q -p rootless-dnssec --test prop_incremental --offline
cargo test -q -p rootless-dnssec --test incremental_history --offline
cargo test -q -p rootless-zone --lib diff --offline
# Planted-bug build: with plant-skip-span the incremental path skips the
# NSEC-span re-check around vanished owners, and the differential harness
# MUST catch the resulting silent-deletion acceptance — the proof the
# green gates above are not vacuous.
cargo test -q -p rootless-dnssec --features plant-skip-span --test planted_skip_span --offline
# VERIFY report determinism: two runs, byte-identical stdout, and the
# cached-state-equals-from-scratch verdict must actually appear.
target/release/experiments verify --fast >/tmp/tier1_verify_a.out 2>/dev/null
target/release/experiments verify --fast >/tmp/tier1_verify_b.out 2>/dev/null
cmp /tmp/tier1_verify_a.out /tmp/tier1_verify_b.out
grep -q "identical" /tmp/tier1_verify_a.out
rm -f /tmp/tier1_verify_a.out /tmp/tier1_verify_b.out
cargo clippy --workspace --offline -- -D warnings
echo "tier1: OK"
