#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, release smokes
# of the experiments, and the benchmark package's own tests. Run from
# the repository root:
#
#   scripts/ci.sh
#
# Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== tests (tier 1) =="
cargo build --release -q
cargo test -q

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== docs =="
cargo doc --no-deps -q --workspace

echo "== ordering audit =="
# Every Ordering::Relaxed site in the workspace must carry a
# `// ordering:` justification (DESIGN.md section 12); unjustified
# sites fail the build.
cargo run -q -p certify --bin hdd-ordering-lint -- crates

echo "== mc smoke (instrumented, <60s) =="
# Model-check the engine self-models and the HDD protocol models under
# the instrumented facade. Separate target dir: --cfg mc changes every
# routed crate, so sharing ./target would thrash the main cache.
RUSTFLAGS="--cfg mc" cargo test -q -p mc --target-dir target/mc

echo "== hot-path smoke (release, quick) =="
cargo run --release -q -p sim --bin experiments -- hotpath quick

echo "== obs profile smoke (release, quick) =="
cargo run --release -q -p sim --bin experiments -- e14 quick

echo "== export smoke (release) =="
# Short obs-enabled run + quick E17: the generated Prometheus exposition
# and Chrome trace must pass the in-repo validators, and the staleness
# tables must carry Protocol A (class) and Protocol C (wall) rows.
cargo run --release -q -p sim --bin experiments -- export-smoke

echo "== bench gate (release) =="
# Throughput floors: obs-disabled hdd 8w vs BENCH_hotpath.json (>90%)
# and obs-enabled hdd 8w vs BENCH_obs.json (>50%).
scripts/bench_gate.sh

echo "== certify smoke (release) =="
# A-priori lint of the bundled workloads must be clean, and the broken
# demo decompositions must be rejected (witnesses + repair suggestions).
cargo run --release -q -p certify --bin hdd-lint -- builtin
if cargo run --release -q -p certify --bin hdd-lint -- demo > /dev/null 2>&1; then
  echo "hdd-lint demo unexpectedly passed (must reject the broken decompositions)"
  exit 1
fi
# Offline certification: concurrent hdd (partition-synchronization rule)
# and mvto logs must certify clean; the nocontrol anomaly self-check
# must shrink to a single-digit counterexample.
cargo run --release -q -p sim --bin experiments -- certify-smoke

echo "== chaos smoke (release, quick) =="
# Quick E16 soak: injected crashes/stalls/torn WAL tails must all
# certify clean, every corpse reaped by the watchdog, and recovery must
# never reuse a pre-crash timestamp.
cargo run --release -q -p sim --bin experiments -- chaos-smoke

echo "== blame smoke (release) =="
# Flight-recorder gate: an 8-worker traced run must attribute >=95% of
# measured block time to a cause edge, leak no open spans, and emit a
# Perfetto trace that passes the in-repo validator; sampled-mode
# tracing (stride 32) must hold >=85% of the BENCH_hotpath.json
# disabled baseline.
cargo run --release -q -p sim --bin experiments -- blame-smoke

echo "== durability smoke (release) =="
# Durable-tier gate: a 12-seed disk-fault soak (torn writes, lying
# fsyncs, kill-mid-batch) must recover from on-disk bytes alone,
# certify every stitched log, never reuse a timestamp, and never leave
# an acked commit off the disk (outside lying-fsync seeds); the
# StorageBackend trait refactor must hold >=95% of the
# BENCH_hotpath.json hdd 8-worker baseline.
cargo run --release -q -p sim --bin experiments -- durability-smoke

echo "== drift smoke (release) =="
# Workload-drift gate (quick E20): the steady negative-control phase
# must never trip the drift board, the mid-run shift to the
# cycle-closing mix must trip it within 3 folds, the online advisor
# must match the offline hdd-lint repair (and report the running
# grouping optimal), the trip must surface as a Perfetto instant, and
# drift-enabled throughput must hold >=90% of the obs-only baseline.
cargo run --release -q -p sim --bin experiments -- drift-smoke
# The advisor CLI's JSON report must keep its machine-readable shape.
advisor_json="$(cargo run --release -q -p sim --bin hdd-advisor -- --json --txns 500 --waves 1)"
for key in quality_milli optimal advised_labels drift_score_milli suggestions; do
  if ! grep -q "\"$key\"" <<< "$advisor_json"; then
    echo "hdd-advisor --json lost the \"$key\" field"
    exit 1
  fi
done

echo "== hdd-top smoke (release) =="
# Both hdd-top driver paths, plain and --chaos (the driver's fault hook
# under a transaction lease), must drive one wave and print a snapshot
# JSON object with "commits" > 0.
for flags in "" "--chaos"; do
  # shellcheck disable=SC2086 # empty flags must expand to no argument
  top_json="$(cargo run --release -q -p sim --bin hdd-top -- --once $flags 2>/dev/null)"
  commits="$(grep -o '^{"workload": "[a-z]*", "commits": [0-9]*' <<< "$top_json" | grep -o '[0-9]*$' || true)"
  if [ -z "$commits" ] || [ "$commits" -le 0 ]; then
    echo "hdd-top --once $flags printed no JSON object with commits > 0"
    exit 1
  fi
  echo "hdd-top --once $flags: $commits commits"
done

echo "== hddbench smoke (release) =="
# The benchmark package implements Scheduler and StorageBackend itself
# (tracing decorators) and builds against the engine crates by path, so
# an engine API change that breaks it fails here rather than in the
# benchmark run. Its smoke test also pins the printed metric names and
# units to BENCHMARK.json.
cargo test --release -q --manifest-path hddbench/Cargo.toml

echo "CI OK"
