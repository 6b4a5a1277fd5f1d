#!/usr/bin/env bash
# Tier-1 gate: release build, full workspace test suite, lints, formatting.
# Everything runs offline — external crates are vendored as shims under
# crates/compat/, so no registry access is needed (or attempted).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# Examples, tests and the `figures` binary must keep building too — a
# target that only the default build compiles can rot silently.
cargo build --release --offline --workspace --all-targets
cargo test -q --workspace --offline
# Benchmark smoke: the ledger is a package of its own (its own
# `[workspace]`), so the workspace run above never reaches its tests. They
# run every ledger workload at CI size, both passes, and check VM replays
# against the reference interpreter (outputs and OpCounts, sequential and
# parallel), decision digests across rounds, and resume bit-identity.
cargo test --release --offline --manifest-path src/bin/prescaler-ledger/Cargo.toml
# Default lints plus a curated clippy::pedantic subset, enforced
# workspace-wide: consistent trailing semicolons, method-path closures,
# iterator idiom, map_or over map+unwrap_or, let-else over match-else.
cargo clippy --workspace --all-targets --offline -- -D warnings \
    -D clippy::semicolon_if_nothing_returned \
    -D clippy::redundant-closure-for-method-calls \
    -D clippy::explicit-iter-loop \
    -D clippy::map-unwrap-or \
    -D clippy::needless-continue \
    -D clippy::manual-let-else
cargo fmt --all --check
# Rustdoc gate: every intra-doc link must resolve, so documentation can
# never keep pointing at a deleted item or leak a private one.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# IR verifier gate: every shipped polybench kernel must verify with zero
# diagnostics of any severity, and the verifier must still reject each
# deliberately broken kernel class with its specific typed diagnostic.
cargo run --release --offline --bin prescaler-verify

# Seeded fault matrix: the guard, crash-resume, system-drift, serving,
# parallel-execution, static-analysis and trial-engine property suites
# replayed under fixed seeds, so every CI run explores the same three
# fault universes deterministically (the suites mix the seed into their
# generated fault plans via PRESCALER_FAULT_SEED). The crash-resume suite
# kills a durable tune at every trial boundary — under clean, torn-tail,
# and garbage-tail shutdowns — and requires the resumed
# result to be bit-identical with zero journaled trials re-executed. The
# drift suite throttles, starves, and unplugs the serving system and
# requires TOQ-or-fallback serving, typed device-loss errors,
# fingerprint-bound snapshots, and warm re-tunes that are bit-identical to
# cold ones at strictly fewer executions. The serving suite overloads a bounded-admission front-end
# (arrival bursts, tight queues, tight deadlines, device loss) and
# requires bit-identical per-request outcomes at 1/2/8 workers, a typed
# rejection for every shed request, and TOQ-or-fallback for every
# admitted one. The static-analysis suite pins the prune-equivalence
# guarantee — tuned decisions bit-identical with static pruning on and
# off, trials strictly fewer where anything was pruned — per fault
# universe. The trial-engine suite pins speculative and sequential
# engines, whose concurrent trials share one compiled-variant cache, to
# bit-identical tuning results per fault universe. The IR's differential
# fuzzer (`-p prescaler-ir --test differential`) mixes the seed into its
# kernel and precision-map generators, so each row checks 512 other random
# kernels against the interpreter.
for seed in 1 2 3; do
    PRESCALER_FAULT_SEED=$seed \
        cargo test -q --offline -p prescaler-repro \
        --test guard_properties \
        --test crash_resume_properties --test drift_properties \
        --test serve_properties --test parallel_exec_properties \
        --test static_analysis_properties --test trial_engine_equivalence \
        -p prescaler-ir --test differential
done
# The differential fuzzer once more in the release profile, the way tunes
# run the VM: a test build asserts the lock-step lane shapes before each
# uniform op and each slice access (the debug oracle) and traps integer
# overflow, and a release build does neither, so only this run fuzzes the
# fast paths exactly as they ship.
cargo test --release --offline -p prescaler-ir --test differential

# Crash-resume smoke: kill one tune at a seeded boundary with a seeded
# tear, resume it, and byte-compare the resumed Tuned snapshot against
# the uninterrupted reference. Drift-failover smoke: lose the device
# mid-serve, fail over, revalidate, warm re-tune for the throttled
# system, and serve again — every guarantee self-asserted.
for seed in 1 2 3; do
    PRESCALER_FAULT_SEED=$seed \
        cargo run --release --offline --example crash_resume
    PRESCALER_FAULT_SEED=$seed \
        cargo run --release --offline --example drift_failover
done

# The guarded-serving example doubles as an end-to-end smoke test: it
# asserts its own breaker-trip / recovery / accounting guarantees.
cargo run --release --offline --example guarded_serving

# Static-pruning smoke: proves overflow on default-input benchmarks,
# self-asserts candidates were pruned without a trial, decisions are
# digest-identical with pruning off, and proven ranges seed the guard's
# envelopes without tripping a clean production run.
cargo run --release --offline --example static_prune

# Multi-worker serving stress: run the overloaded serving example as
# three separate processes at 1, 2, and 8 workers and diff the printed
# per-request outcome digests — worker count is physical parallelism
# only and must never change an outcome. (The example also self-asserts
# bounded-queue, typed-shedding, and TOQ-or-fallback guarantees.)
serve_digests=""
for workers in 1 2 8; do
    digest=$(PRESCALER_SERVE_WORKERS=$workers \
        cargo run --release --offline --example serve_under_load \
        | grep '^outcome digest:' | awk '{print $3}')
    echo "serve_under_load @ ${workers} workers -> digest ${digest}"
    serve_digests="${serve_digests} ${digest}"
done
if [ "$(echo "${serve_digests}" | tr ' ' '\n' | sed '/^$/d' | sort -u | wc -l)" -ne 1 ]; then
    echo "serving outcomes diverged across worker counts:${serve_digests}" >&2
    exit 1
fi
