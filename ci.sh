#!/usr/bin/env sh
# Offline CI gate. Everything here must pass on a machine with no
# network access — the workspace has no registry dependencies.
# Budget: ~2 minutes on a small container.
set -eu

cd "$(dirname "$0")"

# If anything below fails, archive any flight-recorder dumps (written
# under flight/ when a watchdog trips) so the evidence survives the
# run as a single artifact.
archive_flight() {
    status=$?
    if [ "$status" -ne 0 ] && ls flight/*.json >/dev/null 2>&1; then
        tar -czf flight-dumps.tgz flight/*.json
        echo "ci.sh: FAILED (exit $status) — flight dumps archived in flight-dumps.tgz" >&2
    fi
    exit "$status"
}
trap archive_flight EXIT

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (offline, all targets, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> crate graph: pwf-serve links none of the runner, checker or linter"
# The service builds its response bodies with pwf_obs::json; nothing in
# its normal dependency tree may pull in the offline tooling crates.
if cargo tree --offline -e normal -p pwf-serve | grep -E 'pwf-(runner|checker|lint) '; then
    echo "ci.sh: pwf-serve depends on the crates above" >&2
    exit 1
fi

echo "==> pwf check: deterministic experiments match their recorded results"
# Re-runs every deterministic experiment under the golden seed and
# diffs it against results/; exits nonzero on any drift. This is the
# gate that a hot-path change leaves every simulated execution, and
# with it every golden, bit-identical.
./target/release/pwf check

echo "==> cargo test (offline)"
# One tier: the vendored-proptest property suites run here with
# everything else.
cargo test -q --offline --workspace

echo "==> pwfbench self-tests (the benchmark builds against the workspace)"
# .bench_build is gitignored, so this step writes no tracked file.
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path pwfbench/Cargo.toml

echo "==> pwfbench traced serve-cold: served bodies match their layers' own calls"
# The traced replay recomputes every chain and sim key it served with
# the Markov and simulator layers' public calls and reports
# "correct":false on any mismatch.
CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline --manifest-path pwfbench/Cargo.toml -- \
    --workload serve-cold --seed 11 --seconds 1 --trace 1 | grep -q '"correct":true'

echo "==> obs zero-cost gate: workspace must build and test with obs off"
cargo build --offline --no-default-features -p pwf-obs -p pwf-sim -p pwf-hardware
cargo test -q --offline --no-default-features -p pwf-obs -p pwf-sim -p pwf-hardware

echo "==> pwf report: perf trend gate over the committed BENCH files"
# Gates the committed BENCH_*.json against the last entry recorded in
# results/bench_history.jsonl: a PR committing regressed perf numbers
# without re-recording the history fails here. This runs BEFORE the
# --fast smokes below, which refresh the BENCH files with scaled-down
# workloads whose absolute numbers are not comparable to the recorded
# full-profile baseline. (Developers update the ledger after a full
# regeneration with `pwf run --all && pwf report --check --record`.)
./target/release/pwf report --check

echo "==> pwf smoke: run --all --jobs 2 --fast"
# --fast without --out is guaranteed not to overwrite results/.
./target/release/pwf run --all --jobs 2 --fast

echo "==> obs smoke: metrics run + Perfetto trace export"
./target/release/pwf run obs_overhead --fast --metrics
obs_trace_dir="$(mktemp -d)"
./target/release/pwf trace exp_latency_hist --fast --out "$obs_trace_dir"
test -s "$obs_trace_dir/exp_latency_hist.trace.json"
rm -rf "$obs_trace_dir"

echo "==> pwf vet: every registry target gets its verdict"
# The full registry, including stack-n3, scu-2-2-n3, parallel and the
# livelock and spinner mutants, which the --fast subset skips. Exits
# nonzero if a correct target fails or a mutant is not caught.
vet_report="$(mktemp)"
./target/release/pwf vet > "$vet_report"
cat "$vet_report"

echo "==> pwf vet: the full report matches its committed golden"
# The explorer's internals (state hashing, snapshot copies, frontier
# draining) may change freely; the report may not. Regenerate the
# golden only for an intended change of verdicts or counters:
#   ./target/release/pwf vet > crates/checker/tests/vet_report.golden
diff crates/checker/tests/vet_report.golden "$vet_report"

echo "==> pwf vet: run-to-run determinism"
# A second run of the full registry must print a byte-identical
# report. The largest targets recycle ended runs as sibling snapshots,
# so this also covers run reuse. (--jobs is accepted and ignored;
# exploration runs on one thread.)
./target/release/pwf vet --jobs 2 | diff "$vet_report" -
rm -f "$vet_report"

echo "==> pwf lint: workspace-wide concurrency static analysis"
# Deny-by-default over every crate: any finding without a
# fingerprint-valid lint.allow entry, any stale entry, and any edit to
# an allowed site that was not re-justified fails the build.
./target/release/pwf lint
# A single-pass run must stay clean against the same allow file
# (orderings pass only, pass-aware staleness).
./target/release/pwf lint --pass orderings --crate hardware
# The JSON surface stays machine-readable and reports a clean tree.
./target/release/pwf lint --json | grep -q '"clean":true}}'

echo "==> pwf lint: mutant corpus + fingerprint + schema gates"
# Both directions: every seeded mutant fixture is flagged with exactly
# its expected rules, clean fixtures and the shipped tree stay
# finding-free, edited-without-re-justify is a hard error, and the
# --json schema pin holds.
cargo test -q --offline -p pwf-lint
cargo test -q --offline -p pwf-runner --test lint_schema

echo "==> markov perf smoke: sparse engine vs dense, lifting at n=100"
# exp_markov_bench times the dense direct-solve SCU analysis against
# the sparse CSR pipeline and returns nonzero if the sparse path is
# not strictly faster at the dense wall, if the symmetry-reduced
# lifting check at n >= 100 exceeds a 1e-12 kernel residual, or if
# solver throughput is not positive; it also refreshes
# BENCH_markov.json. (--fast keeps the dense side at n <= 6 but still
# runs the n = 100 sparse sweep.)
./target/release/pwf run exp_markov_bench --fast
grep -q '"speedup"' BENCH_markov.json
grep -q '"lifting_verified_n": 100' BENCH_markov.json
grep -q '"states_per_sec"' BENCH_markov.json

echo "==> checker perf smoke: the snapshot frontier must beat recursive DPOR"
# exp_checker_bench times the recursive replaying explorer against
# the one-thread snapshot frontier, asserts the frontier walks exactly
# the recursive tree (executions and states), and returns nonzero if
# the frontier is not strictly faster at the largest target; it also
# refreshes BENCH_checker.json.
./target/release/pwf run exp_checker_bench --fast
grep -q '"speedup_at_largest"' BENCH_checker.json
grep -q '"largest_target"' BENCH_checker.json

echo "==> sim perf smoke: alias sampling must beat the linear scan"
# exp_sim_bench times the linear-scan weighted pick against the O(1)
# alias sampler (and dyn vs monomorphized stepping) and returns
# nonzero if the alias path is not strictly faster at the largest
# size; it also refreshes BENCH_sim.json.
./target/release/pwf run exp_sim_bench --fast
grep -q '"speedup"' BENCH_sim.json

echo "==> serve smoke: self-loadgen through a live HTTP server"
# exp_serve_bench boots pwf serve on an ephemeral loopback port and
# drives the built-in loadgen through it: concurrent Zipf-skewed
# /predict requests across the theory/chain/sim layers plus one
# barrier round on a slow key. It returns nonzero on any response
# drift vs direct computation, zero cache hits, zero coalescer joins,
# any transport error, or a p999 blowup vs the previous run; it also
# refreshes BENCH_serve.json.
./target/release/pwf run exp_serve_bench --fast
grep -q '"drift": 0' BENCH_serve.json
grep -q '"coalesced"' BENCH_serve.json

echo "==> watchdog gate: clean fleets silent, crashed lock holder trips"
# exp_obs_watchdog arms the online tail watchdog from the theory
# envelope: the SCU and crash-free lock fleets must stay inside it,
# the crashed-holder fleet must trip it, and the resulting flight
# dump (under flight/) must name the offending gaps.
./target/release/pwf run exp_obs_watchdog --fast
ls flight/tail-exceedance-*.json >/dev/null

echo "ci.sh: all green"
