#!/usr/bin/env bash
# Hermetic CI for the FORMS reproduction: build + test fully offline, then
# verify no Cargo.toml has reintroduced an external dependency.
set -euo pipefail
cd "$(dirname "$0")"

echo "== format (rustfmt --check) =="
cargo fmt --all -- --check
# perfbench is a workspace of its own, which `--all` does not reach. Only
# its formatting is gated here; its own tests run further down.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "== build (release, offline) =="
cargo build --release --offline

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== docs (rustdoc must build warning-free) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --offline --no-deps

echo "== paper results (byte-identical regeneration) =="
# README's determinism contract: every experiment is seeded, so rerunning
# it rewrites its committed results/*.json byte for byte. Run all but
# table2 and table6 (2-4 min each on a 2-core host) and fail if any
# committed file changed. table1 and fig6 train their models and take
# about 1 and 2 min; the other nine finish in seconds.
cargo run --release --offline --quiet -p forms-bench --bin repro -- \
    table1 fig6 table3 table4 table5 fig7 fig8 fig13 fig14 energy noise > /dev/null
git diff --exit-code --stat -- results/ || {
    echo "regenerated results/ differ from the committed files" >&2
    exit 1
}
echo "ok: regenerated results/ match the committed files"

echo "== MVM hot-path bench (smoke) =="
# Runs the matmul_into-vs-reference throughput suite on a smoke layer
# (16x16 crossbars; its cached code matrix outgrows a core's L2, so
# batching has weight reads to amortize) with a
# fixed batch sweep (batch 1 is the one-column kernel call) and
# re-validates the BENCH_mvm.json it writes through forms_bench::json; the
# binary exits non-zero if the file is malformed or, per design and per
# MVM, batch 1 is slower than the reference kernel or the largest batch is
# slower than batch 1. The parallel/batched images ratio is reported, not
# gated.
FORMS_BENCH_FAST=1 cargo run --release --offline -p forms-bench --bin mvm -- --smoke --batch 1,2,4

echo "== mixed-precision quant bench (smoke) =="
# Trains the small VGG-style stack, derives a sensitivity-based mixed
# precision plan, and measures uniform vs. mixed on FORMS and ISAAC; the
# binary re-validates the BENCH_quant.json it writes — schema plus the
# payoff invariant (mixed spends strictly fewer input cycles/MVM than
# uniform on both designs) — and exits non-zero on any violation.
FORMS_BENCH_FAST=1 cargo run --release --offline -p forms-bench --bin quant -- --smoke

echo "== fault-tolerance bench (smoke) =="
# Sweeps stuck-at fault rates through the executor for FORMS and ISAAC;
# the binary re-validates the BENCH_faults.json it writes — schema and the
# FORMS-degrades-no-faster-than-ISAAC comparison — and exits non-zero on
# any violation. The serving fault storm runs over a socket in the net
# bench below.
cargo run --release --offline -p forms-bench --bin faults -- --smoke

echo "== serving bench over loopback TCP (smoke) =="
# The one serving benchmark: drives the open-loop generator through real
# loopback TCP sockets against the paced multi-replica serving layer
# (FORMS), pairing every point with an in-process baseline,
# then runs a poisoned-replica storm over one socket. The binary
# re-validates the BENCH_net.json it writes — schema; the in-process
# 1->max-replica scaling floor; per point the mode's loopback/in-process
# throughput floor (0.7x full, looser in smoke where CI contention makes
# saturation throughput noisy), zero wire errors, zero engine failures,
# server-side completions matching the client's, and per-stage timings
# that telescope to the end-to-end latency; and the storm's
# zero-corrupted / Degraded-as-wire-status / rebuild / quarantine /
# resolved-at-most-offered gates — and exits non-zero on any violation.
cargo run --release --offline -p forms-bench --bin net -- --smoke

echo "== observability smoke gate =="
# Every sweep point embeds a telemetry summary with per-stage histogram
# counts (validate() already checks the stage-sum telescoping). Belt and
# braces: fail fast if the written document carries no per-stage samples
# at all.
awk '
    /"(queue_wait|batch_form|execute|respond)": \{/ { stage = 1; next }
    stage && /"count":/ {
        v = $2; gsub(/[^0-9]/, "", v)
        if (v + 0 > 0) nonzero += 1
        stage = 0
    }
    END { exit !(nonzero >= 4) }
' BENCH_net.json || {
    echo "BENCH_net.json telemetry has no non-zero stage histograms" >&2
    exit 1
}
echo "ok: BENCH_net.json carries non-zero per-stage histograms"

echo "== network serving example =="
# The README-facing walk-through of the builder-only API: serves a mapped
# FORMS model on an ephemeral loopback port, pipelines requests, surfaces
# a deadline as a wire status, fetches telemetry over the socket, and
# exits non-zero if any step fails.
cargo run --release --offline --quiet --example net_serve

echo "== examples (byte-identical stdout) =="
# The remaining README-facing walk-throughs: design_space is pure
# cost-model arithmetic; the others train, ADMM-polarize, map through the
# executor and run the analog path (~3.5 s together in release on a
# 2-core host). Each exits non-zero on a panic, e.g. a finalized model
# that no longer satisfies its constraints, and each is seeded, so its
# stdout must match the committed examples/expected/<name>.txt byte for
# byte. (net_serve above prints its ephemeral port, so it is not diffed.)
for example in design_space quickstart accelerator_sim isaac_vs_forms fault_tolerance polarized_training; do
    cargo run --release --offline --quiet --example "$example" |
        diff -u "examples/expected/$example.txt" - || {
        echo "example $example failed or its stdout differs from examples/expected/$example.txt" >&2
        exit 1
    }
done
echo "ok: example stdout matches examples/expected/"

echo "== end-to-end loopback benchmark (self-tests + short runs) =="
# perfbench is a workspace of its own (path deps on the repo crates), so
# the workspace test above does not reach it: run its validator
# self-tests, then a short untraced run of each workload. A run exits
# non-zero on any reply that differs bitwise from forward_parallel, any
# replay or input-cycle cross-check mismatch, or any serving-stage
# telescoping failure.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for workload in table5-forms-closed vgg-small-open; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0
done
echo "ok: perfbench replies verified on every workload"

echo "== dependency freeze =="
# Every [dependencies] / [dev-dependencies] / [build-dependencies] entry in
# every manifest must be an in-tree forms-* path crate. Anything else means
# the hermetic (no-network, empty-registry) build guarantee is broken.
status=0
while IFS= read -r manifest; do
    # Matches both `name = { ... }` and dotted-key `name.workspace = true`
    # entries; prints the crate name.
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/) ; next }
        in_deps && /^[A-Za-z0-9_-]+(\.[A-Za-z0-9_-]+)*[[:space:]]*=/ {
            split($1, parts, "."); print parts[1]
        }
    ' "$manifest")
    for dep in $deps; do
        case "$dep" in
            forms-*) ;;
            *)
                echo "FROZEN: $manifest declares external dependency '$dep'" >&2
                status=1
                ;;
        esac
    done
done < <(find . -name Cargo.toml -not -path './target/*')
if [ "$status" -ne 0 ]; then
    echo "dependency-freeze check FAILED: the workspace must stay hermetic" >&2
    echo "(only in-tree forms-* path crates are allowed)" >&2
    exit 1
fi
echo "ok: all manifests depend only on in-tree forms-* crates"

echo "== CI green =="
