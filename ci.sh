#!/usr/bin/env bash
# Hermetic CI for the FORMS reproduction: build + test fully offline, then
# verify no Cargo.toml has reintroduced an external dependency.
set -euo pipefail
cd "$(dirname "$0")"

echo "== format (rustfmt --check) =="
cargo fmt --all -- --check

echo "== build (release, offline) =="
cargo build --release --offline

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== docs (rustdoc must build warning-free) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --offline --no-deps

echo "== MVM hot-path bench (smoke) =="
# Runs the packed-kernel and batched-matmul throughput suite on tiny
# shapes with a fixed batch sweep (batch 1 is the one-column kernel call)
# and re-validates the BENCH_mvm.json it writes through forms_bench::json;
# the binary exits non-zero if the file is malformed or the batched kernel
# at batch 1 or at the largest batch is slower per MVM than the per-sample
# packed one. The parallel/batched images ratio is reported, not gated.
FORMS_BENCH_FAST=1 cargo run --release --offline -p forms-bench --bin mvm -- --smoke --batch 1,2,4

echo "== mixed-precision quant bench (smoke) =="
# Trains the small VGG-style stack, derives a sensitivity-based mixed
# precision plan, and measures uniform vs. mixed on FORMS and ISAAC; the
# binary re-validates the BENCH_quant.json it writes — schema plus the
# payoff invariant (mixed spends strictly fewer input cycles/MVM than
# uniform on both designs) — and exits non-zero on any violation.
FORMS_BENCH_FAST=1 cargo run --release --offline -p forms-bench --bin quant -- --smoke

echo "== serving-layer bench (smoke) =="
# Replays a short open-loop Poisson trace against the multi-replica serving
# subsystem (FORMS and ISAAC behind paced engines), re-validates the
# BENCH_serve.json it writes — schema, shed/latency invariants, and the
# replica-scaling floor; the binary exits non-zero on any violation.
cargo run --release --offline -p forms-bench --bin serve -- --smoke

echo "== observability smoke gate =="
# Every sweep point embeds a full TelemetrySnapshot with per-stage
# histograms (the bench already asserts a live to_json/from_json
# round-trip before writing, and validate() re-checks the stage-sum
# telescoping). Belt and braces: fail fast if the written document
# carries no per-stage samples at all.
awk '
    /"(queue_wait|batch_form|execute|respond)": \{/ { stage = 1; next }
    stage && /"count":/ {
        v = $2; gsub(/[^0-9]/, "", v)
        if (v + 0 > 0) nonzero += 1
        stage = 0
    }
    END { exit !(nonzero >= 4) }
' BENCH_serve.json || {
    echo "BENCH_serve.json telemetry has no non-zero stage histograms" >&2
    exit 1
}
echo "ok: BENCH_serve.json carries non-zero per-stage histograms"

echo "== fault-tolerance bench (smoke) =="
# Sweeps stuck-at fault rates through the packed path for FORMS and ISAAC,
# then runs a poisoned-replica serving storm; the binary re-validates the
# BENCH_faults.json it writes — schema, the FORMS-degrades-no-faster-than-
# ISAAC comparison, and the zero-corrupted-responses / quarantine storm
# invariants — and exits non-zero on any violation.
cargo run --release --offline -p forms-bench --bin faults -- --smoke

echo "== network front-end bench (smoke) =="
# Drives the open-loop generator through real loopback TCP sockets against
# the serving layer (FORMS and ISAAC), pairing every point with an
# in-process baseline, then runs a poisoned-replica storm over one socket;
# the binary re-validates the BENCH_net.json it writes — schema, the
# mode's loopback/in-process throughput floor (0.7x full, looser in smoke
# where CI contention makes saturation throughput noisy), zero wire
# errors, and the
# zero-corrupted / Degraded-as-wire-status / quarantine storm invariants —
# and exits non-zero on any violation.
cargo run --release --offline -p forms-bench --bin net -- --smoke

echo "== network serving example =="
# The README-facing walk-through of the builder-only API: serves a mapped
# FORMS model on an ephemeral loopback port, pipelines requests, surfaces
# a deadline as a wire status, fetches telemetry over the socket, and
# exits non-zero if any step fails.
cargo run --release --offline --quiet --example net_serve

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
