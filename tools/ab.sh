#!/usr/bin/env bash
# A/B comparison of two revisions on the end-to-end loopback benchmark.
#
#   tools/ab.sh [options] <parent-rev> [<change-rev>]   # A = parent, B = change (default HEAD)
#   tools/ab.sh --aa [options] <rev>                    # A/A: one revision built twice
#
# Options:
#   --pairs N         alternated pairs per workload (default 10)
#   --trace 0|1       pass --trace to perfbench (default 0; 1 adds per-layer metrics)
#   --workloads a,b   workloads to run (default: every workload in BENCHMARK.json)
#
# Every run lasts BENCHMARK.json's `run_seconds`, on both sides.
#
# Each revision's perfbench is built offline from a temporary git worktree
# under target/ab/ (the worktree is removed once its binary is copied to
# target/ab/bin/), so the comparison never touches the working tree. Pair
# i runs A then B when i is odd and B then A when it is even, so host
# drift lands on both sides alike. Every result line is kept under
# target/ab/runs/<stamp>/. For each metric the summary prints both
# sides' quartiles, B's win count over the pairs (by the metric's
# `better` direction in BENCHMARK.json), the median gap as a share of A's
# median and in units of A's interquartile range, and `claim` where B
# wins at least 9 in 10 pairs and the median gap points the `better` way
# and exceeds A's IQR. In A/A
# mode the gap column is the noise floor of one rebuild of the same
# source: a claimed gain must also clear it.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

# BENCHMARK.json, in one pass: "seconds <run_seconds>", "workload <name>"
# per workload, and "better <metric> <higher|lower>" per metric.
bench=$(awk -F'"' '
    /"run_seconds":/ { gsub(/[^0-9.]/, "", $3); print "seconds", $3 }
    /"workloads":/ { section = "workloads" }
    /"end_to_end":|"per_layer":/ { section = "metrics" }
    /"name":/ { name = $4; if (section == "workloads") print "workload", name }
    /"better":/ { print "better", name, $4 }
' BENCHMARK.json)
seconds=$(awk '$1 == "seconds" { print $2 }' <<< "$bench")
workloads=$(awk '$1 == "workload" { print $2 }' <<< "$bench" | paste -sd, -)
directions=$(awk '$1 == "better" { print $2, $3 }' <<< "$bench")
[ -n "$seconds" ] && [ -n "$workloads" ] || { echo "ab.sh: cannot read BENCHMARK.json" >&2; exit 1; }

pairs=10
trace=0
aa=0
revs=()
while [ $# -gt 0 ]; do
    case "$1" in
        --aa) aa=1 ;;
        --pairs) pairs="${2:?}"; shift ;;
        --trace) trace="${2:?}"; shift ;;
        --workloads) workloads="${2:?}"; shift ;;
        -h | --help) usage ;;
        -*) echo "ab.sh: unknown option $1" >&2; usage ;;
        *) revs+=("$1") ;;
    esac
    shift
done
case "$pairs" in '' | *[!0-9]* | 0) echo "ab.sh: --pairs needs a positive integer" >&2; exit 2 ;; esac
case "$trace" in 0 | 1) ;; *) echo "ab.sh: --trace takes 0 or 1" >&2; exit 2 ;; esac
if [ "$aa" -eq 1 ]; then
    [ "${#revs[@]}" -eq 1 ] || usage
else
    [ "${#revs[@]}" -ge 1 ] && [ "${#revs[@]}" -le 2 ] || usage
    [ "${#revs[@]}" -eq 2 ] || revs+=(HEAD)
fi

root="target/ab"
mkdir -p "$root/bin"

# Builds perfbench at commit $1 into target/ab/bin/$2/forms-perfbench,
# unless that binary exists already.
build() {
    local sha="$1" tag="$2"
    local bin="$root/bin/$tag/forms-perfbench"
    if [ -x "$bin" ]; then
        echo "ab.sh: reusing $bin" >&2
        return
    fi
    local src="$root/src-$tag"
    git worktree remove --force "$src" 2>/dev/null || true
    git worktree prune
    git worktree add --quiet --detach "$src" "$sha"
    echo "ab.sh: building perfbench at $sha ($tag)" >&2
    if ! cargo build --release --offline --quiet \
        --manifest-path "$src/perfbench/Cargo.toml" --target-dir "$root/build-$tag"; then
        git worktree remove --force "$src"
        echo "ab.sh: build of $sha failed" >&2
        exit 1
    fi
    mkdir -p "$root/bin/$tag"
    cp "$root/build-$tag/release/forms-perfbench" "$bin"
    git worktree remove --force "$src"
}

resolve() {
    git rev-parse --verify --quiet "$1^{commit}" || {
        echo "ab.sh: unknown revision $1" >&2
        exit 1
    }
}

if [ "$aa" -eq 1 ]; then
    sha_a=$(resolve "${revs[0]}")
    sha_b="$sha_a"
    tag_a="${sha_a:0:12}-aa1"
    tag_b="${sha_a:0:12}-aa2"
else
    sha_a=$(resolve "${revs[0]}")
    sha_b=$(resolve "${revs[1]}")
    tag_a="${sha_a:0:12}"
    tag_b="${sha_b:0:12}"
fi
build "$sha_a" "$tag_a"
build "$sha_b" "$tag_b"

runs="$root/runs/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$runs"
echo "ab.sh: result lines in $runs" >&2

# Runs one side once: one JSON result line into $runs/<workload>/<side>-<pair>.json.
run_one() {
    local side="$1" tag="$2" workload="$3" pair="$4"
    local out="$runs/$workload/$side-$pair.json"
    mkdir -p "$runs/$workload"
    if ! "$root/bin/$tag/forms-perfbench" --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace "$trace" > "$out"; then
        echo "ab.sh: $side ($tag) failed on $workload, pair $pair" >&2
        exit 1
    fi
}

IFS=',' read -r -a workload_list <<< "$workloads"
for pair in $(seq 1 "$pairs"); do
    for workload in "${workload_list[@]}"; do
        echo "ab.sh: pair $pair/$pairs, $workload" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run_one A "$tag_a" "$workload" "$pair"
            run_one B "$tag_b" "$workload" "$pair"
        else
            run_one B "$tag_b" "$workload" "$pair"
            run_one A "$tag_a" "$workload" "$pair"
        fi
    done
done

for workload in "${workload_list[@]}"; do
    if [ "$aa" -eq 1 ]; then
        label="A/A: $tag_a vs $tag_b"
    else
        label="A = $tag_a (${revs[0]}), B = $tag_b (${revs[1]})"
    fi
    echo
    echo "== $workload: $pairs pairs of ${seconds} s, trace $trace; $label"
    for f in "$runs/$workload"/*.json; do
        side_pair=$(basename "$f" .json)
        # `"metric": {"value": v, ...}` → "side pair metric v"; the
        # request counts ride along as `attempted` and `failed`.
        grep -o '"[A-Za-z0-9_.]*": {"value": [^,}]*' "$f" |
            sed -e 's/^"\([^"]*\)": {"value": /\1 /' -e "s/^/${side_pair%-*} ${side_pair#*-} /"
        grep -o '"\(attempted\|failed\)": [0-9]*' "$f" |
            sed -e 's/^"\([^"]*\)": /\1 /' -e "s/^/${side_pair%-*} ${side_pair#*-} /"
    done | awk -v pairs="$pairs" -v dirs="$directions" '
        BEGIN {
            n = split(dirs, d, "\n")
            for (i = 1; i <= n; i++) { split(d[i], kv, " "); better[kv[1]] = kv[2] }
            better["failed"] = "lower"
            need = int((9 * pairs + 9) / 10)
        }
        {
            side = $1; pair = $2; m = $3; v = $4 + 0
            if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
            val[m, side, pair] = v
        }
        function quantile(arr, k, q,    pos, lo) {
            pos = q * (k - 1) + 1; lo = int(pos)
            return lo >= k ? arr[k] : arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])
        }
        function stats(m, side, out,    k, p, i, j, t, a) {
            k = 0
            for (p = 1; p <= pairs; p++) if ((m, side, p) in val) a[++k] = val[m, side, p]
            for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
            out["n"] = k
            if (k == 0) return
            out["q1"] = quantile(a, k, 0.25); out["q2"] = quantile(a, k, 0.5); out["q3"] = quantile(a, k, 0.75)
        }
        END {
            printf "%-36s %-6s %11s %11s %11s | %11s %11s %11s | %6s %8s %8s %s\n",
                "metric", "better", "A p25", "A p50", "A p75", "B p25", "B p50", "B p75",
                "B wins", "gap %", "gap/IQR", ""
            for (i = 1; i <= nm; i++) {
                m = order[i]; dir = (m in better) ? better[m] : "?"
                delete A; delete B
                stats(m, "A", A); stats(m, "B", B)
                if (A["n"] == 0 || B["n"] == 0) continue
                wins = 0
                for (p = 1; p <= pairs; p++) {
                    if (!((m, "A", p) in val) || !((m, "B", p) in val)) continue
                    a = val[m, "A", p]; b = val[m, "B", p]
                    if ((dir == "higher" && b > a) || (dir != "higher" && dir != "?" && b < a)) wins++
                }
                gap = B["q2"] - A["q2"]
                rel = A["q2"] != 0 ? 100 * gap / A["q2"] : 0
                iqr = A["q3"] - A["q1"]
                agap = gap < 0 ? -gap : gap
                ratio = iqr > 0 ? sprintf("%8.2f", agap / iqr) : (agap > 0 ? "     inf" : "       0")
                toward = (dir == "higher" && gap > 0) || (dir == "lower" && gap < 0)
                claim = (toward && wins >= need && agap > iqr) ? "claim" : ""
                printf "%-36s %-6s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g | %3d/%-2d %+8.2f %s %s\n",
                    m, dir, A["q1"], A["q2"], A["q3"], B["q1"], B["q2"], B["q3"],
                    wins, pairs, rel, ratio, claim
            }
        }'
done
