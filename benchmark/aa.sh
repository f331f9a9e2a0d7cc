#!/usr/bin/env bash
# A/A repeatability: run the whole benchmark twice on one build and
# compare the two sets of numbers with the benchmark's own bounds.
#
#   benchmark/aa.sh            # full scale, ~6 minutes
#   benchmark/aa.sh --quick    # smoke scale (numbers not comparable)
#
# Prints every end-to-end metric x workload with both values, their
# ratio and the bound; checks that the counters which must repeat
# exactly did. Exits non-zero on any violation (`setup_s` is advisory).
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

for side in 1 2; do
    echo "A/A run $side ..." >&2
    bench --out "$out/aa-$side.tsv" "$@" > "$out/aa-$side.log"
done

awk -F'\t' '
function exact(w, m) {
    # Virtual time is bit-deterministic on the 2P and Rep workloads; the
    # shipped bytes and spill count on exchange_highcard follow from the
    # seeded input alone.
    if (m == "cost.virtual_ms")
        return w == "scan_lowcard" || w == "exchange_highcard"
    return w == "exchange_highcard" && (m == "net.bytes_sent" || m == "hashagg.spilled_tuples")
}
FNR == 1 { next }                      # header line of each file
NR == FNR { first[$1 SUBSEP $3] = $4; next }
{
    key = $1 SUBSEP $3
    if (!(key in first)) { printf "MISSING in run 1: %s %s\n", $1, $3; bad++; next }
    a = first[key]; b = $4; seen[key] = 1
    if ($2 == "e2e") {
        ratio = (a != 0) ? b / a : 0
        off = ratio - 1; if (off < 0) off = -off
        verdict = (off <= $7) ? "ok" : "VIOLATION"
        # One set-up median against another is noisier than the medians of
        # ten the bound is meant for (the contract exempts its spread too).
        if (verdict != "ok" && $3 == "setup_s") verdict = "advisory"
        if (verdict == "VIOLATION") bad++
        printf "%-18s %-14s %16.4f %16.4f %-9s ratio %.4f  bound %.2f  %s\n", $1, $3, a, b, $5, ratio, $7, verdict
    } else if (exact($1, $3)) {
        verdict = (a == b) ? "identical" : "DIFFERS"
        if (a != b) bad++
        printf "%-18s %-24s %20s %20s  %s\n", $1, $3, a, b, verdict
    }
}
END {
    for (key in first) if (!(key in seen)) { split(key, p, SUBSEP); printf "MISSING in run 2: %s %s\n", p[1], p[2]; bad++ }
    if (bad) { printf "%d violation(s)\n", bad; exit 1 }
    print "A/A: every end-to-end metric within its bound, exact-repeat counters identical"
}' "$out/aa-1.tsv" "$out/aa-2.tsv"
