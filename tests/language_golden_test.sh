#!/bin/sh
# Byte-identity check of the itemset (§7.1), timed (§7.2) and class-pattern
# (§8) hiding paths against the goldens under tests/golden/:
#   * stdout of the retail_baskets, medical_events and fraud_patterns
#     examples and of `bench_temporal --quick`;
#   * a `seqhide_cli sanitize --format itemset` run: the released database
#     and its --stats-json report with timings, memory and counters removed.
# The goldens were recorded before the three languages shared one engine;
# re-record them only with a build whose outputs are known good.
#
# $1 = seqhide_cli, $2 = directory holding the example binaries,
# $3 = bench_temporal, $4 = tests/golden directory.
set -eu

CLI="$1"
EXAMPLES="$2"
BENCH_TEMPORAL="$3"
GOLDEN="$4"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for example in retail_baskets medical_events fraud_patterns; do
  "$EXAMPLES/$example" > "$WORK/$example.txt"
  cmp "$WORK/$example.txt" "$GOLDEN/$example.txt"
done
TMPDIR="$WORK" "$BENCH_TEMPORAL" --quick > "$WORK/bench_temporal.txt"
cmp "$WORK/bench_temporal.txt" "$GOLDEN/bench_temporal_quick.txt"

# Relative paths: option values are part of the emitted JSON.
cp "$GOLDEN/itemset_200rows.db.txt" "$WORK/db.txt"
cd "$WORK"
"$CLI" sanitize --format itemset --db db.txt --out out.txt \
    --pattern "(a) (b)" --pattern "(c,d) (e)" --psi 5 \
    --stats-json stats.json > /dev/null
cmp out.txt "$GOLDEN/itemset_200rows.out.txt"
python3 - stats.json > stats.stable <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
for key in ("memory", "thread_pool", "counters", "gauges", "spans",
            "histograms"):
    stats.pop(key, None)
for key in ("elapsed_seconds", "stages"):
    stats["report"].pop(key, None)
print(json.dumps(stats, sort_keys=True, indent=1))
EOF
cmp stats.stable "$GOLDEN/itemset_200rows.stats.json"

echo "language golden test passed"
