#!/bin/sh
# End-to-end smoke test of the seqhide_cli binary (registered in CTest).
# $1 = path to the seqhide_cli binary.
set -eu

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/db.txt" <<EOF
a b c d
a b x c
b c a
a a b c c b a e
x y z
EOF

# stats (seq format, default and explicit: every reported line)
STATS="$("$CLI" stats --db "$WORK/db.txt")"
echo "$STATS" | grep -q "sequences       5"
echo "$STATS" | grep -q "alphabet        8"
echo "$STATS" | grep -q "total symbols   22"
echo "$STATS" | grep -q "marked (delta)  0"
echo "$STATS" | grep -q "length min/mean/max  3 / 4.4 / 8"
STATS_EXPLICIT="$("$CLI" stats --db "$WORK/db.txt" --format seq)"
[ "$STATS" = "$STATS_EXPLICIT" ] || {
  echo "FAIL: --format seq changed stats output"; exit 1; }

# support (constrained + unconstrained)
OUT="$("$CLI" support --db "$WORK/db.txt" --pattern "a -> b -> c")"
echo "$OUT" | grep -q "support=3"

# support on a seqhidb image: the same stdout as on the text database
"$CLI" convert --db "$WORK/db.txt" --to binary --out "$WORK/db.hidb" > /dev/null
for f in db.txt db.hidb; do
  "$CLI" support --db "$WORK/$f" --pattern "a -> b -> c" \
      --pattern "a ->[0..1] b" --pattern "ghost -> a" > "$WORK/support_$f.out"
done
cmp "$WORK/support_db.txt.out" "$WORK/support_db.hidb.out"

# A checked-in seqhidb v1 image (version 1 writer, posting lists and a
# prefix index in sections 4-8), its v2 conversion and its text export
# answer stats and support identically.
V1="$(dirname "$0")/fuzz/corpus/binary_db/v1_02.hidb"
"$CLI" convert --db "$V1" --to binary --out "$WORK/v2.hidb" > /dev/null
"$CLI" convert --db "$V1" --to text --out "$WORK/v1_export.txt" > /dev/null
for f in "$V1" "$WORK/v2.hidb" "$WORK/v1_export.txt"; do
  "$CLI" stats --db "$f"
  "$CLI" support --db "$f" --pattern "s0 -> s2" --pattern "s2 ->[0] s3"
done > "$WORK/versions.out"
"$CLI" stats --db "$V1" > "$WORK/v1_stats.out"
"$CLI" support --db "$V1" --pattern "s0 -> s2" --pattern "s2 ->[0] s3" \
    >> "$WORK/v1_stats.out"
cat "$WORK/v1_stats.out" "$WORK/v1_stats.out" "$WORK/v1_stats.out" \
    | cmp - "$WORK/versions.out"
grep -q "sequences       3" "$WORK/v1_stats.out"
grep -q "support=2" "$WORK/v1_stats.out"
# inspect: the conversion is version 2 with empty v1 index sections
"$CLI" inspect --db "$V1" | grep -q "seqhidb version  1"
"$CLI" inspect --db "$WORK/v2.hidb" --verify > "$WORK/v2_inspect.out"
grep -q "seqhidb version  2" "$WORK/v2_inspect.out"
for i in 4 5 6 7 8; do
  grep -q "^  $i v1 [a-z_]*  [0-9]* / 0 / " "$WORK/v2_inspect.out" || {
    echo "FAIL: section $i of the v2 image is not empty"; exit 1; }
done
grep -q "checksums OK" "$WORK/v2_inspect.out"
# the removed index-size flag is now an unknown flag: usage error, exit 1
set +e
"$CLI" convert --db "$WORK/db.txt" --to binary --out "$WORK/pk.hidb" \
    --prefix-k 2 > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || { echo "FAIL: convert with the index flag exited $rc"; exit 1; }

# support on a corrupt seqhidb image fails with ValidateRows' Corruption
# instead of answering from clamped rows. u64_at FILE OFFSET reads a
# little-endian u64; bytes 112 and 136 hold the row_offsets and columns
# section offsets (docs/binary-format.md).
u64_at() { od -An -tu8 -j "$2" -N 8 "$1" | tr -d ' '; }
patch_at() { printf "$3" | dd of="$1" bs=1 seek="$2" conv=notrunc 2>/dev/null; }
ROWS_AT="$(u64_at "$WORK/db.hidb" 112)"
COLS_AT="$(u64_at "$WORK/db.hidb" 136)"
cp "$WORK/db.hidb" "$WORK/bad_column.hidb"
patch_at "$WORK/bad_column.hidb" "$COLS_AT" '\377\377\377\177'
cp "$WORK/db.hidb" "$WORK/bad_offset.hidb"
patch_at "$WORK/bad_offset.hidb" $((ROWS_AT + 8)) '\377\377\377\377\377\377\377\177'
for bad in bad_column bad_offset; do
  if "$CLI" support --db "$WORK/$bad.hidb" --pattern "a -> b" \
      > /dev/null 2> "$WORK/$bad.err"; then
    echo "FAIL: support answered on $bad.hidb"; exit 1
  fi
done
grep -q "Corruption: seqhidb column 0 references symbol id 2147483647 outside the alphabet" \
    "$WORK/bad_column.err"
grep -q "Corruption: seqhidb row 1 has corrupt offsets (not monotone)" \
    "$WORK/bad_offset.err"
# stats runs the same row check: no totals from clamped rows, exit 2
for bad in bad_column bad_offset; do
  set +e
  "$CLI" stats --db "$WORK/$bad.hidb" > /dev/null 2> "$WORK/stats_$bad.err"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "FAIL: stats on $bad.hidb exited $rc"; exit 1; }
done
grep -q "Corruption: seqhidb column 0 references symbol id 2147483647 outside the alphabet" \
    "$WORK/stats_bad_column.err"
grep -q "Corruption: seqhidb row 1 has corrupt offsets (not monotone)" \
    "$WORK/stats_bad_offset.err"

# mine: the whole listing (order and format) against a checked-in golden,
# and --top cutting it after N patterns
GOLDEN="$(dirname "$0")/golden/mine_sigma2.txt"
"$CLI" mine --db "$WORK/db.txt" --sigma 2 > "$WORK/mine.txt"
cmp "$WORK/mine.txt" "$GOLDEN"
"$CLI" mine --db "$WORK/db.txt" --sigma 2 --top 3 > "$WORK/mine_top3.txt"
{ head -n 4 "$GOLDEN"; echo "... (8 more)"; } | cmp - "$WORK/mine_top3.txt"

# sanitize (keep deltas), verify hidden
"$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/out.txt" \
    --pattern "a -> b -> c" --psi 0 --algo HH > "$WORK/log.txt"
grep -q "supports_after=\[0\]" "$WORK/log.txt"
"$CLI" support --db "$WORK/out.txt" --pattern "a -> b -> c" | grep -q "support=0"
grep -q '\^' "$WORK/out.txt"   # deltas kept
# stats on the sanitized release reports the introduced marks
MARKS="$("$CLI" stats --db "$WORK/out.txt" \
      | sed -n 's/^marked (delta)  \([0-9]*\)$/\1/p')"
[ "$MARKS" -gt 0 ]

# sanitize with stage2 replacement: no deltas in the release
"$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/out2.txt" \
    --pattern "a -> b -> c" --psi 0 --stage2 replace > /dev/null
if grep -q '\^' "$WORK/out2.txt"; then
  echo "FAIL: deltas survived stage2 replace"; exit 1
fi
"$CLI" support --db "$WORK/out2.txt" --pattern "a -> b -> c" | grep -q "support=0"

# stage2 replacement at psi 1: the row psi leaves supporting keeps its
# occurrence, the marked rows get symbols back, support stays at psi
"$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/out2b.txt" \
    --pattern "a -> b -> c" --psi 1 --stage2 replace > "$WORK/log2b.txt"
grep -q "stage2: replaced 2, deleted 0" "$WORK/log2b.txt"
if grep -q '\^' "$WORK/out2b.txt"; then
  echo "FAIL: deltas survived stage2 replace at psi 1"; exit 1
fi
"$CLI" support --db "$WORK/out2b.txt" --pattern "a -> b -> c" | grep -q "support=1"

# stage2 delete with a window or adjacent-gap pattern: deleting the Δ of
# each <a, Δ, b> would release <a, b> and complete an occurrence, so both
# Δs stay, the run reports them (stdout and --stats-json) and the release
# keeps support 0.
printf 'a a b\na a b\n' > "$WORK/aab.txt"
for pattern in "a -> b ; window<=2" "a ->[0..0] b"; do
  "$CLI" sanitize --db "$WORK/aab.txt" --out "$WORK/aab_out.txt" \
      --pattern "$pattern" --psi 0 --stage2 delete \
      --stats-json "$WORK/aab_stats.json" > "$WORK/aab_log.txt"
  grep -q "stage2: replaced 0, deleted 0, kept 2 released_supports=\[0\]" \
      "$WORK/aab_log.txt" || {
    echo "FAIL: stage2 delete on '$pattern' did not keep its 2 Δs"; exit 1; }
  grep -q '"stage2":{"replaced":0,"deleted":0,"kept":2,"supports":\[0\]}' \
      "$WORK/aab_stats.json" || {
    echo "FAIL: stats-json lacks the stage2 report for '$pattern'"; exit 1; }
  "$CLI" support --db "$WORK/aab_out.txt" --pattern "$pattern" \
      | grep -q " support=0 " || {
    echo "FAIL: stage2 delete released '$pattern'"; exit 1; }
done

# a bad --stage2 value is a usage error before anything runs
set +e
"$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/bad_stage2.txt" \
    --pattern "a -> b -> c" --stage2 delet > "$WORK/bad_stage2.log" 2>&1
code=$?
set -e
[ "$code" = 1 ] || { echo "FAIL: --stage2 delet exited $code, not 1"; exit 1; }
if grep -q "SanitizeReport" "$WORK/bad_stage2.log" ||
    [ -e "$WORK/bad_stage2.txt" ]; then
  echo "FAIL: --stage2 delet ran the sanitize"; exit 1
fi

# psi > 0 leaves at most psi supporters
"$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/out3.txt" \
    --pattern "a -> b -> c" --psi 2 --algo RR --seed 7 > /dev/null
SUP="$("$CLI" support --db "$WORK/out3.txt" --pattern "a -> b -> c" \
      | sed 's/.*support=\([0-9]*\).*/\1/')"
[ "$SUP" -le 2 ]

# saturated windowed counts: a^20 under window<=199 over two rows of 200
# a's has more than 2^64 matchings per row; δ stays large and both rows
# are sanitized (exit 0, supports_after [0])
A200="a"
i=1
while [ "$i" -lt 200 ]; do A200="$A200 a"; i=$((i + 1)); done
{ echo "$A200"; echo "$A200"; echo "b c"; } > "$WORK/saturated.txt"
A20="a"
i=1
while [ "$i" -lt 20 ]; do A20="$A20 -> a"; i=$((i + 1)); done
"$CLI" sanitize --db "$WORK/saturated.txt" --out "$WORK/saturated_out.txt" \
    --pattern "$A20 ; window<=199" --psi 0 --algo HH > "$WORK/saturated.log"
grep -q "supports_after=\[0\]" "$WORK/saturated.log"
grep -q "saturated=2" "$WORK/saturated.log"

# itemset format (paper section 7.1)
cat > "$WORK/baskets.txt" <<EOF
(formula,diapers) (coupon)
(formula) (coupon)
(snacks) (wipes)
(formula) (snacks)
EOF
ISTATS="$("$CLI" stats --db "$WORK/baskets.txt" --format itemset)"
echo "$ISTATS" | grep -q "sequences       4"
echo "$ISTATS" | grep -q "alphabet        5"
echo "$ISTATS" | grep -q "total elements  8"
echo "$ISTATS" | grep -q "total items     9"
echo "$ISTATS" | grep -q "empty (marked)  0"
"$CLI" mine --db "$WORK/baskets.txt" --format itemset --sigma 2 \
  | grep -q "(formula) (coupon)"
"$CLI" sanitize --db "$WORK/baskets.txt" --out "$WORK/baskets_out.txt" \
  --format itemset --pattern "(formula) (coupon)" --psi 0 > "$WORK/ilog.txt"
grep -q "support 2 -> 0" "$WORK/ilog.txt"
if "$CLI" mine --db "$WORK/baskets_out.txt" --format itemset --sigma 2 \
    | grep -q "(formula) (coupon)"; then
  echo "FAIL: itemset pattern still frequent after hiding"; exit 1
fi
if "$CLI" sanitize --db "$WORK/baskets.txt" --out /dev/null \
    --format itemset --pattern "() (coupon)" --psi 0 > /dev/null 2>&1; then
  echo "FAIL: empty pattern element accepted"; exit 1
fi
# Itemset input parity with the sequence pipeline: at psi 1, the pair
# (a) (c), (b) (d) marks row 1; repeating (a) (c) doubled its count and
# marked row 2 instead. A repeated pattern and psi above |D| now exit 1
# with InvalidArgument, as for sequence patterns, and write nothing.
printf '(a) (a) (a) (c)\n(b) (b) (b) (b) (b) (d)\n' > "$WORK/dup_baskets.txt"
"$CLI" sanitize --db "$WORK/dup_baskets.txt" --out "$WORK/dup_out.txt" \
  --format itemset --psi 1 --pattern "(a) (c)" --pattern "(b) (d)" > /dev/null
grep -q "^(a) (a) (a) ()$" "$WORK/dup_out.txt"
grep -q "^(b) (b) (b) (b) (b) (d)$" "$WORK/dup_out.txt"
rm "$WORK/dup_out.txt"
expect_invalid_itemset() {
  set +e
  "$CLI" sanitize --db "$WORK/dup_baskets.txt" --out "$WORK/dup_out.txt" \
    --format itemset "$@" > /dev/null 2> "$WORK/dup_err.txt"
  code=$?
  set -e
  [ "$code" = 1 ] || { echo "FAIL: exit $code, not 1, for: $*"; exit 1; }
  grep -q "InvalidArgument" "$WORK/dup_err.txt" \
    || { echo "FAIL: no InvalidArgument for: $*"; exit 1; }
  [ ! -e "$WORK/dup_out.txt" ] \
    || { echo "FAIL: rejected run wrote output for: $*"; exit 1; }
}
expect_invalid_itemset --psi 1 --pattern "(a) (c)" --pattern "(b) (d)" \
  --pattern "(a) (c)"
expect_invalid_itemset --psi 3 --pattern "(a) (c)"
# A pattern longer than every row can never be supported: InvalidArgument,
# as a sequence pattern longer than every row is.
expect_invalid_itemset --psi 0 \
  --pattern "(a) (a) (a) (a) (a) (a) (a) (c)"
if "$CLI" stats --db "$WORK/baskets.txt" --format bogus > /dev/null 2>&1; then
  echo "FAIL: bogus format accepted"; exit 1
fi
# --format itemset honours none of the seq pipeline's flags: each one is a
# usage error (exit 1) that writes nothing, not a silently ignored option.
expect_usage_error() {
  set +e
  "$CLI" "$@" > /dev/null 2>&1
  code=$?
  set -e
  [ "$code" = 1 ] || { echo "FAIL: exit $code, not 1, for: $*"; exit 1; }
}
for flag in "--algo RR" "--seed 3" "--threads 8" "--stage2 delete" \
    "--db-format binary" "--input-mode lenient" "--trace-json $WORK/it.json" \
    "--inject-fault io.db.open:1" "--ledger $WORK/il.jsonl" \
    "--metrics-prom $WORK/im.prom" "--telemetry-interval-ms 10" \
    "--deadline-seconds 1" "--deadline-ms 1" "--max-table-bytes 1" \
    "--max-rounds 1" "--round-size 1" "--checkpoint $WORK/ick.bin" \
    "--checkpoint-every 1" "--resume"; do
  # $flag is split on purpose: a flag name and its value.
  # shellcheck disable=SC2086
  expect_usage_error sanitize --format itemset --db "$WORK/baskets.txt" \
      --out "$WORK/ib_out.txt" --pattern "(formula) (coupon)" $flag
done
expect_usage_error sanitize --format itemset --db "$WORK/baskets.txt" \
    --out "$WORK/ib_out.txt" --pattern "(formula) (coupon)" --algo RR \
    --seed 3 --threads 8 --max-table-bytes 1 --deadline-ms 1 \
    --stage2 delete --checkpoint "$WORK/ick.bin"
expect_usage_error sanitize --format itemset --db "$WORK/baskets.txt" \
    --out "$WORK/ib_out.txt" --pattern "(formula) (coupon)" \
    --db-format binary --input-mode lenient --ledger "$WORK/il.jsonl" \
    --metrics-prom "$WORK/im.prom"
expect_usage_error mine --format itemset --db "$WORK/baskets.txt" --sigma 2 \
    --db-format binary --input-mode lenient
expect_usage_error stats --format itemset --db "$WORK/baskets.txt" \
    --input-mode lenient
for f in ib_out.txt it.json il.jsonl im.prom ick.bin; do
  [ ! -e "$WORK/$f" ] || { echo "FAIL: rejected itemset run wrote $f"; exit 1; }
done
# The flags it does honour still work, with stage timings in the report.
"$CLI" sanitize --format itemset --db "$WORK/baskets.txt" \
    --out "$WORK/ib_out.txt" --pattern "(formula) (coupon)" --psi 1 \
    --stats-json "$WORK/istats.json" > /dev/null
grep -q '"stages"' "$WORK/istats.json"

# usage errors exit 1
if "$CLI" bogus-command > /dev/null 2>&1; then
  echo "FAIL: bogus command accepted"; exit 1
fi
if "$CLI" mine --db "$WORK/db.txt" > /dev/null 2>&1; then
  echo "FAIL: mine without --sigma accepted"; exit 1
fi

# flag validation: unknown flags and misplaced flags are rejected
if "$CLI" stats --db "$WORK/db.txt" --bogus-flag x > /dev/null 2>&1; then
  echo "FAIL: unknown flag accepted"; exit 1
fi
if "$CLI" stats --db "$WORK/db.txt" --pattern "a -> b" > /dev/null 2>&1; then
  echo "FAIL: stats accepted --pattern"; exit 1
fi
if "$CLI" mine --db "$WORK/db.txt" --sigma 2 --psi 0 > /dev/null 2>&1; then
  echo "FAIL: mine accepted sanitize-only --psi"; exit 1
fi

# observability sinks that cannot be written fail loudly (exit nonzero)
if "$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/o.txt" \
    --pattern "a -> b -> c" --psi 0 \
    --stats-json /nonexistent-dir/stats.json > /dev/null 2>&1; then
  echo "FAIL: unwritable --stats-json accepted"; exit 1
fi
if "$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/o.txt" \
    --pattern "a -> b -> c" --psi 0 \
    --trace-json /nonexistent-dir/trace.json > /dev/null 2>&1; then
  echo "FAIL: unwritable --trace-json accepted"; exit 1
fi

echo "cli smoke test passed"
