#!/bin/sh
# Byte-identity check of the second stage (--stage2 delete and replace)
# against tests/golden/sanitize_300rows.{delete,replace}.out.txt: the
# seeded 300-row database of the sanitize goldens, the same three
# unconstrained patterns, at --threads 1, 2 and 8. Deleting a Δ never
# completes an unconstrained occurrence, so both goldens hold no Δ.
#
# $1 = seqhide_cli, $2 = tests/golden directory.
set -eu

CLI="$1"
GOLDEN="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

python3 - > "$WORK/kernel_db.txt" <<'PY'
import random
random.seed(8080)
symbols = list("abcdefgh")
for _ in range(300):
    n = random.randint(8, 24)
    print(" ".join(random.choice(symbols) for _ in range(n)))
PY
for policy in delete replace; do
  for threads in 1 2 8; do
    "$CLI" sanitize --db "$WORK/kernel_db.txt" --out "$WORK/out.txt" \
        --pattern "a -> b -> c" --pattern "b -> a" --pattern "c -> d -> a" \
        --psi 3 --seed 7 --threads "$threads" --stage2 "$policy" \
        > "$WORK/log.txt"
    cmp "$WORK/out.txt" "$GOLDEN/sanitize_300rows.$policy.out.txt"
    grep -q "kept 0 released_supports=\[3,3,2\]" "$WORK/log.txt"
  done
done

echo "stage2 golden test passed"
