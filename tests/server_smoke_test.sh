#!/bin/sh
# Server overload smoke: serve a binary (seqhidb) fixture, hammer it with
# more concurrency than the queue admits while a network-read fault is
# armed, and assert the no-silent-drop contract: every request ends in an
# ok response or an explicit shed/deadline status (loadgen exits 0),
# SIGTERM drains cleanly, the ledger holds the full audit trail, and the
# served database file is untouched. Then a second server at the default
# worker count answers a sanitize under load with the CLI's exact bytes.
#
# Usage: server_smoke_test.sh SERVER LOADGEN CLI on|off
set -eu

SERVER="$1"
LOADGEN="$2"
CLI="$3"
FAULTS="${4:-on}"

WORK="${TMPDIR:-/tmp}/seqhide_server_smoke_$$"
mkdir -p "$WORK"
trap 'for p in ${SRV_PID:-} ${LOAD_PID:-}; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

: > "$WORK/db.txt"
i=0
while [ "$i" -lt 50 ]; do
  echo "a b c a b" >> "$WORK/db.txt"
  echo "b c a b c" >> "$WORK/db.txt"
  i=$((i + 1))
done
"$CLI" convert --db "$WORK/db.txt" --out "$WORK/db.hidb" --to binary \
    > /dev/null
cp "$WORK/db.hidb" "$WORK/db.hidb.orig"

FAULT_ARGS=""
if [ "$FAULTS" = "on" ]; then
  # The third read on the serving socket fails: one connection drops
  # mid-request; its client must absorb that via retry.
  FAULT_ARGS="--inject-fault net.read.short:3"
fi

# queue-limit 4 against concurrency 8: overload is guaranteed, and every
# overflow must surface as an explicit shed response.
"$SERVER" --db "$WORK/db.hidb" --socket "$WORK/s.sock" \
    --workers 2 --queue-limit 4 --ledger "$WORK/ledger.jsonl" \
    $FAULT_ARGS > "$WORK/server.out" 2>/dev/null &
SRV_PID=$!
TRIES=0
while ! grep -q "^listening" "$WORK/server.out" 2>/dev/null; do
  kill -0 "$SRV_PID" 2>/dev/null || { echo "FAIL: server died"; exit 1; }
  TRIES=$((TRIES + 1))
  [ "$TRIES" -gt 600 ] && { echo "FAIL: server never listened"; exit 1; }
  sleep 0.05
done

# Hard failures (no response / internal) make loadgen exit non-zero.
"$LOADGEN" --socket "$WORK/s.sock" --method support \
    --pattern "a -> b" --pattern "b -> c -> a" \
    --concurrency 8 --duration-ms 2000 --deadline-ms 2000 \
    --max-attempts 6 | tee "$WORK/loadgen.out" \
    || { echo "FAIL: loadgen saw hard failures"; exit 1; }

grep -q "hard=0" "$WORK/loadgen.out" \
    || { echo "FAIL: hard failures in summary"; exit 1; }
TOTAL=$(sed -n 's/.*total=\([0-9]*\).*/\1/p' "$WORK/loadgen.out")
[ "${TOTAL:-0}" -gt 0 ] || { echo "FAIL: loadgen sent nothing"; exit 1; }

# A malformed request gets an explicit invalid_argument, not a hangup.
echo '{"id":1,"method":"support"}' > "$WORK/bad.json"
"$LOADGEN" --socket "$WORK/s.sock" --one "$WORK/bad.json" \
    | grep -q "invalid_argument" \
    || { echo "FAIL: malformed request not answered explicitly"; exit 1; }

kill -TERM "$SRV_PID"
TRIES=0
while kill -0 "$SRV_PID" 2>/dev/null; do
  TRIES=$((TRIES + 1))
  [ "$TRIES" -gt 600 ] && { echo "FAIL: server never drained"; exit 1; }
  sleep 0.05
done
wait "$SRV_PID" 2>/dev/null || true

grep -q "^drained" "$WORK/server.out" \
    || { echo "FAIL: no drain summary"; exit 1; }
grep -q '"type":"run_start"' "$WORK/ledger.jsonl" \
    || { echo "FAIL: ledger missing run_start"; exit 1; }
grep -q '"type":"run_end"' "$WORK/ledger.jsonl" \
    || { echo "FAIL: ledger missing run_end (drain did not flush)"; exit 1; }
grep -q '"type":"request"' "$WORK/ledger.jsonl" \
    || { echo "FAIL: ledger has no request records"; exit 1; }

# Serving never mutates the database image.
cmp -s "$WORK/db.hidb" "$WORK/db.hidb.orig" \
    || { echo "FAIL: served database file changed"; exit 1; }

# Sanitize under load at the default worker count (one per hardware
# thread): a support loadgen keeps the workers busy while one HH sanitize
# runs beside it, and the file the server writes must equal the CLI's
# sanitize of the same fixture, patterns and psi byte for byte.
"$SERVER" --db "$WORK/db.hidb" --socket "$WORK/d.sock" \
    > "$WORK/server_default.out" 2>/dev/null &
SRV_PID=$!
TRIES=0
while ! grep -q "^listening" "$WORK/server_default.out" 2>/dev/null; do
  kill -0 "$SRV_PID" 2>/dev/null || { echo "FAIL: server died"; exit 1; }
  TRIES=$((TRIES + 1))
  [ "$TRIES" -gt 600 ] && { echo "FAIL: server never listened"; exit 1; }
  sleep 0.05
done
"$LOADGEN" --socket "$WORK/d.sock" --method support \
    --pattern "a -> b" --pattern "b -> c -> a" \
    --concurrency 4 --duration-ms 1500 > "$WORK/loadgen_bg.out" &
LOAD_PID=$!
sleep 0.2
echo '{"id":7,"method":"sanitize","patterns":["a -> b -> c","c -> a"],"psi":10,"algo":"HH","out":"'"$WORK"'/sanitized_server.txt"}' \
    > "$WORK/sanitize.json"
"$LOADGEN" --socket "$WORK/d.sock" --one "$WORK/sanitize.json" \
    > "$WORK/sanitize.out"
grep -q '"status":"ok"' "$WORK/sanitize.out" \
    || { echo "FAIL: sanitize under load not ok"; cat "$WORK/sanitize.out"; exit 1; }
wait "$LOAD_PID" || { echo "FAIL: background loadgen failed"; exit 1; }
grep -q "hard=0" "$WORK/loadgen_bg.out" \
    || { echo "FAIL: hard failures beside the sanitize"; exit 1; }
kill -TERM "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
"$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/sanitized_cli.txt" \
    --pattern "a -> b -> c" --pattern "c -> a" --psi 10 --algo HH > /dev/null
cmp "$WORK/sanitized_server.txt" "$WORK/sanitized_cli.txt" \
    || { echo "FAIL: server sanitize under load differs from the CLI"; exit 1; }

echo "server smoke test passed"
