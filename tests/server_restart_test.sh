#!/bin/sh
# Kill-and-restart: SIGKILL seqhide_server mid-sanitize (a durable job,
# checkpointing every round) and verify that after restart the recovered
# output database is byte-identical to an uninterrupted CLI run with the
# same options — at several thread counts — and that the ledger records
# both server boots and the recovered job.
#
# While the kill window is open, an open-loop query volley keeps
# match-count queries in flight, so the SIGKILL also lands mid-query;
# those connections die without responses (expected — the clients are
# gone with the process), and the checks are that recovery
# is still byte-identical and that the restarted server answers query
# traffic with zero hard failures.
#
# DB_FORMAT picks the image the server loads: "text" (the database file
# itself) or "binary" (a `seqhide_cli convert --to binary` image of it,
# served off the mapping). The reference is always the CLI run on the
# text file, so the binary leg also pins mapped == in-memory output.
#
# Usage: server_restart_test.sh SERVER LOADGEN CLI [text|binary]
set -eu

SERVER="$1"
LOADGEN="$2"
CLI="$3"
DB_FORMAT="${4:-text}"

WORK="${TMPDIR:-/tmp}/seqhide_server_restart_$$"
mkdir -p "$WORK"
trap 'kill -9 "${SRV_PID:-0}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# ~2000 victim sequences; --round-size 1 makes the mark stage one durable
# (fsync'd) checkpoint per victim, so even a fast build spends hundreds of
# milliseconds in the kill window.
: > "$WORK/db.txt"
i=0
while [ "$i" -lt 2000 ]; do
  echo "a b c a b c a" >> "$WORK/db.txt"
  echo "b c x y z" >> "$WORK/db.txt"
  i=$((i + 1))
done

PATTERN="a -> b -> c"

case "$DB_FORMAT" in
  text) SERVE_DB="$WORK/db.txt" ;;
  binary)
    SERVE_DB="$WORK/db.sdb"
    "$CLI" convert --db "$WORK/db.txt" --out "$SERVE_DB" --to binary \
        > /dev/null
    ;;
  *) echo "FAIL: unknown db format '$DB_FORMAT'"; exit 1 ;;
esac

# Uninterrupted reference (results are bit-identical for every --threads,
# so one reference serves all server thread counts).
"$CLI" sanitize --db "$WORK/db.txt" --out "$WORK/ref.txt" \
    --pattern "$PATTERN" --psi 0 --seed 1 --round-size 1 \
    --checkpoint "$WORK/ref.ckpt" > /dev/null

start_server() {
  # $1 = threads, $2 = state dir, $3 = ledger
  # Empty server.out before the fork: the child's own truncation can run
  # after the first grep below, which would then see the previous
  # server's "listening" line and race ahead of recovery.
  : > "$WORK/server.out"
  "$SERVER" --db "$SERVE_DB" --socket "$WORK/s.sock" \
      --state-dir "$2" --ledger "$3" --threads "$1" \
      --round-size 1 --checkpoint-every 1 > "$WORK/server.out" 2>/dev/null &
  SRV_PID=$!
  TRIES=0
  while ! grep -q "^listening" "$WORK/server.out" 2>/dev/null; do
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
      echo "FAIL: server died on startup"; exit 1
    fi
    TRIES=$((TRIES + 1))
    [ "$TRIES" -gt 600 ] && { echo "FAIL: server never listened"; exit 1; }
    sleep 0.05
  done
}

for THREADS in 1 2 8; do
  STATE="$WORK/state_$THREADS"
  LEDGER="$WORK/ledger_$THREADS.jsonl"
  OUT="$WORK/out_$THREADS.txt"
  mkdir -p "$STATE"

  ATTEMPT=0
  while :; do
    ATTEMPT=$((ATTEMPT + 1))
    rm -f "$STATE"/* "$OUT"
    start_server "$THREADS" "$STATE" "$LEDGER"

    printf '{"id":1,"method":"sanitize","patterns":["%s"],"psi":0,"seed":1,"out":"%s","job":"kill"}\n' \
        "$PATTERN" "$OUT" > "$WORK/req.json"
    "$LOADGEN" --socket "$WORK/s.sock" --one "$WORK/req.json" \
        > /dev/null 2>&1 &
    LG_PID=$!

    # Query pressure so the SIGKILL lands mid-query too. The volley dies
    # with the server; its exit status is meaningless here.
    "$LOADGEN" --socket "$WORK/s.sock" --method match-count \
        --pattern "a -> b" --pattern "b -> c" \
        --open-loop --target-qps 500 --duration-ms 5000 --concurrency 4 \
        > /dev/null 2>&1 &
    OL_PID=$!

    # Kill the server the moment the job's checkpoint is durably on disk
    # (i.e. mid-mark-stage, ~1/2000th of the way in). If the output file
    # shows up first the whole job outran the poll — that's the
    # too-fast case below, not a failure.
    TRIES=0
    while [ ! -f "$STATE/kill.ckpt" ] && [ ! -f "$OUT" ]; do
      TRIES=$((TRIES + 1))
      [ "$TRIES" -gt 600 ] && { echo "FAIL: no checkpoint appeared"; exit 1; }
      sleep 0.05
    done
    kill -9 "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
    wait "$LG_PID" 2>/dev/null || true
    kill "$OL_PID" 2>/dev/null || true
    wait "$OL_PID" 2>/dev/null || true

    if [ -f "$OUT" ] || [ ! -f "$STATE/kill.job" ]; then
      # The job finished before the SIGKILL landed: too fast on this
      # machine. Retry with a fresh state dir.
      [ "$ATTEMPT" -ge 3 ] && { echo "FAIL: could not kill mid-job"; exit 1; }
      continue
    fi
    break
  done

  [ -f "$OUT" ] && { echo "FAIL: output exists before recovery"; exit 1; }

  # Restart: recovery runs to completion before the endpoint binds.
  start_server "$THREADS" "$STATE" "$LEDGER"

  # The restarted server serves queries with no silent drops.
  "$LOADGEN" --socket "$WORK/s.sock" --method match-count \
      --pattern "a -> b -> c" --requests 32 --concurrency 4 > /dev/null \
      || { echo "FAIL(threads=$THREADS): post-restart queries failed"; exit 1; }

  kill -TERM "$SRV_PID"
  wait "$SRV_PID" 2>/dev/null || true

  [ -f "$OUT" ] || { echo "FAIL(threads=$THREADS): no recovered output"; exit 1; }
  cmp -s "$OUT" "$WORK/ref.txt" \
      || { echo "FAIL(threads=$THREADS): recovered db differs from reference"; exit 1; }
  [ -f "$STATE/kill.job" ] && { echo "FAIL: job spec survived recovery"; exit 1; }
  [ -f "$STATE/kill.ckpt" ] && { echo "FAIL: checkpoint survived recovery"; exit 1; }

  STARTS=$(grep -c '"type":"run_start"' "$LEDGER" || true)
  [ "${STARTS:-0}" -ge 2 ] \
      || { echo "FAIL(threads=$THREADS): expected 2 run_start, got $STARTS"; exit 1; }
  grep -q '"recovered":true' "$LEDGER" \
      || { echo "FAIL(threads=$THREADS): no recovered request record"; exit 1; }

  echo "$DB_FORMAT threads=$THREADS: recovered byte-identical"
done

echo "server restart test passed ($DB_FORMAT db)"
