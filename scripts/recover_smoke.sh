#!/usr/bin/env bash
# Crash/recover smoke: a real spec_infer process serving through the
# write-ahead journal dies mid-serve, and a fresh process recovers
# from the snapshot (which holds the active sessions, token-level)
# plus the journal tail.
#
#   1. spec_infer --journal ... --crash-after 12 exits 3 with
#      requests in flight, right after a snapshot;
#   2. the same command with --recover loads that snapshot (its
#      active sessions rebuild their KV rows from their tokens) and
#      finishes serving;
#   3. the recovered run's `tokens:` lines must equal an
#      uninterrupted run's;
#   4. diffcheck --replay-journal re-drives the whole journal, both
#      process generations, against the engine.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
W=$(mktemp -d "${TMPDIR:-/tmp}/recover-smoke-XXXXXX")
trap 'rm -rf "$W"' EXIT
SERVE=("$BUILD/tools/spec_infer" --snapshot-every 4 --num-prompts 8
       --verbose)

"${SERVE[@]}" --journal "$W/ref.wal" >"$W/ref.log"

status=0
"${SERVE[@]}" --journal "$W/s.wal" --crash-after 12 \
    >"$W/crash.log" || status=$?
if [ "$status" -ne 3 ]; then
    echo "recover_smoke: crash run exited $status, want 3"
    cat "$W/crash.log"
    exit 1
fi

"${SERVE[@]}" --journal "$W/s.wal" --recover >"$W/recover.log"
grep -Eq '^recover: .*, [1-9][0-9]* active' "$W/recover.log" || {
    echo "recover_smoke: the snapshot held no active session"
    cat "$W/recover.log"
    exit 1
}
diff <(grep 'tokens:' "$W/ref.log") \
     <(grep 'tokens:' "$W/recover.log") || {
    echo "recover_smoke: recovered tokens differ from the" \
         "uninterrupted run"
    exit 1
}

"$BUILD/tools/diffcheck" --replay-journal "$W/s.wal"
echo "recover_smoke: OK ($(grep '^recover:' "$W/recover.log"))"
