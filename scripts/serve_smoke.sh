#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the long-lived extraction
# service: learns a tiny program, installs it into a program directory
# under the registry's <name>@<version>.<doctype>.json convention, starts
# `flashextract serve -admin`, and drives the flashextract-serve/v1
# protocol over stdin/stdout — ready frame, scan, scan_batch, a SIGHUP
# hot reload picking up a second program version, and error frames for
# unknown programs. The admin side is checked too (/programs, /rpc,
# /healthz, /metrics, and /trace/last holding -trace-ring trees), then the
# stream is closed and the process must exit cleanly (it self-checks for
# goroutine leaks on the way out).
#
# Usage: scripts/serve_smoke.sh   (from the repository root)
set -euo pipefail

workdir=$(mktemp -d)
admin_port=${ADMIN_PORT:-18081}
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building flashextract =="
go build -o "$workdir/flashextract" ./cmd/flashextract

echo "== learning the program =="
cat > "$workdir/doc.txt" <<'EOF'
inventory
Chair: Aeron (price: $540.00)
Chair: Tulip (price: $99.99)
EOF
cat > "$workdir/schema.fx" <<'EOF'
Struct(Names: Seq([name] String), Prices: Seq([price] Float))
EOF
cat > "$workdir/examples.fx" <<'EOF'
+ name find:Aeron:0
+ name find:Tulip:0
+ price find:540.00:0
+ price find:99.99:0
EOF
mkdir "$workdir/programs"
"$workdir/flashextract" -type text -in "$workdir/doc.txt" \
    -schema "$workdir/schema.fx" -examples "$workdir/examples.fx" \
    -save "$workdir/programs/chairs@1.text.json" > /dev/null

echo "== starting flashextract serve -admin :$admin_port -trace-ring 2 =="
mkfifo "$workdir/in"
"$workdir/flashextract" serve -programs "$workdir/programs" \
    -admin "127.0.0.1:$admin_port" -trace-ring 2 -log-json \
    < "$workdir/in" > "$workdir/out.ndjson" 2> "$workdir/serve.log" &
pid=$!
# Hold the request pipe open for the whole session; closing it is EOF.
exec 3> "$workdir/in"

# wait_frames N — block until the server has written N response frames.
wait_frames() {
    for _ in $(seq 1 100); do
        [ -f "$workdir/out.ndjson" ] \
            && [ "$(wc -l < "$workdir/out.ndjson")" -ge "$1" ] && return 0
        kill -0 "$pid" 2>/dev/null \
            || { echo "serve exited early"; cat "$workdir/serve.log"; exit 1; }
        sleep 0.1
    done
    echo "FAIL: timed out waiting for $1 frames"; cat "$workdir/out.ndjson"; exit 1
}
# frame N — print the Nth response frame (1-based).
frame() { sed -n "$1p" "$workdir/out.ndjson"; }

echo "== ready frame =="
wait_frames 1
frame 1 | grep -q '"op":"ready"' || { echo "FAIL: no ready frame"; exit 1; }
frame 1 | grep -q '"protocol":"flashextract-serve/v1"' \
    || { echo "FAIL: ready frame missing protocol marker"; exit 1; }

echo "== scan =="
printf '{"id":"s1","op":"scan","program":"chairs","content":"inventory\\nChair: Bistro (price: $75.40)\\n"}\n' >&3
wait_frames 2
frame 2 | grep -q '"ok":true' || { echo "FAIL: scan not ok"; frame 2; exit 1; }
frame 2 | grep -q '"Prices":\[75.40\]' \
    || { echo "FAIL: scan record missing extraction"; frame 2; exit 1; }

echo "== scan_batch =="
printf '{"id":"b1","op":"scan_batch","program":"chairs@1","docs":[{"name":"a","content":"inventory\\nChair: X (price: $1.00)\\n"},{"name":"b","content":"inventory\\nChair: Y (price: $2.00)\\n"}]}\n' >&3
wait_frames 3
frame 3 | grep -q '"ok":true' || { echo "FAIL: scan_batch not ok"; frame 3; exit 1; }
frame 3 | grep -q '"docs":2' || { echo "FAIL: scan_batch summary"; frame 3; exit 1; }

echo "== structured error frame (unknown program) =="
printf '{"id":"e1","op":"scan","program":"tables","content":"x"}\n' >&3
wait_frames 4
frame 4 | grep -q '"code":"unknown_program"' \
    || { echo "FAIL: expected unknown_program error frame"; frame 4; exit 1; }
kill -0 "$pid" 2>/dev/null || { echo "FAIL: server exited on a bad request"; exit 1; }

echo "== SIGHUP hot reload =="
"$workdir/flashextract" -type text -in "$workdir/doc.txt" \
    -schema "$workdir/schema.fx" -examples "$workdir/examples.fx" \
    -save "$workdir/programs/chairs@2.text.json" > /dev/null
kill -HUP "$pid"
sleep 0.3
printf '{"id":"l1","op":"list_programs"}\n' >&3
wait_frames 5
frame 5 | grep -q '"program_count":2' \
    || { echo "FAIL: SIGHUP reload did not pick up chairs@2"; frame 5; exit 1; }
frame 5 | grep -q '"ref":"chairs@2"' \
    || { echo "FAIL: catalog missing chairs@2"; frame 5; exit 1; }

base="http://127.0.0.1:$admin_port"
echo "== admin /programs =="
programs=$(curl -sf "$base/programs")
echo "$programs" | grep -q '"schema": "flashextract-serve-programs/v1"' \
    || { echo "FAIL: /programs missing schema marker"; exit 1; }
echo "$programs" | grep -Eq '"scans": *[1-9]' \
    || { echo "FAIL: /programs has no per-program scan counters"; exit 1; }

echo "== admin /rpc =="
rpc=$(curl -sf -X POST --data '{"id":"r1","op":"scan","program":"chairs@1","content":"inventory\nChair: Q (price: $9.99)\n"}' "$base/rpc")
echo "$rpc" | grep -q '"ok":true' || { echo "FAIL: /rpc scan failed: $rpc"; exit 1; }

echo "== admin /trace/last holds -trace-ring 2 trees =="
# Four documents were scanned (scan, a two-document scan_batch, /rpc).
trees=$(curl -sf "$base/trace/last" | grep -Ec '"name": *"doc:' || true)
[ "$trees" -eq 2 ] \
    || { echo "FAIL: /trace/last holds $trees doc: trees, want 2"; exit 1; }

echo "== admin /healthz and /metrics =="
curl -sf "$base/healthz" | grep -Eq '"processed": *[0-9]+' \
    || { echo "FAIL: /healthz missing processed count"; exit 1; }
metrics=$(curl -sf "$base/metrics")
echo "$metrics" | grep -Eq '^serve_requests [1-9]' \
    || { echo "FAIL: serve_requests counter absent"; exit 1; }
echo "$metrics" | grep -q '^serve_reloads 1$' \
    || { echo "FAIL: expected serve_reloads 1"; exit 1; }

echo "== close frame + clean exit (goroutine-leak self-check) =="
printf '{"id":"z","op":"close"}\n' >&3
exec 3>&-
if ! wait "$pid"; then
    echo "FAIL: serve exited nonzero (goroutine leak or unclean drain)"
    cat "$workdir/serve.log"
    exit 1
fi
pid=""
tail -n 1 "$workdir/out.ndjson" | grep -q '"op":"close"' \
    || { echo "FAIL: close frame was not the last frame written"; exit 1; }

echo "serve smoke: OK"
