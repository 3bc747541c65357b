#!/usr/bin/env bash
# End-to-end smoke for the campaign service daemon (docs/SERVICE.md).
#
# Drives the real binaries the way an operator would and checks the
# headline contracts:
#   1. the daemon comes up and answers /healthz;
#   2. a campaign submitted over HTTP returns report bytes identical to
#      campaign_cli --json for the same (preset, config, runs, seed);
#   3. the same submission over the framed wire transport returns the
#      same bytes (and hits the result cache);
#   4. clients that reset their connection before reading a report cost
#      only their own connection: the daemon keeps answering;
#   5. malformed submissions (300 KB of nested brackets, a negative
#      vehicle count) get a 400, and a Content-Length of -1 (followed by
#      1 MB of body) or of 10^9 bytes gets the connection closed; none of
#      them stops the daemon serving or changes a stored report; the
#      resets of step 4 and the closes of step 5 are counted in
#      sesame.service.client_disconnects_total{reason};
#   6. a submission priced past the cost cap (20,000 vehicles for 1e9 s)
#      gets a 429 without running anything;
#   7. a client that half-closes (shutdown(SHUT_WR)) right after its
#      request still gets the whole response;
#   8. the 256-vehicle report fetched over the wire transport (several
#      frames) is byte-identical to the HTTP bytes;
#   9. SIGTERM right after a refused submission drains gracefully within
#      30 s: in-flight work is spooled, the daemon exits 0, and a restarted
#      daemon replays the spool.
# After each of steps 4-8 the daemon must still answer /healthz and return
# the step-4 report unchanged.
#
# Usage: tools/service_smoke.sh <build-dir>   (e.g. ./build)
set -euo pipefail

BUILD=${1:?usage: service_smoke.sh <build-dir>}
DAEMON="$BUILD/examples/campaign_service"
SUBMIT="$BUILD/examples/campaign_submit"
CLI="$BUILD/examples/campaign_cli"

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# The daemon answers /healthz and still returns the step-4 report bytes.
still_serving() {
  curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz" >/dev/null \
    || fail "daemon stopped answering after $1"
  curl -fsS "http://127.0.0.1:$HTTP_PORT/api/v1/jobs/$JOB/report" \
    | cmp - "$WORK/big.json" || fail "report bytes changed after $1"
}

cat > "$WORK/cfg.json" <<'EOF'
{"n_uavs": 2, "n_persons": 2, "max_time_s": 150.0}
EOF

# --- 1. daemon up -----------------------------------------------------------
"$DAEMON" --http-port 0 --wire-port 0 --executors 2 --spool "$WORK/spool" \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 50); do
  grep -q '^listening' "$WORK/daemon.log" && break
  sleep 0.2
done
HTTP_PORT=$(grep -oE 'http=[0-9]+' "$WORK/daemon.log" | cut -d= -f2)
WIRE_PORT=$(grep -oE 'wire=[0-9]+' "$WORK/daemon.log" | cut -d= -f2)
[ -n "$HTTP_PORT" ] && [ -n "$WIRE_PORT" ] || fail "daemon did not bind"
curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz" >/dev/null || fail "healthz"
echo "ok: daemon up (http=$HTTP_PORT wire=$WIRE_PORT)"

# --- 2. HTTP submission is byte-identical to campaign_cli -------------------
"$CLI" --preset nominal --config "$WORK/cfg.json" --runs 2 --seed 7 --jobs 2 \
  --json "$WORK/cli.json" >/dev/null
"$SUBMIT" --port "$HTTP_PORT" --preset nominal --config "$WORK/cfg.json" \
  --runs 2 --seed 7 --out "$WORK/http.json" 2>/dev/null
cmp "$WORK/cli.json" "$WORK/http.json" \
  || fail "HTTP report differs from campaign_cli bytes"
echo "ok: HTTP report byte-identical to campaign_cli"

# --- 3. wire submission: same bytes, served from the cache ------------------
"$SUBMIT" --port "$WIRE_PORT" --transport wire --preset nominal \
  --config "$WORK/cfg.json" --runs 2 --seed 7 \
  --out "$WORK/wire.json" 2> "$WORK/wire.log"
cmp "$WORK/cli.json" "$WORK/wire.json" \
  || fail "wire report differs from campaign_cli bytes"
grep -q cache_hit "$WORK/wire.log" \
  || fail "repeat submission did not hit the result cache"
curl -fsS "http://127.0.0.1:$HTTP_PORT/metrics" \
  | grep -q sesame_service_cache_hits_total || fail "cache metric missing"
echo "ok: wire report byte-identical and cache hit recorded"

# --- 4. report fetches reset before reading ----------------------------------
# The report (~190 KB: per-vehicle metric families of 256 vehicles) is larger
# than the loopback socket buffers, so the daemon is still writing when each
# client's RST lands; the next write must fail that connection only.
JOB=$(curl -fsS -X POST "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns" \
  -d '{"preset": "baseline", "config": {"n_uavs": 256, "max_time_s": 20.0},
       "runs": 1, "seed": 5}' \
  | python3 -c 'import json, sys; print(json.load(sys.stdin)["job"])')
for _ in $(seq 100); do
  curl -fs -o "$WORK/big.json" \
    "http://127.0.0.1:$HTTP_PORT/api/v1/jobs/$JOB/report" && break
  sleep 0.1
done
[ -s "$WORK/big.json" ] || fail "large report never completed"
python3 - "$HTTP_PORT" "$JOB" <<'PY'
import socket, struct, sys
port, job = int(sys.argv[1]), sys.argv[2]
request = ("GET /api/v1/jobs/%s/report HTTP/1.1\r\nHost: localhost\r\n"
           "Connection: close\r\n\r\n" % job).encode()
for _ in range(50):
    s = socket.create_connection(("127.0.0.1", port))
    s.sendall(request)
    # SO_LINGER 0: close() resets the connection instead of a FIN.
    s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    s.close()
PY
still_serving "clients reset mid-report"
echo "ok: 50 reset report fetches left the daemon serving"

# --- 5. malformed submissions are refused, not fatal ------------------------
python3 -c 'print("[" * 300000)' > "$WORK/nested.json"
for body in "@$WORK/nested.json" '{"config": {"n_uavs": -1}}'; do
  code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
    "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns" --data-binary "$body")
  [ "$code" = 400 ] || fail "malformed submission got $code, not 400"
done
# Raw sockets: curl always sends an honest Content-Length. The daemon must
# close each connection instead of buffering a body it cannot bound.
python3 - "$HTTP_PORT" <<'PY'
import socket, sys
port = int(sys.argv[1])
for length, body in (("-1", b"x" * 1000000), ("1000000000", b"")):
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    head = ("POST /api/v1/campaigns HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Length: %s\r\n\r\n" % length).encode()
    try:
        s.sendall(head + body)
        closed = s.recv(1) == b""
    except (ConnectionResetError, BrokenPipeError):
        closed = True
    except socket.timeout:
        closed = False
    s.close()
    if not closed:
        sys.exit("FAIL: Content-Length: %s left the connection open" % length)
PY
still_serving "bad input"
# The daemon counts why it dropped those connections (steps 4 and 5).
curl -fsS "http://127.0.0.1:$HTTP_PORT/metrics" > "$WORK/metrics.txt"
for reason in peer_reset malformed; do
  grep -q "sesame_service_client_disconnects_total{reason=\"$reason\"}" \
    "$WORK/metrics.txt" || fail "no $reason disconnect counted"
done
echo "ok: malformed submissions refused, daemon still serving"

# --- 6. a submission over the cost cap is refused ---------------------------
REPRODUCER='{"tenant": "t", "preset": "baseline", "runs": 1, "seed": "1",
             "config": {"n_uavs": 20000, "max_time_s": 1e9}}'
code=$(curl -sS -o "$WORK/priced.json" -w '%{http_code}' -X POST \
  "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns" -d "$REPRODUCER")
[ "$code" = 429 ] || fail "over-cost submission got $code, not 429"
grep -q cost_cap "$WORK/priced.json" || fail "429 does not name cost_cap"
still_serving "the over-cost submission"
echo "ok: over-cost submission refused with 429 cost_cap"

# --- 7. a half-closed request still gets the whole response -----------------
python3 - "$HTTP_PORT" "$JOB" "$WORK/halfclose.json" <<'PY'
import socket, sys
port, job, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
s = socket.create_connection(("127.0.0.1", port), timeout=30)
s.sendall(("GET /api/v1/jobs/%s/report HTTP/1.1\r\nHost: localhost\r\n\r\n"
           % job).encode())
s.shutdown(socket.SHUT_WR)  # FIN right after the request
response = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    response += chunk
s.close()
head, _, body = response.partition(b"\r\n\r\n")
if not head.startswith(b"HTTP/1.1 200"):
    sys.exit("FAIL: half-closed request got %r" % head[:40])
open(out, "wb").write(body)
PY
cmp "$WORK/halfclose.json" "$WORK/big.json" \
  || fail "half-closed request got a different report"
still_serving "a half-closed request"
echo "ok: half-closed request got the whole report"

# --- 8. the large report over the wire transport -----------------------------
echo '{"n_uavs": 256, "max_time_s": 20.0}' > "$WORK/big_cfg.json"
"$SUBMIT" --port "$WIRE_PORT" --transport wire --preset baseline \
  --config "$WORK/big_cfg.json" --runs 1 --seed 5 \
  --out "$WORK/big_wire.json" 2>/dev/null \
  || fail "wire fetch of the 256-vehicle report failed"
cmp "$WORK/big_wire.json" "$WORK/big.json" \
  || fail "wire report differs from the HTTP bytes"
still_serving "the wire fetch"
echo "ok: 256-vehicle report byte-identical over the wire"

# --- 9. graceful drain spools in-flight work --------------------------------
curl -fsS -X POST "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns" \
  -d '{"preset": "nominal", "runs": 500, "seed": 99}' >/dev/null
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns" -d "$REPRODUCER")
[ "$code" = 429 ] || fail "over-cost submission got $code, not 429"
kill -TERM "$DAEMON_PID"
for _ in $(seq 300); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$DAEMON_PID" 2>/dev/null && fail "daemon still draining after 30 s"
wait "$DAEMON_PID" || fail "daemon exited non-zero on SIGTERM"
DAEMON_PID=""
ls "$WORK/spool/"*.json >/dev/null 2>&1 || fail "drain left no spool file"
echo "ok: drain spooled the in-flight campaign"

"$DAEMON" --http-port 0 --wire-port 0 --spool "$WORK/spool" \
  > "$WORK/daemon2.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 50); do
  grep -q '^listening' "$WORK/daemon2.log" && break
  sleep 0.2
done
grep -q 'replayed 1 spooled' "$WORK/daemon2.log" \
  || fail "restart did not replay the spool"
kill -TERM "$DAEMON_PID" && wait "$DAEMON_PID" || true
DAEMON_PID=""
echo "ok: restart replayed the spool"

echo "service smoke passed"
