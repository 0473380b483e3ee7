#!/bin/sh
# End-to-end socket smoke test for `vpdd --listen` and `vpd-client`.
#
# Part 1 (bit-identity): the same pipelined NDJSON stream — evaluations
# with a duplicate, an excluded design point, an unknown architecture, a
# malformed line carrying an id, a coarse mesh and a seeded optimize run —
# is answered identically by vpdd on stdin and by vpdd --listen reached
# through vpd-client over a Unix socket, modulo the from_cache/wall-clock
# tails (cache hits and wall times legitimately differ).
#
# Part 2 (pipelined control verbs and drain): a fresh vpdd --listen gets 3
# evaluations (one a duplicate), a metrics verb and a shutdown verb on one
# connection. Every line must be answered in order, the metrics line must
# count exactly this stream's work, the shutdown line must carry the final
# metrics, and vpdd must exit 0.
#
# Pure POSIX shell + grep so it runs in every CI matrix, sanitizers
# included.
set -eu

usage="usage: vpdd_socket_smoke.sh /path/to/vpdd /path/to/vpd-client"
VPDD="${1:?$usage}"
VPD_CLIENT="${2:?$usage}"

workdir="$(mktemp -d)"
vpdd_pid=""
cleanup() {
  [ -n "$vpdd_pid" ] && kill "$vpdd_pid" 2>/dev/null
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "vpdd_socket_smoke: $1" >&2
  for f in "$workdir"/*.ndjson "$workdir"/*.log; do
    [ -f "$f" ] || continue
    echo "--- $f ---" >&2
    cat "$f" >&2 || true
  done
  exit 1
}

# Starts vpdd --listen on $sock in the background and waits for the socket.
start_vpdd() {
  "$VPDD" --threads 2 --listen "unix:$sock" 2> "$workdir/$1.log" &
  vpdd_pid=$!
  tries=0
  while [ ! -S "$sock" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "vpdd socket never appeared"
    kill -0 "$vpdd_pid" 2>/dev/null || fail "vpdd died during startup"
    sleep 0.1
  done
}

sock="$workdir/vpdd.sock"

# --- Part 1: socket responses are byte-identical to stdin ------------------

stream="$workdir/stream.ndjson"
cat > "$stream" <<'EOF'
{"id":1,"architecture":"A1","topology":"DSCH"}
{"id":2,"architecture":"A2","topology":"DPMIH"}
{"id":3,"architecture":"A1","topology":"DSCH"}
{"id":4,"architecture":"A0"}
{"id":5,"architecture":"A3@12V","topology":"DSCH"}
{"id":6,"architecture":"A9","topology":"DSCH"}
{"id":7,"architecture":
{"id":8,"architecture":"A1","topology":"DSCH","options":{"mesh_nodes":21}}
{"id":9,"cmd":"optimize","space":{"architectures":["A3@12V"],"topologies":["DSCH"],"vr_count":{"lo":36,"hi":40}},"config":{"population":4,"generations":1,"threads":2},"options":{"mesh_nodes":11}}
EOF

"$VPDD" --threads 2 < "$stream" > "$workdir/stdin.ndjson" \
  || fail "vpdd on stdin exited non-zero"

start_vpdd part1
"$VPD_CLIENT" "unix:$sock" < "$stream" > "$workdir/socket.ndjson" \
  || fail "vpd-client exited non-zero"
printf '{"cmd":"shutdown"}\n' | "$VPD_CLIENT" "unix:$sock" > /dev/null \
  || fail "vpd-client could not send the shutdown verb"
wait "$vpdd_pid" || fail "vpdd --listen must exit 0 after a shutdown verb"
vpdd_pid=""

[ "$(wc -l < "$workdir/stdin.ndjson")" -eq 9 ] \
  || fail "expected 9 responses on stdin"

# from_cache and the wall-clock tails differ run to run (they are
# metadata, not results); everything before them must match byte for
# byte. Optimize reports order their deterministic fields (front,
# hypervolume, evaluations) ahead of "wall_seconds" for exactly this cut.
strip_meta() { sed 's/,"from_cache".*//; s/,"wall_seconds".*//' "$1"; }
strip_meta "$workdir/stdin.ndjson" > "$workdir/stdin.stripped"
strip_meta "$workdir/socket.ndjson" > "$workdir/socket.stripped"
cmp -s "$workdir/stdin.stripped" "$workdir/socket.stripped" \
  || { diff "$workdir/stdin.stripped" "$workdir/socket.stripped" >&2 || true
       fail "socket responses differ from vpdd on stdin"; }

# The malformed id=7 line still got an id-tagged error over the socket.
grep '^{"id":7,' "$workdir/socket.ndjson" | grep -q '"status":"error"' \
  || fail "malformed line must get an id-tagged error over the socket"
# The optimize verb came back with the seeded Pareto front.
grep '^{"id":9,' "$workdir/socket.ndjson" | grep -q '"front":\[' \
  || fail "optimize over the socket must carry the Pareto front"

# --- Part 2: pipelined metrics and shutdown on one connection --------------

start_vpdd part2
cat > "$workdir/requests.ndjson" <<'EOF'
{"id":10,"architecture":"A1","topology":"DSCH"}
{"id":11,"architecture":"A2","topology":"DSCH"}
{"id":12,"architecture":"A1","topology":"DSCH"}
{"id":13,"cmd":"metrics"}
{"id":14,"cmd":"shutdown"}
EOF

"$VPD_CLIENT" "unix:$sock" \
  < "$workdir/requests.ndjson" > "$workdir/drain.ndjson" \
  || fail "vpd-client exited non-zero"

# Zero loss through the graceful drain: every line answered, in order.
[ "$(wc -l < "$workdir/drain.ndjson")" -eq 5 ] \
  || fail "expected 5 socket responses (zero-loss drain)"
ids="$(grep -o '^{"id":[^,]*' "$workdir/drain.ndjson" \
       | sed 's/^{"id"://' | tr '\n' ' ' | sed 's/ $//')"
[ "$ids" = "10 11 12 13 14" ] || fail "socket response ids/order wrong: $ids"
grep '^{"id":10,' "$workdir/drain.ndjson" | grep -q '"status":"ok"' \
  || fail "evaluation over the socket must succeed"

# The metrics verb resolves after every earlier line: 3 requests, and the
# duplicate id=12 was served from the first one's result.
metrics_line="$(grep '^{"id":13,' "$workdir/drain.ndjson")"
echo "$metrics_line" | grep -q '"serve.requests":3' \
  || fail "metrics must count the 3 evaluations before it"
echo "$metrics_line" | grep -q '"serve.evaluated":2' \
  || fail "the duplicate must not be evaluated a second time"

# The shutdown ack carries the drained daemon's final metrics.
grep '^{"id":14,' "$workdir/drain.ndjson" | grep -q '"shutdown":true' \
  || fail "the shutdown response must acknowledge the drain"
grep '^{"id":14,' "$workdir/drain.ndjson" | grep -q '"metrics":{' \
  || fail "the shutdown response must carry the final metrics"

wait "$vpdd_pid" || fail "vpdd --listen must exit 0 after a client-driven drain"
vpdd_pid=""

echo "vpdd_socket_smoke: OK (socket responses match stdin, pipelined metrics, zero-loss drain)"
