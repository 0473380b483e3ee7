#!/bin/sh
# End-to-end vpdd smoke test: pipe 20 NDJSON lines (10 pipelined
# evaluation requests, one of them malformed, two droop-campaign
# requests and two optimize requests — one valid, one rejected each —
# an evaluate_batch request whose two same-operator members must solve
# as one group,
# plus metrics / trace / unknown control verbs, a malformed line whose
# "id" must still be echoed, and
# a final graceful-shutdown verb) through the daemon with tracing
# enabled, and check that every line gets an in-order, id-tagged
# response with the expected status, that the trace file is a Chrome
# trace-event document, and that the shutdown verb drains and exits 0.
# Then pipe a request, a line one byte over the 64 MiB line limit and
# another request: the first is answered, the oversized line gets one
# error line naming the limit, and vpdd stops reading and exits 1.
# Pure POSIX shell + grep so it runs in every CI matrix, sanitizers
# included.
set -eu

VPDD="${1:?usage: vpdd_smoke.sh /path/to/vpdd}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

requests="$workdir/requests.ndjson"
responses="$workdir/responses.ndjson"
trace="$workdir/trace.json"

cat > "$requests" <<'EOF'
{"id":1,"architecture":"A1","topology":"DSCH"}
{"id":2,"architecture":"A2","topology":"DPMIH"}
{"id":3,"architecture":"A1","topology":"DSCH"}
{"id":4,"architecture":"A0"}
{"id":5,"architecture":"A3@12V","topology":"DSCH"}
{"id":6,"architecture":"A1","topology":"3LHD"}
this line is not JSON {{{
{"id":8,"architecture":"A9","topology":"DSCH"}
{"id":9,"architecture":"A2","topology":"DSCH","fault_scenario":{"faults":[{"kind":"vr-dropout","site":3}]}}
{"id":10,"architecture":"A3@12V","topology":"DSCH","options":{"mesh_nodes":21}}
{"id":14,"cmd":"transient","architecture":"A1","topology":"DSCH","options":{"mesh_nodes":21},"config":{"tile_grid":1,"include_bursts":false,"include_ramps":false,"max_dropout_sites":1,"threads":2}}
{"id":15,"cmd":"transient","architecture":"A0"}
{"id":16,"cmd":"optimize","space":{"architectures":["A3@12V"],"topologies":["DSCH"],"vr_count":{"lo":36,"hi":40}},"config":{"population":4,"generations":1,"survivability":{"max_elites":1},"threads":2},"options":{"mesh_nodes":11}}
{"id":17,"cmd":"optimize","space":{"vr_count":{"lo":0,"hi":4}}}
{"id":18,"cmd":"evaluate_batch","requests":[{"architecture":"A3@12V","topology":"DSCH","options":{"mesh_nodes":31}},{"architecture":"A3@12V","topology":"DSCH","options":{"mesh_nodes":31},"fault_scenario":{"faults":[{"kind":"stage2-dropout","site":0}]}}]}
{"id":11,"cmd":"metrics"}
{"id":12,"cmd":"trace"}
{"id":13,"cmd":"frobnicate"}
{"id":21,"architecture":
{"id":99,"cmd":"shutdown"}
EOF

fail() {
  echo "vpdd_smoke: $1" >&2
  echo "--- responses ---" >&2
  cat "$responses" >&2
  exit 1
}

"$VPDD" --threads 2 --metrics --trace "$trace" \
  < "$requests" > "$responses" 2> "$workdir/metrics.json" \
  || fail "vpdd must exit 0 after a graceful shutdown verb"

# One response line per request, in request order.
[ "$(wc -l < "$responses")" -eq 20 ] || fail "expected 20 response lines"
expected_ids='1 2 3 4 5 6 null 8 9 10 14 15 16 17 18 11 12 13 21 99'
actual_ids="$(grep -o '^{"id":[^,]*' "$responses" | sed 's/^{"id"://' | tr '\n' ' ' | sed 's/ $//')"
[ "$actual_ids" = "$expected_ids" ] || fail "response ids/order wrong: $actual_ids"

# Statuses: the malformed line, the unknown architecture and the unknown
# cmd produce structured errors, the over-rated A2/DPMIH and 3LHD
# combinations are excluded, the control verbs succeed, the rest evaluate.
check_status() {
  grep -q "^{\"id\":$1,\"status\":\"$2\"" "$responses" \
    || fail "request id=$1 did not report status=$2"
}
check_status 1 ok
check_status 2 excluded
check_status 3 ok
check_status 4 ok
check_status 5 ok
check_status 6 excluded
check_status null error
check_status 8 error
check_status 9 ok
check_status 10 ok
check_status 14 ok
check_status 15 error
check_status 16 ok
check_status 17 error
check_status 18 ok
check_status 11 ok
check_status 12 ok
check_status 13 error
check_status 21 error
check_status 99 ok

# A malformed line still echoes its request id when the raw bytes carry
# one, so pipelining clients never receive an orphaned error.
grep '^{"id":21,' "$responses" | grep -q '"status":"error"' \
  || fail "the truncated id=21 line must get an id-tagged error"

# The shutdown verb drains in-flight work and replies with the final
# metrics snapshot before the daemon exits 0.
grep '^{"id":99,' "$responses" | grep -q '"shutdown":true' \
  || fail "the shutdown response must acknowledge the drain"
grep '^{"id":99,' "$responses" | grep -q '"metrics":{' \
  || fail "the shutdown response must carry the final metrics"

# Error responses carry a message, never a result body.
grep '"status":"error"' "$responses" | grep -q '"error":"' \
  || fail "error responses must carry an error message"
grep '"status":"error"' "$responses" | grep -q '"result"' \
  && fail "error responses must not carry a result body"

# Evaluated responses carry a versioned body with the stage breakdown.
grep '^{"id":1,' "$responses" | grep -q '"schema_version":2' \
  || fail "responses must carry schema_version 2"
grep '^{"id":1,' "$responses" | grep -q '"timings":{"queue_seconds":' \
  || fail "evaluated responses must carry stage timings"

# The "transient" verb runs a droop campaign: the response carries the
# per-scenario outcomes and the campaign's own telemetry snapshot; the A0
# request is rejected with a structured error.
grep '^{"id":14,' "$responses" | grep -q '"pass_fraction":' \
  || fail "transient responses must carry the campaign pass fraction"
grep '^{"id":14,' "$responses" | grep -q '"outcomes":\[' \
  || fail "transient responses must carry per-scenario outcomes"
grep '^{"id":14,' "$responses" | grep -q '"observability":{' \
  || fail "transient responses must carry the telemetry snapshot"
grep '^{"id":15,' "$responses" | grep -q 'distribution mesh' \
  || fail "the A0 transient request must explain the rejection"

# The "optimize" verb runs the seeded Pareto search: the response carries
# the front, the hypervolume and the versioned body; the degenerate space
# is rejected with a structured error before any evaluation runs.
grep '^{"id":16,' "$responses" | grep -q '"schema_version":2' \
  || fail "optimize responses must carry schema_version 2"
grep '^{"id":16,' "$responses" | grep -q '"front":\[' \
  || fail "optimize responses must carry the Pareto front"
grep '^{"id":16,' "$responses" | grep -q '"hypervolume":' \
  || fail "optimize responses must carry the hypervolume"
grep '^{"id":17,' "$responses" | grep -q '"status":"error"' \
  || fail "the degenerate optimize space must be rejected"

# The "evaluate_batch" verb resolves its members together: the response
# carries one result per request in request order, and the two
# same-operator A3 members (nominal vs stage2-dropout — same mesh, sink
# scaling only) must have been solved as one two-column group.
grep '^{"id":18,' "$responses" | grep -q '"results":\[' \
  || fail "evaluate_batch responses must carry the results array"
grep '^{"id":18,' "$responses" | grep -q '"timings":' \
  || fail "evaluate_batch results must carry per-member bodies"

# The "metrics" verb resolves after every earlier request and reports the
# unified telemetry shape, including the serve.transient.* instruments.
grep '^{"id":11,' "$responses" | grep -q '"metrics":{' \
  || fail "the metrics verb must return a metrics body"
grep '^{"id":11,' "$responses" | grep -q '"counters":{' \
  || fail "metrics bodies must carry the unified counters shape"
grep '^{"id":11,' "$responses" | grep -q '"serve.transient.requests":1' \
  || fail "metrics must count the resolved transient request"
grep '^{"id":11,' "$responses" | grep -q '"serve.optimize.requests":1' \
  || fail "metrics must count the resolved optimize request"
grep '^{"id":11,' "$responses" | grep -q '"serve.batch.requests":2' \
  || fail "metrics must count both evaluate_batch members"
grep '^{"id":11,' "$responses" | grep -q '"serve.batch.panel_columns":2' \
  || fail "the two same-operator batch members must form one group"

# The "trace" verb flushed the buffer to the --trace file, which must be
# a Chrome trace-event document with at least one recorded span.
grep '^{"id":12,' "$responses" | grep -q '"trace":{"path":' \
  || fail "the trace verb must report the written path"
[ "$(head -c 15 "$trace")" = '{"traceEvents":' ] \
  || fail "trace file is not a Chrome trace-event document"
grep -q '"name":"vpd.evaluate"' "$trace" \
  || fail "trace file should contain evaluator spans"

# The duplicate (id=3) is served without a second evaluation, and the
# --metrics shutdown dump is the unified telemetry snapshot (the pre-v2
# flat aliases are gone — docs/observability.md).
grep -q '"serve.requests": 8' "$workdir/metrics.json" \
  || fail "metrics dump should count 8 schema-valid requests"
grep -q '"serve.evaluated": 7' "$workdir/metrics.json" \
  || fail "metrics dump should show the duplicate was not re-evaluated"
grep -q '"counters": {' "$workdir/metrics.json" \
  || fail "metrics dump should carry the unified telemetry shape"

# --- A stdin line over the limit --------------------------------------------
# stdin is framed like a socket connection: the request before the
# oversized line is answered, then one error line names the limit; the
# request after it is never read, and vpdd exits 1.
responses="$workdir/limit.ndjson"
limit_status=0
{
  printf '%s\n' '{"id":1,"architecture":"A3@12V","topology":"DSCH","options":{"mesh_nodes":21}}'
  head -c $((64 * 1024 * 1024 + 1)) /dev/zero | tr '\0' 'x'
  printf '\n%s\n' '{"id":2,"architecture":"A1","topology":"DSCH"}'
} | "$VPDD" --threads 2 > "$responses" || limit_status=$?
[ "$limit_status" -eq 1 ] \
  || fail "vpdd must exit 1 after an oversized stdin line (got $limit_status)"
[ "$(wc -l < "$responses")" -eq 2 ] \
  || fail "expected 2 response lines around the oversized stdin line"
head -n 1 "$responses" | grep -q '^{"id":1,"status":"ok"' \
  || fail "the request before the oversized line must be answered"
tail -n 1 "$responses" | grep -q '^{"status":"error".*longer than 67108864 bytes' \
  || fail "the oversized line must get one error line naming the limit"

echo "vpdd_smoke: OK (20 pipelined lines: 10 requests, 1 batch, 2 malformed, 2 transient, 2 optimize, 3 control verbs, 1 shutdown; oversized stdin line refused)"
