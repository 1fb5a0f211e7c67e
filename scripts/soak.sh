#!/usr/bin/env bash
# The composed soak: a live fleet that changes shape under adversarial
# load, with the verdict taken from loadgen's self-checking soak
# scenario. This is the script `make soak` and CI's soak-integration
# job both run — one codepath, locally reproducible.
#
# Timeline (one balancer, three backends, ~60s of traffic):
#
#   t=0    b1 (static, seeded via the member file) and b2 (runtime
#          self-registration via -register) serve behind montsyslb;
#          loadgen -scenario soak starts: three tenants closed-loop on
#          Zipf moduli plus slow-loris and malformed-frame adversaries.
#          b2 is also a PR 5 chaos backend: it corrupts 5% of its own
#          results, catches each one with integrity checking (recompute
#          off) and answers the integrity wire code — the balancer must
#          fail those over invisibly, composing fault injection with
#          churn and abuse in the same run.
#   t~8s   b3 boots and is added by editing the member file — the
#          balancer's -backends-watch reconciler joins it, and the
#          moduli whose rendezvous home moved to b3 pay one inline
#          context build each.
#   t~18s  b3 is kill -9ed mid-flight: the backend that just joined —
#          and just inherited moduli — dies hard, no goodbye, no drain,
#          in-flight requests dying with it. Failover + client retries
#          must absorb the loss invisibly.
#   end    loadgen prints SOAK OK (zero wrong answers, zero acme
#          errors, no windowed-p99 cliff) or the script fails. Then b2
#          leaves gracefully (SIGTERM -> registrar Goodbye -> drain),
#          b3's corpse is removed from the member file (watcher
#          goodbye), and the balancer's /metrics must account for
#          everything: members, joins, leaves, b3's ejection, b2's
#          retirement (backend_up 0).
set -euo pipefail

DIR=$(mktemp -d "${TMPDIR:-/tmp}/montsys-soak.XXXXXX")
trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$DIR"' EXIT

LB=127.0.0.1:7470
B1=127.0.0.1:7471
B2=127.0.0.1:7472
B3=127.0.0.1:7473
MET=127.0.0.1:9470

DURATION=${SOAK_DURATION:-40s}

echo "== build"
go build -o "$DIR/montsysd" ./cmd/montsysd
go build -o "$DIR/montsyslb" ./cmd/montsyslb
go build -o "$DIR/loadgen" ./cmd/loadgen

echo "== boot fleet (b1 seeded, b2 self-registered)"
echo "$B1=z1" > "$DIR/members.txt"

"$DIR/montsysd" -listen "$B1" -inflight 128 -zone z1 > "$DIR/b1.log" 2>&1 &
B1PID=$!
"$DIR/montsyslb" -backends "@$DIR/members.txt" -backends-watch 250ms \
  -listen "$LB" -metrics "$MET" -probe 250ms -zone z1 \
  > "$DIR/lb.log" 2>&1 &
LBPID=$!
sleep 1
"$DIR/montsysd" -listen "$B2" -inflight 128 -zone z1 \
  -integrity -integrity-recompute=false -fault-rate 0.05 -fault-seed 7 \
  -register "$LB" > "$DIR/b2.log" 2>&1 &
B2PID=$!

# Both backends routable before traffic starts.
for i in $(seq 1 40); do
  n=$(curl -fs "http://$MET/metrics" | awk '/^montsys_cluster_members /{print $2}')
  [ "${n:-0}" = 2 ] && break
  sleep 0.25
done
[ "${n:-0}" = 2 ] || { echo "FAIL: fleet never reached 2 members"; cat "$DIR/lb.log"; exit 1; }
grep -q "registered with $LB" "$DIR/b2.log"

echo "== soak ($DURATION, join + kill -9 mid-run, adversaries on)"
# -keys 16 at one bit length: enough distinct moduli that a 3-way join
# essentially always moves several homes onto the joiner, so its
# kill -9 lands on live traffic.
"$DIR/loadgen" -scenario soak -connect "$LB" -clients 4 -bits 256 \
  -keys 16 -duration "$DURATION" -adversaries 4 \
  > "$DIR/soak.log" 2>&1 &
LOADPID=$!

sleep 8
echo "== join b3 mid-run (member-file edit -> watch reconciler)"
"$DIR/montsysd" -listen "$B3" -inflight 128 -zone z2 > "$DIR/b3.log" 2>&1 &
B3PID=$!
{ echo "$B1=z1"; echo "$B3=z2"; } > "$DIR/members.txt"

sleep 10
echo "== kill -9 b3 mid-run (the new backend dies hard; no goodbye, no drain)"
kill -9 "$B3PID"

if ! wait "$LOADPID"; then
  echo "FAIL: soak scenario exited nonzero"
  cat "$DIR/soak.log"
  exit 1
fi
cat "$DIR/soak.log"
grep -q '^SOAK OK$' "$DIR/soak.log"

echo "== graceful leave (b2 SIGTERM -> registrar Goodbye -> drain)"
kill -TERM "$B2PID"
wait "$B2PID"
grep -q 'drained cleanly' "$DIR/b2.log"
# b3's corpse leaves through the file: the watcher reconciles it away.
echo "$B1=z1" > "$DIR/members.txt"
sleep 1

echo "== balancer accounting"
curl -fs "http://$MET/metrics" > "$DIR/metrics.txt"
# b2's self-registration and b3's file-watch join both counted.
grep -E 'montsys_cluster_membership_changes_total\{kind="join"\} 2' "$DIR/metrics.txt"
# b2's registrar goodbye and b3's file removal both counted as leaves.
grep -E 'montsys_cluster_membership_changes_total\{kind="leave"\} 2' "$DIR/metrics.txt"
# Only the static seed remains routable.
grep -E 'montsys_cluster_members 1' "$DIR/metrics.txt"
# The kill -9ed joiner was ejected from rotation (its transport
# streak or probes), not merely failed over around.
grep -E "montsys_cluster_ejections_total\{backend=\"$B3\"\} [1-9]" "$DIR/metrics.txt"
# The gracefully departed backend was retired: its series reads down.
grep -E "montsys_cluster_backend_up\{backend=\"$B2\"\} 0" "$DIR/metrics.txt"
# The chaos backend's self-caught corruption was seen and failed over
# by the cluster tier, never absorbed invisibly — and since loadgen
# self-checks every answer, exit 0 above already proved none leaked.
grep -E "montsys_cluster_integrity_failures_total\{backend=\"$B2\"\} [1-9]" "$DIR/metrics.txt"
# The front door took fire the whole time and nothing leaked: the
# server-side guards must have closed hostile connections.
grep -E 'montsys_server_slowloris_closed_total [1-9]' "$DIR/metrics.txt" || \
  grep -E 'montsys_server_oversize_frames_total [1-9]' "$DIR/metrics.txt"

echo "== drain balancer + static backend"
kill -TERM "$LBPID"
wait "$LBPID"
grep -q 'drained cleanly' "$DIR/lb.log"
kill -TERM "$B1PID"
wait "$B1PID"
grep -q 'drained cleanly' "$DIR/b1.log"

echo "SOAK HARNESS PASS"
