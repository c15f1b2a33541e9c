#!/bin/sh
# Fleet smoke: boot a coordinator with a fleet listener (at the default,
# derived lease size), run one two-benchmark campaign across three real
# xentry-worker processes (so leases cross a benchmark boundary), kill one
# of them mid-flight (its lease requeues to the survivors), and require the
# fleet campaign's final report to be byte-identical to the same campaign
# executed in process on the coordinator (inject.ResumeCampaign writing
# into the store). Both train a transition model: the fleet's workers run
# the tree their coordinator trained and shipped in the Welcome. This is
# the end-to-end proof that the binary data plane changes where
# injections run, never what they produce. Last, xentry-campaign -json
# runs one small campaign locally and once more through the coordinator:
# the flags build one spec, so the two reports must be byte-identical too.
# The verdict line carries the coordinator's lease and requeue counts
# from /metrics.
set -eu

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
data=$(mktemp -d)
serve_pid=""
w1="" w2="" w3=""
cleanup() {
    for p in $w1 $w2 $w3 $serve_pid; do
        kill "$p" 2>/dev/null || true
    done
    rm -rf "$bin" "$data"
}
trap cleanup EXIT

go build -o "$bin/xentry-serve" ./cmd/xentry-serve
go build -o "$bin/xentry-worker" ./cmd/xentry-worker
go build -o "$bin/xentry-campaign" ./cmd/xentry-campaign

api=127.0.0.1:18044
fleet=127.0.0.1:19044
"$bin/xentry-serve" -addr "$api" -fleet "$fleet" -data "$data" &
serve_pid=$!

for i in $(seq 1 50); do
    curl -fsS "http://$api/campaigns" >/dev/null 2>&1 && break
    sleep 0.2
done

"$bin/xentry-worker" -coordinator "$fleet" -campaign smoke -name w1 \
    -batch-records 8 -flush-interval 10ms -retry-interval 200ms &
w1=$!
"$bin/xentry-worker" -coordinator "$fleet" -campaign smoke -name w2 \
    -batch-records 8 -flush-interval 10ms -retry-interval 200ms &
w2=$!
"$bin/xentry-worker" -coordinator "$fleet" -campaign smoke -name w3 \
    -batch-records 8 -flush-interval 10ms -retry-interval 200ms &
w3=$!

state_of() {
    curl -fsS "http://$api/campaigns/$1" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p'
}
done_of() {
    curl -fsS "http://$api/campaigns/$1" | sed -n 's/.*"done":\([0-9]*\).*/\1/p'
}
await() {
    for i in $(seq 1 300); do
        s=$(state_of "$1")
        [ "$s" = done ] && return 0
        if [ "$s" = failed ]; then
            echo "fleet-smoke: campaign $1 failed" >&2
            curl -fsS "http://$api/campaigns/$1" >&2 || true
            return 1
        fi
        sleep 1
    done
    echo "fleet-smoke: campaign $1 did not finish" >&2
    return 1
}

spec='{"id":"smoke","benchmarks":["canneal","bzip2"],"injections_per_benchmark":1500,"activations":48,"seed":29,"train_injections":600,"recovery":"microreboot","execution":"fleet"}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$spec" "http://$api/campaigns" >/dev/null

# Kill one worker once outcomes are flowing — its lease must requeue to
# the survivors without losing or duplicating a single record.
for i in $(seq 1 100); do
    n=$(done_of smoke)
    [ -n "$n" ] && [ "$n" -gt 0 ] && break
    sleep 0.2
done
kill -9 "$w1" 2>/dev/null || true
echo "fleet-smoke: killed worker w1 at done=$(done_of smoke)"

await smoke
curl -fsS "http://$api/campaigns/smoke/result" >"$bin/fleet-report.json"

# Reference: the identical campaign run in process.
poolspec='{"id":"smoke-pool","benchmarks":["canneal","bzip2"],"injections_per_benchmark":1500,"activations":48,"seed":29,"train_injections":600,"recovery":"microreboot"}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$poolspec" "http://$api/campaigns" >/dev/null
await smoke-pool
curl -fsS "http://$api/campaigns/smoke-pool/result" >"$bin/pool-report.json"

counts=$(curl -fsS "http://$api/metrics" |
    awk '/^xentry_fleet_(leases|requeues)_total / {printf "%s%s", sep, $0; sep=", "}')

if ! cmp -s "$bin/fleet-report.json" "$bin/pool-report.json"; then
    echo "fleet-smoke: fleet report diverges from the in-process reference ($counts)" >&2
    diff "$bin/fleet-report.json" "$bin/pool-report.json" >&2 || true
    exit 1
fi

# The surviving workers must exit 0 on campaign completion.
wait "$w2"
wait "$w3"
w2="" w3=""

# One campaign identity for the CLI: local and served runs of the same
# flags print the same report.
cli="-injections 20 -activations 48 -seed 29 -json"
"$bin/xentry-campaign" $cli >"$bin/cli-local.json" 2>/dev/null
"$bin/xentry-campaign" $cli -server "http://$api" >"$bin/cli-served.json" 2>/dev/null
if ! cmp -s "$bin/cli-local.json" "$bin/cli-served.json"; then
    echo "fleet-smoke: xentry-campaign -server report diverges from the local run" >&2
    diff "$bin/cli-local.json" "$bin/cli-served.json" >&2 || true
    exit 1
fi

echo "fleet-smoke: PASS (reports byte-identical, local and served CLI reports byte-identical, survivor workers exited cleanly; $counts)"
