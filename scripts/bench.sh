#!/bin/sh
# Runs the performance-regression benchmark suite and writes a
# machine-readable report to BENCH_<tag>.json (default tag: pr10), or to
# an explicit output path when given — CI uses that to archive the JSON
# as a build artifact and feeds it to cmd/benchgate, which diffs the
# live numbers against the committed previous report.
#
#   scripts/bench.sh [tag] [output-path]
#
# The report carries two sections:
#   baseline — campaign throughput measured at commit 3c797a5, the tree
#              immediately before the interpreter fast path landed. The
#              numbers are pinned here so a regression against the
#              original engine stays visible even after many PRs.
#   results  — live numbers from this tree: end-to-end campaign
#              throughput (inj/s) per checkpoint-interval variant, K=1
#              throughput per fault-site class on a 4-vCPU machine, the
#              interpreter's per-instruction cost (ns/instr) under the
#              threaded and switch dispatchers, the per-activation cost
#              of an injection worker's machine stepping a 160-activation
#              run at 1 and 4 vCPUs (ns/step, allocs/op), a D-TLB hit
#              against the region search it caches, the wire codec's
#              encode/decode cost (must stay 0 allocs/op), and
#              fleet ingest throughput (inj/s through one coordinator
#              from 10 loopback workers), one loopback fleet campaign
#              end to end at the fixed 64-plan and the derived lease
#              size (inj/s and leases/op), the cost of building one
#              160-activation checkpoint pool at K=1 and K=16 (time,
#              B/op, allocs/op, and pool-B, the live heap the pool holds),
#              and the fixed per-benchmark cost of a 4-vCPU, all-targets,
#              recovery-policy campaign (PrepareBenchmark plus one
#              worker's first run; time, B/op, allocs/op).
# Each benchmark runs three times (matching the baseline protocol) and
# every metric is recorded as a three-element array, so shared-machine
# noise is visible instead of averaged away. BenchmarkCPURunHot/fast must
# stay at 0 allocs/op.
set -eu

cd "$(dirname "$0")/.."

tag="${1:-pr10}"
out="${2:-BENCH_${tag}.json}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench BenchmarkCampaignThroughput -benchmem -count 3 . >"$tmp"
go test -run '^$' -bench BenchmarkSiteThroughput -benchmem -count 3 . >>"$tmp"
go test -run '^$' -bench BenchmarkCheckpointPool -benchmem -count 3 . >>"$tmp"
go test -run '^$' -bench BenchmarkPrepareBenchmark -benchmem -count 3 . >>"$tmp"
go test -run '^$' -bench BenchmarkStep -benchmem -count 3 . >>"$tmp"
go test -run '^$' -bench BenchmarkCPURunHot -benchmem -count 3 ./internal/cpu/ >>"$tmp"
go test -run '^$' -bench BenchmarkMemAccess -benchmem -count 3 ./internal/mem/ >>"$tmp"
go test -run '^$' -bench BenchmarkWireCodec -benchmem -count 3 ./internal/wire/ >>"$tmp"
go test -run '^$' -bench BenchmarkFleetIngest -count 3 ./internal/server/ >>"$tmp"
go test -run '^$' -bench BenchmarkFleetCampaign -count 3 . >>"$tmp"

{
	printf '{\n'
	printf '  "tag": "%s",\n' "$tag"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "cpu": "%s",\n' "$(awk -F': ' '/^cpu:/ {print $2; exit}' "$tmp")"
	cat <<'EOF'
  "baseline": {
    "commit": "3c797a5",
    "note": "pre-fast-path engine, same machine, three runs each",
    "BenchmarkCampaignThroughput/K=1": {"inj/s": [4883, 4751, 4746], "ns/inj": [204790, 210492, 210701], "allocs/op": [178, 178, 179]},
    "BenchmarkCampaignThroughput/K=16": {"inj/s": [4333, 4772, 4695], "ns/inj": [230784, 209564, 213003], "allocs/op": [191, 192, 191]},
    "BenchmarkCampaignThroughput/K=off": {"inj/s": [1144, 1113, 1055], "ns/inj": [874101, 898269, 948111], "allocs/op": [4225, 4225, 4225]}
  },
  "results": {
EOF
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (!(name in known)) {
				known[name] = 1
				order[++benches] = name
			}
			for (i = 3; i + 1 <= NF; i += 2) {
				unit = $(i + 1)
				key = name SUBSEP unit
				if (!(key in vals)) {
					nu = ++units[name]
					unames[name SUBSEP nu] = unit
					vals[key] = $i
				} else {
					vals[key] = vals[key] ", " $i
				}
			}
		}
		END {
			for (b = 1; b <= benches; b++) {
				name = order[b]
				printf "%s    \"%s\": {", (b > 1 ? ",\n" : ""), name
				for (u = 1; u <= units[name]; u++) {
					unit = unames[name SUBSEP u]
					printf "%s\"%s\": [%s]", (u > 1 ? ", " : ""), unit, vals[name SUBSEP unit]
				}
				printf "}"
			}
			printf "\n"
		}
	' "$tmp"
	printf '  }\n}\n'
} >"$out"

echo "wrote $out"
