#!/usr/bin/env bash
# Same-runner A/B of HEAD against a base commit:
#
#   scripts/ab.sh BASE [PAIRS [WORKLOAD...]]
#
# BASE and HEAD are checked out in temporary git worktrees. PAIRS pairs
# (default 3) run, alternating which side goes first, and each pair runs
# every WORKLOAD once per side. A WORKLOAD is go-bench (the default) or
# an xbench workload:
#   go-bench  the engine benches listed in run below, -count 1, in each
#             tree (listed here because a base tree's own scripts differ),
#             and the preparation benches (PrepareBenchmark and
#             CheckpointPool) at -benchtime 100x for their B/op, allocs/op
#             and pool-B, which repeat exactly from run to run
#   NAME      bash xbench/run.sh --workload NAME --seconds S --trace 0 at
#             xbench's default seed, S being BENCHMARK.json's run_seconds
# It prints each (workload, metric)'s median [q1–q3] per side and the
# pairs the change won, and writes every sample to ab-samples.tsv. With
# go-bench it exits 1 when K=1, K=1+recover, site gpr or another site
# class present on both sides loses more than 50% of its median inj/s,
# CPURunHot/fast gains more than 20% of its median ns/instr, FleetIngest
# loses more than 20% or falls below 500k inj/s, or K=1, K=1+recover,
# gpr, fast or FleetIngest is missing. The preparation benches and xbench
# metrics are reported only.
set -euo pipefail

cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { echo "usage: scripts/ab.sh BASE [PAIRS [WORKLOAD...]]" >&2; exit 2; }
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify HEAD)
pairs=${2:-3}
shift $(($# < 2 ? $# : 2))
workloads=${*:-go-bench}
secs=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
samples=$PWD/ab-samples.tsv
tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	git worktree remove --force "$tmp/head" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
git worktree add -q --detach "$tmp/base" "$base"
git worktree add -q --detach "$tmp/head" "$head"
unset CARGO_TARGET_DIR # each tree builds xbench in its own .bench_build

# run SIDE PAIR WORKLOAD prints one run's samples: side, pair, workload
# (a bench name for go-bench), metric, value.
run() (
	cd "$tmp/$1"
	if [ "$3" = go-bench ]; then
		{
			go test -run '^$' -bench 'BenchmarkCampaignThroughput|BenchmarkSiteThroughput' -count 1 .
			go test -run '^$' -bench 'BenchmarkPrepareBenchmark|BenchmarkCheckpointPool' -benchtime 100x -count 1 .
			go test -run '^$' -bench BenchmarkCPURunHot -count 1 ./internal/cpu/
			go test -run '^$' -bench BenchmarkFleetIngest -count 1 ./internal/server/
		} | awk -v s="$1" -v p="$2" '/^Benchmark/ {
			sub(/-[0-9]+$/, "", $1)
			for (i = 3; i < NF; i += 2) # ns/op only where the bench reports nothing else
				if ($(i + 1) != "ns/op" || NF == 4) print s "\t" p "\t" $1 "\t" $(i + 1) "\t" $i
		}'
	else
		bash xbench/run.sh --workload "$3" --seconds "$secs" --trace 0 |
			tail -n 1 | awk -v s="$1" -v p="$2" -v w="$3" '{
			while (match($0, /"[^"]+":[{]"value":[^,]+/)) {
				split(substr($0, RSTART, RLENGTH), f, "\"")
				print s "\t" p "\t" w "\t" f[2] "\t" substr(f[5], 2)
				$0 = substr($0, RSTART + RLENGTH)
			}
		}'
	fi
)

: >"$samples"
for p in $(seq "$pairs"); do
	order="base head"
	[ $((p % 2)) = 1 ] || order="head base"
	for w in $workloads; do
		for side in $order; do
			echo "ab: pair $p/$pairs $w $side" >&2
			run "$side" "$p" "$w" >>"$samples"
		done
	done
done

echo "ab: HEAD ${head:0:12} against BASE ${base:0:12}, $pairs pairs"
echo
case " $workloads " in *" go-bench "*) gate=1 ;; *) gate=0 ;; esac
awk -F '\t' -v pairs="$pairs" -v gate="$gate" '
	BEGIN {
		# The largest median regression a gated metric may show. Twelve
		# runs of one commit against itself, 3 pairs each on a shared
		# 2-core VM, read campaign and site inj/s medians up to 38% apart
		# and fast ns/instr and fleet ingest up to 13%.
		band = 0.2
		wide = 0.5 # BenchmarkCampaignThroughput and BenchmarkSiteThroughput
		floor = 500000 # FleetIngest inj/s
		if (gate) # the other site classes are gated where both sides have them
			split("BenchmarkCampaignThroughput/K=1 inj/s|BenchmarkCampaignThroughput/K=1+recover inj/s|" \
				"BenchmarkSiteThroughput/gpr inj/s|BenchmarkCPURunHot/fast ns/instr|BenchmarkFleetIngest inj/s", need, "|")
		for (i in need) want[need[i]]
	}
	!(($3, $4) in seen) { seen[$3, $4]; key[++nk] = $3 SUBSEP $4 }
	{ v[$1, $3, $4, $2] = $5 }
	# load fills s[1..n] with the sorted samples of one side and returns n.
	function load(side, k, i, j, n, x) {
		for (i = 1; i <= pairs; i++)
			if ((side SUBSEP k SUBSEP i) in v) {
				x = v[side SUBSEP k SUBSEP i] + 0
				for (j = ++n; j > 1 && s[j - 1] > x; j--)
					s[j] = s[j - 1]
				s[j] = x
			}
		return n
	}
	function q(n, p, h, l) {
		h = (n - 1) * p + 1
		l = int(h)
		return l >= n ? s[n] : s[l] + (h - l) * (s[l + 1] - s[l])
	}
	function num(x) { return x >= 1000 || x <= -1000 ? sprintf("%.0f", x) : sprintf("%.3g", x) }
	function cell(side, k, n) {
		if (!(n = load(side, k))) return "—"
		med[side] = q(n, 0.5)
		return num(med[side]) " [" num(q(n, 0.25)) "–" num(q(n, 0.75)) "]"
	}
	function fail(msg) { fails = fails "FAIL: " msg "\n" }
	END {
		print "| workload | metric | base median [q1–q3] | head median [q1–q3] | change | head won |"
		print "|---|---|---:|---:|---:|---:|"
		for (i = 1; i <= nk; i++) {
			split(key[i], km, SUBSEP)
			w = km[1]; m = km[2]
			higher = m ~ /\/s$|_per_s$/
			delete med
			b = cell("base", key[i]); h = cell("head", key[i])
			won = 0
			for (p = 1; p <= pairs; p++)
				if (("base", w, m, p) in v && ("head", w, m, p) in v) {
					bv = v["base", w, m, p] + 0; hv = v["head", w, m, p] + 0
					won += higher ? hv > bv : hv < bv
				}
			change = ("base" in med) && ("head" in med) && med["base"] != 0 ? sprintf("%+.1f%%", 100 * (med["head"] / med["base"] - 1)) : "—"
			printf "| %s | %s | %s | %s | %s | %d/%d |\n", w, m, b, h, change, won, pairs
			if ((w " " m) in want) delete want[w " " m]
			else if (!(gate && m == "inj/s" && w ~ /^BenchmarkSiteThroughput\//) || !("base" in med) || !("head" in med)) continue
			lim = w ~ /^Benchmark(Campaign|Site)Throughput\// ? wide : band
			if (!("base" in med) || !("head" in med)) fail(w " " m " missing on one side")
			else if (higher ? med["head"] < (1 - lim) * med["base"] : med["head"] > (1 + lim) * med["base"])
				fail(w " " m " median " num(med["head"]) " is " change " against base " num(med["base"]) " (limit " 100 * lim "%)")
			if (w == "BenchmarkFleetIngest" && ("head" in med) && med["head"] < floor)
				fail(w " inj/s median " num(med["head"]) " is below the " floor " floor")
		}
		for (k in want) fail(k " missing")
		printf "\n%sab: %s\n", fails, fails == "" ? "PASS" : "FAIL"
		exit fails != ""
	}' "$samples"
