#!/bin/sh
# Tier-1 verification: formatting, build, vet, full test suite, a
# single-iteration pass over every benchmark (so the perf harness itself
# cannot rot), and race-detector passes over the packages with real
# concurrency (the campaign engine's workers share the read-only
# checkpoint pool and the linked text segment; the result store takes
# concurrent records from campaign workers and the fleet's ingest; the
# CPU core is what every worker runs; the memory package's checkpoints
# share page-table chunks and pages that concurrent restores and folds
# only read).
set -eux

cd "$(dirname "$0")/.."

# focused PATTERN [FLAG|PACKAGE]...: go test -v -run PATTERN, failing also
# when an alternative of PATTERN runs no test. go test -run passes a
# pattern that selects nothing, and go test -list cannot see subtests, so
# a renamed test would drop out of its pass unnoticed. Alternatives are
# split on | and their elements on /, so write them without parentheses.
focused() {
	pattern=$1
	shift
	go test -v -run "$pattern" "$@" 2>&1 | awk -v pattern="$pattern" '
		/^=== / { next }
		/^ *--- PASS: / { passed[$3]; next }
		/^FAIL/ { bad = 1 }
		{ print }
		END {
			for (n = split(pattern, alt, "|"); n > 0; n--) {
				k = split(alt[n], want, "/")
				hit = 0
				for (name in passed)
					if (split(name, got, "/") == k) {
						for (j = 1; j <= k && got[j] ~ want[j]; j++)
							;
						hit = hit || j > k
					}
				if (!hit) {
					print "verify: no test ran for " alt[n]
					bad = 1
				}
			}
			exit bad
		}'
}

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" "$fmt" >&2
    exit 1
fi

go build ./...
go vet ./...
# xbench/ is its own module (replace xentry => ../), which the root's
# go build ./... never compiles: vetting it fails an API change that breaks
# the benchmark harness here instead of first in CI's bench job.
(cd xbench && go vet .)
go test ./...
# Golden digests (also in the full run above, where a cached pass may be
# replayed): the six outputs testdata/golden.txt pins (the quick and the
# default-scale report, two recovery-armed SMP campaigns, the default-K
# gpr campaign and the quick training dataset) must stay byte-identical.
# Uncached, so this run recomputes them.
focused TestGoldenDigests -count=1 .
go test -run '^$' -bench . -benchtime 1x ./...
# Every live burst below caps the minimization of each new input at 1 s.
# At the default 60 s a worker that takes an input to minimize holds it
# past the end of a 15-s burst, and once every worker is minimizing the
# burst executes nothing for the rest of its time.
#
# Run-loop differential fuzzing: a short deterministic-corpus run plus a
# brief live-fuzz burst holding the threaded translator and the traced
# loop (with the D-TLB dropped at every step) to the switch loop, so
# translator, run-loop and D-TLB changes cannot land without surviving
# randomized programs.
focused FuzzThreadedVsSwitch ./internal/cpu/
go test -run '^$' -fuzz FuzzThreadedVsSwitch -fuzztime 15s -fuzzminimizetime 1s ./internal/cpu/
# Wire-protocol fuzzing: the deterministic corpus plus a live burst over
# the frame splitter / record decoder / message decoder, so codec changes
# cannot land without surviving adversarial bytes (the fleet coordinator
# feeds these decoders straight off the network).
focused FuzzWireDecode ./internal/wire/
go test -run '^$' -fuzz FuzzWireDecode -fuzztime 15s -fuzzminimizetime 1s ./internal/wire/
# Site-codec fuzzing: the record codec's trailing site block must
# round-trip every in-range {vcpu, site-class, index} triple and reject
# out-of-range or truncated blocks without panicking.
focused FuzzSiteCodec ./internal/wire/
go test -run '^$' -fuzz FuzzSiteCodec -fuzztime 15s -fuzzminimizetime 1s ./internal/wire/
# Undo-epoch fuzzing: random interleavings of writes, TLB tag flips,
# checkpoints, restores, Mark and Rollback must match the flat
# Snapshot/Restore oracle and leave every checkpoint untouched, because
# live recovery snapshots every VM exit through this path.
focused 'FuzzUndoEpoch|TestUndoEpochDifferential' ./internal/mem/
go test -run '^$' -fuzz FuzzUndoEpoch -fuzztime 15s -fuzzminimizetime 1s ./internal/mem/
# Tree-induction fuzzing: the presorted builder must grow exactly the
# reference sort-per-node builder's tree on tie-heavy random datasets,
# over decision and random configurations, because every trained model
# and every report number downstream depends on it.
focused FuzzTrainMatchesReference ./internal/ml/
go test -run '^$' -fuzz FuzzTrainMatchesReference -fuzztime 15s -fuzzminimizetime 1s ./internal/ml/
# Fingerprint soundness fuzzing: a single-bit flip anywhere in the state
# the convergence fingerprint covers (registers, TSC, memory, D-TLB tags,
# PMU banks) must change it, and reverting the flip must restore it,
# because convergence pruning treats fingerprint equality as state
# equality.
focused FuzzFingerprintSoundness ./internal/sim/
go test -run '^$' -fuzz FuzzFingerprintSoundness -fuzztime 15s -fuzzminimizetime 1s ./internal/sim/
go test -race ./internal/cpu/ ./internal/inject/ ./internal/mem/ ./internal/sim/ ./internal/store/ ./internal/server/ ./internal/progress/ ./internal/wire/
# Campaign lifecycle burst: the server's fleet sessions, tombstones and
# settle-then-terminal-event ordering are timing-sensitive, so one race
# pass would catch a regression only now and then; ten catch it reliably.
go test -race -count=10 ./internal/server/
# Recovery pass: the Section VI and microreboot rows of the equivalence
# matrix must hold in every mechanism cell, microreboot campaigns must be
# deterministic (including under the race detector's schedule
# perturbation), the outcome-class mix must stay honest (nonzero full AND
# failed), and runs rolled back to their VM-exit snapshot must converge
# under pruning with outcomes equal to -prune=off. Focused runs so a
# recovery regression names itself.
focused 'Recovery|Microreboot|Reinit|Snapshot|TestEquivalenceMatrix/sec6-recover|TestEquivalenceMatrix/microreboot' ./internal/inject/ ./internal/hv/ ./internal/sim/ ./internal/store/
go test ./internal/recovery/
focused Microreboot -race ./internal/inject/
# SMP burst: the single-CPU register campaign must match its explicit
# VCPUs=1/Targets=gpr spelling, the 4-vCPU multi-site campaign must hold
# in every mechanism cell and, with the schedule trace, be deterministic
# (including under the race detector's schedule perturbation), and
# kill/resume must reproduce the per-site coverage rows exactly.
focused 'TestSMPMultiSiteCampaignDeterministic|TestPruneFiresForUncoreTargets|TestEquivalenceMatrix/campaign/vcpus=1|TestEquivalenceMatrix/smp4|TestEquivalencePerPlan/smp4' ./internal/inject/
focused 'TestScheduleTrace|TestSMPGoldenRunDeterministic' ./internal/sim/
focused TestResumeSMPMultiSiteCampaignBitIdentical ./internal/store/
focused TestSMPMultiSiteCampaignDeterministic -race ./internal/inject/
