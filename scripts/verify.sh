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

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" "$fmt" >&2
    exit 1
fi

go build ./...
go vet ./...
go test ./...
# Golden digests (also in the full run above, where a cached pass may be
# replayed): the five outputs testdata/golden.txt pins (the quick report,
# two recovery-armed SMP campaigns, the default-K gpr campaign and the
# quick training dataset) must stay byte-identical. Uncached, so this run
# recomputes them.
go test -count=1 -run TestGoldenDigests .
go test -run '^$' -bench . -benchtime 1x ./...
# Dual-dispatch differential fuzzing: a short deterministic-corpus run
# plus a brief live-fuzz burst over the threaded-vs-switch harness, so
# translator changes cannot land without surviving randomized programs.
go test -run FuzzThreadedVsSwitch ./internal/cpu/
go test -run '^$' -fuzz FuzzThreadedVsSwitch -fuzztime 15s ./internal/cpu/
# Wire-protocol fuzzing: the deterministic corpus plus a live burst over
# the frame splitter / record decoder / message decoder, so codec changes
# cannot land without surviving adversarial bytes (the fleet coordinator
# feeds these decoders straight off the network).
go test -run FuzzWireDecode ./internal/wire/
go test -run '^$' -fuzz FuzzWireDecode -fuzztime 15s ./internal/wire/
# Site-codec fuzzing: the record codec's trailing site block must
# round-trip every in-range {vcpu, site-class, index} triple and reject
# out-of-range or truncated blocks without panicking.
go test -run FuzzSiteCodec ./internal/wire/
go test -run '^$' -fuzz FuzzSiteCodec -fuzztime 15s ./internal/wire/
# Undo-epoch fuzzing: random interleavings of writes, TLB tag flips,
# checkpoints, restores, Mark and Rollback must match the flat
# Snapshot/Restore oracle and leave every checkpoint untouched, because
# live recovery snapshots every VM exit through this path.
go test -run 'FuzzUndoEpoch|TestUndoEpochDifferential' ./internal/mem/
go test -run '^$' -fuzz FuzzUndoEpoch -fuzztime 15s ./internal/mem/
# Tree-induction fuzzing: the presorted builder must grow exactly the
# reference sort-per-node builder's tree on tie-heavy random datasets,
# over decision and random configurations, because every trained model
# and every report number downstream depends on it.
go test -run FuzzTrainMatchesReference ./internal/ml/
go test -run '^$' -fuzz FuzzTrainMatchesReference -fuzztime 15s ./internal/ml/
# Fingerprint soundness fuzzing: a single-bit flip anywhere in the state
# the convergence fingerprint covers (registers, TSC, memory, D-TLB tags,
# PMU banks) must change it, and reverting the flip must restore it,
# because convergence pruning treats fingerprint equality as state
# equality.
go test -run FuzzFingerprintSoundness ./internal/sim/
go test -run '^$' -fuzz FuzzFingerprintSoundness -fuzztime 15s ./internal/sim/
go test -race ./internal/cpu/ ./internal/inject/ ./internal/mem/ ./internal/sim/ ./internal/store/ ./internal/server/ ./internal/progress/ ./internal/wire/
# Campaign lifecycle burst: the server's fleet sessions, tombstones and
# settle-then-terminal-event ordering are timing-sensitive, so one race
# pass would catch a regression only now and then; ten catch it reliably.
go test -race -count=10 ./internal/server/
# Recovery differential pass: recover=off campaigns must stay
# bit-identical to the engine-less baseline, microreboot campaigns must
# be deterministic (including under the race detector's schedule
# perturbation), the outcome-class mix must stay honest (nonzero full
# AND failed), and runs rolled back to their VM-exit snapshot must
# converge under pruning with outcomes equal to -prune=off. Focused runs
# so a recovery regression names itself.
go test -run 'Recovery|Microreboot|Reinit|Snapshot|Rollback' ./internal/inject/ ./internal/hv/ ./internal/sim/ ./internal/store/
go test ./internal/recovery/
go test -race -run 'Microreboot' ./internal/inject/
# SMP bit-identity burst: the legacy single-CPU register campaign must
# stay byte-identical to the explicit VCPUs=1/Targets=gpr spelling, the
# 4-vCPU multi-site campaign and the schedule trace must be deterministic
# (including under the race detector's schedule perturbation), and
# kill/resume must reproduce the per-site coverage rows exactly.
go test -run 'TestLegacyCampaignBitIdenticalToExplicitDefaults|TestSMPMultiSiteCampaignDeterministic|TestPruneFiresForUncoreTargets|TestPruneUncoreRecoveryBitIdentical' ./internal/inject/
go test -run 'TestScheduleTrace|TestSMPGoldenRunDeterministic' ./internal/sim/
go test -run 'TestResumeSMPMultiSiteCampaignBitIdentical' ./internal/store/
go test -race -run 'TestSMPMultiSiteCampaignDeterministic' ./internal/inject/
