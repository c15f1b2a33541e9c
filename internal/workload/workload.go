// Package workload models the six benchmarks of the paper's evaluation
// (mcf and bzip2 from SPEC2006, freqmine, canneal and x264 from PARSEC, and
// Postmark) as hypervisor workloads: each benchmark is a distribution over
// VM exit reasons plus an activation-rate model, calibrated per
// virtualization mode to the paper's Fig. 3 measurements (para-virtualized
// guests activate the hypervisor 5K–100K times per second with freqmine
// bursting to ~650K/s; hardware-assisted guests mostly sit between 2K and
// 10K/s).
package workload

import (
	"fmt"
	"math"

	"xentry/internal/hv"
)

// Source is the randomness a workload model consumes. Both *math/rand.Rand
// and the simulator's explicit-state *rng.RNG satisfy it; the machine uses
// the latter so its sampling state can be checkpointed and restored.
type Source interface {
	Intn(n int) int
	Float64() float64
	NormFloat64() float64
}

// Mode is the virtualization mode.
type Mode int

// Virtualization modes.
const (
	// PV is Xen para-virtualization: a rich hypercall interface and hence
	// higher activation rates.
	PV Mode = iota
	// HVM is hardware-assisted virtualization: fewer, emulation-centric
	// exits.
	HVM
)

// String names the mode.
func (m Mode) String() string {
	if m == HVM {
		return "hvm"
	}
	return "pv"
}

// CPUHz is the simulated clock rate used to convert cycle counts to
// per-second activation frequencies.
const CPUHz = 1e9

// minInterval floors the guest compute interval between exits (cycles) —
// even the tightest hypercall loop does some guest-side work.
const minInterval = 800

// WeightedReason is one exit reason with its sampling weight.
type WeightedReason struct {
	Reason hv.ExitReason
	Weight int
}

// Profile is one benchmark's hypervisor workload model. The profiles
// ByName and Profiles return are one shared table built once per process:
// read-only, safe for concurrent use, and never to be modified.
type Profile struct {
	Name string
	// Class is the paper's workload classification (cpu, memory, io).
	Class string
	// Mix is the exit-reason distribution per mode.
	Mix map[Mode][]WeightedReason
	// MeanInterval is the mean guest compute time (cycles) between VM
	// exits per mode; it calibrates Fig. 3's activation frequencies.
	MeanInterval map[Mode]float64
	// Spread is the log-scale spread of the interval distribution
	// (box-plot width in Fig. 3).
	Spread float64
	// BurstProb and BurstFactor model activity bursts: with BurstProb a
	// sampled second runs at MeanInterval/BurstFactor (freqmine's 650K/s
	// peak).
	BurstProb   float64
	BurstFactor float64

	// totals is the sum of each mode's Mix weights, for SampleReason.
	totals map[Mode]int
}

// pvCommon is the hypercall-heavy mixture shared by PV profiles.
func pvCommon(extra ...WeightedReason) []WeightedReason {
	base := []WeightedReason{
		{hv.HCEventChannelOp, 18},
		{hv.HCSchedOp, 14},
		{hv.APICTimer, 12},
		{hv.HCSetTimerOp, 8},
		{hv.HCIret, 8},
		{hv.HCMulticall, 4},
		{hv.SoftIRQ, 6},
		{hv.HCXenVersion, 1},
		{hv.HCVcpuOp, 2},
		{hv.HCConsoleIO, 1},
	}
	return append(base, extra...)
}

// hvmCommon is the emulation-centric mixture shared by HVM profiles.
func hvmCommon(extra ...WeightedReason) []WeightedReason {
	base := []WeightedReason{
		{hv.APICTimer, 24},
		{hv.ExGeneralProtection, 12}, // privileged-instruction emulation
		{hv.IRQDevice, 8},
		{hv.SoftIRQ, 6},
		{hv.APICEventCheck, 4},
		{hv.Tasklet, 2},
	}
	return append(base, extra...)
}

// profiles is the shared, read-only profile table, in the paper's order.
var profiles = buildProfiles()

// Profiles returns the six benchmark profiles in the paper's order. The
// slice is the caller's; the profiles are the shared read-only table.
func Profiles() []*Profile {
	return append([]*Profile(nil), profiles...)
}

// buildProfiles builds the profile table with each mode's weight total.
func buildProfiles() []*Profile {
	ps := []*Profile{
		{
			Name: "mcf", Class: "memory",
			Mix: map[Mode][]WeightedReason{
				PV: pvCommon(
					WeightedReason{hv.HCMMUUpdate, 16},
					WeightedReason{hv.HCMemoryOp, 12},
					WeightedReason{hv.HCUpdateVAMapping, 8},
					WeightedReason{hv.ExPageFault, 10},
				),
				HVM: hvmCommon(
					WeightedReason{hv.ExPageFault, 22},
					WeightedReason{hv.HCMemoryOp, 4},
				),
			},
			MeanInterval: map[Mode]float64{PV: 45_000, HVM: 220_000},
			Spread:       0.8,
		},
		{
			Name: "bzip2", Class: "cpu",
			Mix: map[Mode][]WeightedReason{
				PV: pvCommon(
					WeightedReason{hv.ExPageFault, 4},
					WeightedReason{hv.HCMemoryOp, 3},
				),
				HVM: hvmCommon(),
			},
			MeanInterval: map[Mode]float64{PV: 120_000, HVM: 420_000},
			Spread:       0.5,
		},
		{
			Name: "freqmine", Class: "io",
			Mix: map[Mode][]WeightedReason{
				PV: pvCommon(
					WeightedReason{hv.IRQDisk, 14},
					WeightedReason{hv.HCGrantTableOp, 12},
					WeightedReason{hv.HCMemoryOp, 6},
					WeightedReason{hv.ExPageFault, 4},
				),
				HVM: hvmCommon(
					WeightedReason{hv.IRQDisk, 10},
					WeightedReason{hv.HCGrantTableOp, 3},
				),
			},
			MeanInterval: map[Mode]float64{PV: 26_000, HVM: 160_000},
			Spread:       1.0,
			BurstProb:    0.08,
			BurstFactor:  16,
		},
		{
			Name: "canneal", Class: "cpu",
			Mix: map[Mode][]WeightedReason{
				PV: pvCommon(
					WeightedReason{hv.ExPageFault, 8},
					WeightedReason{hv.HCMMUUpdate, 6},
				),
				HVM: hvmCommon(WeightedReason{hv.ExPageFault, 8}),
			},
			MeanInterval: map[Mode]float64{PV: 90_000, HVM: 350_000},
			Spread:       0.6,
		},
		{
			Name: "x264", Class: "io",
			Mix: map[Mode][]WeightedReason{
				PV: pvCommon(
					WeightedReason{hv.IRQDisk, 10},
					WeightedReason{hv.IRQNet, 4},
					WeightedReason{hv.HCGrantTableOp, 8},
					WeightedReason{hv.ExPageFault, 4},
				),
				HVM: hvmCommon(
					WeightedReason{hv.IRQDisk, 8},
					WeightedReason{hv.IRQNet, 3},
				),
			},
			MeanInterval: map[Mode]float64{PV: 55_000, HVM: 240_000},
			Spread:       0.9,
		},
		{
			Name: "postmark", Class: "io",
			Mix: map[Mode][]WeightedReason{
				PV: pvCommon(
					WeightedReason{hv.IRQDisk, 22},
					WeightedReason{hv.HCGrantTableOp, 18},
					WeightedReason{hv.HCEventChannelOp, 10},
					WeightedReason{hv.HCConsoleIO, 3},
				),
				HVM: hvmCommon(
					WeightedReason{hv.IRQDisk, 16},
					WeightedReason{hv.HCGrantTableOp, 6},
				),
			},
			MeanInterval: map[Mode]float64{PV: 13_000, HVM: 120_000},
			Spread:       0.9,
			BurstProb:    0.05,
			BurstFactor:  4,
		},
	}
	for _, p := range ps {
		p.totals = make(map[Mode]int, len(p.Mix))
		for mode, mix := range p.Mix {
			for _, w := range mix {
				p.totals[mode] += w.Weight
			}
		}
	}
	return ps
}

// ByName returns the named profile from the shared read-only table.
func ByName(name string) (*Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists the benchmark names in the paper's order.
func Names() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// SampleReason draws one exit reason from the profile's mixture.
func (p *Profile) SampleReason(mode Mode, rng Source) hv.ExitReason {
	mix := p.Mix[mode]
	pick := rng.Intn(p.totals[mode])
	for _, w := range mix {
		pick -= w.Weight
		if pick < 0 {
			return w.Reason
		}
	}
	return mix[len(mix)-1].Reason
}

// SampleInterval draws one guest compute interval (cycles between exits),
// log-normally spread around the mode's mean.
func (p *Profile) SampleInterval(mode Mode, rng Source) float64 {
	mean := p.MeanInterval[mode]
	iv := mean * math.Exp(p.Spread*rng.NormFloat64()-p.Spread*p.Spread/2)
	if iv < minInterval {
		iv = minInterval
	}
	return iv
}

// FrequencySample simulates one wall-clock second and returns the number
// of hypervisor activations in it, given the mean handler cost in cycles.
// This is the generator behind Fig. 3's box plots.
func (p *Profile) FrequencySample(mode Mode, rng Source, handlerCost float64) float64 {
	mean := p.MeanInterval[mode]
	if p.BurstProb > 0 && rng.Float64() < p.BurstProb {
		mean /= p.BurstFactor
	}
	// Second-level rate variation (box width) plus the per-exit costs.
	secMean := mean * math.Exp(p.Spread*rng.NormFloat64()-p.Spread*p.Spread/2)
	if secMean < minInterval {
		secMean = minInterval
	}
	return CPUHz / (secMean + handlerCost)
}
