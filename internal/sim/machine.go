// Package sim is the full-system simulator of the evaluation (the paper
// used Simics): it assembles the mini-Xen hypervisor, wraps it with the
// Xentry sentry, and drives it with benchmark workloads — producing the
// deterministic activation streams that the fault-injection campaigns,
// training-data collection, and overhead studies all replay.
package sim

import (
	"errors"
	"fmt"

	"xentry/internal/core"
	"xentry/internal/cpu"
	"xentry/internal/detect"
	"xentry/internal/guest"
	"xentry/internal/hv"
	"xentry/internal/mem"
	"xentry/internal/ml"
	"xentry/internal/recovery"
	"xentry/internal/rng"
	"xentry/internal/workload"
)

// Config describes one simulated machine setup.
type Config struct {
	// Benchmark is the workload name (see workload.Names).
	Benchmark string
	// Mode is the virtualization mode.
	Mode workload.Mode
	// Domains is the domain count (domain 0 privileged). The paper's
	// injection setup is Dom0 plus two PV DomUs.
	Domains int
	// VCPUs is the logical CPU count (0 means 1). With more than one CPU
	// the machine becomes the paper's SMP testbed: a deterministic
	// round-robin scheduler with seeded quanta interleaves activations
	// across the CPU bank, and cross-domain event-channel kicks travel
	// through per-CPU APIC pending words (IPI delivery) instead of staying
	// in shared info. VCPUs==1 is bit-identical to the pre-SMP machine.
	VCPUs int
	// Seed drives every random draw; equal seeds replay identical
	// activation streams.
	Seed int64
	// Detection selects the Xentry configuration.
	Detection core.Options
	// Detectors builds plugin detectors appended behind the built-in
	// pipeline on every machine constructed from this config (one fresh
	// instance per machine, so detectors may hold per-machine state).
	Detectors []detect.Factory
	// SwitchDispatch disables the direct-threaded translator on every CPU
	// and runs untraced code through the semantics-table loop instead
	// (cpu.CPU.DisableThreaded). Outcomes are bit-identical either way;
	// the equivalence matrix's dispatch column runs whole campaigns with
	// this set to prove it.
	SwitchDispatch bool
}

// DefaultConfig mirrors the paper's injection setup.
func DefaultConfig(benchmark string, seed int64) Config {
	return Config{
		Benchmark: benchmark,
		Mode:      workload.PV,
		Domains:   3,
		Seed:      seed,
		Detection: core.FullDetection(),
	}
}

// Activation is one completed VM exit/entry cycle.
type Activation struct {
	Index   int
	Ev      hv.ExitEvent
	Outcome core.Outcome
	Record  guest.Record
	// GuestCycles is the guest compute time preceding this exit.
	GuestCycles float64
	// Recovered reports that a positive detection triggered the recovery
	// mechanism and the activation was re-executed from the snapshot; the
	// first detection's technique is preserved in FirstDetection.
	Recovered      bool
	FirstDetection core.Technique
	// Recovery is the recovery engine's record when it fired on this
	// activation (Attempted false otherwise).
	Recovery recovery.Outcome
}

// Machine is one simulated host.
type Machine struct {
	Cfg     Config
	HV      *hv.Hypervisor
	Sentry  *core.Sentry
	Profile *workload.Profile

	// RecoverOnDetection enables the paper's Section VI recovery
	// mechanism live: the machine snapshots critical state at every VM
	// exit and, on any positive detection (correct or false), restores
	// the snapshot and re-executes the activation once. The transient
	// fault does not recur, so re-execution normally completes cleanly.
	RecoverOnDetection bool
	// Recovery arms the ReHype-style recovery engine: on a positive
	// detection the machine consults the engine's policy and either
	// microreboots the hypervisor (hv.Reinit — private state rebuilt,
	// guest-visible state preserved) or rolls back to the VM-exit snapshot
	// (Section VI), then re-executes the interrupted activation under the
	// engine's watchdog. Like RecoverOnDetection it is configuration, not
	// state: checkpoints do not capture it. The two switches are mutually
	// exclusive.
	Recovery *recovery.Engine
	// Recoveries counts triggered recoveries.
	Recoveries int

	// rng drives every workload draw. It is an explicit-state generator
	// (internal/rng) rather than math/rand so a Checkpoint can capture the
	// sampling state exactly: equal state ⇒ identical activation streams.
	rng  *rng.RNG
	step int
	// schedRng drives the SMP scheduler's quantum draws. It is separate
	// from the workload rng — and nil on a single-CPU machine — so the
	// event stream is identical across CPU counts and the schedule is a
	// pure function of (seed, step), never of injection outcomes.
	schedRng *rng.RNG
	// schedCur is the CPU owning the current quantum; schedLeft is the
	// number of activations left in it.
	schedCur, schedLeft int
	// evScratch is the reusable exit-event buffer nextEvent fills each
	// step. StepInto copies it by value into the Activation and no callee
	// retains the pointer past its call, so one buffer serves the
	// machine's whole life instead of one heap escape per activation.
	evScratch hv.ExitEvent
	// draws, when set, replays a recorded fault-free run's workload draws
	// (see Draws); nil machines sample every step. record, set only while
	// goldenRun records a table, collects the draws instead.
	draws, record *Draws
	// Clock accumulates virtual cycles: guest compute + hypervisor
	// execution + detection shim.
	Clock float64
}

// NewMachine builds a machine from the configuration.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Domains == 0 {
		cfg.Domains = 3
	}
	if cfg.VCPUs == 0 {
		cfg.VCPUs = 1
	}
	prof, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	h, err := hv.NewSMP(cfg.Domains, cfg.VCPUs)
	if err != nil {
		return nil, err
	}
	for _, c := range h.CPUs {
		c.DisableThreaded = cfg.SwitchDispatch
	}
	sentry := core.New(h, cfg.Detection)
	for _, f := range cfg.Detectors {
		sentry.AddDetector(f())
	}
	m := &Machine{
		Cfg:     cfg,
		HV:      h,
		Sentry:  sentry,
		Profile: prof,
		rng:     rng.New(cfg.Seed),
	}
	if cfg.VCPUs > 1 {
		// Seed the scheduler stream away from the workload stream; start
		// on the last CPU with an exhausted quantum so the first
		// activation's rotation lands on CPU 0.
		m.schedRng = rng.New(cfg.Seed ^ 0x5c4ed51e)
		m.schedCur = cfg.VCPUs - 1
	}
	return m, nil
}

// StepIndex is the index of the next activation Step will execute.
func (m *Machine) StepIndex() int { return m.step }

// Checkpoint is a complete machine image: restoring it reproduces the exact
// remaining activation stream (events, outcomes, features, records, clock)
// the machine would have produced had it kept running — the Simics-style
// capability the paper's injection campaigns lean on. Checkpoints are
// immutable (memory is captured copy-on-write) and safe to restore into
// many machines concurrently.
type Checkpoint struct {
	// Step is the index of the next activation after restore.
	Step       int
	Clock      float64
	Recoveries int

	rngState uint64
	stats    core.Stats
	hv       *hv.Checkpoint
	// Scheduler state (zero on single-CPU machines, which have none).
	schedState          uint64
	schedCur, schedLeft int
	// detectors holds per-detector state for plugins implementing
	// detect.Checkpointable, aligned with the machine's plugin list
	// (nil entries for stateless detectors).
	detectors []any
}

// MemImage exposes the checkpoint's copy-on-write memory image. The
// injection runner uses pool images two ways: as the incremental-hash
// base for fingerprints of machines restored from the checkpoint
// (mem.Memory.FoldFrom), and for the memory fold of the golden
// fingerprint at the checkpoint's activation (mem.Checkpoint.Fold).
func (cp *Checkpoint) MemImage() *mem.Checkpoint {
	return cp.hv.MemImage()
}

// Fingerprint is a compact summary of a machine's complete state at an
// activation boundary: Arch hashes every register file plus its TSC,
// Uncore hashes the machine state outside the register files and guest
// memory (per-CPU PMU banks and the D-TLB poison summary — see
// hv.UncoreHash; the APIC mailbox and page-table words live in hv_data,
// so Mem covers them), and Mem XOR-folds per-page memory hashes. Equal
// fingerprints at equal activation indices mean (modulo hash collision,
// ~2^-192 per comparison) the two executions have re-converged and every
// subsequent activation is identical.
type Fingerprint struct {
	Arch   uint64
	Uncore uint64
	Mem    uint64
}

// FingerprintFrom fingerprints the machine's current state. When base is
// the memory image the machine last checkpointed or restored, the memory
// fold rehashes only the pages written since; otherwise (or with a nil
// base) it hashes everything (mem.Memory.FoldFrom).
func (m *Machine) FingerprintFrom(base *mem.Checkpoint) Fingerprint {
	return Fingerprint{
		Arch:   m.HV.ArchHash(),
		Uncore: m.HV.UncoreHash(),
		Mem:    m.HV.Mem.FoldFrom(base),
	}
}

// Checkpoint captures the machine's full state before its next activation.
// Taking one is cheap: all bulk state is shared copy-on-write.
func (m *Machine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Step:       m.step,
		Clock:      m.Clock,
		Recoveries: m.Recoveries,
		rngState:   m.rng.State(),
		stats:      m.Sentry.Stats(),
		hv:         m.HV.Checkpoint(),
	}
	if m.schedRng != nil {
		cp.schedState = m.schedRng.State()
		cp.schedCur = m.schedCur
		cp.schedLeft = m.schedLeft
	}
	if plugins := m.Sentry.Detectors(); len(plugins) > 0 {
		cp.detectors = make([]any, len(plugins))
		for i, d := range plugins {
			if c, ok := d.(detect.Checkpointable); ok {
				cp.detectors[i] = c.DetectorCheckpoint()
			}
		}
	}
	return cp
}

// RestoreFrom reinstates a Checkpoint taken from an identically configured
// machine (same Config). The installed model and the recovery switches
// (RecoverOnDetection, Recovery) are configuration, not state: they are
// left as set on this machine.
func (m *Machine) RestoreFrom(cp *Checkpoint) error {
	if err := m.HV.RestoreFrom(cp.hv); err != nil {
		return err
	}
	m.step = cp.Step
	m.Clock = cp.Clock
	m.Recoveries = cp.Recoveries
	m.rng.SetState(cp.rngState)
	if m.schedRng != nil {
		m.schedRng.SetState(cp.schedState)
		m.schedCur = cp.schedCur
		m.schedLeft = cp.schedLeft
	}
	m.Sentry.RestoreStats(cp.stats)
	if cp.detectors != nil {
		plugins := m.Sentry.Detectors()
		if len(plugins) != len(cp.detectors) {
			return fmt.Errorf("sim: checkpoint carries %d detector states, machine has %d plugins",
				len(cp.detectors), len(plugins))
		}
		for i, state := range cp.detectors {
			if state == nil {
				continue
			}
			c, ok := plugins[i].(detect.Checkpointable)
			if !ok {
				return fmt.Errorf("sim: detector %q lost its Checkpointable state", plugins[i].Name())
			}
			if err := c.DetectorRestore(state); err != nil {
				return fmt.Errorf("sim: restore detector %q: %w", plugins[i].Name(), err)
			}
		}
	}
	return nil
}

// SetModel installs a trained transition-detection model.
func (m *Machine) SetModel(t *ml.Tree) { m.Sentry.SetModel(t) }

// Draws is the workload-draw table of a recorded fault-free run. nextEvent
// draws only from the machine's rng and from configuration constants
// (Cfg.Domains, Cfg.Mode, Profile), so a step's draws are a pure function
// of the rng state entering it. The table keys each step on that state:
// a machine whose rng state at step i equals rng[i] takes step i's domain,
// exit reason and guest interval from the recorded activation, the
// guest-input seed from seed[i], and leaves its rng at rng[i+1], exactly
// where sampling would have left it. Any other state samples as usual.
// The table costs 16 bytes per activation beside the golden activations
// it reads, which the runner keeps anyway. It is read-only once recorded
// and shared by every machine of the runner.
type Draws struct {
	acts []Activation
	rng  []uint64 // rng state entering step i; rng[len(acts)] after the last
	seed []uint64 // PrepareGuestInput's seed word of step i
	// Configuration constants the draws depend on; UseDraws ignores a
	// table recorded under different ones.
	mode    workload.Mode
	domains int
	profile *workload.Profile
}

// UseDraws makes the machine replay d's draws wherever its rng state is on
// the table. A nil table, or one recorded on a machine with a different
// workload, mode or domain count, turns replay off.
func (m *Machine) UseDraws(d *Draws) {
	if d != nil && (d.mode != m.Cfg.Mode || d.domains != m.Cfg.Domains || d.profile != m.Profile) {
		d = nil
	}
	m.draws = d
}

// nextEvent draws the next VM exit deterministically from the workload,
// or replays it from the draw table when the rng state is on it.
// PrepareGuestInput runs either way: it writes the guest's input buffers.
func (m *Machine) nextEvent() (*hv.ExitEvent, float64, error) {
	var (
		dom      int
		reason   hv.ExitReason
		seed     uint64
		interval float64
	)
	if d := m.draws; d != nil && m.step < len(d.seed) && m.rng.State() == d.rng[m.step] {
		g := &d.acts[m.step]
		dom, reason, seed, interval = g.Ev.Dom, g.Ev.Reason, d.seed[m.step], g.GuestCycles
		m.rng.SetState(d.rng[m.step+1])
	} else {
		before := m.rng.State()
		// Domain selection: the control domain runs the I/O backend and
		// management plane (~20% of exits); application domains share the
		// rest.
		if m.rng.Float64() < 0.2 {
			dom = 0
		} else if m.Cfg.Domains > 1 {
			dom = 1 + m.rng.Intn(m.Cfg.Domains-1)
		}
		reason = m.Profile.SampleReason(m.Cfg.Mode, m.rng)
		if dom == 0 && m.rng.Float64() < 0.1 {
			// Management-plane traffic only Dom0 issues.
			if m.rng.Intn(2) == 0 {
				reason = hv.HCDomctl
			} else {
				reason = hv.HCSysctl
			}
		}
		seed = m.rng.Uint64()
		interval = m.Profile.SampleInterval(m.Cfg.Mode, m.rng)
		if r := m.record; r != nil {
			r.rng = append(r.rng, before)
			r.seed = append(r.seed, seed)
		}
	}
	args, err := hv.PrepareGuestInput(m.HV, dom, reason, seed)
	if err != nil {
		return nil, 0, err
	}
	m.evScratch = hv.ExitEvent{Reason: reason, Dom: dom, Args: args}
	return &m.evScratch, interval, nil
}

// Step executes one activation and returns it.
func (m *Machine) Step() (act Activation, err error) {
	err = m.StepInto(&act)
	return act, err
}

// StepInto executes one activation and fills act with it, every field
// overwritten, so a caller that steps many activations can keep one
// Activation instead of copying a fresh one out per step. On error act is
// unspecified.
func (m *Machine) StepInto(act *Activation) error {
	ev, interval, err := m.nextEvent()
	if err != nil {
		return err
	}
	if m.schedRng != nil {
		// Deterministic interleave: round-robin over the CPU bank with a
		// seeded quantum of 1-4 activations. The draw comes from the
		// dedicated scheduler stream, so the schedule depends only on the
		// seed and the step index — never on what an injection did.
		if m.schedLeft == 0 {
			m.schedCur = (m.schedCur + 1) % m.Cfg.VCPUs
			m.schedLeft = 1 + m.schedRng.Intn(4)
		}
		ev.VCPU = m.schedCur
		m.schedLeft--
		// Consume any IPI kick queued for this domain before it runs:
		// deferred cross-CPU event bits become guest-visible again.
		if err := m.HV.DeliverIPI(ev.Dom); err != nil {
			return err
		}
	}
	// The TSC runs at wall-clock rate: it advances across the guest's
	// compute interval, not just during hypervisor execution. Each logical
	// CPU keeps its own TSC; only the scheduled CPU's advances.
	m.HV.CPUFor(ev).TSC += uint64(interval)
	var snap *hv.Snap
	if m.RecoverOnDetection || (m.Recovery != nil && m.Recovery.MayRestore()) {
		// Preserve the critical data and the VM exit reason at every VM
		// exit (paper Section VI). An engine that can never decide
		// StrategyRestore never reads the snapshot (microreboot rebuilds
		// from scratch), so arming one skips it: the snapshot drops every
		// D-TLB entry, which would change what D-TLB injections strike.
		snap = m.HV.Snapshot()
	}
	out := &act.Outcome
	if err := m.Sentry.ExecuteInto(ev, hv.DefaultBudget, out); err != nil {
		return err
	}
	act.Recovered = false
	act.FirstDetection = out.Technique
	act.Recovery = recovery.Outcome{}
	if m.RecoverOnDetection && out.Verdict.Detected() {
		// Positive detection: restore the snapshot and re-execute. The
		// soft error was transient, so the re-execution runs fault-free;
		// re-execution roughly doubles the activation's hypervisor time.
		if err := m.HV.Restore(snap); err != nil {
			return err
		}
		if err := m.Sentry.ExecuteInto(ev, hv.DefaultBudget, out); err != nil {
			return err
		}
		m.Recoveries++
		act.Recovered = true
	} else if m.Recovery != nil && out.Verdict.Detected() {
		cause := recovery.CauseOf(out.Result.Stop, out.Hang)
		if strat := m.Recovery.Decide(out.Technique, cause); strat != recovery.StrategyNone {
			rec := &act.Recovery
			*rec = recovery.Outcome{
				Attempted:  true,
				Strategy:   strat,
				Technique:  out.Technique,
				Cause:      cause,
				Activation: m.step,
			}
			switch strat {
			case recovery.StrategyMicroreboot:
				err = m.HV.Reinit()
			case recovery.StrategyRestore:
				err = m.HV.Restore(snap)
			}
			switch {
			case errors.Is(err, hv.ErrSalvage):
				// The fault corrupted the state the reboot would salvage:
				// the attempt aborts, the machine stands as the detection
				// left it, and the run fails as it would have unrecovered.
				m.Recoveries++
			case err != nil:
				return err
			default:
				// Re-enter the interrupted activation and run it under the
				// engine's watchdog. Unlike the Section VI path, a microreboot
				// re-executes against rebuilt private state, so the outcome can
				// legitimately differ from the fault-free reference.
				if err := m.Sentry.ExecuteInto(ev, m.Recovery.Watchdog(), out); err != nil {
					return err
				}
				rec.ReSteps = out.Result.Steps
				rec.ReExecuted = out.Result.Stop == cpu.StopVMEntry
				m.Recoveries++
				act.Recovered = true
			}
		}
	}
	guest.CaptureInto(m.HV, ev, &act.Record)
	// The guest acknowledges delivered events before resuming work.
	if err := m.HV.ClearEventPending(ev.Dom); err != nil {
		return err
	}
	if m.schedRng != nil {
		// Cross-CPU event delivery: pending bits this activation raised in
		// other domains' shared info become IPI kicks through their home
		// CPUs' APIC words, consumed by DeliverIPI when those domains next
		// run.
		if err := m.HV.QueueCrossEvents(ev.Dom); err != nil {
			return err
		}
	}
	m.Clock += interval + float64(out.Result.Steps) + float64(out.ShimCycles)
	act.Index = m.step
	act.Ev = *ev
	act.GuestCycles = interval
	m.step++
	return nil
}

// Run executes n activations and returns them, each stepped in place into
// its slot.
func (m *Machine) Run(n int) ([]Activation, error) {
	acts := make([]Activation, n)
	for i := range acts {
		if err := m.StepInto(&acts[i]); err != nil {
			return acts[:i], err
		}
	}
	return acts, nil
}

// GoldenRun builds a fresh machine from cfg and records the fault-free
// stream: activations (with features), guest records, and per-activation
// dynamic instruction counts. Injection runs replay the same cfg.
func GoldenRun(cfg Config, n int) ([]Activation, error) {
	return goldenRun(cfg, n, nil)
}

// RecordGoldenRun is GoldenRun that also records the run's draw table, so
// machines of the same configuration can replay its workload draws instead
// of sampling them again (UseDraws).
func RecordGoldenRun(cfg Config, n int) ([]Activation, *Draws, error) {
	d := &Draws{rng: make([]uint64, 0, n+1), seed: make([]uint64, 0, n)}
	acts, err := goldenRun(cfg, n, d)
	if err != nil {
		return nil, nil, err
	}
	return acts, d, nil
}

// goldenRun runs and checks the fault-free stream, recording its draws
// into d when d is non-nil.
func goldenRun(cfg Config, n int, d *Draws) ([]Activation, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	m.record = d
	acts, err := m.Run(n)
	m.record = nil
	if err != nil {
		return nil, err
	}
	for i := range acts {
		if acts[i].Outcome.Technique != core.TechNone {
			return nil, fmt.Errorf("sim: golden run flagged at activation %d (%v)",
				i, acts[i].Outcome.Technique)
		}
		if acts[i].Outcome.Hang {
			return nil, fmt.Errorf("sim: golden run hung at activation %d", i)
		}
	}
	if d != nil {
		d.acts = acts
		d.rng = append(d.rng, m.rng.State())
		d.mode, d.domains, d.profile = m.Cfg.Mode, m.Cfg.Domains, m.Profile
	}
	return acts, nil
}

// MeanHandlerCost estimates the average hypervisor execution length
// (instructions per activation) for a configuration — the handler-cost
// input of the Fig. 3 frequency model.
func MeanHandlerCost(cfg Config, n int) (float64, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return 0, err
	}
	var total uint64
	var act Activation
	for i := 0; i < n; i++ {
		if err := m.StepInto(&act); err != nil {
			return 0, err
		}
		total += act.Outcome.Result.Steps + act.Outcome.ShimCycles
	}
	return float64(total) / float64(n), nil
}
