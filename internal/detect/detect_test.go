package detect

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"xentry/internal/cpu"
	"xentry/internal/hv"
	"xentry/internal/mem"
	"xentry/internal/ml"
)

func TestBuiltinTechniqueNames(t *testing.T) {
	want := map[Technique]string{
		TechNone:         "undetected",
		TechHWException:  "hw-exception",
		TechAssertion:    "sw-assertion",
		TechVMTransition: "vm-transition",
		TechWatchdog:     "watchdog-hang",
	}
	for id, name := range want {
		if got := id.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", int(id), got, name)
		}
		back, ok := TechniqueByName(name)
		if !ok || back != id {
			t.Errorf("TechniqueByName(%q) = %v, %v; want %v, true", name, back, ok, id)
		}
	}
}

// TestTechniqueStringExhaustive is the satellite exhaustiveness check: a
// registered technique must never render through the technique(N)
// fallback, so new detectors can never silently show up as numbers in
// reports.
func TestTechniqueStringExhaustive(t *testing.T) {
	for _, id := range Techniques() {
		s := id.String()
		if strings.HasPrefix(s, "technique(") {
			t.Errorf("registered technique %d renders as %q", int(id), s)
		}
	}
	if got := Technique(99999).String(); got != "technique(99999)" {
		t.Errorf("unregistered fallback = %q", got)
	}
}

func TestRegisterTechniqueIdempotent(t *testing.T) {
	a := RegisterTechnique("test-idempotent-tech")
	b := RegisterTechnique("test-idempotent-tech")
	if a != b {
		t.Fatalf("re-registration minted a new ID: %v then %v", a, b)
	}
	if a < numBuiltin {
		t.Fatalf("plugin technique %v collides with builtins", a)
	}
}

func TestRegisterTechniqueRejectsInvalid(t *testing.T) {
	for _, bad := range []string{"", strings.Repeat("x", maxTechniqueName+1), "new\nline"} {
		if _, err := registerTechnique(bad); err == nil {
			t.Errorf("registerTechnique(%q) accepted", bad)
		}
	}
}

func TestTechniqueJSONRoundTrip(t *testing.T) {
	mine := RegisterTechnique("test-json-tech")
	// Struct fields and map keys both take the text marshaling path.
	in := struct {
		T Technique
		M map[Technique]int
	}{T: mine, M: map[Technique]int{TechHWException: 1, mine: 2}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"test-json-tech"`) {
		t.Fatalf("technique serialized without its name: %s", data)
	}
	var out struct {
		T Technique
		M map[Technique]int
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.T != mine || out.M[mine] != 2 || out.M[TechHWException] != 1 {
		t.Fatalf("round trip lost data: %+v", out)
	}
}

func TestTechniqueUnmarshalUnknownAutoRegisters(t *testing.T) {
	var tech Technique
	if err := tech.UnmarshalText([]byte("test-foreign-tech")); err != nil {
		t.Fatal(err)
	}
	if !tech.Detected() {
		t.Fatal("foreign technique decoded to TechNone")
	}
	if tech.String() != "test-foreign-tech" {
		t.Fatalf("auto-registered name lost: %v", tech)
	}
	// Legacy numeric renderings keep decoding.
	var legacy Technique
	if err := legacy.UnmarshalText([]byte("2")); err != nil || legacy != TechAssertion {
		t.Fatalf("numeric decode = %v, %v", legacy, err)
	}
	if err := legacy.UnmarshalText([]byte("technique(7)")); err != nil || legacy != Technique(7) {
		t.Fatalf("technique(N) decode = %v, %v", legacy, err)
	}
}

// scripted is a test detector with canned verdicts.
type scripted struct {
	Base
	name    string
	verdict Verdict
	exits   int
	needSig bool
}

func (s *scripted) Name() string                 { return s.name }
func (s *scripted) NeedsSignature() bool         { return s.needSig }
func (s *scripted) OnExit(*Event)                { s.exits++ }
func (s *scripted) OnVMEntry(*Event) Verdict     { return s.verdict }
func (s *scripted) OnException(*Event) Verdict   { return s.verdict }
func (s *scripted) OnWatchdog(ev *Event) Verdict { return s.verdict }

func TestPipelineFirstVerdictWins(t *testing.T) {
	first := &scripted{name: "first", verdict: Verdict{Technique: TechAssertion, Detail: "first"}}
	second := &scripted{name: "second", verdict: Verdict{Technique: TechHWException, Detail: "second"}}
	p := NewPipeline(first, second)
	ev := Event{Kind: KindVMEntry, Activation: 7, Steps: 42}
	v := p.VMEntry(&ev)
	if v.Technique != TechAssertion || v.Detail != "first" {
		t.Fatalf("wrong winner: %+v", v)
	}
	if v.DetectedAt != 7 {
		t.Fatalf("DetectedAt not stamped from event: %+v", v)
	}
	if v.Latency != 42 {
		t.Fatalf("Latency not defaulted to handler steps: %+v", v)
	}
	p.Exit(&ev)
	if first.exits != 1 || second.exits != 1 {
		t.Fatalf("OnExit not broadcast: %d, %d", first.exits, second.exits)
	}
}

func TestPipelineNeedsSignature(t *testing.T) {
	var p Pipeline
	if p.NeedsSignature() || !p.Empty() {
		t.Fatal("zero pipeline should be empty and signature-free")
	}
	p = NewPipeline(Runtime{})
	if p.NeedsSignature() {
		t.Fatal("runtime detection alone must not arm the PMU")
	}
	p = NewPipeline(Runtime{}, &Transition{})
	if !p.NeedsSignature() {
		t.Fatal("transition detection must arm the PMU")
	}
	p = NewPipeline(&scripted{name: "sig", needSig: true})
	if !p.NeedsSignature() {
		t.Fatal("plugin NeedsSignature ignored")
	}
}

// TestPipelineDispatchAllocates nothing: the spine's contract is that a
// fault-free activation's worth of event dispatch performs zero heap
// allocations, so the campaign hot path keeps its profile.
func TestPipelineDispatchAllocates(t *testing.T) {
	p := NewPipeline(Runtime{}, &Transition{Model: func() *ml.Tree { return nil }})
	var ev Event
	allocs := testing.AllocsPerRun(1000, func() {
		ev = Event{Kind: KindExit, Activation: 3, Steps: 0}
		p.Exit(&ev)
		ev.Kind = KindVMEntry
		ev.Steps = 100
		ev.HasSignature = true
		if v := p.VMEntry(&ev); v.Detected() {
			t.Fatal("unexpected verdict")
		}
	})
	if allocs != 0 {
		t.Fatalf("event dispatch allocates %.1f times per activation", allocs)
	}
}

func TestRuntimeDetector(t *testing.T) {
	var r Runtime
	exc := &cpu.Exception{Vector: 13, PC: 0x123, Cause: "test"}
	if v := r.OnException(&Event{Kind: KindException, Exc: exc}); v.Technique != TechHWException {
		t.Fatalf("exception verdict: %+v", v)
	}
	if v := r.OnException(&Event{Kind: KindException, Halt: true}); v.Technique != TechHWException {
		t.Fatalf("halt verdict: %+v", v)
	}
	if v := r.OnAssertion(&Event{Kind: KindAssertion, AssertPC: 0x40}); v.Technique != TechAssertion {
		t.Fatalf("assertion verdict: %+v", v)
	}
	if v := r.OnWatchdog(&Event{Kind: KindWatchdog}); v.Technique != TechHWException {
		t.Fatalf("watchdog verdict: %+v", v)
	}
	if v := r.OnVMEntry(&Event{Kind: KindVMEntry}); v.Detected() {
		t.Fatalf("vm-entry should not fire runtime detection: %+v", v)
	}
}

// TestRuntimeVerdictsAllocFree: the runtime detector judges a memory
// fault's exception and a failed assertion without formatting anything;
// the evidence stays unformatted in the event (and the execution result).
func TestRuntimeVerdictsAllocFree(t *testing.T) {
	var r Runtime
	exc := &cpu.Exception{Vector: cpu.VecPF, PC: 0x123, Addr: 0xdead0000,
		Fault: &mem.Fault{Kind: mem.FaultUnmapped, Addr: 0xdead0000}}
	fault := &Event{Kind: KindException, Exc: exc}
	assertion := &Event{Kind: KindAssertion, AssertPC: 0x4040}
	if n := testing.AllocsPerRun(100, func() {
		r.OnException(fault)
		r.OnAssertion(assertion)
	}); n != 0 {
		t.Errorf("runtime verdicts allocate %v times, want 0", n)
	}
}

func TestWatchdogDetector(t *testing.T) {
	d, err := NewByName("watchdog")
	if err != nil {
		t.Fatal(err)
	}
	v := d.OnWatchdog(&Event{Kind: KindWatchdog, Steps: 20000})
	if v.Technique != TechWatchdog {
		t.Fatalf("verdict: %+v", v)
	}
}

func TestTransitionDetector(t *testing.T) {
	// Train a stub tree: RT >= 100 is incorrect.
	var ds ml.Dataset
	for i := 0; i < 20; i++ {
		ds = append(ds,
			ml.NewSample(1, uint64(10+i), 1, 1, 1, true),
			ml.NewSample(1, uint64(100+i), 1, 1, 1, false))
	}
	tree, err := ml.Train(ds, ml.DefaultDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	d := &Transition{Model: func() *ml.Tree { return tree }}
	ev := Event{Kind: KindVMEntry, HasSignature: true, Signature: [ml.NumFeatures]uint64{1, 15, 1, 1, 1}}
	if v := d.OnVMEntry(&ev); v.Detected() {
		t.Fatalf("correct signature flagged: %+v", v)
	}
	ev.Signature[ml.FeatRT] = 150
	v := d.OnVMEntry(&ev)
	if v.Technique != TechVMTransition {
		t.Fatalf("incorrect signature passed: %+v", v)
	}
	if ev.Cost() == 0 {
		t.Fatal("classification comparisons not charged")
	}
	// No signature or no model: silent.
	if v := d.OnVMEntry(&Event{Kind: KindVMEntry}); v.Detected() {
		t.Fatal("verdict without signature")
	}
	none := &Transition{Model: func() *ml.Tree { return nil }}
	if v := none.OnVMEntry(&ev); v.Detected() {
		t.Fatal("verdict without model")
	}
}

func TestFingerprintDetector(t *testing.T) {
	f := NewFingerprint()
	ev := Event{Kind: KindVMEntry, Reason: hv.ExitReason(3), HasSignature: true,
		Signature: [ml.NumFeatures]uint64{3, 500, 1, 1, 1}}
	if v := f.OnVMEntry(&ev); v.Detected() {
		t.Fatalf("uncalibrated fingerprint fired: %+v", v)
	}
	for rt := uint64(90); rt <= 110; rt += 5 {
		f.ObserveGolden(hv.ExitReason(3), [ml.NumFeatures]uint64{3, rt, 1, 1, 1})
	}
	ev.Signature[ml.FeatRT] = 100
	if v := f.OnVMEntry(&ev); v.Detected() {
		t.Fatalf("in-band count flagged: %+v", v)
	}
	ev.Signature[ml.FeatRT] = 500
	v := f.OnVMEntry(&ev)
	if v.Technique != TechFingerprint {
		t.Fatalf("out-of-band count passed: %+v", v)
	}
	// A different, never-observed reason stays silent.
	ev.Reason = hv.ExitReason(4)
	if v := f.OnVMEntry(&ev); v.Detected() {
		t.Fatalf("unobserved reason flagged: %+v", v)
	}
	// Slack widens the band.
	f.Slack = 1000
	ev.Reason = hv.ExitReason(3)
	if v := f.OnVMEntry(&ev); v.Detected() {
		t.Fatalf("slack ignored: %+v", v)
	}
}

func TestInvariantsDetector(t *testing.T) {
	h, err := hv.New(3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewInvariants()
	ev := Event{Kind: KindVMEntry, HV: h}
	if v := d.OnVMEntry(&ev); v.Detected() {
		t.Fatalf("invariants fired on a freshly booted hypervisor: %+v", v)
	}
	if ev.Cost() == 0 {
		t.Fatal("invariant probes not charged")
	}
	// Corrupt dom1's descriptor the way a wild store would.
	if err := h.Mem.Poke(hv.DomAddr(1)+hv.DomIDField, 0xdead); err != nil {
		t.Fatal(err)
	}
	v := d.OnVMEntry(&ev)
	if v.Technique != TechInvariant {
		t.Fatalf("corrupted descriptor passed: %+v", v)
	}
	if !strings.Contains(v.Detail, "dom1") {
		t.Fatalf("detail does not localize the corruption: %q", v.Detail)
	}
}

func TestFactoryRegistry(t *testing.T) {
	for _, name := range []string{"watchdog", "fingerprint", "invariants"} {
		if !HasFactory(name) {
			t.Errorf("builtin factory %q missing", name)
		}
		d, err := NewByName(name)
		if err != nil || d == nil {
			t.Errorf("NewByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := NewByName("no-such-detector"); err == nil {
		t.Error("unknown factory accepted")
	}
	fs, err := Factories([]string{"watchdog", "invariants"})
	if err != nil || len(fs) != 2 {
		t.Fatalf("Factories = %v, %v", fs, err)
	}
	if _, err := Factories([]string{"watchdog", "bogus"}); err == nil {
		t.Error("Factories accepted an unknown name")
	}
}

func TestFactoriesBuildFreshInstances(t *testing.T) {
	fs, err := Factories([]string{"fingerprint"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := fs[0](), fs[0]()
	if a == b {
		t.Fatal("factory returned a shared instance")
	}
	fa := a.(*Fingerprint)
	fa.ObserveGolden(hv.ExitReason(1), [ml.NumFeatures]uint64{1, 10, 0, 0, 0})
	if len(b.(*Fingerprint).ranges) != 0 {
		t.Fatal("calibration leaked across instances")
	}
}

func TestVerdictZeroValue(t *testing.T) {
	var v Verdict
	if v.Detected() {
		t.Fatal("zero verdict detects")
	}
	v.Technique = TechWatchdog
	if !v.Detected() {
		t.Fatal("positive verdict not detected")
	}
	_ = fmt.Sprintf("%v", v) // verdicts must be printable
}
