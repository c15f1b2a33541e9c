package guest

import (
	"reflect"
	"testing"
	"testing/quick"

	"xentry/internal/hv"
)

func baseRecord() Record {
	return Record{
		Reason:       hv.HCMemoryOp,
		RetVal:       5,
		TrapNr:       0,
		Time:         1 << 30,
		RunstateTime: 1 << 30,
		Events:       0b101,
		SavedDigest:  42,
		BufDigest:    7,
	}
}

func TestIdenticalRecordsBenign(t *testing.T) {
	g := baseRecord()
	c, k := ClassifyRecord(&g, &g, false)
	if c != Benign || k != DiffNone {
		t.Errorf("identical records → %v/%v", c, k)
	}
}

func TestCorruptTrapCrashesVM(t *testing.T) {
	g := baseRecord()
	got := g
	got.TrapNr = 99 // beyond the guest's trap table
	c, k := ClassifyRecord(&g, &got, false)
	if c != OneVMFailure || k != DiffTrap {
		t.Errorf("invalid trap → %v/%v", c, k)
	}
	// Valid-but-wrong vector also crashes (wrong handler runs).
	got.TrapNr = 3
	c, _ = ClassifyRecord(&g, &got, false)
	if c != OneVMFailure {
		t.Errorf("wrong trap → %v", c)
	}
}

func TestDom0FailuresEscalate(t *testing.T) {
	g := baseRecord()
	got := g
	got.TrapNr = 99
	c, _ := ClassifyRecord(&g, &got, true)
	if c != AllVMFailure {
		t.Errorf("dom0 kernel failure → %v, want all-vm-failure", c)
	}
}

func TestLostEventBlocksVM(t *testing.T) {
	g := baseRecord()
	got := g
	got.Events = 0b001 // lost bit 2
	c, k := ClassifyRecord(&g, &got, false)
	if c != OneVMFailure || k != DiffEvents {
		t.Errorf("lost event → %v/%v", c, k)
	}
}

func TestSpuriousEventTolerated(t *testing.T) {
	g := baseRecord()
	got := g
	got.Events = 0b111 // extra bit
	c, _ := ClassifyRecord(&g, &got, false)
	if c != Benign {
		t.Errorf("spurious event → %v, want benign", c)
	}
}

func TestCpuidFamilyCorruptionCrashesApp(t *testing.T) {
	g := baseRecord()
	g.Reason = hv.ExGeneralProtection
	g.Cpuid = [4]uint64{0x106A5, 2, 3, 4}
	got := g
	got.Cpuid[0] ^= 0x400 // family field
	c, k := ClassifyRecord(&g, &got, false)
	if c != AppCrash || k != DiffCpuid {
		t.Errorf("family corruption → %v/%v", c, k)
	}
	// Feature-flag (edx) corruption also crashes.
	got = g
	got.Cpuid[3] ^= 1 << 26
	if c, _ := ClassifyRecord(&g, &got, false); c != AppCrash {
		t.Errorf("edx corruption → %v", c)
	}
	// Other bits flow silently into the application.
	got = g
	got.Cpuid[1] ^= 1 << 40
	if c, _ := ClassifyRecord(&g, &got, false); c != AppSDC {
		t.Errorf("ebx corruption → %v", c)
	}
}

func TestRetvalCorruption(t *testing.T) {
	g := baseRecord()
	got := g
	got.RetVal = 0xdead
	// Memory-op failures kill the allocating process.
	if c, k := ClassifyRecord(&g, &got, false); c != AppCrash || k != DiffRetVal {
		t.Errorf("memory_op retval → %v/%v", c, k)
	}
	g.Reason = hv.HCXenVersion
	got.Reason = hv.HCXenVersion
	if c, _ := ClassifyRecord(&g, &got, false); c != AppSDC {
		t.Errorf("xen_version retval → %v", c)
	}
}

func TestTimeJitterTolerance(t *testing.T) {
	g := baseRecord()
	got := g
	got.Time += TimeJitterTolerance / 2
	if c, _ := ClassifyRecord(&g, &got, false); c != Benign {
		t.Errorf("small time skew → %v, want benign", c)
	}
	got.Time = g.Time + TimeJitterTolerance*4
	if c, k := ClassifyRecord(&g, &got, false); c != AppSDC || k != DiffTime {
		t.Errorf("large time error → %v/%v", c, k)
	}
	// Runstate time behaves the same.
	got = g
	got.RunstateTime = g.RunstateTime + TimeJitterTolerance*4
	if c, k := ClassifyRecord(&g, &got, false); c != AppSDC || k != DiffTime {
		t.Errorf("runstate time error → %v/%v", c, k)
	}
}

func TestSavedStateCorruption(t *testing.T) {
	g := baseRecord()
	g.Reason = hv.HCIret
	got := g
	got.SavedDigest ^= 1
	if c, k := ClassifyRecord(&g, &got, false); c != AppCrash || k != DiffSavedState {
		t.Errorf("iret frame corruption → %v/%v", c, k)
	}
	g.Reason = hv.HCSetGDT
	got.Reason = hv.HCSetGDT
	if c, _ := ClassifyRecord(&g, &got, false); c != AppSDC {
		t.Errorf("saved-state corruption → %v", c)
	}
}

func TestBufferCorruptionIsSDC(t *testing.T) {
	g := baseRecord()
	got := g
	got.BufDigest ^= 1
	if c, k := ClassifyRecord(&g, &got, false); c != AppSDC || k != DiffBuffer {
		t.Errorf("buffer corruption → %v/%v", c, k)
	}
}

func TestCompareStreamsWorstWins(t *testing.T) {
	g1, g2, g3 := baseRecord(), baseRecord(), baseRecord()
	r1, r2, r3 := g1, g2, g3
	r2.BufDigest ^= 1 // SDC at index 1
	r3.TrapNr = 99    // VM failure at index 2
	cons, kind, first := CompareStreams([]Record{g1, g2, g3}, []Record{r1, r2, r3}, false)
	if cons != OneVMFailure || kind != DiffTrap {
		t.Errorf("stream → %v/%v", cons, kind)
	}
	if first != 1 {
		t.Errorf("first divergence = %d, want 1", first)
	}
}

func TestCompareStreamsTruncatedIsAllVM(t *testing.T) {
	g := []Record{baseRecord(), baseRecord(), baseRecord()}
	got := []Record{baseRecord()}
	cons, _, _ := CompareStreams(g, got, false)
	if cons != AllVMFailure {
		t.Errorf("truncated stream → %v", cons)
	}
}

func TestCompareStreamsClean(t *testing.T) {
	g := []Record{baseRecord(), baseRecord()}
	cons, kind, first := CompareStreams(g, g, false)
	if cons != Benign || kind != DiffNone || first != -1 {
		t.Errorf("clean stream → %v/%v/%d", cons, kind, first)
	}
}

func TestCaptureReadsHypervisorState(t *testing.T) {
	h, err := hv.New(2)
	if err != nil {
		t.Fatal(err)
	}
	ev := &hv.ExitEvent{Reason: hv.HCEventChannelOp, Dom: 1, Args: [4]uint64{4, 9}}
	if _, err := h.Dispatch(ev, hv.DefaultBudget); err != nil {
		t.Fatal(err)
	}
	rec := Capture(h, ev)
	if rec.Events&(1<<9) == 0 {
		t.Errorf("capture missed pending event: %#x", rec.Events)
	}
	if rec.Reason != hv.HCEventChannelOp {
		t.Errorf("reason = %v", rec.Reason)
	}
}

// TestCaptureIntoOverwritesEveryField: CaptureInto into a record whose
// every field is set equals Capture into a fresh one, for a hypercall and
// for an exception exit (which leave RetVal, Cpuid and BufDigest zero
// between them). The fields are set by reflection, so a field added
// later is covered too.
func TestCaptureIntoOverwritesEveryField(t *testing.T) {
	h, err := hv.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []*hv.ExitEvent{
		{Reason: hv.HCEventChannelOp, Dom: 1, Args: [4]uint64{4, 9}},
		{Reason: hv.ExGeneralProtection, Dom: 0},
	} {
		var rec Record
		v := reflect.ValueOf(&rec).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Array:
				for j := 0; j < f.Len(); j++ {
					f.Index(j).SetUint(7)
				}
			default:
				f.SetUint(7)
			}
		}
		CaptureInto(h, ev, &rec)
		if want := Capture(h, ev); rec != want {
			t.Errorf("%v: CaptureInto left %+v, Capture reads %+v", ev.Reason, rec, want)
		}
	}
}

func TestCaptureGrantDigestTracksData(t *testing.T) {
	h, err := hv.New(1)
	if err != nil {
		t.Fatal(err)
	}
	args, err := hv.PrepareGuestInput(h, 0, hv.HCGrantTableOp, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev := &hv.ExitEvent{Reason: hv.HCGrantTableOp, Dom: 0, Args: args}
	if _, err := h.Dispatch(ev, hv.DefaultBudget); err != nil {
		t.Fatal(err)
	}
	r1 := Capture(h, ev)
	// Corrupt one copied word; the digest must change.
	off := uint64(0x6000) + (args[1] << 6)
	v := h.ReadGuestWord(0, off)
	if err := h.WriteGuestWords(0, off, []uint64{v ^ 1}); err != nil {
		t.Fatal(err)
	}
	r2 := Capture(h, ev)
	if r1.BufDigest == r2.BufDigest {
		t.Error("digest did not track buffer corruption")
	}
}

func TestConsequenceAndDiffStrings(t *testing.T) {
	for _, c := range []Consequence{Benign, AppSDC, AppCrash, OneVMFailure, AllVMFailure} {
		if c.String() == "" {
			t.Errorf("consequence %d unnamed", c)
		}
	}
	for _, d := range []DiffKind{DiffNone, DiffTrap, DiffEvents, DiffCpuid, DiffTime, DiffRetVal, DiffSavedState, DiffBuffer} {
		if d.String() == "" {
			t.Errorf("diff %d unnamed", d)
		}
	}
}

// Property: ClassifyRecord is reflexive-benign — any record compared with
// itself is benign with no diff.
func TestClassifyReflexiveProperty(t *testing.T) {
	f := func(retval, trap, te, tm, ev, sd, bd uint64) bool {
		r := Record{Reason: hv.HCSchedOp, RetVal: retval, TrapNr: trap,
			TrapErr: te, Time: tm, RunstateTime: tm, Events: ev,
			SavedDigest: sd, BufDigest: bd}
		c, k := ClassifyRecord(&r, &r, true)
		return c == Benign && k == DiffNone
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
