package wire_test

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/guest"
	"xentry/internal/inject"
	"xentry/internal/isa"
	"xentry/internal/recovery"
	"xentry/internal/wire"
)

// genOutcome fabricates a deterministic outcome exercising every field
// class the codec carries: flags, the -1 DetectedAt sentinel, plugin
// technique names, features, and recovery records.
func genOutcome(i int) inject.Outcome {
	o := inject.Outcome{
		Plan: inject.Plan{
			Activation: i % 97,
			Step:       uint64(i) * 131,
			Reg:        isa.Reg(i % 18),
			Bit:        uint8(i % 64),
		},
		Activated:  i%3 != 0,
		DetectedAt: -1,
		Symbol:     []string{"do_softirq", "read_platform_time", "ret_to_guest", ""}[i%4],
		Pruned:     inject.PruneKind(i % 3),
	}
	if i%4 == 1 { // uncore plans, so tallies carry BySite/ByVCPU content
		o.Plan.VCPU = i % 8
		o.Plan.Site = inject.Site(i % int(inject.NumSites))
		o.Plan.Index = uint32(i % 500)
	}
	switch i % 5 {
	case 1:
		o.Manifested = true
		o.Consequence = guest.AppSDC
		o.Cause = inject.CauseTimeValue
		o.LongLatency = true
	case 2:
		o.Manifested = true
		o.Detected = core.TechHWException
		o.DetectedAt = i % 97
		o.Latency = uint64(1_000_000 + i)
		o.Consequence = guest.AllVMFailure
		o.Hang = i%2 == 0
	case 3:
		o.Detected = core.TechVMTransition
		o.DetectedAt = i % 97
		o.Recovered = true
		o.HasFeatures = true
		o.FeaturesDiffer = true
		for f := range o.Features {
			o.Features[f] = uint64(i * (f + 7))
		}
	case 4:
		o.Manifested = true
		o.Detected = detect.RegisterTechnique("wire-test-plugin")
		o.DetectedAt = 0
		o.Recovery = recovery.Outcome{
			Attempted:  true,
			Strategy:   recovery.Strategy(1 + i%2),
			Technique:  core.TechHWException,
			Cause:      recovery.Cause(i % 4),
			Activation: i % 97,
			ReExecuted: i%2 == 0,
			ReSteps:    uint64(i) * 17,
			Class:      recovery.Class(i % 4),
		}
	}
	return o
}

func TestOutcomeRoundTrip(t *testing.T) {
	d := wire.NewDecoder()
	for i := 0; i < 500; i++ {
		want := genOutcome(i)
		payload := wire.AppendRecord(nil, "canneal", i, &want)
		bench, idx, got, err := d.DecodeRecord(payload)
		if err != nil {
			t.Fatalf("outcome %d: %v", i, err)
		}
		if bench != "canneal" || idx != i {
			t.Fatalf("outcome %d: header (%q,%d)", i, bench, idx)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("outcome %d round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestRecordFrameMatchesSplit(t *testing.T) {
	o := genOutcome(3)
	frame, _ := wire.AppendRecordFrame(nil, nil, "mcf", 7, &o)
	payload, rest, err := wire.SplitFrame(frame)
	if err != nil || len(rest) != 0 {
		t.Fatalf("SplitFrame: err=%v rest=%d", err, len(rest))
	}
	d := wire.NewDecoder()
	bench, idx, got, err := d.DecodeRecord(payload)
	if err != nil || bench != "mcf" || idx != 7 || !reflect.DeepEqual(got, o) {
		t.Fatalf("frame decode: bench=%q idx=%d err=%v", bench, idx, err)
	}
}

// TestRecordCodecAllocFree: once the frame and payload buffers and the
// decoder's intern tables are warm, encoding a record frame and splitting
// and decoding it again allocates nothing, for every field class
// genOutcome covers. BenchmarkWireCodec times the same two directions.
func TestRecordCodecAllocFree(t *testing.T) {
	outcomes := make([]inject.Outcome, 64)
	for i := range outcomes {
		outcomes[i] = genOutcome(i)
	}
	var frame, scratch []byte
	d := wire.NewDecoder()
	pass := func() {
		for i := range outcomes {
			frame, scratch = wire.AppendRecordFrame(frame[:0], scratch, "canneal", i, &outcomes[i])
			payload, _, err := wire.SplitFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := d.DecodeRecord(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Errorf("a round trip of %d records allocates %.0f times, want 0", len(outcomes), n)
	}
}

func TestTallyRoundTrip(t *testing.T) {
	tally := inject.NewTally()
	for i := 0; i < 400; i++ {
		tally.Add(genOutcome(i))
	}
	tally.Normalize()
	blob := wire.AppendTally(nil, tally)
	got, err := wire.NewDecoder().DecodeTallyFull(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tally) {
		t.Fatalf("tally round-trip:\n got %+v\nwant %+v", got, tally)
	}
	// Deterministic bytes: re-encoding the decoded tally must reproduce
	// the blob (sorted map walks), the property the shard cross-check
	// relies on.
	if !bytes.Equal(wire.AppendTally(nil, got), blob) {
		t.Fatal("tally encoding not deterministic")
	}
}

func TestEmptyTallyRoundTrip(t *testing.T) {
	tally := inject.NewTally()
	got, err := wire.NewDecoder().DecodeTallyFull(wire.AppendTally(nil, tally))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tally) {
		t.Fatalf("empty tally round-trip: got %+v", got)
	}
}

func TestWalkRecordsSkipsDamaged(t *testing.T) {
	var block []byte
	var scratch []byte
	for i := 0; i < 10; i++ {
		o := genOutcome(i)
		block, scratch = wire.AppendRecordFrame(block, scratch, "mcf", i, &o)
	}
	// Flip one payload byte in the middle record: framing intact, CRC
	// broken — exactly one record must be skipped.
	frames := make([][]byte, 0, 10)
	rest := block
	for len(rest) > 0 {
		p, r, err := wire.SplitFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), rest[:wire.FrameHeader+len(p)]...))
		rest = r
	}
	frames[5][wire.FrameHeader+3] ^= 0xff
	damagedBlock := bytes.Join(frames, nil)

	d := wire.NewDecoder()
	var idxs []int
	damaged, err := wire.WalkRecords(damagedBlock, func(payload []byte) error {
		_, idx, _, err := d.DecodeRecord(payload)
		if err != nil {
			return err
		}
		idxs = append(idxs, idx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if damaged != 1 {
		t.Fatalf("damaged = %d, want 1", damaged)
	}
	want := []int{0, 1, 2, 3, 4, 6, 7, 8, 9}
	if !reflect.DeepEqual(idxs, want) {
		t.Fatalf("surviving indices %v, want %v", idxs, want)
	}

	// Torn framing stops the walk instead.
	if _, err := wire.WalkRecords(block[:len(block)-3], func([]byte) error { return nil }); err == nil {
		t.Fatal("torn tail walked clean")
	}
}

func TestReaderStream(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1}, {2, 3, 4}, bytes.Repeat([]byte{0xab}, 70_000), {}}
	var stream []byte
	for _, p := range payloads {
		stream = wire.AppendFrame(stream, p)
	}
	buf.Write(stream)
	r := wire.NewReader(&buf)
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestReaderRejectsDamage(t *testing.T) {
	stream := wire.AppendFrame(nil, []byte("hello"))
	flipped := append([]byte(nil), stream...)
	flipped[wire.FrameHeader] ^= 1
	r := wire.NewReader(bytes.NewReader(flipped))
	if _, err := r.Next(); err != wire.ErrChecksum {
		t.Fatalf("bit rot: %v, want ErrChecksum", err)
	}
	r = wire.NewReader(bytes.NewReader(stream[:len(stream)-2]))
	if _, err := r.Next(); err != wire.ErrFraming {
		t.Fatalf("torn frame: %v, want ErrFraming", err)
	}
}

func TestMsgRoundTrip(t *testing.T) {
	spec := []byte(`{"id":"c1","benchmarks":["mcf"]}`)
	tallyBlob := wire.AppendTally(nil, inject.NewTally())
	msgs := [][]byte{
		wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: "c1", Worker: "w0"}),
		wire.AppendWelcome(nil, wire.Welcome{Version: wire.ProtoVersion, Spec: spec, Model: wire.AppendModel(nil, testTree())}),
		wire.AppendLeaseReq(nil),
		wire.AppendLease(nil, wire.Lease{ID: 42, Bench: "mcf", BenchAt: 1, Shard: 3, Indices: []int{5, 1, 9, 700}}),
		wire.AppendNoWork(nil, wire.NoWork{RetryMillis: 250}),
		wire.AppendDone(nil),
		wire.AppendBatch(nil, wire.Batch{Lease: 42, Records: 2, Block: []byte{1, 2, 3}}),
		wire.AppendBatchAck(nil, wire.BatchAck{Flags: wire.AckSlowdown}),
		wire.AppendShardDone(nil, wire.ShardDone{Lease: 42, Claimed: 17, Tally: tallyBlob}),
		wire.AppendShardFail(nil, wire.ShardFail{Lease: 42, Err: "machine on fire"}),
		wire.AppendError(nil, wire.ErrorMsg{Err: "unknown campaign"}),
	}
	wantTypes := []wire.MsgType{
		wire.MsgHello, wire.MsgWelcome, wire.MsgLeaseReq, wire.MsgLease,
		wire.MsgNoWork, wire.MsgDone, wire.MsgBatch, wire.MsgBatchAck,
		wire.MsgShardDone, wire.MsgShardFail, wire.MsgError,
	}
	for i, frame := range msgs {
		payload, rest, err := wire.SplitFrame(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("msg %d: split err=%v rest=%d", i, err, len(rest))
		}
		m, err := wire.DecodeMsg(payload)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m.Type != wantTypes[i] {
			t.Fatalf("msg %d: type %d, want %d", i, m.Type, wantTypes[i])
		}
	}

	payload, _, _ := wire.SplitFrame(msgs[3])
	m, err := wire.DecodeMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.Lease{ID: 42, Bench: "mcf", BenchAt: 1, Shard: 3, Indices: []int{5, 1, 9, 700}}
	if !reflect.DeepEqual(*m.Lease, want) {
		t.Fatalf("lease round-trip: %+v", *m.Lease)
	}

	payload, _, _ = wire.SplitFrame(msgs[6])
	if m, err = wire.DecodeMsg(payload); err != nil || m.Batch.Lease != 42 || !bytes.Equal(m.Batch.Block, []byte{1, 2, 3}) {
		t.Fatalf("batch round-trip: %+v err=%v", m.Batch, err)
	}

	payload, _, _ = wire.SplitFrame(msgs[1])
	if m, err = wire.DecodeMsg(payload); err != nil || !bytes.Equal(m.Welcome.Spec, spec) {
		t.Fatalf("welcome round-trip: %+v err=%v", m.Welcome, err)
	}
	if tree, err := wire.DecodeModel(m.Welcome.Model); err != nil || tree.String() != testTree().String() {
		t.Fatalf("welcome model round-trip: %v", err)
	}
}

// TestMsgAppendAllocFree: every message is framed in place in its
// destination buffer, so a warm buffer takes a Batch — the worker's hot
// message — or any other message without allocating.
func TestMsgAppendAllocFree(t *testing.T) {
	block := make([]byte, 64<<10)
	for i := range block {
		block[i] = byte(i)
	}
	tally := wire.AppendTally(nil, inject.NewTally())
	var msg []byte
	pass := func() {
		msg = wire.AppendBatch(msg[:0], wire.Batch{Lease: 7, Records: 256, Block: block})
		msg = wire.AppendLeaseReq(msg)
		msg = wire.AppendBatchAck(msg, wire.BatchAck{Flags: wire.AckSlowdown})
		msg = wire.AppendShardDone(msg, wire.ShardDone{Lease: 7, Claimed: 256, Tally: tally})
		msg = wire.AppendLease(msg, wire.Lease{ID: 7, Bench: "mcf", Indices: []int{1, 2, 3}})
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Errorf("appending five messages to a warm buffer allocates %.0f times, want 0", n)
	}
	payload, _, err := wire.SplitFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := wire.DecodeMsg(payload); err != nil || m.Batch.Records != 256 || !bytes.Equal(m.Batch.Block, block) {
		t.Fatalf("batch framed in place does not decode: %v", err)
	}
}

// TestTechniqueByNameAcrossDecoders simulates cross-process technique ID
// skew: the wire spelling is the registered name, so a record decodes to
// whatever ID this process assigned that name, not the sender's number.
func TestTechniqueByNameAcrossDecoders(t *testing.T) {
	tech := detect.RegisterTechnique("wire-test-skew")
	o := inject.Outcome{Plan: inject.Plan{Activation: 1}, DetectedAt: 2, Detected: tech, Manifested: true}
	payload := wire.AppendRecord(nil, "mcf", 0, &o)
	_, _, got, err := wire.NewDecoder().DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Detected != tech {
		t.Fatalf("technique decoded to %v, want %v", got.Detected, tech)
	}
	name, _ := detect.TechniqueName(got.Detected)
	if name != "wire-test-skew" {
		t.Fatalf("technique name %q", name)
	}
}

// TestDecodeRecordRejectsGarbage spot-checks that structured damage
// errors instead of panicking (the fuzz target does this exhaustively).
func TestDecodeRecordRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := genOutcome(4)
	good := wire.AppendRecord(nil, "mcf", 9, &o)
	d := wire.NewDecoder()
	for trial := 0; trial < 2000; trial++ {
		b := append([]byte(nil), good...)
		switch trial % 3 {
		case 0:
			b = b[:rng.Intn(len(b))]
		case 1:
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		case 2:
			b = append(b, byte(rng.Intn(256)))
		}
		d.DecodeRecord(b) // must not panic; errors are fine
	}
}
