package wire_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/wire"
)

// FuzzWireDecode mirrors the store's FuzzWALReplay for the fleet data
// plane: a batch block of two intact record frames followed by arbitrary
// bytes must never panic the walker or the decoders, must never lose the
// intact prefix, and must count damage rather than fabricate records.
// The seed corpus covers the same damage classes — payload bit rot under
// an intact header, torn tails, torn headers, absurd length fields — plus
// protocol-message garbage, so a plain `go test` run exercises them all
// deterministically. Welcome frames carry a model, which is decoded too,
// so hostile trees are fuzzed as well.
func FuzzWireDecode(f *testing.F) {
	o0, o1 := genOutcome(2), genOutcome(4)
	var intact []byte
	intact, scratch := wire.AppendRecordFrame(nil, nil, "mcf", 0, &o0)
	intact, _ = wire.AppendRecordFrame(intact, scratch, "mcf", 1, &o1)

	f.Add([]byte{})
	f.Add(append([]byte{}, intact...)) // two more valid (duplicate) records
	corrupt := append([]byte{}, intact...)
	corrupt[len(corrupt)-3] ^= 0xff // payload bit rot under an intact header
	f.Add(corrupt)
	f.Add(intact[:len(intact)-5]) // torn tail record
	f.Add(intact[:3])             // torn header
	absurd := make([]byte, 8)
	binary.LittleEndian.PutUint32(absurd, 1<<30) // length beyond any frame
	f.Add(absurd)
	// An intact frame whose payload is garbage for DecodeRecord: the walk
	// surfaces the decode error without panicking.
	f.Add(wire.AppendFrame(nil, []byte{0x01, 0xff, 0xff, 0xff}))
	f.Add(wire.AppendFrame(nil, []byte{0x7b, '}'})) // JSON-looking payload, wrong format byte
	// Protocol-message garbage for DecodeMsg.
	f.Add(wire.AppendFrame(nil, []byte{byte(wire.MsgLease), 0x80}))
	f.Add(wire.AppendShardDone(nil, wire.ShardDone{Lease: 1, Claimed: 2, Tally: []byte{0xff}}))
	// Welcomes with a model: intact, torn inside the tree, and with a
	// feature out of range.
	model := wire.AppendModel(nil, testTree())
	f.Add(wire.AppendWelcome(nil, wire.Welcome{Version: wire.ProtoVersion, Spec: []byte("{}"), Model: model}))
	f.Add(wire.AppendWelcome(nil, wire.Welcome{Version: wire.ProtoVersion, Model: model[:len(model)-4]}))
	badFeature := append([]byte(nil), model...)
	badFeature[6] = ml.NumFeatures
	f.Add(wire.AppendWelcome(nil, wire.Welcome{Version: wire.ProtoVersion, Model: badFeature}))
	f.Add(model)

	f.Fuzz(func(t *testing.T, tail []byte) {
		block := append(append([]byte{}, intact...), tail...)
		d := wire.NewDecoder()
		var got []inject.Outcome
		damaged, walkErr := wire.WalkRecords(block, func(payload []byte) error {
			_, _, o, err := d.DecodeRecord(payload)
			if err != nil {
				// A frame with a valid CRC but an undecodable payload: not
				// a record loss, the batch is rejected upstream. For the
				// walk, treat it like damage and keep going.
				return nil
			}
			got = append(got, o)
			return nil
		})
		if damaged < 0 {
			t.Fatalf("negative damage count %d", damaged)
		}
		// The two intact leading records must always survive: the walk
		// cannot error before consuming them, and their decode is clean.
		if walkErr != nil && len(got) < 2 {
			t.Fatalf("intact prefix lost: %d records, walk err %v", len(got), walkErr)
		}
		if len(got) < 2 || !reflect.DeepEqual(got[0], o0) || !reflect.DeepEqual(got[1], o1) {
			t.Fatalf("intact prefix corrupted: %d records", len(got))
		}

		// Every frame in the block that checks out must also survive
		// DecodeMsg without panicking (workers and coordinator feed
		// arbitrary peer bytes through it).
		rest := block
		for len(rest) > 0 {
			payload, r, err := wire.SplitFrame(rest)
			if err == wire.ErrChecksum {
				rest = r
				continue
			}
			if err != nil {
				break
			}
			if m, err := wire.DecodeMsg(payload); err == nil && m.Type == wire.MsgWelcome {
				checkModel(t, m.Welcome.Model)
			}
			d.DecodeTally(payload) // must not panic
			rest = r
		}

		// And raw tails straight into every decoder: no framing shield.
		wire.DecodeMsg(tail)
		d.DecodeRecord(tail)
		d.DecodeTally(tail)
		checkModel(t, tail)
	})
}

// checkModel decodes a model blob, which must not panic. A tree it
// accepts must be whole: it classifies, and it survives a re-encode with
// the same rules and Config.
func checkModel(t *testing.T, blob []byte) {
	tree, err := wire.DecodeModel(blob)
	if err != nil || tree == nil {
		return
	}
	tree.Classify([ml.NumFeatures]uint64{})
	again, err := wire.DecodeModel(wire.AppendModel(nil, tree))
	if err != nil || again.String() != tree.String() || again.Cfg != tree.Cfg {
		t.Fatalf("accepted model does not survive a re-encode: %v", err)
	}
}
