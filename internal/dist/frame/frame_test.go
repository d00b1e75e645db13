package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// sampleMsgs covers every frame type with every field populated,
// including the edge values the binary codec must carry exactly
// (negative varints, NaN-free but extreme floats, empty slices).
func sampleMsgs() []*Msg {
	return []*Msg{
		{Init: &Init{
			Seed: 2012, Nodes: 48, BufferCap: 10, BufferBytes: 1 << 20,
			DropPolicy: "evict-oldest", TxTime: 100, Bandwidth: 2.5e4,
			ControlBytes: 12.5, RecordsPerSlot: 10, Protocol: "immunity",
		}},
		{Init: &Init{Protocol: "pure"}},
		{Round: &Round{
			Seq: 7,
			States: []NodeState{
				{
					ID:          3,
					ControlLoad: 0.25, LastEncounterStart: -1, LastInterval: 312.5,
					Copies: []Copy{
						{Src: 0, Seq: 5, Dst: 7, CreatedAt: 42.5, Size: 1024,
							FirstSeq: 5, EC: 2, Expiry: 1e18, StoredAt: 43, Pinned: true},
						{Src: 1, Seq: 0, Dst: 3, CreatedAt: 0, Expiry: 400.25, StoredAt: 99.5},
					},
					Received: []IDPair{{Src: 0, Seq: 1}, {Src: 2, Seq: 8}},
					Ext: protocol.ExtState{
						Kind: protocol.ExtCumulative,
						Acks: []protocol.FlowCount{{Src: 0, Dst: 7, N: 3}},
						Base: []protocol.FlowCount{{Src: 0, Dst: 7, N: 1}},
						Rcvd: []protocol.FlowSeqs{{Src: 0, Dst: 7, Seqs: []int{4, 6}}},
					},
				},
				{ID: 9, LastEncounterStart: -1,
					Ext: protocol.ExtState{Kind: protocol.ExtImmunity,
						IDs: []bundle.ID{{Src: 1, Seq: 2}, {Src: 3, Seq: 4}}}},
			},
			Cached: []CacheRef{{ID: 5, Ver: 3}, {ID: 11, Ver: 6}},
			Idx:    []int{0, 1},
			Items: []*core.EpochItem{
				{Gen: true, T: 100, A: 5, B: 5, Base: 0, FirstSeq: 0,
					Flow: core.Flow{Src: 5, Dst: 11, Count: 30, StartAt: 100, Size: 512}},
				{T: 250.5, A: 5, B: 11, C: contact.Contact{A: 5, B: 11, Start: 250.5, End: 900, Bandwidth: 2.5e4}},
			},
		}},
		{Round: &Round{Seq: 0}},
		{Round: &Round{Seq: 12, Cached: []CacheRef{{ID: 0, Ver: 11}},
			Idx: []int{9}, Items: []*core.EpochItem{{T: 1, A: 0, B: 0, C: contact.Contact{Start: 1, End: 2}}}}},
		{Hello: &Hello{Version: Version, Caps: CapDelta}},
		{Hello: &Hello{Version: 1}},
		{Effects: &Effects{
			Seq: 7,
			States: []NodeState{
				{ID: 5, LastEncounterStart: 250.5, LastInterval: 50},
			},
			Items: []ItemEffects{
				{Idx: 0, Fx: []core.Effect{
					{Kind: core.EffectGenerate, From: 5, ID: bundle.ID{Src: 5, Seq: 0}, At: 100},
					{Kind: core.EffectTransmit, From: 5, To: 11, ID: bundle.ID{Src: 5, Seq: 0}, At: 250.5},
					{Kind: core.EffectDeliver, To: 11, ID: bundle.ID{Src: 5, Seq: 0}, At: 250.5, Delay: 150.5},
					{Kind: core.EffectDrop, From: 11, ID: bundle.ID{Src: 5, Seq: 0}, Reason: node.DropEvicted, At: 260},
					{Kind: core.EffectStored, From: 11, ID: bundle.ID{Src: 5, Seq: 0}, At: 250.5},
				}},
				{Idx: 1},
			},
		}},
		{Err: &ErrorMsg{Msg: "worker: protocol \"martian\" unknown"}},
		{Init: &Init{Seed: 2012, Nodes: 48, TxTime: 100,
			RecordsPerSlot: 10, Protocol: "cum"}},
		{Round: &Round{Seq: 3, Idx: []int{0}, Items: []*core.EpochItem{
			{T: 12.5, A: 1, B: 2, C: contact.Contact{A: 1, B: 2, Start: 12.5, End: 80, Bandwidth: 1e18}}}}},
		{Effects: &Effects{Seq: 3}},
		{Err: &ErrorMsg{Msg: "boom"}},
		// Patches: every combination of omitted sections, carried ones
		// both empty and populated.
		{Effects: &Effects{
			Seq: 8,
			States: []NodeState{
				{ID: 1, ControlLoad: 0.5, LastEncounterStart: 300, LastInterval: 49.5,
					Omit: OmitCopies | OmitReceived | OmitExt},
				{ID: 2, Omit: OmitReceived | OmitExt,
					Copies: []Copy{{Src: 2, Seq: 1, Dst: 9, CreatedAt: 10, Size: 1000, FirstSeq: 1,
						Expiry: 1e18, StoredAt: 10, Pinned: true}}},
				{ID: 3, Omit: OmitCopies | OmitExt, Received: []IDPair{{Src: 2, Seq: 1}}},
				{ID: 4, Omit: OmitCopies | OmitReceived,
					Ext: protocol.ExtState{Kind: protocol.ExtImmunity, IDs: []bundle.ID{{Src: 2, Seq: 1}}}},
				{ID: 5, Omit: OmitExt},
				{ID: 6, Omit: OmitCopies, Ext: protocol.ExtState{Kind: protocol.ExtCumulative,
					Rcvd: []protocol.FlowSeqs{{Src: 2, Dst: 6, Seqs: []int{1}}}}},
				{ID: 7, Omit: OmitReceived},
			},
			Items: []ItemEffects{{Idx: 4, Records: 40, Fx: []core.Effect{
				{Kind: core.EffectTransmit, From: 2, To: 3, ID: bundle.ID{Src: 2, Seq: 1}, At: 301}}}},
		}},
	}
}

// TestRoundTrip pins structural exactness through the codec:
// Decode(Encode(m)) == m, and re-encoding yields identical bytes.
func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(type %d): %v", m.Type(), err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(type %d): %v", m.Type(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("type %d: round trip mismatch\n got %#v\nwant %#v", m.Type(), got, m)
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("type %d: re-encode differs from original bytes", m.Type())
		}
	}
}

// oneWrite fails the test if a frame reaches it in more than one Write.
type oneWrite struct {
	t      *testing.T
	buf    bytes.Buffer
	frames int
}

func (w *oneWrite) Write(p []byte) (int, error) {
	if len(p) < 4 || int(binary.LittleEndian.Uint32(p)) != len(p)-4 {
		w.t.Errorf("Write of %d bytes is not one whole frame", len(p))
	}
	w.frames++
	return w.buf.Write(p)
}

// TestStreamReadWrite pins the stream framing: a sequence of frames
// written through one Writer — one Write call each — reads back in
// order through one Reader, whose reused storage must leave no trace of
// the frame before (the sample order puts large frames ahead of small
// ones of the same type, and the whole sequence is read twice). Clean
// stream end is io.EOF; mid-frame truncation is the stream's error, not
// ErrFrame, which is kept for bytes that are not a frame.
func TestStreamReadWrite(t *testing.T) {
	sink := &oneWrite{t: t}
	w := Writer{W: sink}
	msgs := append(sampleMsgs(), sampleMsgs()...)
	for _, m := range msgs {
		if err := w.Write(m); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if sink.frames != len(msgs) {
		t.Errorf("%d Write calls for %d frames", sink.frames, len(msgs))
	}
	stream := sink.buf.Bytes()
	r := Reader{R: bytes.NewReader(stream)}
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read #%d: %v", i, err)
		}
		// Reused storage decodes "none" as empty where fresh storage has
		// nil, so compare what the messages encode to.
		gotb, err := Encode(got)
		if err != nil {
			t.Fatalf("Encode of Read #%d: %v", i, err)
		}
		if wantb, _ := Encode(want); !bytes.Equal(gotb, wantb) {
			t.Errorf("Read #%d: mismatch\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read at clean end = %v, want io.EOF", err)
	}
	tr := Reader{R: bytes.NewReader(stream[:len(stream)-1])}
	var last error
	for {
		if _, last = tr.Read(); last != nil {
			break
		}
	}
	if !errors.Is(last, io.ErrUnexpectedEOF) || errors.Is(last, ErrFrame) {
		t.Errorf("truncated stream ended with %v; want io.ErrUnexpectedEOF and not ErrFrame", last)
	}
	bad := Reader{R: bytes.NewReader([]byte{3, 0, 0, 0, Version, 99, encBinary})}
	if _, err := bad.Read(); !errors.Is(err, ErrFrame) {
		t.Errorf("Read of an unknown frame type = %v; want ErrFrame", err)
	}
}

// TestPatch pins what a coordinator does with a patch: carried sections
// and scalars replace, omitted sections stay, the result is complete.
func TestPatch(t *testing.T) {
	full := func() NodeState {
		return NodeState{ID: 2, LastInterval: 1,
			Copies:   []Copy{{Src: 2, Seq: 1}},
			Received: []IDPair{{Src: 0, Seq: 4}},
			Ext:      protocol.ExtState{Kind: protocol.ExtImmunity, IDs: []bundle.ID{{Src: 0, Seq: 4}}}}
	}
	for omit := byte(0); omit <= omitAll; omit++ {
		st, want := full(), full()
		p := NodeState{ID: 2, LastInterval: 9, Omit: omit}
		want.LastInterval = 9
		if omit&OmitCopies == 0 {
			p.Copies = []Copy{{Src: 5, Seq: 5}, {Src: 6, Seq: 6}}
			want.Copies = p.Copies
		}
		if omit&OmitReceived == 0 {
			want.Received = nil // carried, and empty
		}
		if omit&OmitExt == 0 {
			p.Ext = protocol.ExtState{Kind: protocol.ExtImmunity}
			want.Ext = p.Ext
		}
		st.Patch(&p)
		if !reflect.DeepEqual(st, want) {
			t.Errorf("omit %03b:\n got %+v\nwant %+v", omit, st, want)
		}
	}
}

// hostileEffects returns two well-framed replies no kernel could have
// recorded: an effect kind past the enum, and a drop reason with no wire
// code (which encodes as the code past the enum's end).
func hostileEffects(t testing.TB) (kind, reason []byte) {
	t.Helper()
	reply := func(fx core.Effect) []byte {
		b, err := Encode(&Msg{Effects: &Effects{Seq: 8, Items: []ItemEffects{{Idx: 4, Fx: []core.Effect{fx}}}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return reply(core.Effect{Kind: core.EffectStored + 1, ID: bundle.ID{Src: 2, Seq: 1}, At: 301}),
		reply(core.Effect{Kind: core.EffectDrop, From: 3, ID: bundle.ID{Src: 2, Seq: 1}, Reason: "martian", At: 301})
}

// TestDecodeRejects pins the malformed-input error paths.
func TestDecodeRejects(t *testing.T) {
	good, err := Encode(&Msg{Err: &ErrorMsg{Msg: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short-prefix", []byte{1, 0}},
		{"length-zero", []byte{0, 0, 0, 0}},
		{"length-mismatch", append(append([]byte{}, good[:4]...), good[4:len(good)-1]...)},
		{"length-over-limit", []byte{0xff, 0xff, 0xff, 0xff, Version, TError, encBinary}},
		{"bad-version", []byte{3, 0, 0, 0, 9, TError, encBinary}},
		{"bad-type", []byte{3, 0, 0, 0, Version, 99, encBinary}},
		{"bad-enc", []byte{3, 0, 0, 0, Version, TError, 7}},
		{"truncated-payload", []byte{4, 0, 0, 0, Version, TError, encBinary, 5}},
		{"trailing-bytes", append(append([]byte{}, good...), 0)[4:]},
		{"bad-enc-with-payload", []byte{5, 0, 0, 0, Version, TError, 1, '{', '}'}},
		{"unknown-section-bits", nil},
		{"effect-kind-past-enum", nil},
		{"drop-reason-past-enum", nil},
		{"negative-records", nil},
	}
	cases[12].b, cases[13].b = hostileEffects(t)
	unknown, err := Encode(&Msg{Effects: &Effects{States: []NodeState{{ID: 1, Omit: omitAll + 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	cases[11].b = unknown
	// A count the merge would subtract from the run's overhead.
	if cases[14].b, err = Encode(&Msg{Effects: &Effects{Items: []ItemEffects{{Idx: 0, Records: -1}}}}); err != nil {
		t.Fatal(err)
	}
	// trailing-bytes case needs a corrected length prefix.
	trailing := append(append([]byte{}, good...), 0)
	trailing[0]++
	cases[9].b = trailing
	for _, tc := range cases {
		if _, err := Decode(tc.b); !errors.Is(err, ErrFrame) {
			t.Errorf("Decode(%s) = %v; want ErrFrame", tc.name, err)
		}
	}
}

// TestBinaryFloatExactness pins bit-level float carriage, including
// the engine's Infinity sentinel and negative zero.
func TestBinaryFloatExactness(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e18, -1e18, 0.1, 1.0 / 3.0, math.MaxFloat64}
	for _, v := range vals {
		m := &Msg{Round: &Round{Idx: []int{0}, Items: []*core.EpochItem{
			{T: sim.Time(v), C: contact.Contact{Start: sim.Time(v), End: sim.Time(v), Bandwidth: v}}}}}
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		it := got.Round.Items[0]
		for _, f := range []float64{float64(it.T), float64(it.C.Start), float64(it.C.End), it.C.Bandwidth} {
			if math.Float64bits(f) != math.Float64bits(v) {
				t.Errorf("float %g: bits changed to %g", v, f)
			}
		}
	}
}

// FuzzDecodeFrame is the satellite obligation: Decode must never panic
// on arbitrary bytes, and any frame that decodes must reach a
// byte-level encoding fixed point after one normalization pass
// (decode→encode→decode→encode is byte-identical). A Reader whose
// storage every sample frame has been through must decode the same
// frame to the same message: nothing of an earlier frame may show.
func FuzzDecodeFrame(f *testing.F) {
	var used []byte
	for _, m := range sampleMsgs() {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		used = append(used, b...)
	}
	f.Add([]byte{3, 0, 0, 0, Version, TError, encBinary})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{5, 0, 0, 0, Version, TError, 1, '{', '}'})
	kind, reason := hostileEffects(f)
	f.Add(kind)
	f.Add(reason)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		enc1, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode of decoded frame failed: %v", err)
		}
		m2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("Decode of re-encoded frame failed: %v", err)
		}
		enc2, err := Encode(m2)
		if err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("encoding is not a fixed point:\nenc1 %x\nenc2 %x", enc1, enc2)
		}
		r := Reader{R: io.MultiReader(bytes.NewReader(used), bytes.NewReader(b))}
		var last *Msg
		for {
			m, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Reader failed on a frame Decode accepts: %v", err)
			}
			last = m
		}
		if enc3, err := Encode(last); err != nil || !bytes.Equal(enc1, enc3) {
			t.Errorf("used Reader decoded a different message (%v):\nfresh %x\nused  %x", err, enc1, enc3)
		}
	})
}
