// Package frame is the wire codec of the distributed executor
// (DESIGN.md §13): length-prefixed frames carrying epoch rounds and
// effect buffers between the coordinator and its worker processes.
//
// Layout of one frame:
//
//	[u32 LE length] [version=3] [type] [enc] [payload…]
//
// where length covers everything after itself (3 + len(payload)).
// Types: Init (run setup), Round (items + touched node states and
// cache references, coordinator→worker), Effects (recorded effects +
// updated states, worker→coordinator), Error (worker failure report),
// Hello (version/capability handshake, both directions). The payload is
// a compact binary encoding: varints for integers, fixed 8-byte
// little-endian IEEE bits for floats, length-prefixed strings. It is
// the only encoding; the enc byte is always 0 and any other value is
// rejected.
//
// Items and effects cross as the engine's own core.EpochItem and
// core.Effect: neither side of a connection converts between a wire form
// and the form it executes or merges.
//
// Decode never panics on arbitrary bytes (FuzzDecodeFrame), and
// encoding is a canonical function of the message: for any frame that
// decodes, encode(decode(b)) is a byte-level fixed point after one
// normalization pass.
//
// Encode and Decode allocate what they return. A connection uses a
// Writer and a Reader instead, which keep the frame buffer and the
// decoded Round/Effects storage from one frame to the next.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// Version is the only frame version this codec speaks. Version 2
// added the Hello handshake frame and the Round.Cached delta records,
// version 3 the NodeState section mask (Omit), and version 4 took the
// five event counters out of NodeState (the coordinator's collector
// counts every event), and version 5 moved the control-record count
// from NodeState to ItemEffects; the version byte rides every frame, so
// a coordinator and worker from different versions fail loudly on the
// first frame either way.
const Version = 5

// encBinary is the header's payload-encoding byte.
const encBinary = 0

// Frame types.
const (
	TInit    = 1
	TRound   = 2
	TEffects = 3
	TError   = 4
	THello   = 5
)

// maxFrame bounds one frame's declared length: large enough for a
// multi-million-item epoch, small enough that a corrupt length prefix
// cannot make Read allocate unbounded memory.
const maxFrame = 1 << 26

// ErrFrame wraps every decoding failure.
var ErrFrame = errors.New("frame: invalid frame")

// Capability bits carried in Hello.Caps.
const (
	// CapDelta: the sender understands Round.Cached references and
	// NodeState patches. A coordinator that announces it may be sent
	// patches; a worker that announces it keeps executed nodes live
	// between rounds so the coordinator may ship a CacheRef instead of a
	// full snapshot.
	CapDelta uint64 = 1 << 0
)

// Hello is the handshake payload both sides exchange on a fresh
// connection before any Init: the coordinator announces its codec
// version and capabilities, the worker replies with its own. The
// version byte on the frame header already rejects cross-version
// frames; Hello makes the failure mode a readable error and lets the
// two sides negotiate optional behavior (delta shipping) downward.
type Hello struct {
	Version int
	Caps    uint64
}

// CacheRef is a Round delta record: "node ID is unchanged since the
// round with sequence number Ver, whose resulting state you already
// hold." The worker resolves it against its live node cache instead of
// restoring a shipped snapshot; a worker that cannot (fresh
// connection, version skew) reports the mismatch as corruption rather
// than guessing — the coordinator only emits refs it knows the worker
// holds.
type CacheRef struct {
	ID  int
	Ver uint64
}

// Init is the run-setup payload: everything a worker needs to mirror
// the coordinator's engine configuration (scalars after defaulting and
// the protocol spec — the worker builds its own instance).
type Init struct {
	Seed           uint64
	Nodes          int
	BufferCap      int
	BufferBytes    int64
	DropPolicy     string // as configured: core.NewKernel defaults the empty name on either side
	TxTime         float64
	Bandwidth      float64
	ControlBytes   float64
	RecordsPerSlot int
	Protocol       string
}

// Copy is one buffered bundle copy in wire form: the immutable bundle
// identity plus the per-copy mutable state.
type Copy struct {
	Src       int
	Seq       int
	Dst       int
	CreatedAt float64
	Size      int64
	FirstSeq  int
	EC        int
	Expiry    float64
	StoredAt  float64
	Pinned    bool
}

// IDPair is one bundle ID in wire form.
type IDPair struct {
	Src int
	Seq int
}

// Bits of NodeState.Omit, one per section, in wire order.
const (
	OmitCopies byte = 1 << iota
	OmitReceived
	OmitExt

	// Sections is the number of sections; section i's bit is 1<<i.
	Sections = 3
	omitAll  = 1<<Sections - 1
)

// NodeState is one node's serialized state: five scalars and three
// sections (Copies, Received, Ext). Omit == 0 is a complete state, the
// only form a Round may carry. A worker's reply may be a patch: a
// section whose Omit bit is set is absent from the wire and stands for
// "as the two sides last exchanged it for this node". A node involved
// in a round but absent from the round's States and Cached is pristine:
// the worker constructs it fresh (node.New + protocol Init) instead of
// restoring.
type NodeState struct {
	ID                 int
	ControlLoad        float64
	LastEncounterStart float64
	LastInterval       float64
	Omit               byte
	Copies             []Copy
	Received           []IDPair
	Ext                protocol.ExtState
}

// Patch installs p over st: st takes p's scalars and the sections p
// carries and keeps its own for the ones p omits, so st stays complete.
// Storage changes hands instead of being copied — p is left holding
// what st gave up, for whoever decodes into p next.
func (st *NodeState) Patch(p *NodeState) {
	omit := p.Omit
	*st, *p = *p, *st
	if omit&OmitCopies != 0 {
		st.Copies, p.Copies = p.Copies, st.Copies
	}
	if omit&OmitReceived != 0 {
		st.Received, p.Received = p.Received, st.Received
	}
	if omit&OmitExt != 0 {
		st.Ext, p.Ext = p.Ext, st.Ext
	}
	st.Omit = 0
}

// Round is one coordinator→worker work assignment: the states of every
// involved non-pristine node the worker does not already hold, cache
// references for those it does, then the items to execute in order.
// Seq numbers rounds within a run for error reporting and as the
// version stamp CacheRef.Ver refers to. Involved nodes in neither
// States nor Cached are pristine: the worker constructs them fresh.
// Items[i] is the engine's own item (its scheduling state and effect
// buffer stay off the wire) — the coordinator points at its epoch's, a
// decoded Round at storage the worker executes in place — and Idx[i] its
// index in the coordinator's canonical epoch order, which effects come
// back keyed by.
type Round struct {
	Seq    uint64
	States []NodeState
	Cached []CacheRef
	Idx    []int
	Items  []*core.EpochItem
}

// ItemEffects is one item's replayed effect buffer and the control
// records its exchange carried (core.EpochItem.Records), keyed by the
// item's coordinator-side index.
type ItemEffects struct {
	Idx     int
	Records int
	Fx      []core.Effect
}

// Effects is one worker→coordinator round reply: the updated states of
// every node the round's items touched — patches, to a coordinator that
// announced CapDelta — and each item's effects.
type Effects struct {
	Seq    uint64
	States []NodeState
	Items  []ItemEffects
}

// ErrorMsg is a worker's failure report; the coordinator surfaces it
// as the run error.
type ErrorMsg struct {
	Msg string
}

// Msg is one decoded frame: exactly one payload pointer is non-nil.
type Msg struct {
	Init    *Init
	Round   *Round
	Effects *Effects
	Err     *ErrorMsg
	Hello   *Hello
}

// Type returns the frame type of the set payload, or 0 if none is set.
func (m *Msg) Type() byte {
	switch {
	case m.Init != nil:
		return TInit
	case m.Round != nil:
		return TRound
	case m.Effects != nil:
		return TEffects
	case m.Err != nil:
		return TError
	case m.Hello != nil:
		return THello
	}
	return 0
}

// Encode serializes one message to a complete frame.
func Encode(m *Msg) ([]byte, error) { return appendFrame(nil, m) }

// appendFrame appends m's frame to b: four bytes reserved for the
// length, the header, the payload encoded in place behind them.
func appendFrame(b []byte, m *Msg) ([]byte, error) {
	t := m.Type()
	start := len(b)
	b = append(b, 0, 0, 0, 0, Version, t, encBinary)
	switch t {
	case TInit:
		b = appendInit(b, m.Init)
	case TRound:
		b = appendRound(b, m.Round)
	case TEffects:
		b = appendEffects(b, m.Effects)
	case TError:
		b = appendString(b, m.Err.Msg)
	case THello:
		b = appendHello(b, m.Hello)
	default:
		return nil, fmt.Errorf("%w: message has no payload", ErrFrame)
	}
	n := len(b) - start - 4
	if n > maxFrame {
		return nil, fmt.Errorf("%w: payload of %d bytes exceeds frame limit", ErrFrame, n-3)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// Writer writes frames to W, each with one Write call, from a buffer it
// keeps between frames.
type Writer struct {
	W   io.Writer
	buf []byte
}

// Write encodes m and writes the frame.
func (w *Writer) Write(m *Msg) error {
	b, err := appendFrame(w.buf[:0], m)
	if err != nil {
		return err
	}
	w.buf = b
	_, err = w.W.Write(b)
	return err
}

// Reader reads frames from R into storage it keeps: a returned Msg, and
// everything a Round or Effects in it points to, is valid until the
// next Read.
type Reader struct {
	R    io.Reader
	hdr  [4]byte
	body []byte
	msg  Msg
	keep storage
}

// storage is the decoded Round and Effects a Reader decodes into again
// and again; items is what a decoded Round's Items point into.
type storage struct {
	round   Round
	items   []core.EpochItem
	effects Effects
}

// Read reads exactly one frame. io.EOF is returned verbatim when the
// stream ends cleanly before a frame starts (the coordinator closing a
// worker's stdin). An error wrapping ErrFrame means the peer sent bytes
// that are not a frame; any other error is the stream's own, mid-frame
// truncation included.
func (r *Reader) Read() (*Msg, error) {
	if _, err := io.ReadFull(r.R, r.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("frame: reading length: %w", err)
	}
	n := binary.LittleEndian.Uint32(r.hdr[:])
	if n < 3 || n > maxFrame {
		return nil, fmt.Errorf("%w: length %d out of range", ErrFrame, n)
	}
	r.body = Resize(r.body, int(n))
	if _, err := io.ReadFull(r.R, r.body); err != nil {
		return nil, fmt.Errorf("frame: reading %d-byte body: %w", n, err)
	}
	r.msg = Msg{}
	if err := decodeBody(r.body, &r.msg, &r.keep); err != nil {
		return nil, err
	}
	return &r.msg, nil
}

// Decode parses one complete frame (length prefix included). The input
// must contain exactly one frame with no trailing bytes.
func Decode(b []byte) (*Msg, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a length prefix", ErrFrame, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n < 3 || n > maxFrame {
		return nil, fmt.Errorf("%w: length %d out of range", ErrFrame, n)
	}
	if uint32(len(b)-4) != n {
		return nil, fmt.Errorf("%w: length prefix %d does not match %d body bytes", ErrFrame, n, len(b)-4)
	}
	m := new(Msg)
	if err := decodeBody(b[4:], m, new(storage)); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeBody decodes one frame body into m; a Round or Effects payload
// lands in keep, over whatever was decoded there before.
func decodeBody(body []byte, m *Msg, keep *storage) error {
	if body[0] != Version {
		return fmt.Errorf("%w: version %d (speak %d)", ErrFrame, body[0], Version)
	}
	if body[2] != encBinary {
		return fmt.Errorf("%w: unknown encoding %d", ErrFrame, body[2])
	}
	t := body[1]
	d := &dec{b: body[3:]}
	switch t {
	case TInit:
		m.Init = readInit(d)
	case TRound:
		m.Round = &keep.round
		readRound(d, m.Round, keep)
	case TEffects:
		m.Effects = &keep.effects
		readEffects(d, m.Effects)
	case TError:
		m.Err = &ErrorMsg{Msg: d.str()}
	case THello:
		m.Hello = readHello(d)
	default:
		return fmt.Errorf("%w: unknown type %d", ErrFrame, t)
	}
	if d.fail {
		return fmt.Errorf("%w: truncated or malformed type-%d payload", ErrFrame, t)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrFrame, len(d.b)-d.off)
	}
	return nil
}

// --- binary encoding ---

func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendInt(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInit(b []byte, in *Init) []byte {
	b = appendUint(b, in.Seed)
	b = appendInt(b, int64(in.Nodes))
	b = appendInt(b, int64(in.BufferCap))
	b = appendInt(b, in.BufferBytes)
	b = appendString(b, in.DropPolicy)
	b = appendFloat(b, in.TxTime)
	b = appendFloat(b, in.Bandwidth)
	b = appendFloat(b, in.ControlBytes)
	b = appendInt(b, int64(in.RecordsPerSlot))
	return appendString(b, in.Protocol)
}

func appendItem(b []byte, idx int, it *core.EpochItem) []byte {
	b = appendInt(b, int64(idx))
	b = appendBool(b, it.Gen)
	b = appendFloat(b, float64(it.T))
	b = appendInt(b, int64(it.A))
	b = appendInt(b, int64(it.B))
	if it.Gen {
		b = appendInt(b, int64(it.Flow.Src))
		b = appendInt(b, int64(it.Flow.Dst))
		b = appendInt(b, int64(it.Flow.Count))
		b = appendFloat(b, float64(it.Flow.StartAt))
		b = appendInt(b, it.Flow.Size)
		b = appendInt(b, int64(it.Base))
		return appendInt(b, int64(it.FirstSeq))
	}
	b = appendFloat(b, float64(it.C.Start))
	b = appendFloat(b, float64(it.C.End))
	return appendFloat(b, it.C.Bandwidth)
}

// dropReasons gives a drop reason its wire code: position plus one,
// zero for the empty reason every effect but a drop carries. A reason
// outside the enum — node.DropReason says it is complete, so a bug —
// takes the code past its end, which readEffect rejects.
var dropReasons = node.DropReasons()

func reasonCode(r node.DropReason) byte {
	if r == "" {
		return 0
	}
	if i := slices.Index(dropReasons, r); i >= 0 {
		return byte(i + 1)
	}
	return byte(len(dropReasons) + 1)
}

func appendEffect(b []byte, fx *core.Effect) []byte {
	b = append(b, byte(fx.Kind))
	b = appendInt(b, int64(fx.From))
	b = appendInt(b, int64(fx.To))
	b = appendInt(b, int64(fx.ID.Src))
	b = appendInt(b, int64(fx.ID.Seq))
	b = append(b, reasonCode(fx.Reason))
	b = appendFloat(b, float64(fx.At))
	return appendFloat(b, fx.Delay)
}

func appendCopy(b []byte, c *Copy) []byte {
	b = appendInt(b, int64(c.Src))
	b = appendInt(b, int64(c.Seq))
	b = appendInt(b, int64(c.Dst))
	b = appendFloat(b, c.CreatedAt)
	b = appendInt(b, c.Size)
	b = appendInt(b, int64(c.FirstSeq))
	b = appendInt(b, int64(c.EC))
	b = appendFloat(b, c.Expiry)
	b = appendFloat(b, c.StoredAt)
	return appendBool(b, c.Pinned)
}

func appendExt(b []byte, st *protocol.ExtState) []byte {
	b = appendString(b, st.Kind)
	b = appendUint(b, uint64(len(st.IDs)))
	for _, id := range st.IDs {
		b = appendInt(b, int64(id.Src))
		b = appendInt(b, int64(id.Seq))
	}
	b = appendUint(b, uint64(len(st.Acks)))
	for _, fc := range st.Acks {
		b = appendFlowCount(b, fc)
	}
	b = appendUint(b, uint64(len(st.Base)))
	for _, fc := range st.Base {
		b = appendFlowCount(b, fc)
	}
	b = appendUint(b, uint64(len(st.Rcvd)))
	for _, fs := range st.Rcvd {
		b = appendInt(b, int64(fs.Src))
		b = appendInt(b, int64(fs.Dst))
		b = appendUint(b, uint64(len(fs.Seqs)))
		for _, s := range fs.Seqs {
			b = appendInt(b, int64(s))
		}
	}
	return b
}

func appendFlowCount(b []byte, fc protocol.FlowCount) []byte {
	b = appendInt(b, int64(fc.Src))
	b = appendInt(b, int64(fc.Dst))
	return appendInt(b, int64(fc.N))
}

func appendNodeState(b []byte, st *NodeState) []byte {
	b = appendInt(b, int64(st.ID))
	b = appendFloat(b, st.ControlLoad)
	b = appendFloat(b, st.LastEncounterStart)
	b = appendFloat(b, st.LastInterval)
	b = append(b, st.Omit)
	for sec := 0; sec < Sections; sec++ {
		if st.Omit&(1<<sec) == 0 {
			b = st.AppendSection(b, sec)
		}
	}
	return b
}

// AppendSection appends the canonical encoding of st's section sec
// (0 ≤ sec < Sections), whatever st.Omit says. Equal bytes mean equal
// sections, which is how a worker decides what a patch may omit.
func (st *NodeState) AppendSection(b []byte, sec int) []byte {
	switch sec {
	case 0:
		b = appendUint(b, uint64(len(st.Copies)))
		for i := range st.Copies {
			b = appendCopy(b, &st.Copies[i])
		}
	case 1:
		b = appendUint(b, uint64(len(st.Received)))
		for _, id := range st.Received {
			b = appendInt(b, int64(id.Src))
			b = appendInt(b, int64(id.Seq))
		}
	default:
		b = appendExt(b, &st.Ext)
	}
	return b
}

func appendRound(b []byte, r *Round) []byte {
	b = appendUint(b, r.Seq)
	b = appendUint(b, uint64(len(r.States)))
	for i := range r.States {
		b = appendNodeState(b, &r.States[i])
	}
	b = appendUint(b, uint64(len(r.Cached)))
	for i := range r.Cached {
		b = appendInt(b, int64(r.Cached[i].ID))
		b = appendUint(b, r.Cached[i].Ver)
	}
	b = appendUint(b, uint64(len(r.Items)))
	for i, it := range r.Items {
		b = appendItem(b, r.Idx[i], it)
	}
	return b
}

func appendHello(b []byte, h *Hello) []byte {
	b = appendInt(b, int64(h.Version))
	return appendUint(b, h.Caps)
}

func appendEffects(b []byte, e *Effects) []byte {
	b = appendUint(b, e.Seq)
	b = appendUint(b, uint64(len(e.States)))
	for i := range e.States {
		b = appendNodeState(b, &e.States[i])
	}
	b = appendUint(b, uint64(len(e.Items)))
	for i := range e.Items {
		ie := &e.Items[i]
		b = appendInt(b, int64(ie.Idx))
		b = appendInt(b, int64(ie.Records))
		b = appendUint(b, uint64(len(ie.Fx)))
		for j := range ie.Fx {
			b = appendEffect(b, &ie.Fx[j])
		}
	}
	return b
}

// --- binary decoding ---

// dec is a bounds-checked, error-latching payload reader: after the
// first failure every accessor returns zero values and fail stays set,
// so decoding code needs no per-field error plumbing and can never
// index out of range.
type dec struct {
	b    []byte
	off  int
	fail bool
}

func (d *dec) uint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail = true
		return 0
	}
	d.off += n
	return v
}

func (d *dec) int() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail = true
		return 0
	}
	d.off += n
	return v
}

func (d *dec) float() float64 {
	if d.off+8 > len(d.b) {
		d.fail = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := d.uint()
	if d.fail || n > uint64(len(d.b)-d.off) {
		d.fail = true
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) byte() byte {
	if d.off >= len(d.b) {
		d.fail = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// count reads a slice length and validates it against the bytes left
// (each element costs at least one byte), so a corrupt count cannot
// drive an allocation beyond the payload's own size.
func (d *dec) count() int {
	n := d.uint()
	if d.fail || n > uint64(len(d.b)-d.off) {
		d.fail = true
		return 0
	}
	return int(n)
}

func readInit(d *dec) *Init {
	return &Init{
		Seed:           d.uint(),
		Nodes:          int(d.int()),
		BufferCap:      int(d.int()),
		BufferBytes:    d.int(),
		DropPolicy:     d.str(),
		TxTime:         d.float(),
		Bandwidth:      d.float(),
		ControlBytes:   d.float(),
		RecordsPerSlot: int(d.int()),
		Protocol:       d.str(),
	}
}

// readItem decodes one item over it, keeping only its effect buffer's
// capacity, and returns its index.
func readItem(d *dec, it *core.EpochItem) (idx int) {
	fx := it.Fx
	fx.Set(nil)
	*it = core.EpochItem{Fx: fx} // the payload sets one of the two halves; reused storage holds both
	idx = int(d.int())
	it.Gen = d.bool()
	it.T = sim.Time(d.float())
	it.A = contact.NodeID(d.int())
	it.B = contact.NodeID(d.int())
	if it.Gen {
		it.Flow.Src = contact.NodeID(d.int())
		it.Flow.Dst = contact.NodeID(d.int())
		it.Flow.Count = int(d.int())
		it.Flow.StartAt = sim.Time(d.float())
		it.Flow.Size = d.int()
		it.Base = int(d.int())
		it.FirstSeq = int(d.int())
		return idx
	}
	it.C.A, it.C.B = it.A, it.B
	it.C.Start = sim.Time(d.float())
	it.C.End = sim.Time(d.float())
	it.C.Bandwidth = d.float()
	return idx
}

// readEffect decodes one effect, rejecting a kind or a drop-reason code
// outside their enums: merge would skip the one and observers misreport
// the other, and either way the run would "succeed" on corrupt bytes.
func readEffect(d *dec, fx *core.Effect) {
	kind := d.byte()
	fx.From = contact.NodeID(d.int())
	fx.To = contact.NodeID(d.int())
	fx.ID = bundle.ID{Src: contact.NodeID(d.int()), Seq: int(d.int())}
	code := int(d.byte())
	fx.At = sim.Time(d.float())
	fx.Delay = d.float()
	if kind > byte(core.EffectStored) || code > len(dropReasons) {
		d.fail = true
		return
	}
	fx.Kind, fx.Reason = core.EffectKind(kind), ""
	if code > 0 {
		fx.Reason = dropReasons[code-1]
	}
}

func readCopy(d *dec, c *Copy) {
	c.Src = int(d.int())
	c.Seq = int(d.int())
	c.Dst = int(d.int())
	c.CreatedAt = d.float()
	c.Size = d.int()
	c.FirstSeq = int(d.int())
	c.EC = int(d.int())
	c.Expiry = d.float()
	c.StoredAt = d.float()
	c.Pinned = d.bool()
}

// Resize returns s with length n. It keeps the elements s already has
// room for, so storage nested in them (an element's own slices) is
// reused by whoever overwrites them; a nil s and n == 0 stay nil.
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

func readExt(d *dec, st *protocol.ExtState) {
	st.Kind = d.str()
	st.IDs = Resize(st.IDs, d.count())
	for i := range st.IDs {
		st.IDs[i] = bundle.ID{Src: contact.NodeID(d.int()), Seq: int(d.int())}
	}
	st.Acks = Resize(st.Acks, d.count())
	for i := range st.Acks {
		st.Acks[i] = readFlowCount(d)
	}
	st.Base = Resize(st.Base, d.count())
	for i := range st.Base {
		st.Base[i] = readFlowCount(d)
	}
	st.Rcvd = Resize(st.Rcvd, d.count())
	for i := range st.Rcvd {
		fs := &st.Rcvd[i]
		fs.Src = int(d.int())
		fs.Dst = int(d.int())
		fs.Seqs = Resize(fs.Seqs, d.count())
		for j := range fs.Seqs {
			fs.Seqs[j] = int(d.int())
		}
	}
}

func readFlowCount(d *dec) protocol.FlowCount {
	return protocol.FlowCount{Src: int(d.int()), Dst: int(d.int()), N: int(d.int())}
}

func readNodeState(d *dec, st *NodeState) {
	st.ID = int(d.int())
	st.ControlLoad = d.float()
	st.LastEncounterStart = d.float()
	st.LastInterval = d.float()
	if st.Omit = d.byte(); st.Omit&^omitAll != 0 {
		d.fail = true
	}
	// An omitted section decodes as empty: what it stands for is the
	// receiver's to know, not the frame's.
	st.Copies = st.Copies[:0]
	if st.Omit&OmitCopies == 0 {
		st.Copies = Resize(st.Copies, d.count())
		for i := range st.Copies {
			readCopy(d, &st.Copies[i])
		}
	}
	st.Received = st.Received[:0]
	if st.Omit&OmitReceived == 0 {
		st.Received = Resize(st.Received, d.count())
		for i := range st.Received {
			st.Received[i] = IDPair{Src: int(d.int()), Seq: int(d.int())}
		}
	}
	if st.Omit&OmitExt == 0 {
		readExt(d, &st.Ext)
	} else {
		st.Ext = protocol.ExtState{}
	}
}

func readRound(d *dec, r *Round, keep *storage) {
	r.Seq = d.uint()
	r.States = Resize(r.States, d.count())
	for i := range r.States {
		readNodeState(d, &r.States[i])
	}
	r.Cached = Resize(r.Cached, d.count())
	for i := range r.Cached {
		r.Cached[i] = CacheRef{ID: int(d.int()), Ver: d.uint()}
	}
	n := d.count()
	keep.items = Resize(keep.items, n)
	r.Idx, r.Items = Resize(r.Idx, n), Resize(r.Items, n)
	for i := range keep.items {
		r.Items[i] = &keep.items[i]
		r.Idx[i] = readItem(d, r.Items[i])
	}
}

func readHello(d *dec) *Hello {
	return &Hello{Version: int(d.int()), Caps: d.uint()}
}

func readEffects(d *dec, e *Effects) {
	e.Seq = d.uint()
	e.States = Resize(e.States, d.count())
	for i := range e.States {
		readNodeState(d, &e.States[i])
	}
	e.Items = Resize(e.Items, d.count())
	for i := range e.Items {
		ie := &e.Items[i]
		ie.Idx = int(d.int())
		if ie.Records = int(d.int()); ie.Records < 0 {
			d.fail = true
		}
		ie.Fx = Resize(ie.Fx, d.count())
		for j := range ie.Fx {
			readEffect(d, &ie.Fx[j])
		}
	}
}
