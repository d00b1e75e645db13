package report

import (
	"io"
	"math"
	"strconv"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// Stream writes a simulation as a CSV time series while it runs: one
// row per periodic metric sample and — when events are enabled — one
// row per engine event (generate, transmit, deliver, drop). It
// implements core.Observer structurally and attaches through
// Config.Observers (or the dtnsim CLI's -series/-events flags).
//
// The column layout is fixed:
//
//	time,event,node,peer,bundle,detail,occupancy,duplication
//
// Sample rows fill the last two columns; event rows fill node/peer/
// bundle and put the delay (deliver) or drop reason (drop) in detail.
// Write errors are sticky: the first one stops all further output and
// is reported by Err.
type Stream struct {
	w      io.Writer
	events bool
	err    error
	// buf is the row under construction, reused across rows: each row
	// is appended with strconv and leaves in one Write, so a row costs
	// no allocation once buf has grown to the longest row.
	buf []byte
}

// header is the fixed column layout.
const header = "time,event,node,peer,bundle,detail,occupancy,duplication\n"

// NewStream returns a Stream writing to w. With events false only the
// periodic sample rows are written (a pure metric time series); with
// events true every engine event is logged too. The header row is
// written immediately.
func NewStream(w io.Writer, events bool) *Stream {
	s := &Stream{w: w, events: events}
	s.flush(s.buf, header)
	return s
}

// Err returns the first write error, or nil.
func (s *Stream) Err() error { return s.err }

// event starts an event row in buf: "time,kind,node,". kind carries
// its own commas.
//
//dtn:hotpath
func (s *Stream) event(now sim.Time, kind string, n contact.NodeID) []byte {
	b := appendFloat(s.buf, float64(now))
	b = append(b, kind...)
	b = appendNode(b, n)
	return append(b, ',')
}

// flush ends the row b with tail, writes it in one Write and keeps the
// storage for the next row.
//
//dtn:hotpath
func (s *Stream) flush(b []byte, tail string) {
	b = append(b, tail...)
	_, s.err = s.w.Write(b)
	s.buf = b[:0]
}

// Numbers are formatted exactly as fmt's %g and %d would — %g is
// strconv's shortest 'g' form — so rows are byte-identical to the
// fmt.Sprintf rows they replace.

// appendFloat appends f in strconv's shortest 'g' form. That form
// prints an integral value of magnitude below 1e6 as its plain integer
// digits (exponent below the shortest form's precision of 6), except
// -0, which keeps its sign; event times and delays are mostly such
// values, so they take the cheaper integer path.
//
//dtn:hotpath
func appendFloat(b []byte, f float64) []byte {
	if f > -1e6 && f < 1e6 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

//dtn:hotpath
func appendNode(b []byte, n contact.NodeID) []byte { return strconv.AppendInt(b, int64(n), 10) }

// appendID appends a bundle ID as "src:seq".
//
//dtn:hotpath
func appendID(b []byte, id bundle.ID) []byte {
	b = appendNode(b, id.Src)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(id.Seq), 10)
}

// OnGenerate implements core.Observer.
//
//dtn:hotpath
func (s *Stream) OnGenerate(id bundle.ID, dst contact.NodeID, now sim.Time) {
	if !s.events || s.err != nil {
		return
	}
	b := s.event(now, ",generate,", id.Src)
	b = appendNode(b, dst)
	b = append(b, ',')
	s.flush(appendID(b, id), ",,,\n")
}

// OnTransmit implements core.Observer.
//
//dtn:hotpath
func (s *Stream) OnTransmit(from, to contact.NodeID, id bundle.ID, now sim.Time) {
	if !s.events || s.err != nil {
		return
	}
	b := s.event(now, ",transmit,", from)
	b = appendNode(b, to)
	b = append(b, ',')
	s.flush(appendID(b, id), ",,,\n")
}

// OnDeliver implements core.Observer.
//
//dtn:hotpath
func (s *Stream) OnDeliver(id bundle.ID, dst contact.NodeID, delay float64, now sim.Time) {
	if !s.events || s.err != nil {
		return
	}
	b := s.event(now, ",deliver,", dst)
	b = append(b, ',')
	b = appendID(b, id)
	b = append(b, ',')
	s.flush(appendFloat(b, delay), ",,\n")
}

// OnDrop implements core.Observer.
//
//dtn:hotpath
func (s *Stream) OnDrop(at contact.NodeID, id bundle.ID, reason node.DropReason, now sim.Time) {
	if !s.events || s.err != nil {
		return
	}
	b := s.event(now, ",drop,", at)
	b = append(b, ',')
	b = appendID(b, id)
	b = append(b, ',')
	s.flush(append(b, reason...), ",,\n")
}

// OnSample implements core.Observer.
//
//dtn:hotpath
func (s *Stream) OnSample(sm metrics.Sample) {
	if s.err != nil {
		return
	}
	b := appendFloat(s.buf, float64(sm.Now))
	b = append(b, ",sample,,,,,"...)
	b = appendFloat(b, sm.Occupancy)
	b = append(b, ',')
	s.flush(appendFloat(b, sm.Duplication), "\n")
}
