package main

import (
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dtnsim"
	"dtnsim/internal/core"
)

// The decorators below are the only instrumentation the benchmark has:
// each wraps one public seam of the program (contact.Source,
// core.Observer, core.EpochBackend, the dist conn, http.Handler,
// http.RoundTripper) and lives here, so the program under test is
// measured from outside. They are installed in the traced pass only;
// countingSource, which reads no clock, is the one exception.

// countingSource counts the contacts runs pull, for the exact contact
// count behind sim_contacts_per_s where every op streams plans of its
// own: scale5k_stream, and paper_sweep, whose harness builds its per-run
// plans internally, so that the Sweep.Scenario.Stream seam is the only
// place to see them. One integer add per contact, in both passes.
type countingSource struct {
	dtnsim.ContactSource
	n *int64
}

func (s countingSource) Next() (dtnsim.Contact, bool) {
	c, ok := s.ContactSource.Next()
	if ok {
		*s.n++
	}
	return c, ok
}

// tracedSource times every Source.Next call: the time a run spends in
// mobility.
type tracedSource struct {
	dtnsim.ContactSource
	tr       *tracer
	m        busyMeter
	contacts int64
}

func (s *tracedSource) Next() (dtnsim.Contact, bool) {
	start := time.Now()
	c, ok := s.ContactSource.Next()
	s.m.add(s.tr, start)
	if ok {
		s.contacts++
	}
	return c, ok
}

// tracedObserver times the callbacks of one observer (a report.Stream).
type tracedObserver struct {
	inner dtnsim.Observer
	tr    *tracer
	m     busyMeter
}

func (o *tracedObserver) OnGenerate(id dtnsim.BundleID, dst dtnsim.NodeID, now dtnsim.Time) {
	start := time.Now()
	o.inner.OnGenerate(id, dst, now)
	o.m.add(o.tr, start)
}

func (o *tracedObserver) OnTransmit(from, to dtnsim.NodeID, id dtnsim.BundleID, now dtnsim.Time) {
	start := time.Now()
	o.inner.OnTransmit(from, to, id, now)
	o.m.add(o.tr, start)
}

func (o *tracedObserver) OnDeliver(id dtnsim.BundleID, dst dtnsim.NodeID, delay float64, now dtnsim.Time) {
	start := time.Now()
	o.inner.OnDeliver(id, dst, delay, now)
	o.m.add(o.tr, start)
}

func (o *tracedObserver) OnDrop(at dtnsim.NodeID, id dtnsim.BundleID, reason dtnsim.DropReason, now dtnsim.Time) {
	start := time.Now()
	o.inner.OnDrop(at, id, reason, now)
	o.m.add(o.tr, start)
}

func (o *tracedObserver) OnSample(s dtnsim.MetricSample) {
	start := time.Now()
	o.inner.OnSample(s)
	o.m.add(o.tr, start)
}

// tracedBackend records one span per Start, RunEpoch and Finish call of
// an epoch backend and a summary of its NodeOccupancy calls. Each span
// gets the conn traffic that happened under it as child summaries, so
// the coordinator's own time is what is left of the span.
type tracedBackend struct {
	inner  core.EpochBackend
	tr     *tracer
	conn   *tracedConn
	parent int // the op's core.run span
	op     int
	occ    busyMeter
	epochs int64
	items  int64
}

func (b *tracedBackend) call(name string, fn func() error) error {
	id := b.tr.begin(name, b.parent, b.op)
	err := fn()
	if b.conn != nil {
		b.conn.flush(id, b.op)
	}
	b.tr.end(id)
	return err
}

func (b *tracedBackend) Start(env core.RunEnv) error {
	return b.call("dist.start", func() error { return b.inner.Start(env) })
}

func (b *tracedBackend) RunEpoch(ep *core.Epoch) error {
	b.epochs++
	b.items += int64(ep.Len())
	return b.call("dist.run_epoch", func() error { return b.inner.RunEpoch(ep) })
}

func (b *tracedBackend) NodeOccupancy(i int) float64 {
	start := time.Now()
	v := b.inner.NodeOccupancy(i)
	b.occ.add(b.tr, start)
	return v
}

func (b *tracedBackend) Finish() error {
	return b.call("dist.finish", func() error { return b.inner.Finish() })
}

// frameCounter follows the 4-byte little-endian length prefixes in one
// direction of a conn's byte stream and counts the frames.
type frameCounter struct {
	frames int64
	hdr    [4]byte
	have   int   // header bytes collected
	skip   int64 // body bytes still to pass
	keep   [][]byte
	cur    []byte
}

// maxKeptFrames bounds the frames tee'd off per direction for the frame
// codec probe.
const maxKeptFrames = 256

func (f *frameCounter) feed(p []byte) {
	for len(p) > 0 {
		if f.skip > 0 {
			n := int64(len(p))
			if n > f.skip {
				n = f.skip
			}
			if f.cur != nil {
				f.cur = append(f.cur, p[:n]...)
			}
			f.skip -= n
			p = p[n:]
			if f.skip == 0 && f.cur != nil {
				f.keep = append(f.keep, f.cur)
				f.cur = nil
			}
			continue
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == 4 {
			f.have = 0
			f.frames++
			f.skip = int64(binary.LittleEndian.Uint32(f.hdr[:]))
			if len(f.keep) < maxKeptFrames {
				f.cur = append(make([]byte, 0, 4+f.skip), f.hdr[:]...)
			}
		}
	}
}

// tracedConn times and counts what crosses one worker connection. A
// Read blocks until the worker answers, so its busy time is the
// coordinator waiting (worker execution plus the pipe); a Write's is
// the copy into the pipe.
type tracedConn struct {
	io.ReadWriteCloser
	tr                *tracer
	read, write       busyMeter
	in, out           frameCounter
	bytesIn, bytesOut int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.ReadWriteCloser.Read(p)
	c.read.add(c.tr, start)
	c.bytesIn += int64(n)
	c.in.feed(p[:n])
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.ReadWriteCloser.Write(p)
	c.write.add(c.tr, start)
	c.bytesOut += int64(n)
	c.out.feed(p[:n])
	return n, err
}

func (c *tracedConn) flush(parent, op int) {
	c.read.flush(c.tr, "dist.conn_read", parent, op)
	c.write.flush(c.tr, "dist.conn_write", parent, op)
}

// Span context crosses the HTTP hop in a request header: the client side
// puts the calling span in the request's context, spanTransport copies
// it into the header, and the middleware in front of the server's
// handler opens its span under it.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

type spanRef struct{ id, op int }

func withSpan(ctx context.Context, id, op int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

// spanTransport stands in for http.DefaultTransport (which
// client.Client uses) during a traced pass.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(ref.id)+"/"+strconv.Itoa(ref.op))
	return t.base.RoundTrip(req)
}

// routeName classifies a daemon request the way the per-layer metrics
// are named.
func routeName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost:
		return "server.http.submit"
	case strings.HasSuffix(r.URL.Path, "/result"), strings.HasSuffix(r.URL.Path, "/series"), strings.HasSuffix(r.URL.Path, "/events"):
		return "server.http.artifact"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "server.http.status"
	}
	return "server.http.other"
}

// traceHandler is the middleware around server.Handler().
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, op := 0, 0
		if v := r.Header.Get(spanHeader); v != "" {
			p, o, _ := strings.Cut(v, "/")
			parent, _ = strconv.Atoi(p)
			op, _ = strconv.Atoi(o)
		}
		if parent == 0 {
			h.ServeHTTP(w, r) // not part of an op (a /metrics read)
			return
		}
		id := tr.begin(routeName(r), parent, op)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}
