package mobility

import (
	"fmt"
	"io"
	"os"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// OpenTraceSource streams an encounter-trace file as a contact.Source
// in O(1) memory. It makes two passes over the file: a pre-scan that
// validates every record and learns what a materialized parse would
// have known up front — the node count (max ID + 1, raised by a
// "# nodes: N" header), the exact horizon (latest contact end), and
// whether the records are already in canonical order (contact.Less) —
// then a streaming pass that re-parses records lazily as the engine
// pulls them.
//
// Trace files whose records are out of canonical order (WriteTrace
// always writes sorted ones) cannot be streamed; they fall back to a
// fully parsed, sorted schedule behind the same Source interface,
// trading memory for compatibility. Start order alone is not enough:
// records that share a start time must also come in (A, B, End) order,
// or the engine would run them in another order than ParseTrace does.
//
// The returned source owns the open file; it closes it on exhaustion
// or error, and also implements io.Closer for callers (the engine)
// that abandon a stream early.
func OpenTraceSource(path string) (contact.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mobility: trace source: %w", err)
	}
	pre, err := preScanTrace(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if !pre.sorted {
		// Out-of-order records: materialize once, stream the sorted slice.
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("mobility: trace source: %w", err)
		}
		defer f.Close()
		s, err := ParseTrace(f)
		if err != nil {
			return nil, err
		}
		return s.Stream(), nil
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mobility: trace source: %w", err)
	}
	return &traceSource{f: f, r: newTraceReader(f), pre: pre}, nil
}

// traceStats is what the pre-scan learns about a trace file.
type traceStats struct {
	nodes   int
	horizon sim.Time
	sorted  bool
}

// preScanTrace validates every record and accumulates the stats in one
// sequential O(1)-memory read.
func preScanTrace(f io.Reader) (traceStats, error) {
	st := traceStats{sorted: true}
	tr := newTraceReader(f)
	records := 0
	var prev contact.Contact
	for {
		c, ok, err := tr.next()
		if err != nil {
			return st, err
		}
		if !ok {
			break
		}
		if records > 0 && contact.Less(c, prev) {
			st.sorted = false
		}
		records++
		prev = c
		st.horizon = max(st.horizon, c.End)
	}
	if records == 0 {
		return st, fmt.Errorf("mobility: trace source: %w", contact.ErrEmptySchedule)
	}
	st.nodes = tr.nodes()
	if st.nodes < 2 {
		return st, fmt.Errorf("mobility: trace source: schedule needs >=2 nodes, has %d", st.nodes)
	}
	return st, nil
}

// traceSource is the line-by-line streaming pass.
type traceSource struct {
	f    *os.File
	r    *traceReader
	pre  traceStats
	err  error
	done bool
}

func (t *traceSource) Next() (contact.Contact, bool) {
	if t.done {
		return contact.Contact{}, false
	}
	c, ok, err := t.r.next()
	switch {
	case err != nil:
		// The pre-scan accepted this file; a failure now means it
		// changed underneath us.
		t.err = fmt.Errorf("%w (file changed since pre-scan?)", err)
		t.close()
	case !ok:
		t.close()
	}
	return c, ok
}

func (t *traceSource) close() {
	if !t.done {
		t.done = true
		t.f.Close()
	}
}

// Close releases the underlying file; safe to call more than once.
func (t *traceSource) Close() error {
	t.close()
	return nil
}

func (t *traceSource) Nodes() int        { return t.pre.nodes }
func (t *traceSource) Horizon() sim.Time { return t.pre.horizon }
func (t *traceSource) Err() error        { return t.err }
