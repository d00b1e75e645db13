package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Coarse boundaries (Compile, Run,
// RunEpoch, an HTTP request) record one span per call. High-frequency
// boundaries (Source.Next, observer callbacks, conn Read/Write) record
// one summary span per enclosing call: Count calls that were busy for
// Busy nanoseconds somewhere between Start and End.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span (one per op)
	Op     int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// covered is the part of the parent's interval this span accounts for.
func (s *span) covered() int64 {
	if s.Count > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the pass ends. A nil *tracer means
// tracing is off: workloads install no decorator at all then, so the
// end-to-end pass runs the program exactly as a user would.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// busyMeter accumulates calls across one enclosing span; flush turns it
// into a summary span and resets it.
type busyMeter struct {
	count, busy int64
	first, last int64
}

func (m *busyMeter) add(t *tracer, start time.Time) {
	end := time.Now()
	if m.count == 0 {
		m.first = int64(start.Sub(t.t0))
	}
	m.last = int64(end.Sub(t.t0))
	m.count++
	m.busy += int64(end.Sub(start))
}

func (m *busyMeter) flush(t *tracer, name string, parent, op int) {
	if m.count == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: m.first, End: m.last, Count: m.count, Busy: m.busy})
	t.mu.Unlock()
	*m = busyMeter{}
}

// layerTotals sums the spans of one name.
type layerTotals struct {
	Spans int64   // spans recorded
	Busy  int64   // ns covered: Busy of a summary span, end − start otherwise
	Self  int64   // Busy minus the time child spans cover
	walls []int64 // per span: wall ns
	selfs []int64 // per span: self ns
}

// p50 is the median span duration in seconds.
func (l *layerTotals) p50() float64 {
	if len(l.walls) == 0 {
		return 0
	}
	s := append([]int64(nil), l.walls...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / 1e9
}

// totals checks the trace — every child inside its parent and of the
// same op, no negative self time — and sums it by span name.
func (t *tracer) totals() (map[string]*layerTotals, error) {
	return t.totalsFor(func(int) bool { return true })
}

// totalsFor is totals over the spans of the ops keep selects.
func (t *tracer) totalsFor(keep func(op int) bool) (map[string]*layerTotals, error) {
	childCover := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %d %q ends before it starts (never closed?)", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := &t.spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("trace: span %d %q [%d,%d] is outside its parent %d %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return nil, fmt.Errorf("trace: span %d %q belongs to op %d, its parent to op %d", s.ID, s.Name, s.Op, p.Op)
		}
		childCover[p.ID] += s.covered()
	}
	out := map[string]*layerTotals{}
	for i := range t.spans {
		s := &t.spans[i]
		self := s.covered() - childCover[s.ID]
		if self < 0 {
			return nil, fmt.Errorf("trace: span %d %q has negative self time %d ns", s.ID, s.Name, self)
		}
		if !keep(s.Op) {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layerTotals{}
			out[s.Name] = l
		}
		l.Spans++
		l.Busy += s.covered()
		l.Self += self
		l.walls = append(l.walls, s.End-s.Start)
		l.selfs = append(l.selfs, self)
	}
	return out, nil
}

// write stores the trace as one JSON document.
func (t *tracer) write(path, workload string, seed uint64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
