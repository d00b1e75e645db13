package mobility

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// ParseTrace reads an encounter trace in the canonical text format:
//
//	# comment lines and blank lines are ignored
//	<nodeA> <nodeB> <start-seconds> <end-seconds>
//
// Node IDs are non-negative integers; fields are whitespace-separated.
// This is the column layout of CRAWDAD Haggle-style sighting records
// (device, peer, first-seen, last-seen), so converted iMote traces load
// directly. Contacts are normalized, sorted, and validated; the node
// count is inferred as max(ID)+1 unless a "# nodes: N" header raises it.
func ParseTrace(r io.Reader) (*contact.Schedule, error) {
	tr := newTraceReader(r)
	s := &contact.Schedule{}
	for {
		c, ok, err := tr.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		s.Contacts = append(s.Contacts, c)
	}
	s.Nodes = tr.nodes()
	s.Sort()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// traceReader is the one reader of trace records, shared by ParseTrace
// and both passes of OpenTraceSource: it skips blank and comment lines,
// picks up the "# nodes: N" header, numbers lines for error messages and
// tracks the node count the records imply.
type traceReader struct {
	sc       *bufio.Scanner
	line     int
	maxID    contact.NodeID
	declared int
}

func newTraceReader(r io.Reader) *traceReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return &traceReader{sc: sc, maxID: -1}
}

// next returns the next record in file order; ok is false at the end of
// the input or on error.
func (r *traceReader) next() (c contact.Contact, ok bool, err error) {
	for r.sc.Scan() {
		r.line++
		text := strings.TrimSpace(r.sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if n, ok := parseNodesHeader(text); ok {
				if n > MaxNodes {
					return c, false, fmt.Errorf("mobility: trace line %d: %d nodes exceed the bound of %d", r.line, n, MaxNodes)
				}
				r.declared = n
			}
			continue
		}
		if c, err = parseTraceLine(text, r.line); err != nil {
			return c, false, err
		}
		if c.B >= MaxNodes {
			return c, false, fmt.Errorf("mobility: trace line %d: node %d exceeds the bound of %d nodes", r.line, c.B, MaxNodes)
		}
		r.maxID = max(r.maxID, c.B)
		return c, true, nil
	}
	if err := r.sc.Err(); err != nil {
		return c, false, fmt.Errorf("mobility: reading trace: %w", err)
	}
	return c, false, nil
}

// nodes is the node count of the records read so far: max(ID)+1, raised
// by a "# nodes: N" header.
func (r *traceReader) nodes() int { return max(int(r.maxID)+1, r.declared) }

// parseTraceLine parses one non-comment record of the canonical trace
// format into a normalized, validated contact.
func parseTraceLine(text string, line int) (contact.Contact, error) {
	fields := strings.Fields(text)
	if len(fields) < 4 {
		return contact.Contact{}, fmt.Errorf("mobility: trace line %d: want 4 fields, got %d", line, len(fields))
	}
	var vals [4]float64
	for i := 0; i < 4; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return contact.Contact{}, fmt.Errorf("mobility: trace line %d field %d: %v", line, i+1, err)
		}
		vals[i] = v
	}
	a, b := contact.NodeID(vals[0]), contact.NodeID(vals[1])
	if float64(a) != vals[0] || float64(b) != vals[1] || a < 0 || b < 0 {
		return contact.Contact{}, fmt.Errorf("mobility: trace line %d: node IDs must be non-negative integers", line)
	}
	// ParseFloat accepts "NaN" and "Inf", which would pass Validate (its
	// comparisons are false for NaN) and then sort, compare and bound
	// the horizon inconsistently.
	if math.IsNaN(vals[2]) || math.IsInf(vals[2], 0) || math.IsNaN(vals[3]) || math.IsInf(vals[3], 0) {
		return contact.Contact{}, fmt.Errorf("mobility: trace line %d: times must be finite", line)
	}
	c := contact.Contact{A: a, B: b, Start: sim.Time(vals[2]), End: sim.Time(vals[3])}.Normalize()
	if err := c.Validate(); err != nil {
		return contact.Contact{}, fmt.Errorf("mobility: trace line %d: %w", line, err)
	}
	return c, nil
}

func parseNodesHeader(line string) (int, bool) {
	rest, ok := strings.CutPrefix(line, "#")
	if !ok {
		return 0, false
	}
	rest = strings.TrimSpace(rest)
	rest, ok = strings.CutPrefix(rest, "nodes:")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// WriteTrace emits a schedule in the canonical text format read by
// ParseTrace, including the node-count header. Times are written in the
// shortest form that parses back to the same float64, so a written trace
// re-reads exactly; integer-second times print as plain integers.
func WriteTrace(w io.Writer, s *contact.Schedule) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes: %d\n# contacts: %d\n", s.Nodes, len(s.Contacts)); err != nil {
		return err
	}
	var line []byte
	for _, c := range s.Contacts {
		line = strconv.AppendInt(line[:0], int64(c.A), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(c.B), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, float64(c.Start), 'f', -1, 64)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, float64(c.End), 'f', -1, 64)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
