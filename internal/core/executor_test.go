package core_test

// Executor equivalence on a hand-built streaming scenario: the inline
// (Shards=0), one-shard and two-shard executors must produce the
// byte-identical event CSV and Result on the two orderings no golden
// cell exercises — work sitting exactly at, just past and far past the
// run's horizon, and a flow start, a contact start and a sampling tick
// sharing one timestamp.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/protocol"
	"dtnsim/internal/report"
	"dtnsim/internal/sim"
)

// scriptSource streams a fixed contact list while reporting only a
// generous span, so the run's horizon is adaptive: it settles to the
// latest contact end when the source runs dry.
type scriptSource struct {
	contacts []contact.Contact
	nodes    int
	span     sim.Time
	i        int
}

func (s *scriptSource) Next() (contact.Contact, bool) {
	if s.i >= len(s.contacts) {
		return contact.Contact{}, false
	}
	s.i++
	return s.contacts[s.i-1], true
}
func (s *scriptSource) Nodes() int        { return s.nodes }
func (s *scriptSource) Horizon() sim.Time { return s.span }
func (s *scriptSource) Err() error        { return nil }

// tinyStreamRun executes the scenario with the given explicit horizon
// (0: adaptive, settling at 4300) and shard count, returning the event
// CSV and the Result.
func tinyStreamRun(t *testing.T, horizon sim.Time, shards int) ([]byte, *core.Result) {
	t.Helper()
	var buf bytes.Buffer
	st := report.NewStream(&buf, true)
	res, err := core.Run(core.Config{
		Source: &scriptSource{nodes: 3, span: 50000, contacts: []contact.Contact{
			{A: 0, B: 1, Start: 0, End: 350},
			{A: 1, B: 2, Start: 1000, End: 1450},
			{A: 0, B: 2, Start: 2500, End: 4300},
		}},
		Protocol: protocol.NewPure(),
		Flows: []core.Flow{
			// Declared out of start order: collection must sort by
			// StartAt, keeping declaration order only among ties.
			{Src: 2, Dst: 0, Count: 1, StartAt: 40000}, // far past the settled horizon
			{Src: 0, Dst: 2, Count: 2},                 // t=0: flow, contact and first tick coincide
			{Src: 1, Dst: 2, Count: 1, StartAt: 1000},  // t=1000: flow, contact and tick coincide
			{Src: 2, Dst: 0, Count: 1, StartAt: 4300},  // exactly at the settled horizon
			{Src: 2, Dst: 1, Count: 1, StartAt: 4301},  // just past it
			{Src: 2, Dst: 1, Count: 1, StartAt: 5000},  // on a tick past it
		},
		Horizon:   horizon,
		Shards:    shards,
		Observers: []core.Observer{st},
	})
	if err != nil {
		t.Fatalf("horizon=%v shards=%d: %v", horizon, shards, err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestExecutorsAgreeOnHorizonAndTieOrdering(t *testing.T) {
	for _, horizon := range []sim.Time{0, 2500, 4300, 4301, 5000, 45000} {
		t.Run(fmt.Sprintf("horizon=%v", float64(horizon)), func(t *testing.T) {
			want, wantRes := tinyStreamRun(t, horizon, 0)
			for _, k := range []int{1, 2} {
				got, gotRes := tinyStreamRun(t, horizon, k)
				if !bytes.Equal(want, got) {
					t.Errorf("Shards=%d event CSV diverged from Shards=0 (first diff at byte %d)\n got:\n%s\nwant:\n%s",
						k, firstDiff(want, got), got, want)
				}
				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Errorf("Shards=%d Result diverged from Shards=0\n got: %+v\nwant: %+v", k, gotRes, wantRes)
				}
			}

			// Equal-time order: generation, then the contact (which can
			// therefore carry the bundle generated at its own start),
			// then the sample.
			rows := strings.Split(string(want), "\n")
			at := func(prefix string) int {
				for i, r := range rows {
					if strings.HasPrefix(r, prefix) {
						return i
					}
				}
				return -1
			}
			for _, tie := range [][3]string{
				{"0,generate,0,2,0:2,", "100,transmit,0,1,0:1,", "0,sample,"},
				{"1000,generate,1,2,1:1,", "1300,transmit,1,2,1:1,", "1000,sample,"},
			} {
				g, c, s := at(tie[0]), at(tie[1]), at(tie[2])
				if g < 0 || !(g < c && c < s) {
					t.Errorf("rows %q, %q, %q at %d, %d, %d; want present and ascending", tie[0], tie[1], tie[2], g, c, s)
				}
			}

			// Work at the horizon runs; work past it never does.
			end := horizon
			if end == 0 {
				end = 4300 // adaptive: the latest contact end
			}
			for _, ev := range []struct {
				t   sim.Time
				row string
			}{
				{4000, "4000,sample,"},
				{4300, "4300,generate,2,0,2:2,"},
				{4301, "4301,generate,2,1,2:3,"},
				{5000, "5000,generate,2,1,2:4,"},
				{5000, "5000,sample,"},
				{40000, "40000,generate,2,0,2:1,"},
			} {
				ran := at(ev.row) >= 0
				if want := ev.t <= end; ran != want {
					t.Errorf("row %q present=%v, want %v (horizon %v)", ev.row, ran, want, end)
				}
			}
			if wantRes.FinishedAt != end {
				t.Errorf("FinishedAt = %v, want %v", wantRes.FinishedAt, end)
			}
		})
	}

	// An adaptive horizon must be indistinguishable from declaring the
	// settled value up front.
	adaptive, _ := tinyStreamRun(t, 0, 0)
	explicit, _ := tinyStreamRun(t, 4300, 0)
	if !bytes.Equal(adaptive, explicit) {
		t.Errorf("adaptive horizon diverged from explicit Horizon=4300 (first diff at byte %d)", firstDiff(adaptive, explicit))
	}
}
