package core_test

// Golden report.Stream tests: the full event CSV (every generate /
// transmit / deliver / drop plus periodic samples) of a trace scenario
// and an RWP scenario is compared byte-for-byte against committed
// golden files generated from the pre-refactor engine. A byte-equal
// event log is a much finer equivalence than the Result fields: it
// pins the order and timing of every observable engine action.
//
// TestStreamDeterminismRace additionally runs each scenario twice
// concurrently; under `go test -race` (CI's default) this fails if the
// reworked hot path ever shares mutable state between runs.

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"dtnsim/internal/core"
	"dtnsim/internal/report"
)

// streamGoldenCells pair an eventful protocol with each mobility:
// immunity purges and refuses on the trace; EC+TTL evicts and expires
// on the controlled-interval scenario; pure epidemic saturates RWP
// buffers with refusals; P-Q with anti-packets sheds under byte
// pressure on the budgeted cell.
var streamGoldenCells = []struct {
	file  string
	proto string
	mob   goldenMobility
}{
	{"stream_trace_immunity.csv", "immunity", goldenMobilities[0]},
	{"stream_rwp_pure.csv", "pure", goldenMobilities[1]},
	{"stream_interval_ecttl.csv", "ecttl", goldenMobilities[2]},
	// The classic-RWP substrate added with the PR 5 grid gap fill; TTL
	// renewals expire copies on its sparse contacts.
	{"stream_classic_ttl.csv", "ttl:300", goldenMobilities[3]},
	// P-Q with anti-packets under byte budgets: a relay can accept a
	// copy its own i-list already vaccinates, which only the next full
	// purge removes — the event log pins when each such purge fires.
	{"stream_budgeted_pqanti.csv", "pq:p=0.7,q=0.5,anti", goldenBudgeted},
}

// runStream executes one golden cell with a full event stream attached
// and returns the CSV bytes. streamed selects the contact-plan form.
func runStream(t testing.TB, proto string, mob goldenMobility, streamed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := goldenConfig(t, proto, mob, streamed)
	st := report.NewStream(&buf, true)
	cfg.Observers = []core.Observer{st}
	if _, err := core.Run(cfg); err != nil {
		t.Fatalf("%s|%s: %v", proto, mob.name, err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("%s|%s: stream write: %v", proto, mob.name, err)
	}
	return buf.Bytes()
}

func TestGoldenStreamCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("golden streams are slow")
	}
	for _, cell := range streamGoldenCells {
		cell := cell
		t.Run(cell.file, func(t *testing.T) {
			got := runStream(t, cell.proto, cell.mob, false)
			// The streamed-source run must produce the byte-identical
			// event log: every observable engine action in the same
			// order at the same time.
			streamed := runStream(t, cell.proto, cell.mob, true)
			if !bytes.Equal(got, streamed) {
				t.Errorf("streamed source event CSV diverged from materialized (first diff at byte %d)",
					firstDiff(got, streamed))
			}
			path := goldenPath(cell.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("event CSV diverged from golden %s: got %d bytes, want %d (first diff at byte %d)",
					cell.file, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestStreamDeterminismRace runs each golden stream cell twice
// concurrently and demands byte-identical CSVs. With -race this also
// proves the indexed store, per-node scratch and streaming contact
// scheduler keep runs fully isolated.
func TestStreamDeterminismRace(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent golden streams are slow")
	}
	for _, cell := range streamGoldenCells {
		cell := cell
		t.Run(cell.file, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			out := make([][]byte, 2)
			errs := make([]error, 2)
			for i := range out {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var buf bytes.Buffer
					// One run materialized, one streamed: concurrent
					// equality also covers cross-path equivalence.
					cfg := goldenConfig(t, cell.proto, cell.mob, i == 1)
					cfg.Observers = []core.Observer{report.NewStream(&buf, true)}
					_, errs[i] = core.Run(cfg)
					out[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Errorf("concurrent runs diverge (first diff at byte %d)", firstDiff(out[0], out[1]))
			}
		})
	}
}
