package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dtnsim"
	"dtnsim/client"
)

// quickScenario is a sub-second run: the synthetic Cambridge trace with
// a tiny workload.
const quickScenario = `{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":7,"count":5}],"seed":42}`

// quickScenarioRespelled is the same run in a different JSON spelling:
// permuted keys, reordered flow fields, extra whitespace.
const quickScenarioRespelled = `{
	"seed":     42,
	"flows":    [ { "count": 5, "dst": 7, "src": 0 } ],
	"protocol": "pure",
	"mobility": "cambridge"
}`

// quickSweep is a one-point one-run sweep.
const quickSweep = `{"scenario":{"mobility":"cambridge","seed":42},"protocols":["pure"],"loads":[5],"runs":1}`

// quickSweepRespelled adds an execution knob (workers) and permutes
// keys; it must hit the same cache entry as quickSweep.
const quickSweepRespelled = `{"runs":1,"workers":3,"loads":[5],"protocols":["pure"],"scenario":{"seed":42,"mobility":"cambridge"}}`

// slowScenario is a run big enough to still be in flight when a test
// cancels it: a 1500-node constant-density classic-RWP population.
func slowScenario() string {
	return fmt.Sprintf(`{"mobility":%q,"protocol":"pure","flows":[{"src":0,"dst":7,"count":20}],"seed":1,"run_to_horizon":true}`,
		dtnsim.ScaleMobility(1500))
}

// newTestServer starts a service over a fresh (or given) cache dir and
// returns a client pointed at it.
func newTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	srv, c, _ := newTestServerURL(t, opts)
	return srv, c
}

func newTestServerURL(t *testing.T, opts Options) (*Server, *client.Client, string) {
	t.Helper()
	if opts.CacheDir == "" {
		opts.CacheDir = t.TempDir()
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Manager().Close()
	})
	return srv, client.New(ts.URL), ts.URL
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// mustRun submits a spec and waits for done, returning the job id.
func mustRun(t *testing.T, ctx context.Context, c *client.Client, req client.SubmitRequest) string {
	t.Helper()
	sub, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone {
		t.Fatalf("job %s ended %s: %s", st.JobID, st.State, st.Error)
	}
	return sub.JobID
}

func TestScenarioJobHappyPath(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)

	sub, err := c.SubmitScenario(ctx, []byte(quickScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kind != client.KindScenario || !strings.HasPrefix(sub.JobID, "sc-") {
		t.Errorf("submit response: %+v", sub)
	}
	if sub.Cached {
		t.Error("first submission reported cached")
	}
	st, err := c.Wait(ctx, sub.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	res, err := c.RunResult(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol == "" || res.Generated != 5 {
		t.Errorf("run result: %+v", res)
	}
	if len(res.Deliveries) != res.Delivered {
		t.Errorf("deliveries list %d entries for %d delivered", len(res.Deliveries), res.Delivered)
	}

	series, err := c.SeriesCSV(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(series, []byte("time,event")) {
		t.Errorf("series CSV header: %q", firstLine(series))
	}
	events, err := c.EventsCSV(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) <= len(series) {
		t.Errorf("event stream (%dB) should dominate the sample stream (%dB)", len(events), len(series))
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executed != 1 || m.Submitted != 1 {
		t.Errorf("metrics after one run: %+v", m)
	}
}

func TestSweepJobHappyPath(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)

	sub, err := c.SubmitSweep(ctx, []byte(quickSweep))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kind != client.KindSweep || !strings.HasPrefix(sub.JobID, "sw-") {
		t.Errorf("submit response: %+v", sub)
	}
	if st, err := c.Wait(ctx, sub.JobID, 10*time.Millisecond); err != nil || st.State != client.StateDone {
		t.Fatalf("wait: %v %+v", err, st)
	}

	res, err := c.SweepResult(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		t.Fatalf("sweep shape: %+v", res)
	}
	// The normalized sweep collects all five metrics.
	if got := len(res.Series[0].Points[0].Values); got != 5 {
		t.Errorf("metrics per point = %d, want 5", got)
	}

	series, err := c.SeriesCSV(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(series, []byte("# metric: delay")) {
		t.Errorf("sweep series CSV starts %q", firstLine(series))
	}

	// Sweep jobs have no event stream.
	if _, err := c.EventsCSV(ctx, sub.JobID); !isStatus(err, http.StatusNotFound) {
		t.Errorf("events on a sweep job: %v, want 404", err)
	}
}

func TestSubmitRejections(t *testing.T) {
	_, c, url := newTestServerURL(t, Options{})
	ctx := testCtx(t)

	// A body that is not JSON at all never reaches spec validation.
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(`{"scenario": {`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}

	// A body past the cap is refused for its size, not parsed truncated.
	resp, err = http.Post(url+"/v1/jobs", "application/json", strings.NewReader(`{"scenario": "`+strings.Repeat("x", maxSpecBytes)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}

	// oversized is a well-formed scenario whose name alone passes the cap.
	oversized := `{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":7,"count":5}],"name":"` + strings.Repeat("n", maxSpecBytes) + `"}`
	cases := []struct {
		name string
		req  client.SubmitRequest
		code int
	}{
		{"empty", client.SubmitRequest{}, http.StatusBadRequest},
		{"both", client.SubmitRequest{Scenario: []byte(quickScenario), Sweep: []byte(quickSweep)}, http.StatusBadRequest},
		{"scenario is not an object", client.SubmitRequest{Scenario: []byte(`"pure"`)}, http.StatusBadRequest},
		{"unknown field", client.SubmitRequest{Scenario: []byte(`{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":7,"count":5}],"bogus":1}`)}, http.StatusBadRequest},
		{"bad protocol spec", client.SubmitRequest{Scenario: []byte(`{"mobility":"cambridge","protocol":"warp9","flows":[{"src":0,"dst":7,"count":5}]}`)}, http.StatusBadRequest},
		{"bad mobility spec", client.SubmitRequest{Scenario: []byte(`{"mobility":"teleport","protocol":"pure","flows":[{"src":0,"dst":7,"count":5}]}`)}, http.StatusBadRequest},
		{"no flows", client.SubmitRequest{Scenario: []byte(`{"mobility":"cambridge","protocol":"pure"}`)}, http.StatusBadRequest},
		{"sweep without protocols", client.SubmitRequest{Sweep: []byte(`{"scenario":{"mobility":"cambridge"}}`)}, http.StatusBadRequest},
		{"sweep with horizon", client.SubmitRequest{Sweep: []byte(`{"scenario":{"mobility":"cambridge","horizon":10},"protocols":["pure"]}`)}, http.StatusBadRequest},
		{"sweep with load 0", client.SubmitRequest{Sweep: []byte(`{"scenario":{"mobility":"cambridge"},"protocols":["pure"],"loads":[0]}`)}, http.StatusBadRequest},
		{"sweep with negative runs", client.SubmitRequest{Sweep: []byte(`{"scenario":{"mobility":"cambridge"},"protocols":["pure"],"runs":-3}`)}, http.StatusBadRequest},
		{"sweep with negative workers", client.SubmitRequest{Sweep: []byte(`{"scenario":{"mobility":"cambridge"},"protocols":["pure"],"workers":-3}`)}, http.StatusBadRequest},
		{"spec past the size cap", client.SubmitRequest{Scenario: []byte(oversized)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if _, err := c.Submit(ctx, tc.req); !isStatus(err, tc.code) {
			t.Errorf("%s: %v, want %d", tc.name, err, tc.code)
		}
	}

	if _, err := c.Status(ctx, "sc-"+strings.Repeat("ab", 32)); !isStatus(err, http.StatusNotFound) {
		t.Errorf("unknown job id: %v, want 404", err)
	}
	if _, err := c.Status(ctx, "not-a-job-id"); !isStatus(err, http.StatusNotFound) {
		t.Errorf("malformed job id: %v, want 404", err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executed != 0 {
		t.Errorf("rejected submissions ran %d simulations", m.Executed)
	}
}

// TestCacheHitByteIdentical is the service's core promise: an
// equivalent resubmission (any spelling) returns byte-identical bodies
// and runs zero additional simulations.
func TestCacheHitByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)

	id := mustRun(t, ctx, c, client.SubmitRequest{Scenario: []byte(quickScenario)})
	result1, err := c.ResultBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	series1, _ := c.SeriesCSV(ctx, id)
	events1, _ := c.EventsCSV(ctx, id)
	before, _ := c.Metrics(ctx)
	if before.Executed != 1 {
		t.Fatalf("baseline executed = %d", before.Executed)
	}

	sub, err := c.SubmitScenario(ctx, []byte(quickScenarioRespelled))
	if err != nil {
		t.Fatal(err)
	}
	if sub.JobID != id {
		t.Fatalf("respelled spec got job %s, want %s (canonical key must be spelling-invariant)", sub.JobID, id)
	}
	if !sub.Cached || sub.State != client.StateDone {
		t.Errorf("resubmission not served from cache: %+v", sub)
	}
	result2, err := c.ResultBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	series2, _ := c.SeriesCSV(ctx, id)
	events2, _ := c.EventsCSV(ctx, id)
	if !bytes.Equal(result1, result2) || !bytes.Equal(series1, series2) || !bytes.Equal(events1, events2) {
		t.Error("resubmission bodies differ from the originals")
	}

	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Executed != before.Executed {
		t.Errorf("resubmission ran the engine: executed %d -> %d", before.Executed, after.Executed)
	}

	// Sweeps: the workers knob and spelling must not split the cache.
	swID := mustRun(t, ctx, c, client.SubmitRequest{Sweep: []byte(quickSweep)})
	swResult1, err := c.ResultBytes(ctx, swID)
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := c.Metrics(ctx)
	sub2, err := c.SubmitSweep(ctx, []byte(quickSweepRespelled))
	if err != nil {
		t.Fatal(err)
	}
	if sub2.JobID != swID || !sub2.Cached {
		t.Errorf("sweep resubmission: %+v, want cached job %s", sub2, swID)
	}
	swResult2, _ := c.ResultBytes(ctx, swID)
	if !bytes.Equal(swResult1, swResult2) {
		t.Error("sweep resubmission bodies differ")
	}
	end, _ := c.Metrics(ctx)
	if end.Executed != mid.Executed {
		t.Errorf("sweep resubmission ran the engine: executed %d -> %d", mid.Executed, end.Executed)
	}
}

// TestCacheSurvivesRestart proves the across-restart half of the cache
// contract: a second daemon instance over the same cache directory
// serves the first instance's bytes without running anything.
func TestCacheSurvivesRestart(t *testing.T) {
	cacheDir := t.TempDir()
	ctx := testCtx(t)

	srv1, err := New(Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	id := mustRun(t, ctx, c1, client.SubmitRequest{Scenario: []byte(quickScenario)})
	result1, err := c1.ResultBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	series1, _ := c1.SeriesCSV(ctx, id)
	events1, _ := c1.EventsCSV(ctx, id)
	ts1.Close()
	srv1.Manager().Close()

	_, c2 := newTestServer(t, Options{CacheDir: cacheDir})

	// The job id alone locates the entry: status works pre-submission.
	st, err := c2.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone || !st.Cached {
		t.Errorf("restarted status: %+v", st)
	}

	sub, err := c2.SubmitScenario(ctx, []byte(quickScenarioRespelled))
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Cached || sub.JobID != id {
		t.Errorf("restarted resubmission: %+v", sub)
	}
	result2, err := c2.ResultBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	series2, _ := c2.SeriesCSV(ctx, id)
	events2, _ := c2.EventsCSV(ctx, id)
	if !bytes.Equal(result1, result2) || !bytes.Equal(series1, series2) || !bytes.Equal(events1, events2) {
		t.Error("bodies differ across restart")
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executed != 0 {
		t.Errorf("restarted daemon ran %d simulations for a cached spec", m.Executed)
	}
}

// TestCacheIntegrityCheck corrupts a cached artifact on disk and
// verifies it is treated as a miss (re-executed), never served.
func TestCacheIntegrityCheck(t *testing.T) {
	cacheDir := t.TempDir()
	ctx := testCtx(t)

	srv1, err := New(Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	id := mustRun(t, ctx, client.New(ts1.URL), client.SubmitRequest{Scenario: []byte(quickScenario)})
	ts1.Close()
	srv1.Manager().Close()

	matches, err := filepath.Glob(filepath.Join(cacheDir, "scenario", "*", "*", fileSeries))
	if err != nil || len(matches) != 1 {
		t.Fatalf("cache layout: %v %v", matches, err)
	}
	if err := os.WriteFile(matches[0], []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, Options{CacheDir: cacheDir})
	if _, err := c2.Status(ctx, id); !isStatus(err, http.StatusNotFound) {
		t.Errorf("corrupt entry still resolves: %v, want 404", err)
	}
	sub, err := c2.SubmitScenario(ctx, []byte(quickScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached {
		t.Error("corrupt entry served as a cache hit")
	}
	if st, err := c2.Wait(ctx, sub.JobID, 10*time.Millisecond); err != nil || st.State != client.StateDone {
		t.Fatalf("re-execution after corruption: %v %+v", err, st)
	}
	m, _ := c2.Metrics(ctx)
	if m.Executed != 1 {
		t.Errorf("executed = %d after corrupted entry, want 1", m.Executed)
	}
}

func TestCancelMidRun(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := testCtx(t)

	sub, err := c.SubmitScenario(ctx, []byte(slowScenario()))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, ctx, c, sub.JobID, client.StateRunning)

	// A result fetch on a running job is a 409, not a partial body.
	if _, err := c.ResultBytes(ctx, sub.JobID); !errors.Is(err, client.ErrJobNotDone) {
		t.Errorf("result while running: %v, want ErrJobNotDone", err)
	}

	if err := c.Cancel(ctx, sub.JobID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateCancelled {
		t.Fatalf("cancelled job ended %s: %s", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "cancelled") {
		t.Errorf("cancellation error: %q", st.Error)
	}
	m, _ := c.Metrics(ctx)
	if m.Cancelled != 1 || m.Executed != 0 {
		t.Errorf("metrics after cancel: %+v", m)
	}
}

func TestJobTimeout(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1, JobTimeout: 50 * time.Millisecond})
	ctx := testCtx(t)

	sub, err := c.SubmitScenario(ctx, []byte(slowScenario()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateCancelled {
		t.Fatalf("timed-out job ended %s: %s", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("timeout error: %q", st.Error)
	}
}

// TestConcurrentSubmissions races many clients at the same and at
// distinct specs; run under -race. Distinct specs execute exactly
// once each — concurrent duplicates join the live job.
func TestConcurrentSubmissions(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)

	specs := make([]string, 4)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":7,"count":%d}],"seed":42}`, i+1)
	}
	const fanout = 4
	ids := make([]string, len(specs)*fanout)
	var wg sync.WaitGroup
	errCh := make(chan error, len(ids))
	for i, spec := range specs {
		for k := 0; k < fanout; k++ {
			wg.Add(1)
			go func(slot int, spec string) {
				defer wg.Done()
				sub, err := c.SubmitScenario(ctx, []byte(spec))
				if err != nil {
					errCh <- err
					return
				}
				if _, err := c.Wait(ctx, sub.JobID, 10*time.Millisecond); err != nil {
					errCh <- err
					return
				}
				ids[slot] = sub.JobID
			}(i*fanout+k, spec)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want := ids[i*fanout]
		for k := 1; k < fanout; k++ {
			if ids[i*fanout+k] != want {
				t.Errorf("spec %q produced job ids %s and %s", spec, want, ids[i*fanout+k])
			}
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executed != int64(len(specs)) {
		t.Errorf("executed = %d for %d distinct specs (duplicates must join, not re-run)", m.Executed, len(specs))
	}
	if m.Submitted != int64(len(ids)) {
		t.Errorf("submitted = %d, want %d", m.Submitted, len(ids))
	}
}

func TestSpecsHealthMetrics(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)

	if !c.Healthy(ctx) {
		t.Error("healthz not ok")
	}
	specs, err := c.Specs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpec(specs.Protocols, "pq") || !hasSpec(specs.Mobility, "cambridge") {
		t.Errorf("spec listing incomplete: %+v", specs)
	}
	if len(specs.DropPolicies) == 0 {
		t.Error("no drop policies listed")
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
}

// --- helpers ----------------------------------------------------------------

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

func isStatus(err error, code int) bool {
	var se *client.StatusError
	return errors.As(err, &se) && se.Code == code
}

func hasSpec(infos []client.SpecInfo, name string) bool {
	for _, in := range infos {
		if in.Name == name {
			return true
		}
	}
	return false
}

func waitForState(t *testing.T, ctx context.Context, c *client.Client, id, want string) {
	t.Helper()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.Terminal() {
			t.Fatalf("job %s reached %s (%s) before %s", id, st.State, st.Error, want)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s: %v", want, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestWireRoundTrip pins the scenario result wire shape: unmarshalling
// the cached body and re-marshalling it canonically is the identity,
// so client-side decoding loses nothing.
func TestWireRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)
	id := mustRun(t, ctx, c, client.SubmitRequest{Scenario: []byte(quickScenario)})
	raw, err := c.ResultBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var r client.RunResult
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	again, err := marshalCanonical(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Error("RunResult wire form does not round-trip")
	}
}

// TestAbsurdShardsJobCompletes: a scenario's shards and a sweep's
// workers are execution knobs, outside the canonical key, and they
// arrive from clients. Three million shards on a 12-node cell used to
// size three million kernels and get the process OOM-killed; a hundred
// million sweep workers started a goroutine each. The daemon runs the
// normalized spec, which has neither knob, so each job completes on the
// daemon's own executor and serves the plain spec's job id and bytes.
func TestAbsurdShardsJobCompletes(t *testing.T) {
	const plainScenario = `{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":1,"count":5}],"seed":1}`
	const plainSweep = `{"scenario":{"mobility":"cambridge","seed":1},"protocols":["pure"],"loads":[5],"runs":1}`
	ctx := testCtx(t)
	artifacts := map[string]func(*client.Client, string) ([]byte, error){
		"result": func(c *client.Client, id string) ([]byte, error) { return c.ResultBytes(ctx, id) },
		"series": func(c *client.Client, id string) ([]byte, error) { return c.SeriesCSV(ctx, id) },
		"events": func(c *client.Client, id string) ([]byte, error) { return c.EventsCSV(ctx, id) },
	}
	for _, tc := range []struct {
		knob          string
		absurd, plain client.SubmitRequest
		files         []string
	}{
		{
			knob:   "shards=3000000",
			absurd: client.SubmitRequest{Scenario: []byte(`{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":1,"count":5}],"seed":1,"shards":3000000}`)},
			plain:  client.SubmitRequest{Scenario: []byte(plainScenario)},
			files:  []string{"result", "series", "events"},
		},
		{
			knob:   "workers=100000000",
			absurd: client.SubmitRequest{Sweep: []byte(`{"scenario":{"mobility":"cambridge","seed":1},"protocols":["pure"],"loads":[5],"runs":1,"workers":100000000}`)},
			plain:  client.SubmitRequest{Sweep: []byte(plainSweep)},
			files:  []string{"result", "series"},
		},
	} {
		_, a := newTestServer(t, Options{})
		_, b := newTestServer(t, Options{})
		idA := mustRun(t, ctx, a, tc.absurd)
		idB := mustRun(t, ctx, b, tc.plain)
		if idA != idB {
			t.Fatalf("job ids differ: %s %s, plain %s", tc.knob, idA, idB)
		}
		for _, name := range tc.files {
			got, err := artifacts[name](a, idA)
			if err != nil {
				t.Fatal(err)
			}
			want, err := artifacts[name](b, idB)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s artifact of the %s job differs from the plain spec's", name, tc.knob)
			}
		}
		sub, err := a.Submit(ctx, tc.plain)
		if err != nil {
			t.Fatal(err)
		}
		if sub.JobID != idA || !sub.Cached {
			t.Errorf("plain resubmission after %s: %+v, want cached job %s", tc.knob, sub, idA)
		}
	}
}

// TestTraceMobilityRefusedAtSubmit: a trace spec's key is its path, so
// after the file changed the daemon served the old run's bytes as a
// cache hit, and it opened whatever path a remote client named on its
// own host. Scenarios and sweep templates with trace mobility are
// refused at submit and run nothing.
func TestTraceMobilityRefusedAtSubmit(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)
	path := filepath.Join(t.TempDir(), "contacts.txt")
	if err := os.WriteFile(path, []byte("0 1 10 1000\n1 2 2000 3000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mob := "trace:" + path
	for _, req := range []client.SubmitRequest{
		{Scenario: []byte(fmt.Sprintf(`{"mobility":%q,"protocol":"pure","flows":[{"src":0,"dst":2,"count":1}],"seed":1}`, mob))},
		{Sweep: []byte(fmt.Sprintf(`{"scenario":{"mobility":%q,"seed":1},"protocols":["pure"],"loads":[1],"runs":1}`, mob))},
	} {
		if _, err := c.Submit(ctx, req); !isStatus(err, http.StatusBadRequest) {
			t.Errorf("%s%s: %v, want 400", req.Scenario, req.Sweep, err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 2 || m.Executed != 0 {
		t.Errorf("submitted %d, executed %d; want 2 refused, none run", m.Submitted, m.Executed)
	}
}

// TestOverBoundPopulationRefusedAtSubmit: submit only parses, and a
// population past the mobility bound used to parse, queue, and take the
// daemon down when the job compiled its stream. It is refused at submit
// now, runs nothing, and the daemon goes on serving. So are a single
// node and the other configurations whose stream can only fail to open
// (an interval range upside down, more sample steps than an int holds,
// too few or too dense subscriber points), which used to queue a job
// that could only fail.
func TestOverBoundPopulationRefusedAtSubmit(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := testCtx(t)
	for _, mob := range []string{
		"rwp:nodes=400000000,span=100", "subscriber:nodes=2000000000", "cambridge:nodes=100000",
		"rwp:nodes=1", "subscriber:nodes=1", "interval:nodes=1", "cambridge:nodes=1",
		"interval:min=5,max=2", "interval:min=3000", "rwp:nodes=10,span=1e300",
		"subscriber:points=1", "subscriber:area=1", "interval:encounters=2147483647",
	} {
		sc := fmt.Sprintf(`{"mobility":%q,"protocol":"pure","flows":[{"src":0,"dst":1,"count":5}],"seed":1}`, mob)
		if _, err := c.SubmitScenario(ctx, []byte(sc)); !isStatus(err, http.StatusBadRequest) {
			t.Errorf("%s: %v, want 400", mob, err)
		}
	}
	mustRun(t, ctx, c, client.SubmitRequest{Scenario: []byte(quickScenario)})
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executed != 1 {
		t.Errorf("executed %d jobs, want only the in-bound one", m.Executed)
	}
}
