package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dtnsim"
	"dtnsim/client"
)

// paperScenario is a quickScenario with the paper's 50-message load: an
// event stream of ~100 KB, the size the daemon serves on a paper run.
const paperScenario = `{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":7,"count":50}],"seed":42}`

// artifactPaths are the three scenario artifact endpoints, in the order
// fetchAll returns them.
var artifactPaths = [3]string{"result", "series", "events"}

// fetchAll reads a scenario job's result, series and events.
func fetchAll(t *testing.T, c *client.Client, id string) [3][]byte {
	t.Helper()
	ctx := testCtx(t)
	var out [3][]byte
	for i, get := range []func(string) ([]byte, error){
		func(id string) ([]byte, error) { return c.ResultBytes(ctx, id) },
		func(id string) ([]byte, error) { return c.SeriesCSV(ctx, id) },
		func(id string) ([]byte, error) { return c.EventsCSV(ctx, id) },
	} {
		data, err := get(id)
		if err != nil {
			t.Fatalf("%s: %v", artifactPaths[i], err)
		}
		out[i] = data
	}
	return out
}

// entryFile is the path of one file of the only scenario entry in dir.
func entryFile(t *testing.T, dir, name string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "scenario", "*", "*", name))
	if err != nil || len(matches) != 1 {
		t.Fatalf("cache layout: %v %v", matches, err)
	}
	return matches[0]
}

// TestCorruptedUnderLiveDaemon damages series.csv while a daemon holds
// the done job in its table — once for a job it executed itself, once
// for one it answered from a cache a previous process filled. A fetch
// verifies the file it serves, so the intact result is still served
// byte-identical while the damaged series never is; the failed fetch
// drops the job from the table, so a resubmission misses, runs once,
// and repairs the entry.
func TestCorruptedUnderLiveDaemon(t *testing.T) {
	for _, fromDisk := range []bool{false, true} {
		t.Run("fromDisk="+strconv.FormatBool(fromDisk), func(t *testing.T) {
			cacheDir := t.TempDir()
			ctx := testCtx(t)
			req := client.SubmitRequest{Scenario: []byte(quickScenario)}
			if fromDisk {
				srv, err := New(Options{CacheDir: cacheDir})
				if err != nil {
					t.Fatal(err)
				}
				job, err := srv.Manager().Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				<-job.Done()
				srv.Manager().Close()
			}
			_, c := newTestServer(t, Options{CacheDir: cacheDir})
			id := mustRun(t, ctx, c, req)
			first := fetchAll(t, c, id)
			before, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}

			if err := os.WriteFile(entryFile(t, cacheDir, fileSeries), []byte("tampered\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			result, err := c.ResultBytes(ctx, id)
			if err != nil || !bytes.Equal(result, first[0]) {
				t.Errorf("intact result beside a damaged series: %v, identical %v", err, bytes.Equal(result, first[0]))
			}
			for i := 0; i < 2; i++ {
				if data, err := c.SeriesCSV(ctx, id); err == nil {
					t.Fatalf("fetch %d served a damaged series: %q", i, data)
				}
			}

			sub, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Cached {
				t.Errorf("resubmission after damage answered from the cache: %+v", sub)
			}
			if st, err := c.Wait(ctx, sub.JobID, 10*time.Millisecond); err != nil || st.State != client.StateDone {
				t.Fatalf("re-execution: %v %+v", err, st)
			}
			after, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if after.Executed-before.Executed != 1 {
				t.Errorf("executed %d -> %d, want exactly one re-execution", before.Executed, after.Executed)
			}
			again := fetchAll(t, c, id)
			for i := range again {
				if !bytes.Equal(again[i], first[i]) {
					t.Errorf("%s after repair differs from the first fetch", artifactPaths[i])
				}
			}
		})
	}
}

// TestManifestSpec pins the manifest of a freshly executed entry to the
// normalized spec of what was submitted — the bytes Submit no longer
// renders for a hit, built only for the job it queues — and the
// meta.json format itself: the file is the indented cacheMeta of that
// spec, byte for byte.
func TestManifestSpec(t *testing.T) {
	cacheDir := t.TempDir()
	_, c := newTestServer(t, Options{CacheDir: cacheDir})
	ctx := testCtx(t)

	scenario, err := dtnsim.ParseScenario([]byte(quickScenarioRespelled))
	if err != nil {
		t.Fatal(err)
	}
	norm, err := scenario.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	scSpec, err := norm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := dtnsim.ParseSweepSpec([]byte(quickSweepRespelled))
	if err != nil {
		t.Fatal(err)
	}
	swNorm, err := sweep.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	swSpec, err := swNorm.JSON()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		req  client.SubmitRequest
		spec []byte
	}{
		{client.SubmitRequest{Scenario: []byte(quickScenarioRespelled)}, scSpec},
		{client.SubmitRequest{Sweep: []byte(quickSweepRespelled)}, swSpec},
	} {
		id := mustRun(t, ctx, c, tc.req)
		kind, key, err := splitJobID(id)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(cacheDir, kind, key[:2], key, fileMeta))
		if err != nil {
			t.Fatal(err)
		}
		var meta cacheMeta
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(cacheMeta{Kind: kind, Key: key, Spec: tc.spec, Files: meta.Files}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s meta.json:\n%s\nwant the manifest of the normalized spec:\n%s", kind, raw, want)
		}
	}
}

// TestArtifactContentLength: an artifact goes out with its length
// declared, not chunked.
func TestArtifactContentLength(t *testing.T) {
	_, c, url := newTestServerURL(t, Options{})
	id := mustRun(t, testCtx(t), c, client.SubmitRequest{Scenario: []byte(paperScenario)})
	for _, path := range artifactPaths {
		resp, err := http.Get(url + "/v1/jobs/" + id + "/" + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: HTTP %d, Content-Length %d for %d bytes, Transfer-Encoding %v",
				path, resp.StatusCode, resp.ContentLength, len(body), resp.TransferEncoding)
		}
	}
}

// TestArtifactBodyEndsAfterHandler: a client never has a whole artifact
// before the handler serving it has returned, so a handler's time nests
// inside the round trip that waited for it — the invariant request
// tracing checks. A wrapper holds the handler's return open; the fetch
// must still be waiting when it is released.
func TestArtifactBodyEndsAfterHandler(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	ctx := testCtx(t)
	id := mustRun(t, ctx, c, client.SubmitRequest{Scenario: []byte(paperScenario)})
	want, err := c.EventsCSV(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	held := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
		<-release
	}))
	defer held.Close()
	type fetched struct {
		data []byte
		err  error
	}
	done := make(chan fetched, 1)
	go func() {
		data, err := client.New(held.URL).EventsCSV(ctx, id)
		done <- fetched{data, err}
	}()
	var f fetched
	select {
	case f = <-done:
		t.Errorf("fetch completed (%d bytes, %v) before the handler returned", len(f.data), f.err)
		close(release)
		return
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if f = <-done; f.err != nil || !bytes.Equal(f.data, want) {
		t.Errorf("fetch after release: %d bytes, %v; want the %d-byte artifact", len(f.data), f.err, len(want))
	}
}

// TestArtifactAllocBudget bounds what serving a cached artifact
// allocates: the file's bytes once, plus a manifest decode. Verifying
// the whole entry per fetch would allocate every artifact again.
func TestArtifactAllocBudget(t *testing.T) {
	m, err := NewManager(Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	job, err := m.Submit(client.SubmitRequest{Scenario: []byte(paperScenario)})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	events, err := m.Artifact(job.ID, fileEvents)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 32<<10 {
		t.Fatalf("events.csv is %d bytes, too small for the budget to tell", len(events))
	}

	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := m.Artifact(job.ID, fileEvents); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.0f B per call for a %d B file", perCall, len(events))
	if budget := 1.25*float64(len(events)) + 16<<10; perCall > budget {
		t.Errorf("Artifact allocates %.0f B per call for a %d B file, budget %.0f B", perCall, len(events), budget)
	}
}
