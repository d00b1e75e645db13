package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTerminal(t *testing.T) {
	for state, want := range map[string]bool{
		StatePending:   false,
		StateRunning:   false,
		StateDone:      true,
		StateFailed:    true,
		StateCancelled: true,
	} {
		if got := (JobStatus{State: state}).Terminal(); got != want {
			t.Errorf("Terminal(%s) = %v, want %v", state, got, want)
		}
	}
}

func TestSubmitRequestOmitsEmptySpecs(t *testing.T) {
	// The server distinguishes scenario from sweep submissions by which
	// field is present, so an unset field must be absent, not null.
	data, err := json.Marshal(SubmitRequest{Scenario: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"scenario":{}}` {
		t.Errorf("marshalled request: %s", data)
	}
}

func TestSweepPointNullValue(t *testing.T) {
	// null metric values decode to nil pointers (the NaN encoding).
	var p SweepPoint
	if err := json.Unmarshal([]byte(`{"load":5,"values":{"delay":null,"delivery":0.8}}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Values["delay"] != nil {
		t.Errorf("null delay decoded to %v", *p.Values["delay"])
	}
	if v := p.Values["delivery"]; v == nil || *v != 0.8 {
		t.Errorf("delivery decoded to %v", v)
	}
}

// rawServer answers every request on a fresh listener with the given
// bytes verbatim and closes the connection, so a test can put on the
// wire what no net/http server would write.
func rawServer(t *testing.T, response string) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
				_, _ = conn.Write([]byte(response))
			}
			conn.Close()
		}
	}()
	return New("http://" + ln.Addr().String())
}

func rawCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestArtifactBodies: a body is read whole whether its length is
// declared or it comes chunked, and a declared length the body does not
// reach is an error, never a short success.
func TestArtifactBodies(t *testing.T) {
	body := strings.Repeat("time,event\n", 1000)
	chunked := "1000\r\n" + body[:0x1000] + "\r\n" + "0\r\n\r\n"
	for _, tc := range []struct {
		name     string
		response string
		want     string
	}{
		{"honest length", "HTTP/1.1 200 OK\r\nContent-Length: 11000\r\n\r\n" + body, body},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked, body[:0x1000]},
		{"empty", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", ""},
	} {
		got, err := rawServer(t, tc.response).SeriesCSV(rawCtx(t), "sc-x")
		if err != nil || !bytes.Equal(got, []byte(tc.want)) {
			t.Errorf("%s: %d bytes, %v; want %d bytes", tc.name, len(got), err, len(tc.want))
		}
	}

	short := "HTTP/1.1 200 OK\r\nContent-Length: 11001\r\n\r\n" + body
	if got, err := rawServer(t, short).SeriesCSV(rawCtx(t), "sc-x"); err == nil {
		t.Errorf("declared length past the body: %d bytes and no error", len(got))
	}
}

// TestArtifactAbsurdLength: a 1 TiB Content-Length in front of a tiny
// body fails without reserving anything near the declared size.
func TestArtifactAbsurdLength(t *testing.T) {
	c := rawServer(t, "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\ntiny")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := c.EventsCSV(rawCtx(t), "sc-x")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("1 TiB declared, 4 bytes sent: %q and no error", got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("fetch allocated %d bytes for a 4-byte body", alloc)
	}
}
