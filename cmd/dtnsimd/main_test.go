package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: a client that never finishes its headers, or
// an idle keep-alive connection, cannot hold a connection forever; a
// slow reader of a large artifact is not cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut off a streaming artifact", s.WriteTimeout)
	}
}
