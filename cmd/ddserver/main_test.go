package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts: the listener never runs with Go's
// unbounded defaults, under which a slow or stalled client holds a
// connection forever.
func TestNewHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive timeout", name, d)
		}
	}
}
