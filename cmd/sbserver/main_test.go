package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// TestSlowBodyReleasesInflightSlot shows the read timeout bounding a
// client that announces a body and then trickles nothing more: with
// -max-inflight 1 the stalled request holds the only slot, so another
// request is shed with 429, until the read deadline fails the body
// read and the handler returns the slot.
func TestSlowBodyReleasesInflightSlot(t *testing.T) {
	s := sbserver.New()
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	limiter := sbserver.NewLimiter(sbserver.LimitConfig{MaxInFlight: 1})
	srv := newHTTPServer("", sbserver.Handler(s, sbserver.WithLimiter(limiter)))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout ||
		srv.WriteTimeout != writeTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts = %v/%v/%v/%v, want the connection bounds",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	// Shrink the read bound so the test waits a fraction of a second
	// instead of readTimeout.
	const bound = 500 * time.Millisecond
	srv.ReadTimeout = bound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close() //nolint:errcheck // test server
		<-served
	}()
	url := "http://" + ln.Addr().String() + sbserver.PathFullHash

	// The slow client: headers promising 64 bytes, then only the
	// three-byte message header.
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close() //nolint:errcheck // test connection
	fmt.Fprintf(slow, "POST %s HTTP/1.1\r\nHost: sb\r\nContent-Type: application/octet-stream\r\nContent-Length: 64\r\n\r\n", sbserver.PathFullHash)
	if _, err := slow.Write([]byte{wire.Magic, wire.Version, byte(wire.MsgFullHashRequest)}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for limiter.Stats().Allowed == 0 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the slow request never reached the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}

	body, err := (&wire.FullHashRequest{ClientID: "prompt"}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	post := func() int {
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // test response
		return resp.StatusCode
	}
	if code := post(); code != http.StatusTooManyRequests {
		t.Fatalf("request beside the stalled one: status %d, want 429 while the slot is held", code)
	}
	for {
		code := post()
		if code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429 or 200", code)
		}
		if time.Since(start) > 10*bound {
			t.Fatalf("slot still held %v after the stalled body began (read bound %v)", time.Since(start), bound)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if held := time.Since(start); held < bound/2 {
		t.Errorf("slot released after %v, before the read bound %v could fire", held, bound)
	}
}
