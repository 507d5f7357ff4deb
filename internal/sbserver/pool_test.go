package sbserver

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

// TestHandlerPooledStateDoesNotAlias hammers both full-hash endpoints
// from many goroutines, each request with its own cookie and its own
// prefix set (of varying length, so the pooled request structs are
// reused across shapes). Every HTTP answer must equal a direct
// Server.FullHashes call for the same request, and after Flush every
// recorded probe must carry exactly its own request's cookie and
// prefixes. A pooled request, response or body buffer leaking into a
// probe or into another request's reply fails this test.
func TestHandlerPooledStateDoesNotAlias(t *testing.T) {
	s := New()
	defer mustClose(t, s)
	const listed = 64
	exprs := make([]string, listed)
	for i := range exprs {
		exprs[i] = fmt.Sprintf("site-%02d.example/", i)
	}
	// The lists overlap, so some prefixes answer with two entries.
	for name, part := range map[string][]string{
		"goog-malware-shavar":  exprs[:40],
		"googpub-phish-shavar": exprs[24:],
	} {
		if err := s.CreateList(name, name); err != nil {
			t.Fatal(err)
		}
		if err := s.AddExpressions(name, part); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	const workers, rounds = 8, 60
	var mu sync.Mutex
	sent := map[string][]hashx.Prefix{} // cookie -> prefixes of its one request
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			newReq := func(cookie string) wire.FullHashRequest {
				req := wire.FullHashRequest{ClientID: cookie, Prefixes: make([]hashx.Prefix, 1+rng.Intn(6))}
				for i := range req.Prefixes {
					if rng.Intn(2) == 0 {
						req.Prefixes[i] = hashx.SumPrefix(exprs[rng.Intn(listed)])
					} else {
						req.Prefixes[i] = hashx.Prefix(rng.Uint32())
					}
				}
				mu.Lock()
				sent[cookie] = req.Prefixes
				mu.Unlock()
				return req
			}
			for r := 0; r < rounds; r++ {
				cookie := fmt.Sprintf("w%d-r%02d", w, r)
				if r%3 == 2 {
					batch := wire.FullHashBatchRequest{Requests: make([]wire.FullHashRequest, 1+rng.Intn(4))}
					for i := range batch.Requests {
						batch.Requests[i] = newReq(fmt.Sprintf("%s-b%d", cookie, i))
					}
					got, err := postWire(ts, PathFullHashBatch, &batch, wire.DecodeFullHashBatchResponse)
					if err != nil {
						t.Error(err)
						return
					}
					if len(got.Responses) != len(batch.Requests) {
						t.Errorf("batch %s: %d responses for %d requests", cookie, len(got.Responses), len(batch.Requests))
						return
					}
					for i := range batch.Requests {
						checkDirect(t, s, &batch.Requests[i], &got.Responses[i])
					}
					continue
				}
				req := newReq(cookie)
				got, err := postWire(ts, PathFullHash, &req, wire.DecodeFullHashResponse)
				if err != nil {
					t.Error(err)
					return
				}
				checkDirect(t, s, &req, got)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	s.Flush()
	seen := map[string]int{}
	for _, p := range s.Probes() {
		want, ok := sent[p.ClientID]
		if !ok {
			t.Errorf("probe from cookie %q that sent no request", p.ClientID)
			continue
		}
		if !slices.Equal(p.Prefixes, want) {
			t.Errorf("probe %q carries %v, its request sent %v", p.ClientID, p.Prefixes, want)
		}
		seen[p.ClientID]++
	}
	// One probe for the HTTP request, one for the direct comparison.
	for cookie := range sent {
		if seen[cookie] != 2 {
			t.Errorf("cookie %q: %d probes, want 2", cookie, seen[cookie])
		}
	}
}

// checkDirect requires an HTTP answer to equal Server.FullHashes on
// the same request.
func checkDirect(t *testing.T, s *Server, req *wire.FullHashRequest, got *wire.FullHashResponse) {
	t.Helper()
	want, err := s.FullHashes(req)
	if err != nil {
		t.Errorf("direct FullHashes %q: %v", req.ClientID, err)
		return
	}
	if got.CacheSeconds != want.CacheSeconds || !slices.Equal(got.Entries, want.Entries) {
		t.Errorf("request %q over HTTP = %+v, direct = %+v", req.ClientID, got, want)
	}
}

// postWire posts m's encoding to path and decodes a 200 answer.
func postWire[M any](ts *httptest.Server, path string, m interface {
	AppendBinary([]byte) ([]byte, error)
}, decode func(io.Reader) (*M, error)) (*M, error) {
	body, err := m.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return decode(resp.Body)
}
