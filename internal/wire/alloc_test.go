package wire

import (
	"bufio"
	"bytes"
	"testing"

	"sbprivacy/internal/hashx"
)

// TestWireHotPathAllocs is the runtime half of the hotalloc gate on the
// wire codec's fixed-size field helpers. Before the scratch-buffer
// refactor every helper cost exactly 1 alloc/op: the local array backing
// the field escaped through the io.Writer/io.Reader interface call.
// With the scratch arrays on writer/reader the measured counts are 0,
// and this test pins them there (measured-or-better: the gate is the
// count at the time it landed, so a regression reads as a failure, not
// a new baseline).
func TestWireHotPathAllocs(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 16)
	e := &writer{w: &buf}

	writerGates := []struct {
		name string
		op   func()
	}{
		{"header", func() { e.header(MsgFullHashRequest) }},
		{"uvarint", func() { e.uvarint(1 << 40) }},
		{"prefix", func() { e.prefix(hashx.Prefix(0xdeadbeef)) }},
	}
	for _, g := range writerGates {
		buf.Reset()
		e.err = nil
		if allocs := testing.AllocsPerRun(1000, g.op); allocs != 0 {
			t.Errorf("writer.%s: %v allocs/op, want 0", g.name, allocs)
		}
	}
	if e.err != nil {
		t.Fatalf("writer error: %v", e.err)
	}

	// Reader side: replay a fixed byte stream through a reused
	// bufio.Reader so only the helper under test can allocate.
	raw := make([]byte, hashx.DigestSize)
	for i := range raw {
		raw[i] = byte(i)
	}
	var src bytes.Reader
	br := bufio.NewReader(&src)
	d := &reader{r: br}

	readerGates := []struct {
		name string
		op   func() error
	}{
		{"prefix", func() error { _, err := d.prefix(); return err }},
		{"digest", func() error { _, err := d.digest(); return err }},
	}
	for _, g := range readerGates {
		g := g
		allocs := testing.AllocsPerRun(1000, func() {
			src.Reset(raw)
			br.Reset(&src)
			if err := g.op(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("reader.%s: %v allocs/op, want 0", g.name, allocs)
		}
	}
}

// TestWireDecodeRoundTripAfterScratch guards the refactor itself: the
// scratch buffers are shared across fields, so a decode that interleaves
// header, string, prefix and digest reads must still reassemble the
// exact message.
func TestWireDecodeRoundTripAfterScratch(t *testing.T) {
	resp := &FullHashResponse{
		CacheSeconds: 300,
		Entries: []FullHashEntry{
			{List: "goog-malware-shavar", Digest: hashx.Sum("evil.example/")},
			{List: "googpub-phish-shavar", Digest: hashx.Sum("phish.example/")},
		},
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFullHashResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheSeconds != resp.CacheSeconds || len(got.Entries) != len(resp.Entries) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range got.Entries {
		if got.Entries[i] != resp.Entries[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got.Entries[i], resp.Entries[i])
		}
	}
}

// fullHashFixtures returns a two-prefix request and a two-entry
// response, the shape of one browser lookup.
func fullHashFixtures() (*FullHashRequest, *FullHashResponse) {
	req := &FullHashRequest{
		ClientID: "cookie-0123456789",
		Prefixes: []hashx.Prefix{0xe70ee6d1, 0x33a02ef5},
	}
	resp := &FullHashResponse{
		CacheSeconds: 300,
		Entries: []FullHashEntry{
			{List: "goog-malware-shavar", Digest: hashx.Sum("evil.example/")},
			{List: "googpub-phish-shavar", Digest: hashx.Sum("phish.example/")},
		},
	}
	return req, resp
}

// TestFullHashCodecAllocs pins the full-hash round trip's codec
// allocations at their measured counts (measured-or-better, like
// TestWireHotPathAllocs):
//   - AppendBinary into a presized buffer allocates nothing;
//   - DecodeFullHashResponse allocates its result, its entries and one
//     string per entry's list name, and nothing for the pooled reader;
//   - decoding a request into a reused struct allocates only the
//     client id string.
func TestFullHashCodecAllocs(t *testing.T) {
	req, resp := fullHashFixtures()
	buf := make([]byte, 0, 1024)

	appendGates := []struct {
		name string
		m    binaryAppender
	}{
		{"FullHashRequest", req},
		{"FullHashResponse", resp},
		{"FullHashBatchRequest", &FullHashBatchRequest{Requests: []FullHashRequest{*req, *req}}},
		{"FullHashBatchResponse", &FullHashBatchResponse{Responses: []FullHashResponse{*resp, *resp}}},
	}
	for _, g := range appendGates {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := g.m.AppendBinary(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s.AppendBinary: %v allocs/op, want 0", g.name, allocs)
		}
	}

	encResp, err := resp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Reader
	// result + entries + one list string per entry
	wantResp := float64(2 + len(resp.Entries))
	allocs := testing.AllocsPerRun(1000, func() {
		src.Reset(encResp)
		if _, err := DecodeFullHashResponse(&src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > wantResp {
		t.Errorf("DecodeFullHashResponse: %v allocs/op, want <= %v", allocs, wantResp)
	}

	encReq, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var into FullHashRequest
	allocs = testing.AllocsPerRun(1000, func() {
		src.Reset(encReq)
		if err := DecodeFullHashRequestInto(&src, &into); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("DecodeFullHashRequestInto (reused struct): %v allocs/op, want <= 1 (the client id)", allocs)
	}
}
