package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"

	"sbprivacy/internal/hashx"
)

// encoder is what the decoder fuzz targets need of a message.
type encoder interface {
	Encode(w io.Writer) error
}

// fuzzDecoder is the body shared by the decoder fuzz targets. For
// arbitrary input it checks that:
//   - decoding does not panic, and a caller-supplied 16-byte
//     bufio.Reader (too small for the pooled reader's one-Peek string
//     read) reaches the same verdict and message as the pooled path;
//   - a successful decode re-encodes to bytes that decode equal;
//   - Encode writes exactly the bytes AppendBinary appends, for the
//     messages that have both;
//   - a valid message decoded right after, on the same goroutine,
//     comes back intact, so no pooled state leaks from one call into
//     the next.
//
// It returns the decoded message, how many bytes of data the decoder
// consumed, and the decode error.
func fuzzDecoder[M encoder](t *testing.T, data []byte, decode func(io.Reader) (M, error), valid M) (M, int, error) {
	m, err := decode(bytes.NewReader(data))
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, 16)
	small, smallErr := decode(br)
	consumed := len(data) - src.Len() - br.Buffered()
	if (err == nil) != (smallErr == nil) {
		t.Fatalf("pooled reader err = %v, small bufio.Reader err = %v", err, smallErr)
	}
	if err == nil {
		if !reflect.DeepEqual(m, small) {
			t.Fatalf("pooled reader decoded %+v, small bufio.Reader %+v", m, small)
		}
		checkReencode(t, m, decode)
	}
	checkReencode(t, valid, decode)
	return m, consumed, err
}

// checkReencode encodes m (both ways, if it is a binaryAppender, and
// requires the bytes to agree) and requires the bytes to decode to a
// message equal to m.
func checkReencode[M encoder](t *testing.T, m M, decode func(io.Reader) (M, error)) []byte {
	t.Helper()
	var w bytes.Buffer
	if err := m.Encode(&w); err != nil {
		t.Fatalf("Encode of a decoded message: %v", err)
	}
	if a, ok := any(m).(binaryAppender); ok {
		enc, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatalf("AppendBinary of a decoded message: %v", err)
		}
		if !bytes.Equal(w.Bytes(), enc) {
			t.Fatalf("Encode wrote %x, AppendBinary appended %x", w.Bytes(), enc)
		}
	}
	back, err := decode(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("decode of re-encoded %x: %v", w.Bytes(), err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("re-encoded message decoded to %+v, want %+v", back, m)
	}
	return w.Bytes()
}

func FuzzDecodeFullHashRequest(f *testing.F) {
	valid, _ := fullHashFixtures()
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecoder(t, data, DecodeFullHashRequest, valid)
		// The handlers' pattern: decode into one reused struct, a
		// failed decode included, then a valid one.
		var into FullHashRequest
		_ = DecodeFullHashRequestInto(bytes.NewReader(data), &into)
		enc, err := valid.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeFullHashRequestInto(bytes.NewReader(enc), &into); err != nil {
			t.Fatalf("valid request after reuse: %v", err)
		}
		if !reflect.DeepEqual(&into, valid) {
			t.Fatalf("reused request decoded to %+v, want %+v", &into, valid)
		}
	})
}

func FuzzDecodeFullHashResponse(f *testing.F) {
	_, valid := fullHashFixtures()
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecoder(t, data, DecodeFullHashResponse, valid)
	})
}

func FuzzDecodeFullHashBatchRequest(f *testing.F) {
	req, _ := fullHashFixtures()
	valid := &FullHashBatchRequest{Requests: []FullHashRequest{
		*req, {ClientID: "other", Prefixes: []hashx.Prefix{7}},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecoder(t, data, DecodeFullHashBatchRequest, valid)
		var into FullHashBatchRequest
		_ = DecodeFullHashBatchRequestInto(bytes.NewReader(data), &into)
		enc, err := valid.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeFullHashBatchRequestInto(bytes.NewReader(enc), &into); err != nil {
			t.Fatalf("valid batch after reuse: %v", err)
		}
		if !reflect.DeepEqual(&into, valid) {
			t.Fatalf("reused batch decoded to %+v, want %+v", &into, valid)
		}
	})
}

func FuzzDecodeFullHashBatchResponse(f *testing.F) {
	_, resp := fullHashFixtures()
	valid := &FullHashBatchResponse{Responses: []FullHashResponse{*resp, {CacheSeconds: 60, Entries: []FullHashEntry{}}}}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecoder(t, data, DecodeFullHashBatchResponse, valid)
	})
}

func FuzzDecodeDownloadRequest(f *testing.F) {
	valid := &DownloadRequest{ClientID: "cookie-0123456789", States: []ListState{
		{List: "goog-malware-shavar", LastChunk: 12},
		{List: "googpub-phish-shavar"},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, consumed, err := fuzzDecoder(t, data, DecodeDownloadRequest, valid)
		if err != nil {
			return
		}
		// The HTTP handler caps the body at MaxDownloadRequestWireBytes;
		// every request the decoder accepts must fit under that cap,
		// as read and as re-encoded.
		if consumed > MaxDownloadRequestWireBytes {
			t.Fatalf("accepted request consumed %d bytes > MaxDownloadRequestWireBytes %d", consumed, MaxDownloadRequestWireBytes)
		}
		var w bytes.Buffer
		if err := m.Encode(&w); err != nil {
			t.Fatal(err)
		}
		if w.Len() > MaxDownloadRequestWireBytes {
			t.Fatalf("accepted request re-encodes to %d bytes > MaxDownloadRequestWireBytes %d", w.Len(), MaxDownloadRequestWireBytes)
		}
	})
}

func FuzzDecodeDownloadResponse(f *testing.F) {
	valid := &DownloadResponse{MinWaitSeconds: 1800, Chunks: []Chunk{
		{List: "goog-malware-shavar", Num: 1, Type: ChunkAdd, Prefixes: []hashx.Prefix{0xe70ee6d1, 0x33a02ef5}},
		{List: "goog-malware-shavar", Num: 2, Type: ChunkSub, Prefixes: []hashx.Prefix{0x33a02ef5}},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecoder(t, data, DecodeDownloadResponse, valid)
	})
}
