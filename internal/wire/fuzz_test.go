package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"

	"sbprivacy/internal/hashx"
)

// fullHashMessage is what the full-hash fuzz targets need of a message:
// its two encoders.
type fullHashMessage interface {
	binaryAppender
	Encode(w io.Writer) error
}

// fuzzFullHashDecoder is the body shared by the full-hash decoder fuzz
// targets. For arbitrary input it checks that:
//   - decoding does not panic, and a caller-supplied 16-byte
//     bufio.Reader (too small for the pooled reader's one-Peek string
//     read) reaches the same verdict and message as the pooled path;
//   - a successful decode re-encodes to bytes that decode equal;
//   - Encode writes exactly the bytes AppendBinary appends;
//   - a valid message decoded right after, on the same goroutine,
//     comes back intact, so no pooled state leaks from one call into
//     the next.
func fuzzFullHashDecoder[M fullHashMessage](t *testing.T, data []byte, decode func(io.Reader) (M, error), valid M) {
	m, err := decode(bytes.NewReader(data))
	small, smallErr := decode(bufio.NewReaderSize(bytes.NewReader(data), 16))
	if (err == nil) != (smallErr == nil) {
		t.Fatalf("pooled reader err = %v, small bufio.Reader err = %v", err, smallErr)
	}
	if err == nil {
		if !reflect.DeepEqual(m, small) {
			t.Fatalf("pooled reader decoded %+v, small bufio.Reader %+v", m, small)
		}
		checkFullHashReencode(t, m, decode)
	}
	checkFullHashReencode(t, valid, decode)
}

// checkFullHashReencode encodes m both ways, requires the bytes to
// agree, and requires them to decode to a message equal to m.
func checkFullHashReencode[M fullHashMessage](t *testing.T, m M, decode func(io.Reader) (M, error)) {
	t.Helper()
	enc, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatalf("AppendBinary of a decoded message: %v", err)
	}
	var w bytes.Buffer
	if err := m.Encode(&w); err != nil {
		t.Fatalf("Encode of a decoded message: %v", err)
	}
	if !bytes.Equal(w.Bytes(), enc) {
		t.Fatalf("Encode wrote %x, AppendBinary appended %x", w.Bytes(), enc)
	}
	back, err := decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode of re-encoded %x: %v", enc, err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("re-encoded message decoded to %+v, want %+v", back, m)
	}
}

func FuzzDecodeFullHashRequest(f *testing.F) {
	valid, _ := fullHashFixtures()
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFullHashDecoder(t, data, DecodeFullHashRequest, valid)
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
		fuzzFullHashDecoder(t, data, DecodeFullHashResponse, valid)
	})
}

func FuzzDecodeFullHashBatchRequest(f *testing.F) {
	req, _ := fullHashFixtures()
	valid := &FullHashBatchRequest{Requests: []FullHashRequest{
		*req, {ClientID: "other", Prefixes: []hashx.Prefix{7}},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFullHashDecoder(t, data, DecodeFullHashBatchRequest, valid)
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
		fuzzFullHashDecoder(t, data, DecodeFullHashBatchResponse, valid)
	})
}
