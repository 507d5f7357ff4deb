package sbclient

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// LocalTransport wires a client to an in-process server: the transport
// used by tests, experiments and benchmarks.
type LocalTransport struct {
	Server *sbserver.Server
}

var _ Transport = LocalTransport{}

// Download implements Transport.
func (t LocalTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Server.Download(req)
}

// FullHashes implements Transport.
func (t LocalTransport) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Server.FullHashes(req)
}

// FullHashesBatch issues several full-hash requests in one call.
func (t LocalTransport) FullHashesBatch(ctx context.Context, reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Server.FullHashesBatch(reqs)
}

// StatusError is the typed error HTTPTransport returns for a non-200
// HTTP response. It preserves the status code and the server's
// Retry-After hint so a retry layer (RetryTransport) can distinguish
// overload (429, 5xx) from a client mistake (other 4xx) and pace its
// retries the way the server asked.
type StatusError struct {
	// Path is the endpoint that answered, e.g. "/safebrowsing/gethash".
	Path string
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// RetryAfter is the parsed Retry-After delay, zero when the header
	// was absent or unparseable. Only delay-seconds form is recognized.
	RetryAfter time.Duration
	// Body holds up to the first 512 bytes of the response body.
	Body string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("sbclient: %s returned %d: %s", e.Path, e.StatusCode, e.Body)
}

// HTTPTransport talks to a remote server over HTTP using the binary wire
// format.
type HTTPTransport struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8045".
	BaseURL string
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
}

var _ Transport = HTTPTransport{}

func (t HTTPTransport) httpClient() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// post sends body to path and returns the body of a 200 response.
// net/http may read body until the returned ReadCloser is closed; after
// an error it may still hold it, so the caller must not reuse it then.
func (t HTTPTransport) post(ctx context.Context, path string, body []byte) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("sbclient: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("sbclient: post %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close() //nolint:errcheck // already failing
		return nil, &StatusError{
			Path:       path,
			StatusCode: resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			Body:       string(bytes.TrimSpace(msg)),
		}
	}
	return resp.Body, nil
}

// binaryAppender is the encoding.BinaryAppender method set, which the
// full-hash messages implement.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// postMessage encodes m into a pooled wire buffer, posts it to path and
// decodes the 200 response with decode. net/http may read the request
// body until the response body is closed, so the buffer goes back to
// the pool only after that; after a failed round trip it is left to
// the collector.
func postMessage[T any](ctx context.Context, t HTTPTransport, path string, m binaryAppender, decode func(io.Reader) (T, error)) (T, error) {
	var zero T
	bp := wire.GetBuffer()
	var err error
	if *bp, err = m.AppendBinary(*bp); err != nil {
		wire.PutBuffer(bp)
		return zero, fmt.Errorf("sbclient: encode request: %w", err)
	}
	body, err := t.post(ctx, path, *bp)
	if err != nil {
		return zero, err
	}
	out, err := decode(body)
	body.Close() //nolint:errcheck // read-side close
	wire.PutBuffer(bp)
	return out, err
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header.
// HTTP-date form and garbage both yield zero: the retry layer then falls
// back to its own backoff schedule.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Download implements Transport. Download requests stream through
// the wire writer rather than a pooled buffer: they are rare, and their
// responses can be megabytes.
func (t HTTPTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	var buf bytes.Buffer
	if err := req.Encode(&buf); err != nil {
		return nil, fmt.Errorf("sbclient: encode request: %w", err)
	}
	body, err := t.post(ctx, sbserver.PathDownloads, buf.Bytes())
	if err != nil {
		return nil, err
	}
	defer body.Close() //nolint:errcheck // read-side close
	return wire.DecodeDownloadResponse(body)
}

// FullHashes implements Transport. The request is encoded into a pooled
// buffer, and nothing of req is kept after the call returns; the
// response is freshly allocated and owned by the caller.
func (t HTTPTransport) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	return postMessage(ctx, t, sbserver.PathFullHash, req, wire.DecodeFullHashResponse)
}

// FullHashesBatch issues several full-hash requests against the
// server's batch endpoint, transparently splitting into frames of at
// most wire.MaxBatchRequests per HTTP round trip.
func (t HTTPTransport) FullHashesBatch(ctx context.Context, reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error) {
	out := make([]*wire.FullHashResponse, 0, len(reqs))
	for start := 0; start < len(reqs); start += wire.MaxBatchRequests {
		end := start + wire.MaxBatchRequests
		if end > len(reqs) {
			end = len(reqs)
		}
		frame := reqs[start:end]
		batch := wire.FullHashBatchRequest{Requests: make([]wire.FullHashRequest, len(frame))}
		for i, req := range frame {
			batch.Requests[i] = *req
		}
		resp, err := postMessage(ctx, t, sbserver.PathFullHashBatch, &batch, wire.DecodeFullHashBatchResponse)
		if err != nil {
			return nil, err
		}
		if len(resp.Responses) != len(frame) {
			return nil, fmt.Errorf("sbclient: batch returned %d responses for %d requests", len(resp.Responses), len(frame))
		}
		for i := range resp.Responses {
			out = append(out, &resp.Responses[i])
		}
	}
	return out, nil
}
