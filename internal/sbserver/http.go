package sbserver

import (
	"errors"
	"log"
	"net/http"
	"strconv"
	"sync"

	"sbprivacy/internal/wire"
)

// HTTP endpoints. The Safe Browsing service lives at the application
// layer of the standard Internet stack (paper Section 2.2).
const (
	PathDownloads     = "/safebrowsing/downloads"
	PathFullHash      = "/safebrowsing/gethash"
	PathFullHashBatch = "/safebrowsing/gethash/batch"
)

// HandlerOption configures the HTTP handler returned by Handler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	limiter *Limiter
}

// WithLimiter places a Limiter in front of every endpoint: requests
// over the admission rate or the in-flight cap are answered 429 with a
// Retry-After hint before any body is read.
func WithLimiter(l *Limiter) HandlerOption {
	return func(c *handlerConfig) { c.limiter = l }
}

// Handler exposes the server over HTTP. Requests and responses use the
// binary wire format with content type application/octet-stream.
// Request bodies are capped at the maximum encoded size of each
// message (http.MaxBytesReader over the wire-format bounds), so a
// client cannot stream an unbounded body at a decoder: anything larger
// necessarily violates a field limit and would be rejected anyway.
// Options add server-side overload controls (WithLimiter).
func Handler(s *Server, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathDownloads, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, wire.MaxDownloadRequestWireBytes)
		req, err := wire.DecodeDownloadRequest(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.Download(req)
		if err != nil {
			// Only an unknown list is the client's fault; anything else
			// is a server-side failure and must not masquerade as "no
			// such resource".
			status := http.StatusInternalServerError
			if errors.Is(err, ErrUnknownList) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := resp.Encode(w); err != nil {
			log.Printf("sbserver: encode download response: %v", err)
		}
	})
	mux.HandleFunc(PathFullHash, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, wire.MaxFullHashRequestWireBytes)
		x := exchangePool.Get().(*exchange)
		defer exchangePool.Put(x)
		if err := wire.DecodeFullHashRequestInto(r.Body, &x.req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.fullHashes(&x.req, &x.resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeMessage(w, &x.resp, "fullhash")
	})
	mux.HandleFunc(PathFullHashBatch, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, wire.MaxFullHashBatchRequestWireBytes)
		x := exchangePool.Get().(*exchange)
		defer exchangePool.Put(x)
		if err := wire.DecodeFullHashBatchRequestInto(r.Body, &x.batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := len(x.batch.Requests)
		if cap(x.out.Responses) < n {
			x.out.Responses = make([]wire.FullHashResponse, n)
		}
		x.out.Responses = x.out.Responses[:n]
		if err := s.fullHashesBatch(x.batch.Requests, x.out.Responses); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeMessage(w, &x.out, "fullhash batch")
	})
	if cfg.limiter != nil {
		return cfg.limiter.Wrap(mux)
	}
	return mux
}

// exchange is the pooled state of one full-hash handler call: the
// decoded request and the response. Nothing in it outlives the call:
// fullHashes gives the recorded probe its own copy of the prefixes,
// and the response is encoded and written before the exchange returns
// to the pool.
type exchange struct {
	req   wire.FullHashRequest
	resp  wire.FullHashResponse
	batch wire.FullHashBatchRequest
	out   wire.FullHashBatchResponse
}

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// writeMessage append-encodes m into a pooled wire buffer and sends it
// as the whole response body, in one Write with an explicit
// Content-Length.
func writeMessage(w http.ResponseWriter, m interface {
	AppendBinary([]byte) ([]byte, error)
}, what string) {
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	var err error
	if *bp, err = m.AppendBinary(*bp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(*bp)))
	if _, err := w.Write(*bp); err != nil {
		log.Printf("sbserver: write %s response: %v", what, err)
	}
}
