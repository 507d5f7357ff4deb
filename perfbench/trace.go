package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/wire"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kRequest          spanKind = iota // serve: the benchmark's call for one request
	kClientFullHashes                 // sbclient.HTTPTransport.FullHashes
	kRoundTrip                        // http.RoundTripper.RoundTrip
	kHandler                          // sbserver.Handler ServeHTTP
	kServerFullHashes                 // Server.FullHashes behind a sbclient.Transport
	kDownload                         // Server.Download behind a sbclient.Transport
	kVisit                            // campaign: one visit
	kSync                             // Client.Update
	kCheckHit                         // Client.CheckURL with a local hit
	kCheckMiss                        // Client.CheckURL without one
	kFlush                            // Server.Flush, the per-visit barrier
	kApply                            // prefixdb.Updatable.Apply
	kStoreObserve                     // probestore.Store as a ProbeSink
	kReidentObserve                   // per stage: Observe, Advance, Snapshot
	kReidentAdvance
	kReidentSnapshot
	kLinkageObserve
	kLinkageAdvance
	kLinkageSnapshot
	kBurst  // churn: one add+remove burst and the client sync after it
	kAdd    // Server.AddExpressions
	kRemove // Server.RemoveExpressions
	numKinds
)

var kindNames = [numKinds]string{
	"request", "sbclient.fullhashes", "nethttp.roundtrip", "sbserver.handler",
	"sbserver.fullhashes", "sbserver.download", "visit", "sbclient.sync",
	"sbclient.checkurl.hit", "sbclient.checkurl.miss", "sbserver.flush",
	"prefixdb.apply", "probestore.observe",
	"stream.reident.observe", "stream.reident.advance", "stream.reident.snapshot",
	"stream.linkage.observe", "stream.linkage.advance", "stream.linkage.snapshot",
	"burst", "sbserver.add", "sbserver.remove",
}

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer's epoch; parent indexes the tracer's
// span slice (-1 for a root); spans of one request share trace.
type span struct {
	start, end int64
	parent     int32
	trace      uint32
	kind       spanKind
}

// spanRef identifies a recorded span; the zero-trace ref with idx -1
// means "no parent".
type spanRef struct {
	trace uint32
	idx   int32
}

var noSpan = spanRef{idx: -1}

// counter aggregates a call too fine-grained for a span each.
type counter struct {
	n, ns atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.n.Add(1)
	c.ns.Add(int64(d))
}

func (c *counter) meanNs() float64 {
	if n := c.n.Load(); n > 0 {
		return float64(c.ns.Load()) / float64(n)
	}
	return 0
}

// tracer keeps every span in memory for the run and writes them out at
// the end. A nil *tracer is the untraced run: every method is a no-op,
// so the workloads call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// from is the first span of the measured phase. Earlier spans are
	// kept, not truncated, so a span still open at reset (a handler or
	// drainer that outlives its request) closes into its own slot.
	from   int
	traces atomic.Uint32
	// current is the span that sink and store wrappers, which are handed
	// no context, attach to: the visit or burst the single driving
	// goroutine is inside. Zero means none (serve, whose probes are
	// drained asynchronously).
	current atomic.Uint64

	contains counter // prefixdb.Store.Contains
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reset drops what set-up and warm-up recorded, so the spans cover the
// measured phase only.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.from = len(t.spans)
	t.mu.Unlock()
	t.contains.n.Store(0)
	t.contains.ns.Store(0)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(k spanKind, parent spanRef) spanRef {
	if t == nil {
		return noSpan
	}
	id := parent.trace
	if parent.idx < 0 {
		id = t.traces.Add(1)
	}
	start := t.now()
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{start: start, parent: parent.idx, trace: id, kind: k})
	t.mu.Unlock()
	return spanRef{trace: id, idx: idx}
}

func (t *tracer) end(r spanRef) { t.endAs(r, numKinds) }

// endAs closes a span and, unless k is numKinds, relabels it: CheckURL's
// outcome is known only when it returns.
func (t *tracer) endAs(r spanRef, k spanKind) {
	if t == nil || r.idx < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[r.idx].end = end
	if k != numKinds {
		t.spans[r.idx].kind = k
	}
	t.mu.Unlock()
}

func (t *tracer) setCurrent(r spanRef) {
	if t != nil {
		t.current.Store(uint64(r.trace)<<32 | uint64(uint32(r.idx)))
	}
}

func (t *tracer) currentSpan() spanRef {
	v := t.current.Load()
	if v == 0 {
		return noSpan
	}
	return spanRef{trace: uint32(v >> 32), idx: int32(uint32(v))}
}

// kindStats aggregates the spans of one kind.
type kindStats struct {
	count int
	total time.Duration
	self  time.Duration // total minus the time child spans cover
}

func (s kindStats) meanTotal() time.Duration { return s.mean(s.total) }
func (s kindStats) meanSelf() time.Duration  { return s.mean(s.self) }

func (s kindStats) mean(d time.Duration) time.Duration {
	if s.count == 0 {
		return 0
	}
	return d / time.Duration(s.count)
}

// summarize computes per-kind totals and self times. A child's share is
// clipped to its parent's interval, so a drainer span that outlives its
// visit is charged only for the overlap.
func (t *tracer) summarize() [numKinds]kindStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[t.from:]
	covered := make([]int64, len(spans))
	for _, s := range spans {
		pi := int(s.parent) - t.from
		if pi < 0 {
			continue // a root, or a parent from before the measured phase
		}
		p := spans[pi]
		if o := min(s.end, p.end) - max(s.start, p.start); o > 0 {
			covered[pi] += o
		}
	}
	var out [numKinds]kindStats
	for i, s := range spans {
		d := time.Duration(s.end - s.start)
		st := &out[s.kind]
		st.count++
		st.total += d
		st.self += max(d-time.Duration(covered[i]), 0)
	}
	return out
}

// write saves every span as tab-separated text, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tspan\tparent\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for i := t.from; i < len(t.spans); i++ {
		s := t.spans[i]
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.trace, i, s.parent, kindNames[s.kind], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	if r.idx < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		return r
	}
	return noSpan
}

// tracedTransport records a span around each call into a
// sbclient.Transport.
type tracedTransport struct {
	inner                sbclient.Transport
	tr                   *tracer
	fullHashes, download spanKind
}

func (t tracedTransport) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	r := t.tr.begin(t.fullHashes, spanFrom(ctx))
	defer t.tr.end(r)
	return t.inner.FullHashes(withSpan(ctx, r), req)
}

func (t tracedTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	r := t.tr.begin(t.download, spanFrom(ctx))
	defer t.tr.end(r)
	return t.inner.Download(withSpan(ctx, r), req)
}

// traceHeader carries "trace/span" from the client's round trip to the
// server's handler, so both sides' spans join one request.
const traceHeader = "X-Perfbench-Span"

type tracedRoundTripper struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.tr.begin(kRoundTrip, spanFrom(req.Context()))
	defer t.tr.end(r)
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, fmt.Sprintf("%d/%d", r.trace, r.idx))
	return t.base.RoundTrip(req)
}

type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r := t.tr.begin(kHandler, parseSpanHeader(req.Header.Get(traceHeader)))
	defer t.tr.end(r)
	t.h.ServeHTTP(w, req)
}

func parseSpanHeader(h string) spanRef {
	a, b, ok := strings.Cut(h, "/")
	if !ok {
		return noSpan
	}
	id, err1 := strconv.ParseUint(a, 10, 32)
	idx, err2 := strconv.ParseInt(b, 10, 32)
	if err1 != nil || err2 != nil {
		return noSpan
	}
	return spanRef{trace: uint32(id), idx: int32(idx)}
}

// tracedStore wraps a client's prefix store: Apply gets a span,
// Contains (several per visit) only a counter.
type tracedStore struct {
	prefixdb.Updatable
	tr *tracer
}

func (s tracedStore) Apply(add, remove []hashx.Prefix) {
	r := s.tr.begin(kApply, s.tr.currentSpan())
	defer s.tr.end(r)
	s.Updatable.Apply(add, remove)
}

func (s tracedStore) Contains(p hashx.Prefix) bool {
	t0 := time.Now()
	ok := s.Updatable.Contains(p)
	s.tr.contains.add(time.Since(t0))
	return ok
}

// tracedStoreFactory is the client's default store behind the wrapper.
func tracedStoreFactory(tr *tracer) sbclient.StoreFactory {
	return func() prefixdb.Updatable {
		return tracedStore{Updatable: prefixdb.NewDeltaStore(nil), tr: tr}
	}
}

type tracedSink struct {
	inner sbserver.ProbeSink
	tr    *tracer
}

func (s tracedSink) Observe(p sbserver.Probe) {
	r := s.tr.begin(kStoreObserve, s.tr.currentSpan())
	defer s.tr.end(r)
	s.inner.Observe(p)
}

// tracedStage wraps one stream stage; its three span kinds are
// consecutive, in the order Observe, Advance, Snapshot.
type tracedStage struct {
	stream.Stage
	tr    *tracer
	kinds spanKind
}

func (s tracedStage) Observe(p sbserver.Probe) {
	r := s.tr.begin(s.kinds, s.tr.currentSpan())
	defer s.tr.end(r)
	s.Stage.Observe(p)
}

func (s tracedStage) Advance(t time.Time) {
	r := s.tr.begin(s.kinds+1, s.tr.currentSpan())
	defer s.tr.end(r)
	s.Stage.Advance(t)
}

func (s tracedStage) Snapshot() stream.Report {
	r := s.tr.begin(s.kinds+2, s.tr.currentSpan())
	defer s.tr.end(r)
	return s.Stage.Snapshot()
}

// traceStage wraps a stage when tracing; untraced runs keep the stage
// itself.
func (t *tracer) traceStage(s stream.Stage) stream.Stage {
	if t == nil {
		return s
	}
	for i, name := range stageNames {
		if s.Name() == name {
			return tracedStage{Stage: s, tr: t, kinds: kReidentObserve + spanKind(3*i)}
		}
	}
	return s
}

// traceSink wraps a probe sink when tracing.
func (t *tracer) traceSink(s sbserver.ProbeSink) sbserver.ProbeSink {
	if t == nil {
		return s
	}
	return tracedSink{inner: s, tr: t}
}

// layerValues turns the span summary into the per-layer metrics every
// workload shares.
func (t *tracer) layerValues(o *outcome) {
	st := t.summarize()
	o.values["sbserver.download_us"] = micros(st[kDownload].meanTotal())
	o.values["sbclient.sync_us"] = micros(st[kSync].meanTotal())
	o.values["prefixdb.apply_us"] = micros(st[kApply].meanTotal())
	o.values["prefixdb.contains_ns"] = t.contains.meanNs()
	o.values["probestore.observe_ns"] = float64(st[kStoreObserve].meanTotal())
	for i, name := range stageNames {
		k := kReidentObserve + spanKind(3*i)
		obs, adv, snap := st[k], st[k+1], st[k+2]
		if obs.count > 0 {
			o.values["stream.observe_ns."+name] = float64(obs.total+adv.total) / float64(obs.count)
		}
		o.values["stream.snapshot_ms."+name] = millis(snap.meanTotal())
	}
	t.mu.Lock()
	o.note("trace: %d spans", len(t.spans)-t.from)
	t.mu.Unlock()
}
