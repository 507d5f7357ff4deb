// Package sbserver implements the Safe Browsing provider: the blacklist
// database, the incremental chunk-update service and the full-hash
// service of Figure 2.
//
// Besides serving clients, the server records every full-hash request in
// a probe log — the vantage point of the paper's threat model (Section 4).
// An honest-but-curious or malicious provider sees exactly this log:
// (cookie, prefixes, timestamp) triples. The re-identification and
// tracking machinery of internal/core consumes it.
//
// The server is built for fleet-scale concurrent traffic: the serving
// path reads a lock-striped prefix index (one stripe per low-bit slice
// of the prefix space), list mutations take only the owning list's lock,
// and probe recording goes through an asynchronous bounded pipeline, so
// full-hash requests on different prefixes never serialize. Probe
// delivery to sinks and the probe log is therefore asynchronous; call
// Flush (or Close) before reading sink state, and note that Probes
// flushes internally.
package sbserver

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sbprivacy/internal/deltacoded"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/wire"
)

// Defaults for protocol pacing.
const (
	DefaultMinWaitSeconds = 1800 // 30 min between downloads
	DefaultCacheSeconds   = 300  // full-hash cache lifetime
)

// DefaultProbeBuffer is the default capacity of the probe pipeline.
const DefaultProbeBuffer = 1024

// ErrUnknownList reports a request against a list the server doesn't serve.
var ErrUnknownList = errors.New("sbserver: unknown list")

// Probe is one full-hash request as seen by the provider.
type Probe struct {
	Time     time.Time
	ClientID string
	Prefixes []hashx.Prefix
}

// ProbeSink receives a copy of every probe. Implementations must be safe
// for concurrent use. Observe is called from the probe pipeline's
// drainer goroutine, not from the request path.
type ProbeSink interface {
	Observe(p Probe)
}

// list is the server-side state of one blacklist. Each list carries its
// own lock, so updates to different lists proceed in parallel.
type list struct {
	mu          sync.RWMutex
	name        string
	description string
	rank        uint32 // creation rank; orders FullHashes entries
	chunks      []wire.Chunk
	nextChunk   uint32
	// byPrefix maps each live prefix to the full digests sharing it.
	// Orphan prefixes (paper Section 7.2) map to an empty slice. This is
	// the list-management view; the serving path reads the serving index.
	byPrefix map[hashx.Prefix][]hashx.Digest
	// prefixes is the delta-coded image of the list's live prefix set —
	// the structure Google deployed in Chromium for exactly this data
	// (~2 bytes per prefix versus 4 raw). It is rebuilt on every chunk
	// append, mirroring Chromium's rebuild-on-update model, and serves
	// the sorted reads (PrefixesOf, the fresh-client download view)
	// without re-sorting the map on every call.
	prefixes *deltacoded.Table
}

// Server is an in-memory Safe Browsing provider. Safe for concurrent use.
type Server struct {
	listsMu   sync.RWMutex
	lists     map[string]*list
	listOrder []string

	idx    servingIndex
	probes *probePipeline

	minWaitSeconds uint32
	cacheSeconds   uint32
	now            func() time.Time
	mapIndex       bool

	probeBuffer int
	probeLogCap int
	probePolicy OverflowPolicy
}

// Option configures a Server.
type Option func(*Server)

// WithMinWait sets the minimum client poll interval.
func WithMinWait(seconds uint32) Option {
	return func(s *Server) { s.minWaitSeconds = seconds }
}

// WithCacheLifetime sets the full-hash cache lifetime granted to clients.
func WithCacheLifetime(seconds uint32) Option {
	return func(s *Server) { s.cacheSeconds = seconds }
}

// WithClock overrides the time source (tests).
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithProbeBuffer sets the total capacity of the async probe pipeline,
// divided across its client-striped lanes.
func WithProbeBuffer(n int) Option {
	return func(s *Server) { s.probeBuffer = n }
}

// WithProbeLogLimit bounds the probe log: Probes() returns at most the
// n most recent probes (a rotating log). Zero keeps every probe, the
// seed behaviour. Sinks still observe every probe regardless of the
// limit. Memory note: the pipeline retains up to n probes per
// client-stripe internally (at most 16 stripes), so worst-case
// residency is 16n; size n from that bound when capping memory.
func WithProbeLogLimit(n int) Option {
	return func(s *Server) { s.probeLogCap = n }
}

// WithProbeOverflow selects the pipeline's full-buffer policy:
// backpressure (OverflowBlock, default) or load-shedding (OverflowDrop).
func WithProbeOverflow(policy OverflowPolicy) Option {
	return func(s *Server) { s.probePolicy = policy }
}

// WithMapIndex selects the map-backed striped serving index instead of
// the default flat open-addressing prefix table. It exists as the
// ablation baseline: BENCH_prefixtable.json records both designs on
// the same workload, and the differential fuzz harness holds them to
// identical behaviour. Production servers have no reason to set it.
func WithMapIndex() Option {
	return func(s *Server) { s.mapIndex = true }
}

// New creates an empty server and starts its probe pipeline.
func New(opts ...Option) *Server {
	s := &Server{
		lists:          make(map[string]*list),
		minWaitSeconds: DefaultMinWaitSeconds,
		cacheSeconds:   DefaultCacheSeconds,
		now:            time.Now,
		probeBuffer:    DefaultProbeBuffer,
	}
	for _, o := range opts {
		o(s)
	}
	if s.mapIndex {
		s.idx = newStripedIndex()
	} else {
		s.idx = newFlatIndex()
	}
	s.probes = newProbePipeline(s.probeBuffer, s.probeLogCap, s.probePolicy)
	// The drainer goroutine references only the pipeline, so an
	// abandoned Server is collectible; stop its drainer when that
	// happens so servers discarded without Close don't leak goroutines.
	runtime.SetFinalizer(s, func(srv *Server) { srv.probes.close(false) })
	return s
}

// Close flushes and stops the probe pipeline: every probe recorded
// before Close was called is delivered to the log and all sinks by the
// time it returns. The server still serves requests afterwards; probes
// recorded after Close are delivered synchronously.
func (s *Server) Close() error {
	s.probes.close(true)
	return nil
}

// Flush blocks until every probe recorded so far has reached the probe
// log and all subscribed sinks. Call it before inspecting sink state.
func (s *Server) Flush() {
	s.probes.flush()
}

// getList resolves a list name under the registry read lock.
func (s *Server) getList(name string) (*list, error) {
	s.listsMu.RLock()
	l, ok := s.lists[name]
	s.listsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownList, name)
	}
	return l, nil
}

// CreateList registers a new empty blacklist.
func (s *Server) CreateList(name, description string) error {
	s.listsMu.Lock()
	defer s.listsMu.Unlock()
	if _, dup := s.lists[name]; dup {
		return fmt.Errorf("sbserver: list %q already exists", name)
	}
	s.lists[name] = &list{
		name:        name,
		description: description,
		rank:        uint32(len(s.listOrder)),
		nextChunk:   1,
		byPrefix:    make(map[hashx.Prefix][]hashx.Digest),
		prefixes:    &deltacoded.Table{},
	}
	s.listOrder = append(s.listOrder, name)
	return nil
}

// ListNames returns the registered list names in creation order.
func (s *Server) ListNames() []string {
	s.listsMu.RLock()
	defer s.listsMu.RUnlock()
	out := make([]string, len(s.listOrder))
	copy(out, s.listOrder)
	return out
}

// ListDescription returns the human description of a list.
func (s *Server) ListDescription(name string) (string, error) {
	l, err := s.getList(name)
	if err != nil {
		return "", err
	}
	return l.description, nil
}

// ListLen returns the number of live prefixes in a list, read from the
// delta-coded prefix image (which tracks the digest map exactly).
func (s *Server) ListLen(name string) (int, error) {
	l, err := s.getList(name)
	if err != nil {
		return 0, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.prefixes.Len(), nil
}

// AddExpressions blacklists canonicalized decomposition expressions
// (e.g. "evil.example/" or "host.example/path"): their full digests and
// prefixes enter the list as one add chunk. This is the ordinary way
// content enters a blacklist.
func (s *Server) AddExpressions(listName string, expressions []string) error {
	digests := make([]hashx.Digest, len(expressions))
	for i, e := range expressions {
		digests[i] = hashx.Sum(e)
	}
	return s.AddDigests(listName, digests)
}

// AddURL canonicalizes a URL and blacklists its exact canonical form.
func (s *Server) AddURL(listName, rawURL string) error {
	return s.AddURLs(listName, []string{rawURL})
}

// AddURLs canonicalizes a batch of URLs and blacklists their exact
// canonical forms in one add chunk, amortizing lock acquisitions over
// the whole batch. The canonicalization (the expensive part) runs
// before any lock is taken.
func (s *Server) AddURLs(listName string, rawURLs []string) error {
	expressions := make([]string, len(rawURLs))
	for i, raw := range rawURLs {
		c, err := urlx.Canonicalize(raw)
		if err != nil {
			return err
		}
		expressions[i] = c.String()
	}
	return s.AddExpressions(listName, expressions)
}

// AddDigests blacklists full digests directly (used when importing an
// existing digest database).
func (s *Server) AddDigests(listName string, digests []hashx.Digest) error {
	l, err := s.getList(listName)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var newPrefixes []hashx.Prefix
	for _, d := range digests {
		p := d.Prefix()
		known := false
		for _, existing := range l.byPrefix[p] {
			if existing == d {
				known = true
				break
			}
		}
		if known {
			continue
		}
		if _, live := l.byPrefix[p]; !live {
			newPrefixes = append(newPrefixes, p)
		}
		l.byPrefix[p] = append(l.byPrefix[p], d)
		s.idx.add(p, indexEntry{rank: l.rank, list: l.name, digest: d})
	}
	if len(newPrefixes) > 0 {
		l.appendChunk(wire.ChunkAdd, newPrefixes)
	}
	return nil
}

// AddOrphanPrefixes inserts prefixes with no corresponding full digest —
// the "orphans" of Section 7.2. Clients hit on them and contact the
// server, but the full-hash response can never match: they are pure
// tracking probes (or inconsistencies).
func (s *Server) AddOrphanPrefixes(listName string, prefixes []hashx.Prefix) error {
	l, err := s.getList(listName)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var added []hashx.Prefix
	for _, p := range prefixes {
		if _, live := l.byPrefix[p]; live {
			continue
		}
		l.byPrefix[p] = nil
		added = append(added, p)
	}
	if len(added) > 0 {
		l.appendChunk(wire.ChunkAdd, added)
	}
	return nil
}

// AddPrefixes inserts raw prefixes for expressions the server also knows
// in full (prefix -> digest of the expression string). Used by the
// tracking shadow database of Algorithm 1, where the provider chooses the
// prefixes deliberately.
func (s *Server) AddPrefixes(listName string, expressions []string) error {
	return s.AddExpressions(listName, expressions)
}

// RemoveExpressions removes expressions; prefixes whose digest set
// becomes empty are retired with a sub chunk.
func (s *Server) RemoveExpressions(listName string, expressions []string) error {
	l, err := s.getList(listName)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var gone []hashx.Prefix
	for _, e := range expressions {
		d := hashx.Sum(e)
		p := d.Prefix()
		ds, live := l.byPrefix[p]
		if !live {
			continue
		}
		kept := ds[:0]
		for _, existing := range ds {
			if existing != d {
				kept = append(kept, existing)
			} else {
				s.idx.remove(p, l.rank, d)
			}
		}
		if len(kept) == 0 {
			delete(l.byPrefix, p)
			gone = append(gone, p)
		} else {
			l.byPrefix[p] = kept
		}
	}
	if len(gone) > 0 {
		l.appendChunk(wire.ChunkSub, gone)
	}
	return nil
}

// appendChunk records a new chunk and folds its prefixes into the
// list's delta-coded prefix image (add chunks merge in, sub chunks
// drop out); the caller holds l.mu. Every mutation of the live prefix
// set flows through here, so the delta table tracks byPrefix exactly.
func (l *list) appendChunk(typ wire.ChunkType, prefixes []hashx.Prefix) {
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	l.chunks = append(l.chunks, wire.Chunk{
		List:     l.name,
		Num:      l.nextChunk,
		Type:     typ,
		Prefixes: prefixes,
	})
	l.nextChunk++
	if typ == wire.ChunkAdd {
		l.prefixes = l.prefixes.Merge(prefixes, nil)
	} else {
		l.prefixes = l.prefixes.Merge(nil, prefixes)
	}
}

// Download serves an incremental update: all chunks newer than the
// client's recorded state, for each requested list.
func (s *Server) Download(req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	resp := &wire.DownloadResponse{MinWaitSeconds: s.minWaitSeconds}
	for _, st := range req.States {
		l, err := s.getList(st.List)
		if err != nil {
			return nil, err
		}
		l.mu.RLock()
		for _, c := range l.chunks {
			if c.Num > st.LastChunk {
				resp.Chunks = append(resp.Chunks, c)
			}
		}
		l.mu.RUnlock()
	}
	return resp, nil
}

// FullHashes serves a full-hash request and records the probe. This is
// the moment information leaks from client to provider: the prefixes in
// req are a function of the URL the client is visiting.
//
// The lookup reads one striped-index shard per prefix, so requests for
// different prefixes proceed fully in parallel; the probe is handed to
// the async pipeline rather than appended under a write lock.
//
// Requests exceeding the wire-protocol limits (client id length,
// prefix count) are rejected with an error wrapping wire.ErrTooLarge —
// the same verdict the HTTP decoder hands an over-limit body.
// LocalTransport callers bypass that decoder, and serving an oversized
// request while recording a trimmed probe would let serving diverge
// from the retained log, the opposite of the paper's provider vantage:
// whatever is answered must be what every sink observes.
func (s *Server) FullHashes(req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	resp := &wire.FullHashResponse{Entries: make([]wire.FullHashEntry, 0, len(req.Prefixes))}
	if err := s.fullHashes(req, resp); err != nil {
		return nil, err
	}
	if len(resp.Entries) == 0 {
		resp.Entries = nil
	}
	return resp, nil
}

// fullHashes serves req into resp, reusing the capacity of
// resp.Entries, so the HTTP handlers can fill pooled responses. The
// recorded probe owns its prefixes: req may be reused as soon as this
// returns.
func (s *Server) fullHashes(req *wire.FullHashRequest, resp *wire.FullHashResponse) error {
	if err := validateFullHashRequest(req); err != nil {
		return err
	}
	s.probes.record(Probe{
		Time:     s.now(),
		ClientID: req.ClientID,
		Prefixes: append([]hashx.Prefix(nil), req.Prefixes...),
	})
	resp.CacheSeconds = s.cacheSeconds
	resp.Entries = resp.Entries[:0]
	for _, p := range req.Prefixes {
		resp.Entries = s.idx.lookup(p, resp.Entries)
	}
	return nil
}

// validateFullHashRequest enforces the wire-protocol limits on a
// request that may have bypassed the HTTP decoder (LocalTransport).
func validateFullHashRequest(req *wire.FullHashRequest) error {
	if len(req.ClientID) > wire.MaxProbeClientIDBytes {
		return fmt.Errorf("%w: client id = %d > %d bytes",
			wire.ErrTooLarge, len(req.ClientID), wire.MaxProbeClientIDBytes)
	}
	if len(req.Prefixes) > wire.MaxProbePrefixes {
		return fmt.Errorf("%w: prefix count = %d > %d",
			wire.ErrTooLarge, len(req.Prefixes), wire.MaxProbePrefixes)
	}
	return nil
}

// FullHashesBatch serves several full-hash requests in one call,
// recording one probe per request — the provider's view is identical to
// the requests arriving back to back. Batching amortizes per-call
// overhead for high-volume callers (audits, load generators, the batch
// HTTP endpoint).
//
// The whole batch is validated before any sub-request is served: an
// oversized entry rejects the batch with nothing recorded, so a
// partial failure can never leave probes in the log for answers the
// caller never received.
func (s *Server) FullHashesBatch(reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error) {
	batch := make([]wire.FullHashRequest, len(reqs))
	for i, req := range reqs {
		batch[i] = *req
	}
	out := make([]wire.FullHashResponse, len(reqs))
	if err := s.fullHashesBatch(batch, out); err != nil {
		return nil, err
	}
	resps := make([]*wire.FullHashResponse, len(out))
	for i := range out {
		if len(out[i].Entries) == 0 {
			out[i].Entries = nil
		}
		resps[i] = &out[i]
	}
	return resps, nil
}

// fullHashesBatch validates every request, then serves reqs[i] into
// resps[i] through fullHashes.
func (s *Server) fullHashesBatch(reqs []wire.FullHashRequest, resps []wire.FullHashResponse) error {
	for i := range reqs {
		if err := validateFullHashRequest(&reqs[i]); err != nil {
			return err
		}
	}
	for i := range reqs {
		if err := s.fullHashes(&reqs[i], &resps[i]); err != nil {
			return err
		}
	}
	return nil
}

// Subscribe registers a probe sink; every subsequent full-hash request is
// forwarded to it from the probe pipeline. Call Flush before reading
// sink state to synchronize with in-flight probes.
func (s *Server) Subscribe(sink ProbeSink) {
	s.probes.subscribe(sink)
}

// Probes returns a copy of the probe log. It flushes the pipeline first,
// so every probe recorded before the call is included (minus any rotated
// out by WithProbeLogLimit or shed under OverflowDrop).
func (s *Server) Probes() []Probe {
	s.probes.flush()
	return s.probes.snapshot()
}

// ProbeStats reports the probe pipeline's received/dropped/evicted
// counters.
func (s *Server) ProbeStats() ProbeStats {
	return s.probes.stats()
}

// PrefixesOf returns the sorted live prefixes of a list (the view a fresh
// client downloads). The read decodes the list's delta-coded prefix
// image — already sorted by construction — instead of collecting and
// re-sorting the digest map on every call.
func (s *Server) PrefixesOf(listName string) ([]hashx.Prefix, error) {
	l, err := s.getList(listName)
	if err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.prefixes.Prefixes(), nil
}

// ListSizeBytes returns the in-memory footprint of a list's
// delta-coded prefix image — the provider-side counterpart of the
// paper's Table 2 storage comparison (roughly 2 bytes per prefix
// versus 4 raw for uniformly dense lists).
func (s *Server) ListSizeBytes(name string) (int, error) {
	l, err := s.getList(name)
	if err != nil {
		return 0, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.prefixes.SizeBytes(), nil
}

// DigestsOf returns the full digests recorded for a prefix in a list.
// Orphan prefixes return (nil, true).
func (s *Server) DigestsOf(listName string, p hashx.Prefix) ([]hashx.Digest, bool, error) {
	l, err := s.getList(listName)
	if err != nil {
		return nil, false, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	ds, live := l.byPrefix[p]
	if !live {
		return nil, false, nil
	}
	return append([]hashx.Digest(nil), ds...), true, nil
}
