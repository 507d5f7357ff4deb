package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/wire"
)

// failedLatency is recorded for an operation that failed or returned a
// wrong answer: it counts as missing every latency limit, never as a
// fast operation.
const failedLatency = time.Duration(math.MaxInt64)

// planted is the universe's known answer key: every planted prefix
// that has full digests, with the entries a full-hash response for it
// must carry, and every listed prefix (orphans too) so random "miss"
// prefixes can avoid them.
type planted struct {
	prefixes []hashx.Prefix
	entries  [][]wire.FullHashEntry
	listed   map[hashx.Prefix]struct{}
}

func plantedOf(srv *sbserver.Server) (*planted, error) {
	pl := &planted{listed: make(map[hashx.Prefix]struct{})}
	byPrefix := make(map[hashx.Prefix]int)
	for _, name := range srv.ListNames() {
		ps, err := srv.PrefixesOf(name)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			pl.listed[p] = struct{}{}
			ds, _, err := srv.DigestsOf(name, p)
			if err != nil {
				return nil, err
			}
			if len(ds) == 0 {
				continue // orphan: listed, but no digest to confirm
			}
			i, ok := byPrefix[p]
			if !ok {
				i = len(pl.prefixes)
				byPrefix[p] = i
				pl.prefixes = append(pl.prefixes, p)
				pl.entries = append(pl.entries, nil)
			}
			for _, d := range ds {
				pl.entries[i] = append(pl.entries[i], wire.FullHashEntry{List: name, Digest: d})
			}
		}
	}
	if len(pl.prefixes) == 0 {
		return nil, fmt.Errorf("universe has no planted digests")
	}
	return pl, nil
}

// miss draws a random prefix that no list holds.
func (pl *planted) miss(rng *rand.Rand) hashx.Prefix {
	for {
		p := hashx.Prefix(rng.Uint32())
		if _, hit := pl.listed[p]; !hit {
			return p
		}
	}
}

// carries reports whether a response holds every wanted entry.
func carries(got, want []wire.FullHashEntry) bool {
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// newPipeline builds the analyst's stream pipeline (re-identification
// and day-over-day linkage) over an index, wrapping each stage when
// tracing.
func newPipeline(x *core.Index, windowDays int, tr *tracer) *stream.Pipeline {
	return stream.NewPipeline(
		tr.traceStage(stream.NewReidentStage(x, windowDays)),
		tr.traceStage(stream.NewLinkageStage(x, core.LongitudinalConfig{}, windowDays)),
	)
}

// freshDir empties and recreates a store directory.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// repeatSetup runs a workload's set-up reps times and keeps the last
// environment; set-up time is the median, so one slow repetition does
// not move it. Earlier environments are torn down.
func repeatSetup[E any](reps int, setup func() (E, error), teardown func(E)) (E, time.Duration, error) {
	var env E
	times := make(samples, 0, reps)
	for i := 0; i < reps; i++ {
		// Every repetition starts from a collected heap: the discarded
		// environment is freed outside the timing, so neither set-up time
		// nor peak RSS depends on when the collector last ran.
		runtime.GC()
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0))
		if i < reps-1 {
			teardown(e)
		} else {
			env = e
		}
	}
	return env, times.quantile(0.5), nil
}

// sealed is the analyst's final report over a closed store.
type sealed struct {
	report  []stream.StageSnapshot
	replays int64
}

// sealAndReplay closes a written store, reopens it read-only and
// replays it through a fresh pipeline: the offline path from durable
// probes to the final report. It records the store's per-layer costs.
func sealAndReplay(store *probestore.Store, x *core.Index, windowDays int, tr *tracer, o *outcome) (*sealed, error) {
	t0 := time.Now()
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("close probe store: %w", err)
	}
	o.values["probestore.close_ms"] = millis(time.Since(t0))
	st := store.Stats()
	if st.Persisted > 0 {
		o.values["probestore.bytes_per_probe"] = float64(st.LiveBytes) / float64(st.Persisted)
	}
	if st.Persisted != st.Received {
		o.fail("probe store persisted %d of %d probes", st.Persisted, st.Received)
	}
	if st.Dropped != 0 || st.WriteErrors != 0 {
		o.fail("probe store dropped %d probes, %d write errors", st.Dropped, st.WriteErrors)
		o.failed += int64(st.Dropped + st.WriteErrors)
	}

	t0 = time.Now()
	ro, err := probestore.Open(store.Dir(), probestore.ReadOnly())
	if err != nil {
		return nil, fmt.Errorf("reopen probe store: %w", err)
	}
	defer ro.Close() //nolint:errcheck // read-only
	o.values["probestore.open_ms"] = millis(time.Since(t0))

	pipe := newPipeline(x, windowDays, tr)
	t0 = time.Now()
	if err := stream.Replay(ro, pipe); err != nil {
		return nil, fmt.Errorf("replay probe store: %w", err)
	}
	n := pipe.Observed()
	if n > 0 {
		o.values["probestore.replay_ns_per_probe"] = float64(time.Since(t0)) / float64(n)
	}
	if uint64(n) != st.Persisted {
		o.fail("replay delivered %d probes, store persisted %d", n, st.Persisted)
	}
	return &sealed{report: pipe.Snapshot(), replays: n}, nil
}

// stageState records the stream stages' resident-state accounting.
func stageState(snap []stream.StageSnapshot, peakCookies int, o *outcome) {
	var evicted int64
	for _, s := range snap {
		peakCookies = max(peakCookies, s.Stats.ResidentCookies)
		evicted += s.Stats.EvictedRecords
		if s.Stats.LateDropped != 0 {
			o.fail("stage %s dropped %d late probes", s.Name, s.Stats.LateDropped)
		}
	}
	o.values["stream.resident_cookies_peak"] = float64(peakCookies)
	o.values["stream.evicted_records"] = float64(evicted)
}

// listSize records a list's final size.
func listSize(srv *sbserver.Server, list string, o *outcome) error {
	n, err := srv.ListLen(list)
	if err != nil {
		return err
	}
	b, err := srv.ListSizeBytes(list)
	if err != nil {
		return err
	}
	o.values["sbserver.list_len"] = float64(n)
	o.values["sbserver.list_bytes"] = float64(b)
	return nil
}
