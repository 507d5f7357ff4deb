package sbserver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixtable"
	"sbprivacy/internal/wire"
)

// IndexBenchConfig configures one serving-index benchmark run: both
// index designs (the map-backed ablation baseline and the flat
// open-addressing prefix table) are measured on identical
// deterministic workloads at each size.
type IndexBenchConfig struct {
	// Sizes lists the prefix counts to load, e.g. 1e5/1e6/1e7 for the
	// paper-scale trajectory. Must be positive and strictly ascending.
	Sizes []int
	// Lookups is the number of measured lookups per path (hit and
	// miss) per design; 0 selects a default of 1<<20.
	Lookups int
	// Seed drives the deterministic workload generator.
	Seed int64
}

// DefaultIndexBenchLookups is the lookup count used when
// IndexBenchConfig.Lookups is zero.
const DefaultIndexBenchLookups = 1 << 20

// indexWorkload is one size's deterministic workload, shared verbatim
// by both designs so the comparison isolates the index structure.
type indexWorkload struct {
	list     string
	prefixes []hashx.Prefix
	digests  []hashx.Digest
	hitIdx   []int32        // random indices into prefixes, len = Lookups
	misses   []hashx.Prefix // prefixes guaranteed absent, len = Lookups
	remove   []int32        // distinct indices to remove, shuffled
}

// genIndexWorkload builds the workload for n prefixes from the seed.
func genIndexWorkload(n, lookups int, seed int64) *indexWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &indexWorkload{
		list:     "goog-malware-shavar",
		prefixes: make([]hashx.Prefix, n),
		digests:  make([]hashx.Digest, n),
		hitIdx:   make([]int32, lookups),
		misses:   make([]hashx.Prefix, lookups),
	}
	present := make(map[uint32]struct{}, n)
	for i := 0; i < n; i++ {
		var d hashx.Digest
		if _, err := rng.Read(d[:]); err != nil {
			panic(err) // math/rand.Read cannot fail
		}
		w.digests[i] = d
		w.prefixes[i] = d.Prefix()
		present[uint32(d.Prefix())] = struct{}{}
	}
	for i := range w.hitIdx {
		w.hitIdx[i] = int32(rng.Intn(n))
	}
	for i := range w.misses {
		for {
			p := rng.Uint32()
			if _, hit := present[p]; !hit {
				w.misses[i] = hashx.Prefix(p)
				break
			}
		}
	}
	removeCount := n / 2
	if removeCount > lookups {
		removeCount = lookups
	}
	if removeCount == 0 {
		removeCount = 1
	}
	w.remove = make([]int32, 0, removeCount)
	perm := rng.Perm(n)
	for _, i := range perm[:removeCount] {
		w.remove = append(w.remove, int32(i))
	}
	return w
}

// RunIndexBench measures both serving-index designs on identical
// workloads at every configured size and returns the machine-readable
// report (schema sbprivacy/prefixtable/v1). The caller decides whether
// to write it as BENCH_prefixtable.json.
func RunIndexBench(cfg IndexBenchConfig) (*prefixtable.Report, error) {
	if len(cfg.Sizes) == 0 {
		return nil, errors.New("sbserver: index bench needs at least one size")
	}
	if cfg.Lookups <= 0 {
		cfg.Lookups = DefaultIndexBenchLookups
	}
	sizes := append([]int(nil), cfg.Sizes...)
	sort.Ints(sizes)
	for i, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("sbserver: index bench size %d must be positive", n)
		}
		if i > 0 && n == sizes[i-1] {
			return nil, fmt.Errorf("sbserver: duplicate index bench size %d", n)
		}
	}
	rep := &prefixtable.Report{
		Schema: prefixtable.ReportSchema,
		Config: prefixtable.ReportConfig{Sizes: sizes, Lookups: cfg.Lookups, Seed: cfg.Seed},
	}
	for _, n := range sizes {
		w := genIndexWorkload(n, cfg.Lookups, cfg.Seed)
		oldRes := measureIndexDesign("striped-map", newStripedIndex(), w)
		newRes := measureIndexDesign("prefixtable", newFlatIndex(), w)
		rep.Results = append(rep.Results, prefixtable.SizeResult{
			Prefixes:    n,
			Old:         oldRes,
			New:         newRes,
			SpeedupHit:  oldRes.LookupHitNsPerOp / newRes.LookupHitNsPerOp,
			SpeedupMiss: oldRes.LookupMissNsPerOp / newRes.LookupMissNsPerOp,
		})
	}
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("sbserver: index bench produced an invalid report: %w", err)
	}
	return rep, nil
}

// measureIndexDesign loads one index design with the workload and
// measures build, lookup (hit and miss, with allocation accounting)
// and remove costs.
func measureIndexDesign(name string, idx servingIndex, w *indexWorkload) prefixtable.DesignResult {
	res := prefixtable.DesignResult{Design: name}
	var ms runtime.MemStats

	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc

	start := time.Now()
	for i, p := range w.prefixes {
		idx.add(p, indexEntry{rank: 0, list: w.list, digest: w.digests[i]})
	}
	res.BuildNsPerOp = perOp(time.Since(start), len(w.prefixes))

	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapBefore {
		res.Bytes = int64(ms.HeapAlloc - heapBefore)
	} else {
		res.Bytes = 1 // the heap shrank around us; record presence, not precision
	}

	// Warm pass: grow dst to cover the longest chain (and fault the
	// index in) so the measured loops see steady state for both
	// designs.
	dst := make([]wire.FullHashEntry, 0, 64)
	for _, i := range w.hitIdx[:min(len(w.hitIdx), 1<<16)] {
		dst = idx.lookup(w.prefixes[i], dst[:0])
	}

	sink := 0
	start = time.Now()
	for _, i := range w.hitIdx {
		dst = idx.lookup(w.prefixes[i], dst[:0])
		sink += len(dst)
	}
	res.LookupHitNsPerOp = perOp(time.Since(start), len(w.hitIdx))
	res.LookupAllocsPerOp = lookupAllocsPerOp(idx, w, dst)

	start = time.Now()
	for _, p := range w.misses {
		dst = idx.lookup(p, dst[:0])
		sink += len(dst)
	}
	res.LookupMissNsPerOp = perOp(time.Since(start), len(w.misses))

	start = time.Now()
	for _, i := range w.remove {
		idx.remove(w.prefixes[i], 0, w.digests[i])
	}
	res.RemoveNsPerOp = perOp(time.Since(start), len(w.remove))

	runtime.KeepAlive(sink)
	return res
}

// allocPasses is how many hit passes lookupAllocsPerOp counts.
const allocPasses = 3

// lookupAllocsPerOp counts the allocations of the hit lookups. The count
// comes from process-wide MemStats, so an allocation by any other
// goroutine inside the window is counted too. An allocation made by the
// lookup itself recurs in every pass over the same keys, while a stray
// one does not, so the minimum over several passes is the lookup's own
// count. As in testing.AllocsPerRun, the passes run with GOMAXPROCS at
// 1, so other goroutines get the CPU only when the pass is preempted.
func lookupAllocsPerOp(idx servingIndex, w *indexWorkload, dst []wire.FullHashEntry) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for pass := 0; pass < allocPasses; pass++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, i := range w.hitIdx {
			dst = idx.lookup(w.prefixes[i], dst[:0])
		}
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return float64(fewest) / float64(len(w.hitIdx))
}

// perOp converts a loop duration into ns/op, never returning a value
// the report schema would reject (sub-nanosecond loops round up).
func perOp(d time.Duration, ops int) float64 {
	ns := float64(d.Nanoseconds()) / float64(ops)
	if ns <= 0 {
		return 0.01
	}
	return ns
}
