package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// metric describes one reported number: its unit and which direction
// is an improvement. The registry below is the benchmark's whole
// vocabulary; BENCHMARK.json at the repository root lists the same
// names, and TestRegistryMatchesBenchmarkJSON holds the two together.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the user-visible metrics every untraced run reports, on
// every workload. "Operation" means a full-hash request in serve, a
// visit in campaign and a lookup in churn.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"result_s", "s", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 there: that is the measured amount of work, and
// the predictions in README.md say where a layer should not move.
var perLayer = []metric{
	{"trace.request_us", "us", "lower"},
	{"trace.path_share", "ratio", "higher"},
	{"trace.direct_path_share", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"sbclient.fullhashes_us", "us", "lower"},
	{"nethttp.roundtrip_us", "us", "lower"},
	{"sbserver.handler_us", "us", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.allocs_per_msg", "count", "lower"},
	{"sbserver.fullhashes_ns", "ns", "lower"},
	{"sbserver.download_us", "us", "lower"},
	{"sbserver.add_ms", "ms", "lower"},
	{"sbserver.remove_ms", "ms", "lower"},
	{"sbserver.list_len", "count", "lower"},
	{"sbserver.list_bytes", "bytes", "lower"},
	{"sbserver.flush_us", "us", "lower"},
	{"sbserver.probes_dropped", "count", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"update_p95_ms", "ms", "lower"},
	{"sbclient.sync_us", "us", "lower"},
	{"sbclient.syncs", "count", "lower"},
	{"sbclient.checkurl_miss_us", "us", "lower"},
	{"sbclient.checkurl_hit_us", "us", "lower"},
	{"sbclient.retries", "count", "lower"},
	{"sbclient.local_hit_ratio", "ratio", "lower"},
	{"sbclient.cache_hit_ratio", "ratio", "higher"},
	{"sbclient.fp_ratio", "ratio", "lower"},
	{"prefixdb.apply_us", "us", "lower"},
	{"prefixdb.contains_ns", "ns", "lower"},
	{"urlx.canonicalize_ns", "ns", "lower"},
	{"probestore.observe_ns", "ns", "lower"},
	{"probestore.bytes_per_probe", "bytes", "lower"},
	{"probestore.close_ms", "ms", "lower"},
	{"probestore.open_ms", "ms", "lower"},
	{"probestore.replay_ns_per_probe", "ns", "lower"},
	{"stream.observe_ns.reident", "ns", "lower"},
	{"stream.observe_ns.linkage", "ns", "lower"},
	{"stream.snapshot_ms.reident", "ms", "lower"},
	{"stream.snapshot_ms.linkage", "ms", "lower"},
	{"stream.resident_cookies_peak", "count", "lower"},
	{"stream.evicted_records", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
}

// stageNames are the stream stages every workload's pipeline runs, in
// fan-out order; the per-stage metric names above are built from them.
var stageNames = []string{"reident", "linkage"}

// samples holds a few raw timings, such as one per set-up repetition
// or per list update.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (the smallest sample
// with at least a q share of samples at or below it). It sorts s.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// fineLimit bounds the latencies kept as per-nanosecond counts; about
// 1 ms, above every typical operation of the three workloads.
const fineLimit = 1 << 20

// latencies records operation latencies without loss: a count for each
// whole nanosecond below fineLimit, the raw value above it. Quantiles
// read from it are therefore exact, unlike a bucketed histogram whose
// bucket width could exceed a metric's bound, and its memory does not
// grow with the operation count, so peak RSS does not depend on how
// fast a run went.
type latencies struct {
	fine   []uint32
	coarse samples
	n      int64
	sum    time.Duration // over successful operations
	failed int64
}

func newLatencies() *latencies { return &latencies{fine: make([]uint32, fineLimit)} }

func (l *latencies) add(d time.Duration) {
	l.n++
	l.sum += d
	if d >= 0 && d < fineLimit {
		l.fine[d]++
		return
	}
	l.coarse = append(l.coarse, d)
}

// addFailed records an operation that failed or answered wrongly: it
// counts as missing every latency limit, never as a fast operation.
func (l *latencies) addFailed() {
	l.n++
	l.failed++
	l.coarse = append(l.coarse, failedLatency)
}

func (l *latencies) merge(o *latencies) {
	for i, c := range o.fine {
		l.fine[i] += c
	}
	l.coarse = append(l.coarse, o.coarse...)
	l.n += o.n
	l.sum += o.sum
	l.failed += o.failed
}

func (l *latencies) quantile(q float64) time.Duration {
	if l.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(l.n)))-1, 0)
	var seen int64
	for d, c := range l.fine {
		seen += int64(c)
		if seen > rank {
			return time.Duration(d)
		}
	}
	slices.Sort(l.coarse)
	return l.coarse[rank-seen]
}

// mean is the average latency of the successful operations.
func (l *latencies) mean() time.Duration {
	if ok := l.n - l.failed; ok > 0 {
		return l.sum / time.Duration(ok)
	}
	return 0
}

// usage is a process-level resource reading: wall clock, CPU time,
// allocation and GC counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	gcCPU   float64 // seconds
}

// gcCPUMetric is the runtime's estimate of CPU spent in the collector.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(sample)
	u := usage{wall: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, gcs: ms.NumGC}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = sample[0].Value.Float64()
	}
	return u
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase is the resource use between two readings.
type phase struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	gcFrac  float64 // share of the phase's process CPU spent in GC
}

func since(a usage) phase {
	b := readUsage()
	p := phase{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		gcs:     b.gcs - a.gcs,
	}
	if p.cpu > 0 {
		p.gcFrac = (b.gcCPU - a.gcCPU) / p.cpu.Seconds()
	}
	return p
}

// outcome is one workload run's result: the metric values it measured,
// the operations it attempted and failed, and every output check that
// did not hold.
type outcome struct {
	attempted int64
	failed    int64
	values    map[string]float64
	problems  []string
	// notes are human-readable lines (sample counts, connection counts)
	// printed above the result.
	notes []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setOps records the end-to-end metrics every workload derives the same
// way from its operation latencies and the measured phase's resource
// use. Rates and per-operation costs count completed operations only,
// so a failing operation never makes the run look faster or cheaper.
func (o *outcome) setOps(lat *latencies, p phase) {
	n := float64(lat.n - lat.failed)
	o.values["ops_per_s"] = n / p.wall.Seconds()
	o.values["op_p50_us"] = micros(lat.quantile(0.50))
	o.values["op_p99_us"] = micros(lat.quantile(0.99))
	o.values["cpu_us_per_op"] = micros(p.cpu) / n
	o.values["allocs_per_op"] = float64(p.mallocs) / n
	o.values["peak_rss_mb"] = peakRSSMiB()
	o.values["runtime.gc_cycles"] = float64(p.gcs)
	o.values["runtime.gc_cpu_frac"] = p.gcFrac
	o.note("%d operation samples over %.3fs", lat.n, p.wall.Seconds())
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
