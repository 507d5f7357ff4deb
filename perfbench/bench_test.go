package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// shortSizes runs every workload through the same code paths as a full
// run, on inputs small enough for a unit test.
func shortSizes() sizes {
	return sizes{
		serve:    serveConfig{Scale: 100, Cookies: 64, Duration: 300 * time.Millisecond, Warmup: 16, SetupReps: 2, Direct: 64},
		campaign: campaignConfig{Clients: 80, Days: 8, WindowDays: 3, SetupReps: 2},
		churn:    churnConfig{Scale: 100, Bursts: 12, Adds: 16, Removes: 4, SetupReps: 2},
	}
}

// layersOf names, per workload, per-layer metrics its traced run must
// measure as non-zero.
var layersOf = map[string][]string{
	"serve": {
		"trace.request_us", "sbclient.fullhashes_us", "nethttp.roundtrip_us", "sbserver.handler_us",
		"wire.decode_ns", "wire.encode_ns", "wire.allocs_per_msg", "sbserver.fullhashes_ns",
		"probestore.observe_ns", "probestore.replay_ns_per_probe", "stream.observe_ns.reident",
		"stream.observe_ns.linkage", "stream.resident_cookies_peak",
	},
	"campaign": {
		"sbserver.fullhashes_ns", "sbserver.download_us", "sbserver.flush_us", "sbclient.sync_us",
		"sbclient.syncs", "sbclient.checkurl_hit_us", "sbclient.checkurl_miss_us", "sbclient.local_hit_ratio",
		"prefixdb.apply_us", "prefixdb.contains_ns", "urlx.canonicalize_ns", "probestore.observe_ns",
		"probestore.replay_ns_per_probe", "stream.observe_ns.reident", "stream.observe_ns.linkage",
		"stream.snapshot_ms.reident", "stream.snapshot_ms.linkage", "stream.evicted_records",
	},
	"churn": {
		"sbserver.add_ms", "sbserver.remove_ms", "update_p50_ms", "update_p95_ms", "sbclient.sync_us",
		"sbserver.download_us", "prefixdb.apply_us", "sbserver.fullhashes_ns", "sbserver.list_len",
	},
}

func TestWorkloadsShort(t *testing.T) {
	registered := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		registered[m.name] = true
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o, err := measure(context.Background(), name, 7, shortSizes(), traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(o.problems) > 0 {
				t.Errorf("%s traced=%v: checks failed: %v", name, traced, o.problems)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, o.attempted, o.failed)
			}
			for k := range o.values {
				if !registered[k] {
					t.Errorf("%s emits unregistered metric %s", name, k)
				}
			}
			for _, m := range endToEnd {
				if v := o.values[m.name]; !(v > 0) {
					t.Errorf("%s traced=%v: end-to-end %s = %v, want > 0", name, traced, m.name, v)
				}
			}
			if !traced {
				continue
			}
			for _, k := range layersOf[name] {
				if v := o.values[k]; !(v > 0) {
					t.Errorf("%s: per-layer %s = %v, want > 0", name, k, v)
				}
			}
			if name == "serve" {
				// The three layers on the request's blocking path account
				// for the traced request span.
				if s := o.values["trace.path_share"]; s < 0.9 || s > 1.1 {
					t.Errorf("serve: blocking-path self times cover %.3f of the request span", s)
				}
			}
		}
	}
}

func TestCampaignSameSeedIdentical(t *testing.T) {
	cfg := shortSizes().campaign
	var stores []map[string][]byte
	var outs []*outcome
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		o, err := runCampaign(context.Background(), cfg, 11, dir, nil, &campaignRef{dir: filepath.Join(dir, "ref")})
		if err != nil {
			t.Fatal(err)
		}
		if len(o.problems) > 0 {
			t.Fatalf("run %d: %v", i, o.problems)
		}
		files, err := storeFiles(filepath.Join(dir, "campaign-store"))
		if err != nil {
			t.Fatal(err)
		}
		stores, outs = append(stores, files), append(outs, o)
	}
	if len(stores[0]) == 0 || len(stores[0]) != len(stores[1]) {
		t.Fatalf("stores hold %d and %d files", len(stores[0]), len(stores[1]))
	}
	for name, b := range stores[0] {
		if !bytes.Equal(b, stores[1][name]) {
			t.Errorf("store file %s differs between same-seed runs", name)
		}
	}
	if outs[0].attempted != outs[1].attempted {
		t.Errorf("visits differ: %d vs %d", outs[0].attempted, outs[1].attempted)
	}
	for _, k := range []string{
		"sbclient.syncs", "sbclient.local_hit_ratio", "sbclient.cache_hit_ratio", "sbclient.fp_ratio",
		"sbserver.list_len", "probestore.bytes_per_probe", "stream.resident_cookies_peak", "stream.evicted_records",
	} {
		if a, b := outs[0].values[k], outs[1].values[k]; a != b {
			t.Errorf("%s differs between same-seed runs: %v vs %v", k, a, b)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %s registered twice", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s has unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s has better-is %q", m.name, m.better)
		}
	}
}

// TestRegistryMatchesBenchmarkJSON holds the program's metric registry
// to the benchmark description at the repository root.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &desc); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range desc.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wl, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", desc.EndToEnd, endToEnd)
	check("per_layer", desc.PerLayer, perLayer)
}

func TestLatenciesQuantilesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := newLatencies()
	var raw samples
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(200*time.Microsecond))
		if i%1000 == 0 {
			d += 5 * time.Millisecond // above the per-nanosecond range
		}
		l.add(d)
		raw = append(raw, d)
	}
	l.addFailed()
	raw = append(raw, failedLatency)
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := l.quantile(q), raw.quantile(q); got != want {
			t.Errorf("q=%v: got %v, want %v", q, got, want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "serve"},
		{"-workload", "nope", "-seed", "1"},
		{"-workload", "serve", "-seed", "1", "-trace", "2"},
		{"-workload", "serve", "-seed", "1", "-seconds", "0"},
	} {
		var out, errb strings.Builder
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %q", args, out.String())
		}
	}
}
