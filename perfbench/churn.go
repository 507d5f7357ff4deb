package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// churnConfig sizes the churn workload: a fixed, seeded sequence of
// list updates applied next to a stream of full-hash lookups.
type churnConfig struct {
	Scale int
	// Bursts is fixed rather than the run time, so a faster writer does
	// not end up with a bigger list to measure.
	Bursts        int
	Adds, Removes int // per burst; Adds > Removes, so the list grows
	SetupReps     int
}

// malwareList is the universe list whose size serve and churn report;
// churn's bursts update it.
const malwareList = "goog-malware-shavar"

// burst is one update: expressions to add, then earlier additions to
// remove.
type burst struct{ add, remove []string }

type churnEnv struct {
	srv     *sbserver.Server
	ans     *planted
	client  *sbclient.Client
	bursts  []burst
	live    []string // the model of the benchmark's expressions listed after the last burst
	removed []string
}

// planBursts derives the update sequence from the seed and keeps the
// benchmark's model of which of its expressions end up listed.
func planBursts(cfg churnConfig, seed int64) (bursts []burst, live, removed []string) {
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < cfg.Bursts; b++ {
		var bu burst
		for i := 0; i < cfg.Adds; i++ {
			bu.add = append(bu.add, fmt.Sprintf("churn%d-b%05d.invalid/p%d/x%d.html", seed, b, i, rng.Intn(1000)))
		}
		// Removals come from earlier bursts only, so every burst's
		// removal targets expressions that are listed when it runs.
		for i := 0; i < cfg.Removes && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			bu.remove = append(bu.remove, live[j])
			removed = append(removed, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		live = append(live, bu.add...)
		bursts = append(bursts, bu)
	}
	return bursts, live, removed
}

func setupChurn(ctx context.Context, cfg churnConfig, seed int64, tr *tracer) (*churnEnv, error) {
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: blacklist.Google, Scale: cfg.Scale, Seed: seed,
		ServerOptions: []sbserver.Option{sbserver.WithProbeLogLimit(1024)},
	})
	if err != nil {
		return nil, err
	}
	env := &churnEnv{srv: u.Server}
	if env.ans, err = plantedOf(u.Server); err != nil {
		return nil, errors.Join(err, u.Server.Close())
	}
	var transport sbclient.Transport = sbclient.LocalTransport{Server: env.srv}
	opts := []sbclient.Option{sbclient.WithCookie("churn-sync")}
	if tr != nil {
		transport = tracedTransport{inner: transport, tr: tr, fullHashes: kServerFullHashes, download: kDownload}
		opts = append(opts, sbclient.WithStoreFactory(tracedStoreFactory(tr)))
	}
	env.client = sbclient.New(transport, []string{malwareList}, opts...)
	if err := env.client.Update(ctx, true); err != nil {
		return nil, errors.Join(err, env.srv.Close())
	}
	env.bursts, env.live, env.removed = planBursts(cfg, seed)
	return env, nil
}

func (e *churnEnv) teardown() { e.srv.Close() } //nolint:errcheck // discarded environment

// writerRun is the writer goroutine's tally.
type writerRun struct {
	update, add, remove, sync samples
	failed                    int64
	errs                      []error
	wall                      time.Duration
}

func (e *churnEnv) write(ctx context.Context, tr *tracer, start time.Time) *writerRun {
	w := &writerRun{}
	for _, bu := range e.bursts {
		b := tr.begin(kBurst, noSpan)
		tr.setCurrent(b)
		t0 := time.Now()
		a := tr.begin(kAdd, b)
		errA := e.srv.AddExpressions(malwareList, bu.add)
		tr.end(a)
		t1 := time.Now()
		r := tr.begin(kRemove, b)
		errR := e.srv.RemoveExpressions(malwareList, bu.remove)
		tr.end(r)
		t2 := time.Now()
		s := tr.begin(kSync, b)
		tr.setCurrent(s)
		errS := e.client.Update(withSpan(ctx, s), true)
		tr.end(s)
		t3 := time.Now()
		tr.end(b)
		if err := errors.Join(errA, errR, errS); err != nil {
			w.failed++
			w.errs = append(w.errs, err)
			w.update = append(w.update, failedLatency)
			continue
		}
		w.add = append(w.add, t1.Sub(t0))
		w.remove = append(w.remove, t2.Sub(t1))
		w.update = append(w.update, t2.Sub(t0))
		w.sync = append(w.sync, t3.Sub(t2))
	}
	w.wall = time.Since(start)
	tr.setCurrent(noSpan)
	return w
}

// readerRun is the reader goroutine's tally.
type readerRun struct {
	lat     *latencies
	ok, bad int64
}

// read looks up one planted prefix and one unlisted prefix per request
// until the writer is done. The planted prefixes belong to the
// universe, which the writer never removes, so each response must carry
// their digests throughout.
func (e *churnEnv) read(rng *rand.Rand, done <-chan struct{}) *readerRun {
	r := &readerRun{lat: newLatencies()}
	cookies := make([]string, 256)
	for i := range cookies {
		cookies[i] = fmt.Sprintf("reader-%03d", i)
	}
	req := &wire.FullHashRequest{Prefixes: make([]hashx.Prefix, 2)}
	for i := 0; ; i++ {
		select {
		case <-done:
			return r
		default:
		}
		k := rng.Intn(len(e.ans.prefixes))
		req.ClientID = cookies[i%len(cookies)]
		req.Prefixes[0] = e.ans.prefixes[k]
		req.Prefixes[1] = e.ans.miss(rng)
		t0 := time.Now()
		resp, err := e.srv.FullHashes(req)
		d := time.Since(t0)
		if err != nil || !carries(resp.Entries, e.ans.entries[k]) {
			r.bad++
			r.lat.addFailed()
			continue
		}
		r.ok++
		r.lat.add(d)
	}
}

func runChurn(ctx context.Context, cfg churnConfig, seed int64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	env, setup, err := repeatSetup(cfg.SetupReps,
		func() (*churnEnv, error) { return setupChurn(ctx, cfg, seed, tr) },
		(*churnEnv).teardown)
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup.Seconds()

	tr.reset()
	runtime.GC()
	u0 := readUsage()
	done := make(chan struct{})
	wres := make(chan *writerRun, 1)
	go func() {
		defer close(done)
		wres <- env.write(ctx, tr, u0.wall)
	}()
	rd := env.read(rand.New(rand.NewSource(seed+1)), done)
	w := <-wres
	ph := since(u0)

	o.setOps(rd.lat, ph)
	o.values["result_s"] = w.wall.Seconds()
	o.attempted = rd.ok + rd.bad + int64(len(env.bursts))
	o.failed = rd.bad + w.failed
	if rd.bad > 0 {
		o.fail("%d lookups failed or missed a planted digest", rd.bad)
	}
	for i, err := range w.errs {
		if i == 3 {
			break
		}
		o.fail("burst: %v", err)
	}
	o.values["update_p50_ms"] = millis(w.update.quantile(0.50))
	o.values["update_p95_ms"] = millis(w.update.quantile(0.95))
	o.values["sbserver.add_ms"] = millis(mean(w.add))
	o.values["sbserver.remove_ms"] = millis(mean(w.remove))
	o.values["sbclient.sync_us"] = micros(mean(w.sync))
	o.values["sbclient.syncs"] = float64(len(w.sync))
	o.values["sbserver.fullhashes_ns"] = float64(rd.lat.mean())
	o.note("%d bursts of +%d/-%d expressions, %d lookups", len(env.bursts), cfg.Adds, cfg.Removes, rd.lat.n)

	checks := env.checkFinal(o)
	if err := env.srv.Close(); err != nil {
		return nil, err
	}
	ps := env.srv.ProbeStats()
	o.values["sbserver.probes_dropped"] = float64(ps.Dropped)
	o.failed += int64(ps.Dropped)
	if want := uint64(rd.ok+rd.bad) + uint64(checks); ps.Received != want || ps.Dropped != 0 {
		o.fail("server received %d probes (%d dropped) for %d lookups", ps.Received, ps.Dropped, want)
	}
	if err := listSize(env.srv, malwareList, o); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.layerValues(o)
	}
	return o, nil
}

// checkFinal holds the provider to the benchmark's model: every
// expression still listed resolves to its digest, every removed one
// does not, and the synced client holds exactly the server's list. It
// returns the number of full-hash calls it made.
func (e *churnEnv) checkFinal(o *outcome) int {
	calls := 0
	resolves := func(expr string) bool {
		calls++
		resp, err := e.srv.FullHashes(&wire.FullHashRequest{ClientID: "churn-check", Prefixes: []hashx.Prefix{hashx.SumPrefix(expr)}})
		if err != nil {
			o.fail("check %s: %v", expr, err)
			return false
		}
		return carries(resp.Entries, []wire.FullHashEntry{{List: malwareList, Digest: hashx.Sum(expr)}})
	}
	var missing, lingering int
	for _, expr := range e.live {
		if !resolves(expr) {
			missing++
		}
	}
	for _, expr := range e.removed {
		if resolves(expr) {
			lingering++
		}
	}
	if missing > 0 || lingering > 0 {
		o.fail("%d listed expressions do not resolve, %d removed ones still do", missing, lingering)
	}
	n, err := e.srv.ListLen(malwareList)
	if err != nil {
		o.fail("list length: %v", err)
	} else if got := e.client.LocalPrefixCount(malwareList); got != n {
		o.fail("synced client holds %d prefixes, server lists %d", got, n)
	}
	return calls
}

// mean averages the samples of successful operations.
func mean(s samples) time.Duration {
	var sum time.Duration
	n := 0
	for _, d := range s {
		if d != failedLatency {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}
