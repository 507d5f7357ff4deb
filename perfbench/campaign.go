package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/workload"
)

// campaignConfig sizes the campaign workload: a seeded multi-day
// population played through the in-process client/server stack.
type campaignConfig struct {
	Clients, Days int
	// WindowDays is the stream pipeline's window; shorter than Days, so
	// eviction runs during the campaign.
	WindowDays int
	SetupReps  int
}

// week is the virtual interval between the analyst's live snapshots.
const week = 7 * 24 * time.Hour

type campaignEnv struct {
	camp  *workload.Campaign
	clock *workload.Clock
	srv   *sbserver.Server
	store *probestore.Store
	index *core.Index
	pipe  *stream.Pipeline
}

// setupCampaign builds the provider exactly as workload.Campaign.Run
// does, so the two runs can be held byte-identical.
func setupCampaign(cfg campaignConfig, seed int64, dir string, tr *tracer) (*campaignEnv, error) {
	camp, err := workload.Generate(workload.Config{Days: cfg.Days, Clients: cfg.Clients, Seed: seed})
	if err != nil {
		return nil, err
	}
	env := &campaignEnv{camp: camp, clock: workload.NewClock(camp.Config.Start)}
	env.srv = sbserver.New(sbserver.WithClock(env.clock.Now), sbserver.WithProbeLogLimit(1024))
	if err := buildCampaignList(env.srv, camp); err != nil {
		return nil, errors.Join(err, env.srv.Close())
	}
	if err := freshDir(dir); err != nil {
		return nil, errors.Join(err, env.srv.Close())
	}
	if env.store, err = probestore.Open(dir); err != nil {
		return nil, errors.Join(err, env.srv.Close())
	}
	env.index = core.NewIndex(camp.IndexExpressions())
	env.pipe = newPipeline(env.index, cfg.WindowDays, tr)
	env.srv.Subscribe(tr.traceSink(env.store))
	env.srv.Subscribe(env.pipe)
	return env, nil
}

func buildCampaignList(srv *sbserver.Server, camp *workload.Campaign) error {
	list := camp.Config.List
	if err := srv.CreateList(list, "campaign blacklist"); err != nil {
		return err
	}
	if err := srv.AddExpressions(list, camp.BlacklistExpressions()); err != nil {
		return err
	}
	orphans := camp.OrphanRootExpressions()
	if len(orphans) == 0 {
		return nil
	}
	prefixes := make([]hashx.Prefix, len(orphans))
	for i, e := range orphans {
		prefixes[i] = hashx.SumPrefix(e)
	}
	return srv.AddOrphanPrefixes(list, prefixes)
}

func (e *campaignEnv) teardown() {
	e.srv.Close()   //nolint:errcheck // discarded environment
	e.store.Close() //nolint:errcheck // discarded environment
}

// campaignRef is the reference run of workload.Campaign.Run on the same
// seed. A traced run reuses the untraced run's reference.
type campaignRef struct {
	dir   string
	stats *workload.RunStats
}

func runCampaign(ctx context.Context, cfg campaignConfig, seed int64, dir string, tr *tracer, ref *campaignRef) (*outcome, error) {
	o := newOutcome()
	storeDir := filepath.Join(dir, "campaign-store")
	env, setup, err := repeatSetup(cfg.SetupReps,
		func() (*campaignEnv, error) { return setupCampaign(cfg, seed, storeDir, tr) },
		(*campaignEnv).teardown)
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup.Seconds()
	camp, srv := env.camp, env.srv

	var transport sbclient.Transport = sbclient.LocalTransport{Server: srv}
	if tr != nil {
		transport = tracedTransport{inner: transport, tr: tr, fullHashes: kServerFullHashes, download: kDownload}
	}
	clients := make(map[string]*sbclient.Client)
	var order []*sbclient.Client
	stats := &workload.RunStats{}
	lat := newLatencies()
	var sent, confirmedNothing int
	peakCookies := 0
	nextWeek := camp.Config.Start.Add(week)

	tr.reset()
	runtime.GC()
	u0 := readUsage()
	for _, ev := range camp.Events {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !ev.Time.Before(nextWeek) {
			tr.setCurrent(noSpan)
			for _, s := range env.pipe.Snapshot() {
				peakCookies = max(peakCookies, s.Stats.ResidentCookies)
			}
			for !ev.Time.Before(nextWeek) {
				nextWeek = nextWeek.Add(week)
			}
		}
		env.clock.Set(ev.Time)
		o.attempted++

		visit := tr.begin(kVisit, noSpan)
		tr.setCurrent(visit)
		t0 := time.Now()
		cl := clients[ev.Cookie]
		var err error
		if cl == nil {
			opts := []sbclient.Option{sbclient.WithCookie(ev.Cookie), sbclient.WithClock(env.clock.Now)}
			if tr != nil {
				opts = append(opts, sbclient.WithStoreFactory(tracedStoreFactory(tr)))
			}
			cl = sbclient.New(transport, []string{camp.Config.List}, opts...)
			clients[ev.Cookie] = cl
			order = append(order, cl)
			s := tr.begin(kSync, visit)
			tr.setCurrent(s)
			err = cl.Update(withSpan(ctx, s), true)
			tr.end(s)
			tr.setCurrent(visit)
			stats.Updates++
		}
		var v *sbclient.Verdict
		if err == nil {
			c := tr.begin(kCheckMiss, visit)
			v, err = cl.CheckURL(withSpan(ctx, c), ev.URL)
			if v != nil && len(v.LocalHits) > 0 {
				tr.endAs(c, kCheckHit)
			} else {
				tr.end(c)
			}
		}
		f := tr.begin(kFlush, visit)
		srv.Flush() // the determinism barrier Campaign.Run also keeps
		tr.end(f)
		d := time.Since(t0)
		tr.end(visit)
		stats.Events++

		if err != nil {
			o.failed++
			lat.addFailed()
			o.fail("%s checks %s: %v", ev.Cookie, ev.URL, err)
			continue
		}
		lat.add(d)
		if len(v.SentPrefixes) > 0 {
			sent++
			if v.Safe {
				confirmedNothing++
			}
		}
	}
	ph := since(u0)
	tr.setCurrent(noSpan)
	o.setOps(lat, ph)

	if err := srv.Close(); err != nil {
		return nil, err
	}
	ps := srv.ProbeStats()
	stats.Probes = ps.Received
	o.values["sbserver.probes_dropped"] = float64(ps.Dropped)
	o.failed += int64(ps.Dropped)
	for _, cl := range order {
		cs := cl.Stats()
		stats.Lookups += cs.Lookups
		stats.LocalHits += cs.LocalHits
		stats.FullHashRequests += cs.FullHashRequests
		stats.PrefixesSent += cs.PrefixesSent
		stats.CacheHits += cs.CacheHits
		stats.RealPrefixesSent += cs.RealPrefixesSent
		stats.DummyPrefixesSent += cs.DummyPrefixesSent
		stats.PrefixesWithheld += cs.PrefixesWithheld
		stats.WireBytes += cs.WireBytes
	}

	live := env.pipe.Snapshot()
	fin, err := sealAndReplay(env.store, env.index, cfg.WindowDays, tr, o)
	if err != nil {
		return nil, err
	}
	o.values["result_s"] = time.Since(u0.wall).Seconds()
	if !sameReports(live, fin.report) {
		o.fail("replayed report differs from the live pipeline's final snapshot")
	}
	stageState(live, peakCookies, o)
	if err := listSize(srv, camp.Config.List, o); err != nil {
		return nil, err
	}

	o.values["sbclient.syncs"] = float64(stats.Updates)
	if stats.Lookups > 0 {
		o.values["sbclient.local_hit_ratio"] = float64(stats.LocalHits) / float64(stats.Lookups)
	}
	if n := stats.CacheHits + stats.RealPrefixesSent; n > 0 {
		o.values["sbclient.cache_hit_ratio"] = float64(stats.CacheHits) / float64(n)
	}
	if sent > 0 {
		o.values["sbclient.fp_ratio"] = float64(confirmedNothing) / float64(sent)
	}
	o.note("%d visits, %d syncs, %d probes, %d full-hash requests", stats.Events, stats.Updates, stats.Probes, stats.FullHashRequests)

	if err := checkReference(ctx, camp, storeDir, stats, ref, o); err != nil {
		return nil, err
	}
	if tr != nil {
		campaignLayers(tr, camp, o)
	}
	return o, nil
}

// sameReports compares two pipeline snapshots' reports stage by stage.
func sameReports(a, b []stream.StageSnapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !reflect.DeepEqual(a[i].Report, b[i].Report) {
			return false
		}
	}
	return true
}

// checkReference holds the benchmark's own event loop to
// workload.Campaign.Run on the same seed: equal run statistics and a
// byte-identical probe store.
func checkReference(ctx context.Context, camp *workload.Campaign, storeDir string, stats *workload.RunStats, ref *campaignRef, o *outcome) error {
	if ref.stats == nil {
		if err := freshDir(ref.dir); err != nil {
			return err
		}
		store, err := probestore.Open(ref.dir)
		if err != nil {
			return err
		}
		rs, err := camp.Run(ctx, store)
		if err != nil {
			return errors.Join(err, store.Close())
		}
		if err := store.Close(); err != nil {
			return err
		}
		ref.stats = rs
	}
	if *stats != *ref.stats {
		o.fail("run stats differ from Campaign.Run:\n  bench: %v\n  run:   %v", stats, ref.stats)
	}
	want, err := storeFiles(ref.dir)
	if err != nil {
		return err
	}
	got, err := storeFiles(storeDir)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		o.fail("probe store has %d files, Campaign.Run's has %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			o.fail("probe store file %s differs from Campaign.Run's", name)
		}
	}
	return nil
}

// storeFiles reads every segment and sidecar file of a closed store.
func storeFiles(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = b
	}
	return out, nil
}

func campaignLayers(tr *tracer, camp *workload.Campaign, o *outcome) {
	st := tr.summarize()
	o.values["sbserver.flush_us"] = micros(st[kFlush].meanTotal())
	o.values["sbclient.checkurl_hit_us"] = micros(st[kCheckHit].meanTotal())
	o.values["sbclient.checkurl_miss_us"] = micros(st[kCheckMiss].meanTotal())
	o.values["sbserver.fullhashes_ns"] = float64(st[kServerFullHashes].meanTotal())
	tr.layerValues(o)

	// urlx runs inside CheckURL, out of the benchmark's reach: time it
	// directly on the campaign's own visit URLs.
	t0 := time.Now()
	for _, ev := range camp.Events {
		if _, err := urlx.Canonicalize(ev.URL); err != nil {
			o.fail("canonicalize %s: %v", ev.URL, err)
		}
	}
	if n := len(camp.Events); n > 0 {
		o.values["urlx.canonicalize_ns"] = float64(time.Since(t0)) / float64(n)
	}
}
