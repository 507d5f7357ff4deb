package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/wire"
)

// serveConfig sizes the serve workload: a browser fleet sending
// full-hash requests over loopback HTTP in a closed loop.
type serveConfig struct {
	Scale     int           // universe scale divisor
	Cookies   int           // client cookie pool
	Duration  time.Duration // measured phase
	Warmup    int           // requests per connection before measuring
	SetupReps int
	// Direct is how many of the run's own messages the traced run
	// replays through the wire codec and Server.FullHashes directly.
	Direct int
}

// conns is both the connection count and the generator goroutine count:
// one closed loop per connection, matching the two CPUs the benchmark
// is sized for.
const conns = 2

// serveDataset is the cleartext corpus the analyst's index resolves
// probes against.
const serveDataset = "Malware list"

type serveEnv struct {
	srv      *sbserver.Server
	ans      *planted
	store    *probestore.Store
	pipe     *stream.Pipeline
	index    *core.Index
	httpSrv  *http.Server
	serveErr chan error
	retry    *sbclient.RetryTransport
	client   *http.Client
	dials    atomic.Int64
}

func setupServe(cfg serveConfig, seed int64, dir string, tr *tracer) (*serveEnv, error) {
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: blacklist.Google, Scale: cfg.Scale, Seed: seed,
		// The probe store is the retention layer; keep the in-memory
		// log bounded.
		ServerOptions: []sbserver.Option{sbserver.WithProbeLogLimit(1024)},
	})
	if err != nil {
		return nil, err
	}
	env := &serveEnv{srv: u.Server, serveErr: make(chan error, 1)}
	if env.ans, err = plantedOf(u.Server); err != nil {
		return nil, errors.Join(err, u.Server.Close())
	}
	if err := freshDir(dir); err != nil {
		return nil, errors.Join(err, u.Server.Close())
	}
	if env.store, err = probestore.Open(dir); err != nil {
		return nil, errors.Join(err, u.Server.Close())
	}
	env.index = core.NewIndex(u.Datasets[serveDataset])
	env.pipe = newPipeline(env.index, 0, tr)
	env.srv.Subscribe(tr.traceSink(env.store))
	env.srv.Subscribe(env.pipe)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.teardown()
		return nil, err
	}
	var h http.Handler = sbserver.Handler(env.srv)
	var rt http.RoundTripper = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			env.dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
		rt = tracedRoundTripper{base: rt, tr: tr}
	}
	env.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { env.serveErr <- env.httpSrv.Serve(ln) }()
	env.client = &http.Client{Timeout: 10 * time.Second, Transport: rt}

	var inner sbclient.Transport = sbclient.HTTPTransport{BaseURL: "http://" + ln.Addr().String(), Client: env.client}
	if tr != nil {
		inner = tracedTransport{inner: inner, tr: tr, fullHashes: kClientFullHashes, download: kDownload}
	}
	env.retry = sbclient.NewRetryTransport(inner, sbclient.RetryPolicy{})
	return env, nil
}

// stopHTTP shuts the listener down and waits for the serving goroutine.
func (e *serveEnv) stopHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.httpSrv.Shutdown(ctx)
	if serr := <-e.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	return err
}

// teardown releases a set-up environment that is not measured.
func (e *serveEnv) teardown() {
	if e.httpSrv != nil {
		e.stopHTTP() //nolint:errcheck // discarded environment
	}
	e.srv.Close()   //nolint:errcheck // discarded environment
	e.store.Close() //nolint:errcheck // discarded environment
}

// connRun is one connection's closed loop tally.
type connRun struct {
	lat      *latencies
	ok, bad  int64
	kept     []wire.FullHashRequest
	keptResp []*wire.FullHashResponse
}

// loop sends requests back to back until n requests (n > 0) or the
// deadline. Each request carries one planted prefix, whose digests the
// response must carry, and one prefix no list holds.
func (e *serveEnv) loop(ctx context.Context, rng *rand.Rand, cookies []string, n int, deadline time.Time, keep int, tr *tracer, out *connRun) {
	req := &wire.FullHashRequest{Prefixes: make([]hashx.Prefix, 2)}
	for i := 0; n <= 0 || i < n; i++ {
		if n <= 0 && !time.Now().Before(deadline) {
			return
		}
		k := rng.Intn(len(e.ans.prefixes))
		req.ClientID = cookies[rng.Intn(len(cookies))]
		req.Prefixes[0] = e.ans.prefixes[k]
		req.Prefixes[1] = e.ans.miss(rng)

		root := tr.begin(kRequest, noSpan)
		t0 := time.Now()
		resp, err := e.retry.FullHashes(withSpan(ctx, root), req)
		d := time.Since(t0)
		tr.end(root)

		if err != nil || !carries(resp.Entries, e.ans.entries[k]) {
			out.bad++
			out.lat.addFailed()
			continue
		}
		out.ok++
		out.lat.add(d)
		if len(out.kept) < keep {
			out.kept = append(out.kept, wire.FullHashRequest{ClientID: req.ClientID, Prefixes: append([]hashx.Prefix(nil), req.Prefixes...)})
			out.keptResp = append(out.keptResp, resp)
		}
	}
}

func runServe(ctx context.Context, cfg serveConfig, seed int64, dir string, tr *tracer) (*outcome, error) {
	o := newOutcome()
	storeDir := filepath.Join(dir, "serve-store")
	env, setup, err := repeatSetup(cfg.SetupReps,
		func() (*serveEnv, error) { return setupServe(cfg, seed, storeDir, tr) },
		(*serveEnv).teardown)
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup.Seconds()

	cookies := make([]string, cfg.Cookies)
	for i := range cookies {
		cookies[i] = fmt.Sprintf("fleet-%04d", i)
	}
	rngs := make([]*rand.Rand, conns)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	}
	runConns := func(n int, deadline time.Time, keep int) []connRun {
		res := make([]connRun, conns)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			res[c].lat = newLatencies()
			wg.Add(1)
			k := 0
			if c == 0 {
				k = keep // connection 0 keeps messages for the direct timings
			}
			go func() {
				defer wg.Done()
				env.loop(ctx, rngs[c], cookies, n, deadline, k, tr, &res[c])
			}()
		}
		wg.Wait()
		return res
	}

	warm := runConns(cfg.Warmup, time.Time{}, 0)
	// Deliver the warm-up probes before the spans are reset, so the
	// drainers' sink spans belong to the warm-up.
	env.srv.Flush()
	tr.reset()
	runtime.GC()
	u0 := readUsage()
	res := runConns(0, u0.wall.Add(cfg.Duration), cfg.Direct)
	ph := since(u0)

	lat := newLatencies()
	var ok, bad int64
	for _, r := range append(warm, res...) {
		ok += r.ok
		bad += r.bad
	}
	for _, r := range res {
		lat.merge(r.lat)
	}
	o.attempted = ok + bad
	o.setOps(lat, ph)
	o.failed += bad
	if bad > 0 {
		o.fail("%d requests failed or missed a planted digest", bad)
	}

	direct, clientCodec := 0, time.Duration(0)
	if tr != nil {
		direct, clientCodec = directServe(env.srv, res[0].kept, res[0].keptResp, o)
	}

	if err := env.stopHTTP(); err != nil {
		return nil, fmt.Errorf("stop http server: %w", err)
	}
	if d := env.dials.Load(); d > conns {
		o.fail("%d connections dialed; the loop keeps %d alive", d, conns)
	}
	if err := env.srv.Close(); err != nil {
		return nil, err
	}
	rs := env.retry.Stats()
	o.values["sbclient.retries"] = float64(rs.Retries)
	o.failed += int64(rs.Retries)
	if rs.Retries != 0 {
		o.fail("%d requests were retried", rs.Retries)
	}
	ps := env.srv.ProbeStats()
	o.values["sbserver.probes_dropped"] = float64(ps.Dropped)
	o.failed += int64(ps.Dropped)
	if ps.Received != uint64(ok)+uint64(direct) || ps.Dropped != 0 {
		o.fail("server received %d probes (%d dropped) for %d completed requests", ps.Received, ps.Dropped, ok+int64(direct))
	}

	live := env.pipe.Snapshot()
	fin, err := sealAndReplay(env.store, env.index, 0, tr, o)
	if err != nil {
		return nil, err
	}
	o.values["result_s"] = time.Since(u0.wall).Seconds()
	if fin.replays != int64(ps.Received) {
		o.fail("replayed %d probes, server received %d", fin.replays, ps.Received)
	}
	stageState(live, 0, o)
	if err := listSize(env.srv, malwareList, o); err != nil {
		return nil, err
	}
	if tr != nil {
		serveLayers(tr, clientCodec, o)
	}
	return o, nil
}

// serveLayers attributes the traced request span to the three layers on
// its blocking path. The spans nest, so their self times always add up
// to the client span: path_share shows only that no time escapes the
// client wrapper. direct_path_share replaces the client's self time by
// its codec work timed directly (clientCodec, one request encode and one
// response decode), so it falls short of 1 by the client-side work no
// layer accounts for: http.Client's request and body handling.
func serveLayers(tr *tracer, clientCodec time.Duration, o *outcome) {
	st := tr.summarize()
	req := st[kRequest].meanTotal()
	client := st[kClientFullHashes].meanSelf()
	rt := st[kRoundTrip].meanSelf()
	handler := st[kHandler].meanTotal()
	o.values["trace.request_us"] = micros(req)
	o.values["sbclient.fullhashes_us"] = micros(client)
	o.values["nethttp.roundtrip_us"] = micros(rt)
	o.values["sbserver.handler_us"] = micros(handler)
	if req > 0 {
		o.values["trace.path_share"] = float64(client+rt+handler) / float64(req)
		o.values["trace.direct_path_share"] = float64(clientCodec+rt+handler) / float64(req)
	}
	tr.layerValues(o)
}

// directPasses repeats the direct timings so each covers enough calls
// to time steadily.
const directPasses = 8

// directServe times layers that cannot be wrapped inside the handler —
// the wire codec and Server.FullHashes — by calling them directly on
// the run's own messages. It returns the number of probes it recorded
// and the client's codec time per request (request encode plus response
// decode).
func directServe(srv *sbserver.Server, reqs []wire.FullHashRequest, resps []*wire.FullHashResponse, o *outcome) (int, time.Duration) {
	if len(reqs) == 0 {
		return 0, 0
	}
	var buf bytes.Buffer
	encReqs := make([][]byte, len(reqs))
	encResps := make([][]byte, len(reqs))
	for i := range reqs {
		buf.Reset()
		reqs[i].Encode(&buf) //nolint:errcheck // bytes.Buffer
		encReqs[i] = bytes.Clone(buf.Bytes())
		buf.Reset()
		resps[i].Encode(&buf) //nolint:errcheck // bytes.Buffer
		encResps[i] = bytes.Clone(buf.Bytes())
	}
	// timed runs f on every kept message, directPasses times over.
	timed := func(f func(i int)) time.Duration {
		t0 := time.Now()
		for p := 0; p < directPasses; p++ {
			for i := range reqs {
				f(i)
			}
		}
		return time.Since(t0)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	encReq := timed(func(i int) {
		buf.Reset()
		reqs[i].Encode(&buf) //nolint:errcheck // bytes.Buffer
	})
	encResp := timed(func(i int) {
		buf.Reset()
		resps[i].Encode(&buf) //nolint:errcheck // bytes.Buffer
	})
	decReq := timed(func(i int) {
		if _, err := wire.DecodeFullHashRequest(bytes.NewReader(encReqs[i])); err != nil {
			o.fail("decode own request: %v", err)
		}
	})
	decResp := timed(func(i int) {
		if _, err := wire.DecodeFullHashResponse(bytes.NewReader(encResps[i])); err != nil {
			o.fail("decode own response: %v", err)
		}
	})
	runtime.ReadMemStats(&ms1)
	calls := directPasses * len(reqs)
	msgs := float64(2 * calls)
	o.values["wire.encode_ns"] = float64(encReq+encResp) / msgs
	o.values["wire.decode_ns"] = float64(decReq+decResp) / msgs
	o.values["wire.allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / msgs

	// Calls go in batches the probe pipeline can buffer, with a flush
	// between batches outside the timing: otherwise the calls would
	// wait on the sinks' drain rate instead of measuring their own cost.
	const batch = 32
	var took time.Duration
	for p := 0; p < directPasses; p++ {
		for lo := 0; lo < len(reqs); lo += batch {
			t0 := time.Now()
			for i := lo; i < min(lo+batch, len(reqs)); i++ {
				if _, err := srv.FullHashes(&reqs[i]); err != nil {
					o.fail("direct FullHashes: %v", err)
				}
			}
			took += time.Since(t0)
			srv.Flush()
		}
	}
	o.values["sbserver.fullhashes_ns"] = float64(took) / float64(calls)
	return calls, (encReq + decResp) / time.Duration(calls)
}
