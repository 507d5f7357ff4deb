// Command sbserver runs a Safe Browsing server over HTTP, loaded with
// the synthetic GSB or YSB blacklists (Tables 1 and 3, scaled) and
// optionally with extra URLs from a file.
//
// Usage:
//
//	sbserver -addr :8045 -provider yandex -scale 100
//	sbserver -urls blacklist.txt -probe-log-limit 100000 -probe-drop
//	sbserver -probe-store /var/log/sb-probes -probe-store-retain 64
//	sbserver -rate-limit 500 -rate-burst 100 -max-inflight 64
//
// With -rate-limit or -max-inflight the HTTP handlers sit behind a
// token-bucket admission limiter and an in-flight concurrency gate
// (internal/sbserver.Limiter); rejected requests get 429 with a
// Retry-After hint that sbclient's retry layer honors.
//
// With -probe-store every observed probe is additionally persisted to a
// segmented on-disk log (internal/probestore) that cmd/sbanalyze can
// replay offline — the durable retention layer of the paper's threat
// model.
//
// On SIGINT/SIGTERM the server shuts down gracefully: the HTTP listener
// stops, the probe pipeline is flushed, the probe store (if any) is
// spilled and synced, and the probe counters are printed — the
// provider's final accounting of what it observed.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8045", "listen address")
		provider  = flag.String("provider", "google", "blacklist inventory: google or yandex")
		scale     = flag.Int("scale", 100, "scale divisor for list sizes")
		seed      = flag.Int64("seed", 2015, "generation seed")
		urlsFile  = flag.String("urls", "", "file of URLs (one per line) to blacklist on top of the synthetic lists")
		urlsList  = flag.String("urls-list", "goog-malware-shavar", "list receiving -urls entries")
		probeBuf  = flag.Int("probe-buffer", sbserver.DefaultProbeBuffer, "probe pipeline buffer size")
		probeCap  = flag.Int("probe-log-limit", 0, "keep only the most recent N probes (0 = unbounded)")
		probeDrop = flag.Bool("probe-drop", false, "shed probes when the pipeline is saturated instead of applying backpressure")

		storeDir      = flag.String("probe-store", "", "directory for the persistent probe store (empty = in-memory log only)")
		storeSegMB    = flag.Int("probe-store-segment-mb", 4, "probe store segment rotation size in MiB")
		storeRetain   = flag.Int("probe-store-retain", 0, "keep only the newest N probe store segments (0 = keep all)")
		storeRetainMB = flag.Int("probe-store-retain-mb", 0, "bound the probe store to N MiB on disk (0 = unbounded)")

		rateLimit   = flag.Float64("rate-limit", 0, "token-bucket admission rate in requests/second (0 = unlimited)")
		rateBurst   = flag.Int("rate-burst", 0, "token-bucket burst capacity (0 = ceil(rate-limit))")
		maxInflight = flag.Int("max-inflight", 0, "max concurrent requests in flight before shedding with 429 (0 = unlimited)")
	)
	flag.Parse()

	// With a durable store handling retention, an unbounded in-memory
	// log would just re-accumulate every probe until OOM on a long run;
	// bound it unless the operator chose a limit (0 stays honored when
	// passed explicitly).
	if *storeDir != "" {
		logLimitSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "probe-log-limit" {
				logLimitSet = true
			}
		})
		if !logLimitSet {
			*probeCap = 65536
			log.Printf("probe store enabled: bounding in-memory probe log to %d (override with -probe-log-limit)", *probeCap)
		}
	}

	var p blacklist.Provider
	switch *provider {
	case "google":
		p = blacklist.Google
	case "yandex":
		p = blacklist.Yandex
	default:
		fmt.Fprintf(os.Stderr, "sbserver: unknown provider %q\n", *provider)
		return 2
	}

	opts := []sbserver.Option{
		sbserver.WithProbeBuffer(*probeBuf),
		sbserver.WithProbeLogLimit(*probeCap),
	}
	if *probeDrop {
		opts = append(opts, sbserver.WithProbeOverflow(sbserver.OverflowDrop))
	}
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: p, Scale: *scale, Seed: *seed, ServerOptions: opts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
		return 1
	}
	if *urlsFile != "" {
		n, err := loadURLs(u.Server, *urlsList, *urlsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbserver: load %s: %v\n", *urlsFile, err)
			return 1
		}
		log.Printf("loaded %d URLs from %s into %s", n, *urlsFile, *urlsList)
	}
	var store *probestore.Store
	if *storeDir != "" {
		store, err = probestore.Open(*storeDir,
			probestore.WithMaxSegmentBytes(int64(*storeSegMB)<<20),
			probestore.WithRetainSegments(*storeRetain),
			probestore.WithRetainBytes(int64(*storeRetainMB)<<20),
		)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
			return 1
		}
		u.Server.Subscribe(store)
		st := store.Stats()
		// Persisted counts every record scanned at open; at-Open
		// retention may have evicted some of them already.
		log.Printf("probe store %s: %d segments, %d records retained",
			*storeDir, st.Segments, st.Persisted-st.EvictedRecords)
	}
	for _, name := range u.Server.ListNames() {
		n, _ := u.Server.ListLen(name)
		log.Printf("list %-36s %7d prefixes", name, n)
	}
	log.Printf("serving %s blacklists on http://%s", p, *addr)

	var handlerOpts []sbserver.HandlerOption
	if *rateLimit > 0 || *maxInflight > 0 {
		limiter := sbserver.NewLimiter(sbserver.LimitConfig{
			RatePerSec:  *rateLimit,
			Burst:       *rateBurst,
			MaxInFlight: *maxInflight,
		})
		handlerOpts = append(handlerOpts, sbserver.WithLimiter(limiter))
		log.Printf("admission limits: rate=%g/s burst=%d max-inflight=%d",
			*rateLimit, *rateBurst, *maxInflight)
	}
	httpServer := newHTTPServer(*addr, sbserver.Handler(u.Server, handlerOpts...))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()

	exit := 0
	select {
	case err := <-errCh:
		// The listener died on its own; still drain the pipeline and
		// persist the probe store below — the probes already observed
		// are the provider's data and must survive this exit too.
		fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
		exit = 1
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			log.Printf("sbserver: shutdown: %v", err)
		}
	}
	if err := u.Server.Close(); err != nil { // flush the probe pipeline
		log.Printf("sbserver: close: %v", err)
	}
	stats := u.Server.ProbeStats()
	log.Printf("probes: received=%d dropped=%d evicted=%d", stats.Received, stats.Dropped, stats.Evicted)
	if store != nil {
		// The pipeline is drained, so the store has seen everything;
		// persist the buffered tail. A failure here means probes were
		// lost — reflect it in the exit code, not just the log.
		if err := store.Close(); err != nil {
			log.Printf("sbserver: probe store close: %v", err)
			exit = 1
		}
		st := store.Stats()
		log.Printf("probe store: persisted=%d segments=%d bytes=%d evicted=%d dropped=%d writeErrors=%d",
			st.Persisted, st.Segments, st.LiveBytes, st.EvictedRecords, st.Dropped, st.WriteErrors)
	}
	return exit
}

// Connection time bounds. Every request body is capped in size by the
// handlers; these cap it in time, so a client that trickles a body (or
// never reads its answer) cannot hold a connection and a -max-inflight
// slot indefinitely. The largest request body is about 130 KiB and
// the largest answer, a fresh client's download, a few MiB.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the server for h on addr, with the connection
// time bounds above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// loadURLs streams a URL file into the server in batches via AddURLs.
func loadURLs(s *sbserver.Server, list, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errcheck // read-side close

	const batchSize = 512
	total := 0
	batch := make([]string, 0, batchSize)
	add := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := s.AddURLs(list, batch); err != nil {
			return err
		}
		total += len(batch)
		batch = batch[:0]
		return nil
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		batch = append(batch, line)
		if len(batch) == batchSize {
			if err := add(); err != nil {
				return total, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return total, err
	}
	if err := add(); err != nil {
		return total, err
	}
	if total == 0 {
		return 0, errors.New("no URLs found")
	}
	return total, nil
}
