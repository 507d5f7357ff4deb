// Command sbanalyze is the provider-side analysis tool. It audits the
// blacklists, or it scores a probe feed read from a probe store.
//
// Blacklist audit mode (the default) runs the paper's Section 7 audit
// against the synthetic provider databases: orphan prefixes (Table 11),
// database inversion (Table 10) and multi-prefix URLs (Table 12):
//
//	sbanalyze -provider yandex -scale 100
//
// The probe-feed modes score the probes a store written by "sbserver
// -probe-store" or "experiments -campaign" holds. A provider that keeps
// the probe log can draw every conclusion later that a live wiretap
// draws now, so the three modes are one path that differs only at its
// two ends:
//
//	source   -probe-store DIR: Replay every probe once, then stop
//	         -follow DIR / -live DIR: Follow the store like tail -f,
//	         history first, until SIGINT/SIGTERM (or -exit-idle)
//	filter   -since/-until (RFC 3339 or "2006-01-02", UTC), [since, until)
//	sinks    the stream pipeline (internal/stream): a re-identification
//	         stage whenever there is an -index, plus a linkage stage
//	         for -longitudinal or -live; the -correlator engine; the
//	         per-probe printer of -follow; the distinct-cookie counter
//	         of a bare -probe-store summary
//	render   the final report, or for -live a rolling dashboard every
//	         -refresh seconds and the final snapshot
//
// -index is a file of URLs (one per line) standing in for the
// provider's web index. The pipeline's window is 0 days (everything,
// the batch analyzers' semantics) except under -live, where it is
// -window days. -snapshot-out writes the final pipeline snapshot's
// canonical text in every mode, so a live run and a replay of the same
// sealed store compare with a byte diff.
//
// Replay (-probe-store) prints the store's segments first; -client adds
// one cookie's raw probe history, read through the per-segment
// sidecars; -longitudinal (with -index) adds the day-over-day analysis:
// per-day activity, cookie linkage across resets and the linked
// identity chains. A campaign store replays into the identical report
// the live run printed:
//
//	sbanalyze -probe-store /var/log/sb-probes -index urls.txt
//	sbanalyze -probe-store /var/log/sb-probes -client victim-cookie
//	sbanalyze -probe-store /tmp/sb-campaign-X -index urls.txt -longitudinal
//	sbanalyze -probe-store /tmp/sb-campaign-X -index urls.txt -since 2016-03-08 -until 2016-03-10
//
// -correlator RULES runs the Section 6.3 temporal-correlation engine
// over the replayed window: RULES is a file with one rule per line,
// "NAME WINDOW URL [URL...]" (WINDOW is a Go duration; URLs are
// canonicalized, bare "host/path" expressions pass as-is; blank lines
// and #-comments are skipped). A rule fires when one client queried
// every listed URL's prefix within the window — the paper's "planning
// to submit a paper" inference:
//
//	sbanalyze -probe-store /tmp/sb-campaign-X -correlator rules.txt -since 2016-03-08
//
// Follow (-follow) prints every probe as it lands on disk; -client
// restricts the lines to one cookie; -index scores the tail and prints
// the report when it stops:
//
//	sbanalyze -follow /var/log/sb-probes -index urls.txt
//	sbanalyze -follow /var/log/sb-probes -client victim-cookie
//
// Live (-live) tails a store another process is still writing and
// redraws a dashboard: the window's re-identification rate, the top
// linked identity chains, and the eviction counters that bound
// resident state to the newest -window days. The index defaults to
// DIR/index.urls (the campaign writes it before its first probe).
// -exit-idle stops the tail once the feed has been silent that many
// seconds:
//
//	sbanalyze -live /tmp/sb-campaign-X -window 7 -refresh 2
//	sbanalyze -live /tmp/sb-campaign-X -exit-idle 5 -snapshot-out live.txt
//	sbanalyze -probe-store /tmp/sb-campaign-X -index urls.txt -longitudinal -snapshot-out batch.txt
//
// A store delivers probes in spill order: FIFO per cookie, but not in
// global time order. A windowed -live run therefore reports late drops
// whenever a probe arrives after its day left the window; every such
// probe lies outside the final window, so the final snapshot still
// equals a replay restricted to that window. -follow-poll tunes how
// often an idle tail re-checks the directory (default 50ms).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/urlx"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		provider     = flag.String("provider", "yandex", "google or yandex")
		scale        = flag.Int("scale", 100, "scale divisor")
		seed         = flag.Int64("seed", 2015, "generation seed")
		storeDir     = flag.String("probe-store", "", "replay a persisted probe log from this directory instead of auditing blacklists")
		followDir    = flag.String("follow", "", "tail a live probe-store directory, streaming probes until SIGINT")
		indexFile    = flag.String("index", "", "file of URLs (one per line) forming the provider's web index for re-identification")
		client       = flag.String("client", "", "print the probe history of one client cookie (-probe-store/-follow mode)")
		since        = flag.String("since", "", "ignore probes before this time (RFC 3339 or 2006-01-02, UTC; every probe-store mode)")
		until        = flag.String("until", "", "ignore probes at or after this time (RFC 3339 or 2006-01-02, UTC; every probe-store mode)")
		liveDir      = flag.String("live", "", "rolling dashboard over a probe-store directory another process is writing (streaming pipeline; stop with SIGINT)")
		windowDays   = flag.Int("window", 7, "live mode: sliding analysis window in days (0 = unbounded)")
		refreshSecs  = flag.Int("refresh", 2, "live mode: dashboard refresh interval in seconds")
		followPoll   = flag.Duration("follow-poll", probestore.DefaultFollowPoll, "idle poll interval of the store tail (follow/live mode)")
		exitIdle     = flag.Int("exit-idle", 0, "live mode: exit once the feed has been idle this many seconds after at least one probe (0 = run until SIGINT)")
		snapshotOut  = flag.String("snapshot-out", "", "write the canonical final-snapshot text to this file (any probe-store mode with an index)")
		longitudinal = flag.Bool("longitudinal", false, "also run the day-over-day cookie-linkage analysis (needs -index; replay mode)")
		correlator   = flag.String("correlator", "", "rules file for the temporal-correlation analysis over the replayed window (replay mode; see the package comment for the line format)")
		minShared    = flag.Int("min-shared", 0, "linkage (-longitudinal, -live): least shared profile elements per link (0 = default)")
		minSharedURL = flag.Int("min-shared-urls", 0, "linkage (-longitudinal, -live): least shared exact URLs per link (0 = default, negative allows none)")
		minLinkScore = flag.Float64("min-link-score", 0, "linkage (-longitudinal, -live): least overlap-coefficient score per link (0 = default)")
	)
	flag.Parse()

	modes := 0
	for _, m := range []string{*followDir, *storeDir, *liveDir} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "sbanalyze: -probe-store, -follow and -live are mutually exclusive")
		return 2
	}
	if *windowDays < 0 || *refreshSecs <= 0 || *exitIdle < 0 {
		fmt.Fprintln(os.Stderr, "sbanalyze: -window must be >= 0, -refresh > 0, -exit-idle >= 0")
		return 2
	}
	window, err := parseWindow(*since, *until)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
		return 2
	}
	if *longitudinal && (*indexFile == "" || *storeDir == "") {
		fmt.Fprintln(os.Stderr, "sbanalyze: -longitudinal needs -probe-store and -index")
		return 2
	}
	if *correlator != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "sbanalyze: -correlator needs -probe-store")
		return 2
	}
	if *client != "" && *liveDir != "" {
		fmt.Fprintln(os.Stderr, "sbanalyze: -client applies to -probe-store or -follow mode")
		return 2
	}
	f := feed{
		window:         window,
		indexFile:      *indexFile,
		client:         *client,
		longitudinal:   *longitudinal,
		correlatorFile: *correlator,
		snapshotOut:    *snapshotOut,
		linkage: core.LongitudinalConfig{
			MinShared:     *minShared,
			MinSharedURLs: *minSharedURL,
			MinLinkScore:  *minLinkScore,
		},
		windowDays: *windowDays,
		refresh:    time.Duration(*refreshSecs) * time.Second,
		poll:       *followPoll,
		exitIdle:   time.Duration(*exitIdle) * time.Second,
	}
	switch {
	case *storeDir != "":
		f.dir, f.mode = *storeDir, replayMode
	case *followDir != "":
		f.dir, f.mode = *followDir, followMode
	case *liveDir != "":
		f.dir, f.mode = *liveDir, liveMode
	}
	if f.dir != "" {
		return analyze(f)
	}
	if *since != "" || *until != "" {
		fmt.Fprintln(os.Stderr, "sbanalyze: -since/-until apply to -probe-store, -follow or -live mode")
		return 2
	}

	var p blacklist.Provider
	switch *provider {
	case "google":
		p = blacklist.Google
	case "yandex":
		p = blacklist.Yandex
	default:
		fmt.Fprintf(os.Stderr, "sbanalyze: unknown provider %q\n", *provider)
		return 2
	}
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{Provider: p, Scale: *scale, Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
		return 1
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush() //nolint:errcheck // stdout flush at exit

	fmt.Fprintf(w, "== orphan audit (%s, scale 1/%d) ==\n", p, *scale)
	fmt.Fprintln(w, "list\t0 hash\t1 hash\t2 hash\ttotal\torphan rate")
	for _, li := range u.Inventory {
		n, err := u.Server.ListLen(li.Name)
		if err != nil || n == 0 {
			continue
		}
		rep, err := blacklist.AuditOrphans(u.Server, li.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.4f\n",
			li.Name, rep.Zero, rep.One, rep.Two, rep.Total, rep.OrphanRate())
	}

	fmt.Fprintf(w, "\n== inversion audit ==\n")
	fmt.Fprintln(w, "list\tdataset\tmatches\trate")
	for _, li := range u.Inventory {
		if _, tracked := blacklist.Table10Rates[li.Name]; !tracked {
			continue
		}
		for _, ds := range blacklist.InversionDatasets {
			res, err := blacklist.Invert(u.Server, li.Name, ds.Name, u.Datasets[ds.Name])
			if err != nil {
				fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
				return 1
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.3f\n", li.Name, ds.Name, res.Matches, res.Rate)
		}
	}

	if p == blacklist.Yandex {
		fmt.Fprintf(w, "\n== multi-prefix scan (Table 12 candidates) ==\n")
		if err := u.PlantTable12("ydx-malware-shavar"); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
			return 1
		}
		hits, err := blacklist.FindMultiPrefixURLs(u.Server,
			[]string{"ydx-malware-shavar"}, u.Table12Candidates(), 2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
			return 1
		}
		fmt.Fprintln(w, "URL\tmatching decomposition\tprefix")
		for _, h := range hits {
			for i := range h.Expressions {
				url := ""
				if i == 0 {
					url = h.URL
				}
				fmt.Fprintf(w, "%s\t%s\t%v\n", url, h.Expressions[i], h.Prefixes[i])
			}
		}
	}
	return 0
}

// parseWindow builds the probe time filter from the -since/-until
// flags. Accepts RFC 3339 timestamps or bare UTC dates; an empty flag
// leaves that side unbounded. The window is [since, until).
func parseWindow(since, until string) (func(time.Time) bool, error) {
	parse := func(flag, v string) (time.Time, error) {
		if t, err := time.Parse(time.RFC3339, v); err == nil {
			return t, nil
		}
		t, err := time.Parse("2006-01-02", v)
		if err != nil {
			return time.Time{}, fmt.Errorf("-%s %q: want RFC 3339 or 2006-01-02", flag, v)
		}
		return t, nil
	}
	var lo, hi time.Time
	var err error
	if since != "" {
		if lo, err = parse("since", since); err != nil {
			return nil, err
		}
	}
	if until != "" {
		if hi, err = parse("until", until); err != nil {
			return nil, err
		}
	}
	if !lo.IsZero() && !hi.IsZero() && !lo.Before(hi) {
		return nil, fmt.Errorf("-since %s is not before -until %s", since, until)
	}
	return func(t time.Time) bool {
		if !lo.IsZero() && t.Before(lo) {
			return false
		}
		if !hi.IsZero() && !t.Before(hi) {
			return false
		}
		return true
	}, nil
}

// loadRules reads a correlation-rules file: one rule per line in the
// form "NAME WINDOW URL [URL...]", where WINDOW is a Go duration
// ("15m", "2h"). Blank lines and #-comments are skipped.
func loadRules(path string) ([]core.CorrelationRule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-side close

	var rules []core.CorrelationRule
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("line %d: want NAME WINDOW URL [URL...], got %q", line, text)
		}
		window, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad window %q: %w", line, fields[1], err)
		}
		exprs := make([]string, len(fields)-2)
		for i, u := range fields[2:] {
			if strings.Contains(u, "://") {
				c, err := urlx.Canonicalize(u)
				if err != nil {
					return nil, fmt.Errorf("line %d: url %q: %w", line, u, err)
				}
				u = c.String()
			}
			exprs[i] = u
		}
		rules = append(rules, core.NewCorrelationRule(fields[0], window, exprs...))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("no rules found")
	}
	return rules, nil
}

// loadIndex reads a URL-per-line file into the provider's web index.
// Full URLs are canonicalized; bare expressions ("host/path") are
// indexed as-is. Blank lines and #-comments are skipped.
func loadIndex(path string) (*core.Index, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //nolint:errcheck // read-side close

	index := core.NewIndex(nil)
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if strings.Contains(line, "://") {
			c, err := urlx.Canonicalize(line)
			if err != nil {
				return nil, 0, fmt.Errorf("line %q: %w", line, err)
			}
			line = c.String()
		}
		index.Add(line)
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("no URLs found")
	}
	return index, n, nil
}
