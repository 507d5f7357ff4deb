package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
)

// feedMode selects a probe-feed run's source and renderer.
type feedMode int

const (
	// replayMode (-probe-store) reads a store once with Replay and
	// prints the final report.
	replayMode feedMode = iota
	// followMode (-follow) tails a store with Follow until SIGINT and
	// prints the final report.
	followMode
	// liveMode (-live) tails a store with Follow through windowed
	// stages and redraws a dashboard every refresh until SIGINT or
	// -exit-idle.
	liveMode
)

// source names the mode's store reader in error messages.
func (m feedMode) source() string {
	if m == replayMode {
		return "replay"
	}
	return "follow"
}

// feed is one probe-feed analysis, built by run from the flags: which
// store to read and how, what to score, and how to render it.
type feed struct {
	dir    string
	mode   feedMode
	window func(time.Time) bool // the -since/-until filter

	indexFile      string
	client         string
	longitudinal   bool
	linkage        core.LongitudinalConfig
	correlatorFile string
	snapshotOut    string

	// Tail and dashboard settings; windowDays, refresh and exitIdle
	// apply to liveMode only.
	windowDays int
	refresh    time.Duration
	poll       time.Duration
	exitIdle   time.Duration
}

// sinks is the one fan-out every source feeds: the stream pipeline
// plus the plain consumers that ride along. Nil members are off.
type sinks struct {
	window      func(time.Time) bool
	pl          *stream.Pipeline
	corr        *core.Correlator
	cookies     map[string]struct{} // distinct-cookie counter of the summary run
	printProbes bool                // per-probe printer of -follow
	client      string              // restricts the printer to one cookie

	delivered atomic.Int64 // probes the source delivered, before the filter
	fed       int64        // probes inside the -since/-until window
}

// empty reports whether nothing would consume the feed.
func (s *sinks) empty() bool {
	return s.pl == nil && s.corr == nil && s.cookies == nil && !s.printProbes
}

// observe hands one delivered probe to every sink, if the window keeps
// it.
func (s *sinks) observe(p sbserver.Probe) error {
	s.delivered.Add(1)
	if !s.window(p.Time) {
		return nil
	}
	s.fed++
	if s.pl != nil {
		s.pl.Observe(p)
	}
	if s.corr != nil {
		s.corr.Observe(p)
	}
	if s.cookies != nil {
		s.cookies[p.ClientID] = struct{}{}
	}
	if s.printProbes && (s.client == "" || p.ClientID == s.client) {
		fmt.Printf("%s\t%s\t%v\n",
			p.Time.UTC().Format("2006-01-02T15:04:05.000Z"), p.ClientID, p.Prefixes)
	}
	return nil
}

// analyze runs one probe-feed analysis: a source (Replay or Follow of
// the store) through the -since/-until filter into one fan-out (the
// stream pipeline plus the plain sinks), then a renderer (the final
// report, or the rolling dashboard on a ticker for liveMode).
func analyze(f feed) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Load the rules and the index before touching the store, so bad
	// input fails fast.
	var rules []core.CorrelationRule
	if f.correlatorFile != "" {
		var err error
		if rules, err = loadRules(f.correlatorFile); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: load rules %s: %v\n", f.correlatorFile, err)
			return 1
		}
	}
	if f.mode == liveMode && f.indexFile == "" {
		f.indexFile = filepath.Join(f.dir, "index.urls")
		if err := waitForFile(ctx, f.indexFile, f.poll); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: index %s: %v\n", f.indexFile, err)
			return 1
		}
	}
	var index *core.Index
	var indexed int
	if f.indexFile != "" {
		var err error
		if index, indexed, err = loadIndex(f.indexFile); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: load index %s: %v\n", f.indexFile, err)
			return 1
		}
	}
	store, err := probestore.Open(f.dir, probestore.ReadOnly())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
		return 1
	}

	s := &sinks{window: f.window, client: f.client}
	if index != nil {
		// Window 0 is batch semantics: the stages then deep-equal
		// core.Analyzer and core.Longitudinal over the same probes.
		windowDays := 0
		if f.mode == liveMode {
			windowDays = f.windowDays
		}
		stages := []stream.Stage{stream.NewReidentStage(index, windowDays)}
		if f.longitudinal || f.mode == liveMode {
			stages = append(stages, stream.NewLinkageStage(index, f.linkage, windowDays))
		}
		s.pl = stream.NewPipeline(stages...)
	}
	if rules != nil {
		s.corr = core.NewCorrelator(rules...)
	}
	// A plain tail and a -client watch stream per-probe lines; an
	// -index-only tail stays quiet until the report.
	s.printProbes = f.mode == followMode && (index == nil || f.client != "")
	if f.mode == replayMode && index == nil && f.client == "" {
		s.cookies = make(map[string]struct{})
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush() //nolint:errcheck // stdout flush at exit

	switch f.mode {
	case replayMode:
		if err := renderStoreHeader(w, store, f.dir, f.client, f.window); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
			return 1
		}
	case followMode:
		if index != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: following %s with a %d-URL index; stop with SIGINT\n", f.dir, indexed)
		} else {
			fmt.Fprintf(os.Stderr, "sbanalyze: following %s; stop with SIGINT\n", f.dir)
		}
	case liveMode:
		fmt.Fprintf(os.Stderr,
			"sbanalyze: live dashboard over %s (%d-URL index, %s window); stop with SIGINT\n",
			f.dir, indexed, windowLabel(f.windowDays))
	}

	if f.mode != replayMode || !s.empty() {
		if err := f.run(ctx, store, s); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: %s: %v\n", f.mode.source(), err)
			return 1
		}
	}
	if f.mode != replayMode {
		fmt.Fprintf(os.Stderr, "sbanalyze: tail stopped after %d probes\n", s.fed)
	}

	var snaps []stream.StageSnapshot
	if s.pl != nil {
		snaps = s.pl.Snapshot()
	}
	switch f.mode {
	case replayMode:
		renderReports(w, fmt.Sprintf("%d indexed URLs", indexed), snaps)
		if s.cookies != nil {
			fmt.Fprintf(w, "distinct clients\t%d\t\n", len(s.cookies))
			fmt.Fprintln(w, "\n(pass -index urls.txt to run the re-identification analysis,")
			fmt.Fprintln(w, " or -client COOKIE to dump one client's history)")
		}
		if s.corr != nil {
			renderCorrelation(w, len(rules), s.corr.Events())
		}
	case followMode:
		renderReports(w, "the followed stream", snaps)
	case liveMode:
		renderDashboard(os.Stdout, false, f.dir, f.windowDays, s.pl)
		fmt.Println("\n== final snapshot ==")
		fmt.Print(snapshotText(snaps))
	}
	if s.pl != nil && f.snapshotOut != "" {
		if err := os.WriteFile(f.snapshotOut, []byte(snapshotText(snaps)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: write snapshot: %v\n", err)
			return 1
		}
	}
	return 0
}

// run drives the source into the sinks until it ends: Replay returns
// at the end of the store; Follow runs until ctx is cancelled or, in
// liveMode, the feed has been idle for exitIdle. In liveMode a
// dashboard frame is drawn every refresh meanwhile.
func (f feed) run(ctx context.Context, store *probestore.Store, s *sinks) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		if f.mode == replayMode {
			done <- store.Replay(func(p sbserver.Probe) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				return s.observe(p)
			})
			return
		}
		done <- store.Follow(ctx, s.observe, probestore.WithFollowPoll(f.poll))
	}()

	var tick <-chan time.Time
	if f.mode == liveMode {
		ticker := time.NewTicker(f.refresh)
		defer ticker.Stop()
		tick = ticker.C
	}
	clear := isTerminal(os.Stdout)
	var lastDelivered int64
	lastChange := time.Now()
	for {
		select {
		case err := <-done:
			return err
		case <-tick:
			if n := s.delivered.Load(); n != lastDelivered {
				lastDelivered, lastChange = n, time.Now()
			}
			renderDashboard(os.Stdout, clear, f.dir, f.windowDays, s.pl)
			if idle := time.Since(lastChange); f.exitIdle > 0 && lastDelivered > 0 && idle >= f.exitIdle {
				fmt.Fprintf(os.Stderr, "sbanalyze: feed idle for %s, stopping\n", idle.Round(time.Second))
				cancel()
				return <-done
			}
		}
	}
}

// waitForFile blocks until path exists. The writing process
// (experiments -campaign) drops the index into the store directory
// just before its first probe; a dashboard started a beat earlier is
// normal, so it waits instead of failing the race.
func waitForFile(ctx context.Context, path string, poll time.Duration) error {
	for waited := false; ; waited = true {
		if _, err := os.Stat(path); err == nil {
			return nil
		} else if !os.IsNotExist(err) {
			return err
		}
		if !waited {
			fmt.Fprintf(os.Stderr, "sbanalyze: waiting for index %s\n", path)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted before it appeared")
		case <-time.After(poll):
		}
	}
}

// renderStoreHeader prints the store's segment table and, with
// -client, the cookie's history inside the window. The history comes
// from ClientHistory, which consults the per-segment bloom sidecars
// and opens only the segments that may contain the cookie.
func renderStoreHeader(w io.Writer, store *probestore.Store, dir, client string, window func(time.Time) bool) error {
	fmt.Fprintf(w, "== probe store %s ==\n", dir)
	fmt.Fprintln(w, "segment\trecords\tbytes")
	var records int
	for _, seg := range store.Segments() {
		fmt.Fprintf(w, "%08d\t%d\t%d\n", seg.ID, seg.Records, seg.Bytes)
		records += seg.Records
	}
	fmt.Fprintf(w, "total\t%d\t\n", records)
	if client == "" {
		return nil
	}
	history, err := store.ClientHistory(client)
	if err != nil {
		return err
	}
	kept := history[:0]
	for _, p := range history {
		if window(p.Time) {
			kept = append(kept, p)
		}
	}
	fmt.Fprintf(w, "\n== history of client %q (%d probes) ==\n", client, len(kept))
	fmt.Fprintln(w, "time\tprefixes")
	for _, p := range kept {
		fmt.Fprintf(w, "%s\t%v\n", p.Time.UTC().Format("2006-01-02T15:04:05.000Z"), p.Prefixes)
	}
	return nil
}

// renderReports prints each stage's final report under its heading;
// over is what the re-identification ran over.
func renderReports(w *tabwriter.Writer, over string, snaps []stream.StageSnapshot) {
	for _, s := range snaps {
		switch rep := s.Report.(type) {
		case *core.Report:
			fmt.Fprintf(w, "\n== re-identification over %s (%d clients) ==\n", over, len(rep.Clients))
		case *core.LongitudinalReport:
			fmt.Fprint(w, "\n== day-over-day longitudinal analysis ==\n")
		}
		w.Flush() //nolint:errcheck // the report prints verbatim after the table
		fmt.Print(s.Report)
	}
}

// renderCorrelation prints the temporal-correlation events.
func renderCorrelation(w io.Writer, rules int, events []core.CorrelationEvent) {
	fmt.Fprintf(w, "\n== temporal correlation (%d rules, %d events) ==\n", rules, len(events))
	fmt.Fprintln(w, "rule\tclient\tfirst\tlast")
	for _, e := range events {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", e.Rule, e.ClientID,
			e.First.UTC().Format("2006-01-02T15:04:05Z"),
			e.Last.UTC().Format("2006-01-02T15:04:05Z"))
	}
}

// windowLabel renders a window size for humans.
func windowLabel(days int) string {
	if days == 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d-day", days)
}

// isTerminal reports whether w is an interactive terminal, gating the
// ANSI clear between dashboard frames; piped output gets plain appends.
func isTerminal(f *os.File) bool {
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// renderDashboard draws one dashboard frame: pipeline totals, per-stage
// bounded-memory accounting, the window's re-identification rate, and
// the strongest linked chains.
func renderDashboard(out io.Writer, clear bool, dir string, windowDays int, pl *stream.Pipeline) {
	snaps := pl.Snapshot()
	if clear {
		fmt.Fprint(out, "\x1b[2J\x1b[H")
	}
	fmt.Fprintf(out, "== live analysis of %s (%s window, %d probes) ==\n",
		dir, windowLabel(windowDays), pl.Observed())

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tobserved\tresident cookies\tresident days\tevicted\tlate")
	for _, s := range snaps {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.Name,
			s.Stats.Observed, s.Stats.ResidentCookies, s.Stats.ResidentDays,
			s.Stats.EvictedRecords, s.Stats.LateDropped)
	}
	w.Flush() //nolint:errcheck // dashboard frame to stdout

	for _, s := range snaps {
		switch rep := s.Report.(type) {
		case *core.Report:
			total, hit := len(rep.Clients), 0
			for _, c := range rep.Clients {
				if len(c.ExactURLs) > 0 || len(c.Domains) > 0 {
					hit++
				}
			}
			rate := 0.0
			if total > 0 {
				rate = float64(hit) / float64(total)
			}
			fmt.Fprintf(out, "re-identified clients in window: %d/%d (%.1f%%)\n",
				hit, total, 100*rate)
		case *core.LongitudinalReport:
			chains := append([]core.ChainReport(nil), rep.Chains...)
			sort.SliceStable(chains, func(i, j int) bool {
				if len(chains[i].Cookies) != len(chains[j].Cookies) {
					return len(chains[i].Cookies) > len(chains[j].Cookies)
				}
				return chains[i].Confidence > chains[j].Confidence
			})
			if len(chains) > 5 {
				chains = chains[:5]
			}
			fmt.Fprintf(out, "linked chains in window: %d (top %d shown)\n", len(rep.Chains), len(chains))
			for _, c := range chains {
				fmt.Fprintf(out, "  %s  (confidence %.2f)\n",
					strings.Join(c.Cookies, " -> "), c.Confidence)
			}
		}
	}
}

// snapshotText renders a pipeline snapshot as the canonical snapshot
// text -snapshot-out writes: one titled section per stage, the stage
// report verbatim. Every mode writes it through this one function, so
// a live run and a replay of the same sealed store compare with a
// byte diff.
func snapshotText(snaps []stream.StageSnapshot) string {
	var b strings.Builder
	for _, s := range snaps {
		fmt.Fprintf(&b, "== %s ==\n", s.Name)
		b.WriteString(s.Report.String())
		if !strings.HasSuffix(b.String(), "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
