package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from this build's output")

// asMainEnv makes the test binary run sbanalyze's main instead of the
// tests, so the golden tests drive the real command line: flag
// parsing, signal handling and exit codes included.
const asMainEnv = "SBANALYZE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
	}
	code := m.Run()
	if campaignDir != "" {
		os.RemoveAll(campaignDir) //nolint:errcheck // best-effort temp cleanup
	}
	os.Exit(code)
}

var (
	campaignOnce sync.Once
	campaignDir  string
	campaignErr  error
)

// goldenStore returns a sealed, seeded campaign store (3 days × 50
// clients, seed 42, small segments so the store spans several files)
// with the campaign's web index written next to it as index.urls, the
// layout "experiments -campaign" leaves behind. It is built once per
// test binary; the directory is read-only to every test.
func goldenStore(t *testing.T) string {
	t.Helper()
	campaignOnce.Do(func() {
		campaignDir, campaignErr = os.MkdirTemp("", "sbanalyze-golden-")
		if campaignErr != nil {
			return
		}
		campaignErr = writeCampaignStore(campaignDir)
	})
	if campaignErr != nil {
		t.Fatalf("build campaign store: %v", campaignErr)
	}
	return campaignDir
}

func writeCampaignStore(dir string) error {
	camp, err := workload.Generate(workload.Config{Days: 3, Clients: 50, Seed: 42})
	if err != nil {
		return err
	}
	store, err := probestore.Open(dir, probestore.WithMaxSegmentBytes(8<<10))
	if err != nil {
		return err
	}
	if _, err := camp.Run(context.Background(), store); err != nil {
		return errors.Join(err, store.Close())
	}
	if err := store.Close(); err != nil {
		return err
	}
	index := strings.Join(camp.IndexExpressions(), "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "index.urls"), []byte(index), 0o644); err != nil {
		return err
	}
	// A rule over two pages one seed-42 user revisits daily, and one
	// over pages of sites no single user's browsing pairs up.
	rules := "site-004-pair 2h site-004.example/section/item9 site-004.example/page2\n" +
		"cross-site 10m site-010.example/page0 site-004.example/page2\n"
	return os.WriteFile(filepath.Join(dir, "rules.txt"), []byte(rules), 0o644)
}

// goldenClient is a seed-42 cookie with probes on every day.
const goldenClient = "u00002"

// sbanalyze starts the command with args; its stdout and stderr are
// collected into the returned buffers.
func sbanalyze(ctx context.Context, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	return cmd, &stdout, &stderr
}

// runSbanalyze runs the command to completion and returns its stdout,
// failing the test unless it exits 0.
func runSbanalyze(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd, stdout, stderr := sbanalyze(ctx, args...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("sbanalyze %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout.String()
}

// checkGolden compares got, with the store path normalised to $STORE,
// against testdata/name, or rewrites the file under -update.
func checkGolden(t *testing.T, name, dir, got string) {
	t.Helper()
	got = strings.ReplaceAll(got, dir, "$STORE")
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden (first difference: %s)\ngot:\n%s", name, firstDiff(got, string(want)), got)
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "none"
}

// readFile returns a file the command wrote, failing the test if it
// cannot be read.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(b)
}

// TestGoldenReplay pins the byte output of every -probe-store mode on
// the seeded campaign store.
func TestGoldenReplay(t *testing.T) {
	t.Parallel()
	dir := goldenStore(t)
	index := filepath.Join(dir, "index.urls")
	rules := filepath.Join(dir, "rules.txt")
	cases := []struct {
		name string
		args []string
	}{
		{"summary", []string{"-probe-store", dir}},
		{"index", []string{"-probe-store", dir, "-index", index}},
		{"client", []string{"-probe-store", dir, "-client", goldenClient}},
		{"correlator", []string{"-probe-store", dir, "-correlator", rules, "-since", "2016-03-08"}},
		{"client-correlator", []string{"-probe-store", dir, "-client", goldenClient, "-correlator", rules}},
		{"client-index", []string{"-probe-store", dir, "-client", goldenClient, "-index", index, "-until", "2016-03-08T12:00:00Z"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, c.name+".golden", dir, runSbanalyze(t, c.args...))
		})
	}
	t.Run("longitudinal", func(t *testing.T) {
		t.Parallel()
		snap := filepath.Join(t.TempDir(), "batch.txt")
		out := runSbanalyze(t, "-probe-store", dir, "-index", index, "-longitudinal", "-snapshot-out", snap)
		checkGolden(t, "longitudinal.golden", dir, out)
		checkGolden(t, "longitudinal.snapshot.golden", dir, readFile(t, snap))
	})
}

// TestGoldenFollow pins -follow on a sealed store: the tail delivers
// the whole history, then SIGINT stops it and the report prints. Each
// run watches the cookie of the store's last record, so its printed
// lines show when the history has drained.
func TestGoldenFollow(t *testing.T) {
	t.Parallel()
	dir := goldenStore(t)
	cases := []struct {
		name  string
		since string
		args  []string
	}{
		{"follow", "", []string{"-index", filepath.Join(dir, "index.urls")}},
		{"follow-client", "2016-03-08", []string{"-since", "2016-03-08"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cookie, lines := lastCookie(t, dir, c.since)
			args := append([]string{"-follow", dir, "-client", cookie, "-follow-poll", "20ms"}, c.args...)
			stdout, stderr := followUntilSIGINT(t, cookie, lines, args...)
			checkGolden(t, c.name+".golden", dir, stdout)
			checkGolden(t, c.name+".stderr.golden", dir, stderr)
		})
	}
}

// lastCookie returns the cookie of the store's last record in replay
// order and how many of its probes lie at or after since.
func lastCookie(t *testing.T, dir, since string) (string, int) {
	t.Helper()
	window, err := parseWindow(since, "")
	if err != nil {
		t.Fatalf("parseWindow: %v", err)
	}
	store, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var probes []sbserver.Probe
	err = store.Replay(func(p sbserver.Probe) error {
		probes = append(probes, p)
		return nil
	})
	if err := errors.Join(err, store.Close()); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	last := probes[len(probes)-1]
	if !window(last.Time) {
		t.Fatalf("the store's last probe (%v) is outside [%s, ∞)", last.Time, since)
	}
	n := 0
	for _, p := range probes {
		if p.ClientID == last.ClientID && window(p.Time) {
			n++
		}
	}
	return last.ClientID, n
}

// followUntilSIGINT starts a -follow run, waits until it has printed
// lines probe lines of cookie (the last of them is the store's last
// record, so the history has drained), stops it with SIGINT and
// returns its output.
func followUntilSIGINT(t *testing.T, cookie string, lines int, args ...string) (stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd, _, errBuf := sbanalyze(ctx, args...)
	cmd.Stdout = nil
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("StdoutPipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var out strings.Builder
	seen, stopped := 0, false
	for sc := bufio.NewScanner(outPipe); sc.Scan(); {
		out.WriteString(sc.Text() + "\n")
		if f := strings.Split(sc.Text(), "\t"); len(f) == 3 && f[1] == cookie {
			seen++
		}
		// The banner that precedes the feed is printed after the SIGINT
		// handler is installed, so the signal stops the tail cleanly.
		if seen == lines && !stopped {
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatalf("SIGINT: %v", err)
			}
			stopped = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sbanalyze %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errBuf)
	}
	if !stopped {
		t.Fatalf("sbanalyze %s printed %d of %d lines of %s", strings.Join(args, " "), seen, lines, cookie)
	}
	return out.String(), errBuf.String()
}

// TestGoldenLive pins the final frame and snapshot of -live over a
// sealed store, stopped by -exit-idle.
func TestGoldenLive(t *testing.T) {
	t.Parallel()
	dir := goldenStore(t)
	snap := filepath.Join(t.TempDir(), "live.txt")
	out := runSbanalyze(t, "-live", dir, "-refresh", "1", "-exit-idle", "1", "-follow-poll", "20ms", "-snapshot-out", snap)
	// Earlier frames depend on timing; the final frame and snapshot do
	// not.
	i := strings.LastIndex(out, "== live analysis of")
	if i < 0 {
		t.Fatalf("no dashboard frame in output:\n%s", out)
	}
	final := out[i:]
	checkGolden(t, "live.golden", dir, final)
	checkGolden(t, "live.snapshot.golden", dir, readFile(t, snap))
}

// TestLiveHonoursSinceUntil checks that -since/-until filter the -live
// feed like every other source: a live run cut at -until ends on the
// same snapshot as a batch replay of the same window.
func TestLiveHonoursSinceUntil(t *testing.T) {
	t.Parallel()
	dir := goldenStore(t)
	tmp := t.TempDir()
	live, batch := filepath.Join(tmp, "live.txt"), filepath.Join(tmp, "batch.txt")
	runSbanalyze(t, "-live", dir, "-until", "2016-03-09", "-refresh", "1", "-exit-idle", "1",
		"-follow-poll", "20ms", "-snapshot-out", live)
	runSbanalyze(t, "-probe-store", dir, "-index", filepath.Join(dir, "index.urls"), "-longitudinal",
		"-until", "2016-03-09", "-snapshot-out", batch)
	got, want := readFile(t, live), readFile(t, batch)
	if got != want {
		t.Errorf("live -until snapshot differs from batch replay (first difference: %s)", firstDiff(got, want))
	}
	if full := readFile(t, filepath.Join("testdata", "live.snapshot.golden")); got == full {
		t.Error("-until left the live snapshot unchanged")
	}
}

// TestFlagConflictsExit2 checks that mode and flag combinations that
// cannot apply are rejected with exit status 2 before any work.
func TestFlagConflictsExit2(t *testing.T) {
	t.Parallel()
	dir := goldenStore(t)
	for _, args := range [][]string{
		{"-live", dir, "-client", goldenClient},
		{"-probe-store", dir, "-follow", dir},
		{"-probe-store", dir, "-longitudinal"},
		{"-follow", dir, "-correlator", filepath.Join(dir, "rules.txt")},
		{"-until", "2016-03-09"},
		{"-probe-store", dir, "-since", "2016-03-09", "-until", "2016-03-08"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd, _, stderr := sbanalyze(ctx, args...)
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("sbanalyze %s: got %v, want exit status 2\nstderr:\n%s", strings.Join(args, " "), err, stderr)
		}
	}
}
