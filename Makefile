GO ?= go

.PHONY: check build vet lint test race bench docs-check examples-check ablate-smoke loadrig-smoke idxbench-guard live-smoke

check: build vet race

# docs-check is the documentation gate CI runs alongside check: go vet,
# the godoc comment lint over the API-bearing packages, the package-
# comment sweep over every internal/ package, and a link check on
# README.md and docs/*.md (see tools/doccheck).
docs-check: vet
	$(GO) run ./tools/doccheck

# examples-check keeps the runnable surface honest: every example
# builds, the quickstart actually runs, and every command quoted in the
# experiments playbook still parses its flags.
examples-check:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
	$(GO) run ./tools/doccheck -cmds docs/EXPERIMENTS.md

# ablate-smoke runs the mitigation ablation grid on a small campaign
# (every cell re-run and checked deep-equal) under a wall-clock budget;
# CI's ablation-smoke job calls this.
ablate-smoke:
	timeout 300 $(GO) run ./cmd/experiments -ablate -days 3 -clients 200 -seed 42

# loadrig-smoke drives a short fleet run over real loopback sockets
# with a server-side rate limit low enough to force 429 + Retry-After
# traffic, then validates the emitted report by re-reading it; CI's
# bench-smoke job calls this. The report goes to a temp path and is
# cleaned up — BENCH_*.json in the repo root are deliberate trajectory
# artifacts, not smoke-test droppings (see docs/EXPERIMENTS.md).
loadrig-smoke:
	out=$$(mktemp -t BENCH_loadrig.XXXXXX.json) && \
	trap 'rm -f "$$out"' EXIT && \
	timeout 120 $(GO) run ./cmd/experiments -loadrig \
		-loadrig-workers 8 -loadrig-clients 64 -loadrig-requests 200 \
		-loadrig-rate 4000 -loadrig-burst 100 -loadrig-retries 20 \
		-bench-out "$$out" && \
	$(GO) run ./tools/doccheck -bench "$$out"

# idxbench-guard benchmarks the serving-path prefix index (map-backed
# baseline vs flat open-addressing table) at CI-sized prefix counts,
# schema-validates the emitted report, and fails if the flat design's
# new/old lookup ratio regressed past the committed baseline
# (docs/BENCH_prefixtable_baseline.json) times the guard slack, if the
# flat design lost to the map outright at paper scale (1e6), or if a
# lookup allocated; CI's bench-guard job calls this.
idxbench-guard:
	out=$$(mktemp -t BENCH_prefixtable.XXXXXX.json) && \
	trap 'rm -f "$$out"' EXIT && \
	timeout 300 $(GO) run ./cmd/experiments -idxbench \
		-idxbench-sizes 100000,1000000 -idxbench-lookups 262144 \
		-bench-out "$$out" && \
	$(GO) run ./tools/doccheck -bench "$$out" \
		-bench-baseline docs/BENCH_prefixtable_baseline.json

# live-smoke is the streaming-pipeline acceptance run: a short campaign
# writes a probe store from one process while "sbanalyze -live" tails
# the same directory from another, rendering the rolling dashboard and
# exiting once the feed goes idle; a batch replay of the sealed store
# must then reproduce the live run's final snapshot byte-for-byte.
# A second live run with a 2-day window over the 3-day store exercises
# eviction and late drops (the store feeds probes in spill order): its
# final snapshot must match a replay of the window's days
# (-since 2016-03-08). CI's live-smoke job calls this. Binaries are
# prebuilt so the two processes start (and die) cleanly under timeout.
live-smoke:
	set -e; \
	work=$$(mktemp -d -t sb-live-smoke.XXXXXX); \
	trap 'rm -rf "$$work"' EXIT; \
	$(GO) build -o "$$work/experiments" ./cmd/experiments; \
	$(GO) build -o "$$work/sbanalyze" ./cmd/sbanalyze; \
	timeout 120 "$$work/experiments" -campaign -days 3 -clients 50 -seed 42 \
		-campaign-store "$$work/store" > "$$work/campaign.log" & camp=$$!; \
	timeout 180 "$$work/sbanalyze" -live "$$work/store" \
		-refresh 1 -exit-idle 4 -follow-poll 20ms \
		-snapshot-out "$$work/live.txt" > "$$work/live.log"; \
	wait $$camp; \
	timeout 120 "$$work/sbanalyze" -probe-store "$$work/store" \
		-index "$$work/store/index.urls" -longitudinal \
		-snapshot-out "$$work/batch.txt" > /dev/null; \
	cmp "$$work/live.txt" "$$work/batch.txt"; \
	timeout 120 "$$work/sbanalyze" -live "$$work/store" -window 2 \
		-refresh 1 -exit-idle 1 -follow-poll 20ms \
		-snapshot-out "$$work/live2.txt" > "$$work/live2.log"; \
	timeout 120 "$$work/sbanalyze" -probe-store "$$work/store" \
		-index "$$work/store/index.urls" -longitudinal -since 2016-03-08 \
		-snapshot-out "$$work/batch2.txt" > /dev/null; \
	cmp "$$work/live2.txt" "$$work/batch2.txt"; \
	awk '$$1 == "reident" && $$5 > 0 { ok = 1 } END { exit !ok }' "$$work/live2.log"; \
	echo "live-smoke: live snapshots match batch replays (unbounded and 2-day window)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's invariant analyzer suite (tools/sbcheck: clock
# discipline, seeded randomness, map-order determinism, Flush/Close
# error checking, lock-scope blocking, goroutine stop paths, context
# flow, hot-path allocation budget) and go vet; CI's lint job gates on
# it. The -waiver-budget flag holds the per-analyzer count of
# sbcheck:ignore comments to the committed lint-waivers.txt, so new
# suppressions take a reviewed edit to that file.
lint:
	$(GO) run ./tools/sbcheck -waiver-budget lint-waivers.txt ./...
	$(GO) vet ./...

test:
	$(GO) test -vet=all ./...

race:
	$(GO) test -race -vet=all ./...

bench:
	$(GO) test -run xxx -bench 'ServerConcurrent|AblationServerSeedDesign' -cpu=1,8 -benchmem .
