GO ?= go

.PHONY: all build fmt vet test race bench bench-all bench-check ci shard-smoke cluster-smoke campaign-smoke chaos-smoke hintserve-smoke status-smoke subtrial-smoke scenario-smoke cover fuzz

all: build

build:
	$(GO) build ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiment engine fans trials across goroutines; the race build is
# the gate that keeps it honest. The detector slows the simulations
# ~10×, so the heavy registry-wide tests shrink their scale under the
# race tag and the timeout is raised.
race:
	$(GO) test -race -timeout 45m ./...

# Figure-level and hot-path benchmarks, recorded to BENCH_hotpath.json
# (ns/op plus workers-vs-serial and LUT-vs-analytic speedups) so the
# perf trajectory is tracked in-repo. `make bench-all` additionally runs
# the ablation benchmarks without writing the JSON; `make bench-check`
# is the regression gate — it re-runs the hot-path micro-benchmarks,
# writes a fresh BENCH_current.json snapshot (the recorded trajectory is
# left untouched), and fails if any entry regressed more than 25%.
bench:
	$(GO) run ./cmd/benchjson -out BENCH_hotpath.json
	$(GO) run ./cmd/benchjson -out BENCH_hintserve.json \
		-bench 'HintServeUDP' -benchtime 1x \
		-microbench 'HintServeBatch' -microtime 200ms
	$(GO) run ./cmd/benchjson -out BENCH_figures.json \
		-bench 'BenchmarkFleet' -benchtime 1x \
		-microbench '^$$' -microtime 1x
	$(GO) run ./cmd/benchjson -out BENCH_scenario.json \
		-bench 'BenchmarkScenarioCity' -benchtime 1x \
		-microbench 'BenchmarkScenarioIdle|BenchmarkTimerWheel' -microtime 200ms

bench-all:
	$(GO) test -bench=. -benchtime=1x .

bench-check:
	$(GO) run ./cmd/benchjson -check BENCH_hotpath.json -out BENCH_current.json
	$(GO) run ./cmd/benchjson -check BENCH_hintserve.json -out BENCH_hintserve_current.json \
		-microbench 'HintServeBatch' -microtime 200ms
	$(GO) run ./cmd/benchjson -check BENCH_figures.json -out BENCH_figures_current.json \
		-microbench 'BenchmarkFleet' -microtime 1x
	$(GO) run ./cmd/benchjson -check BENCH_scenario.json -out BENCH_scenario_current.json \
		-microbench 'BenchmarkScenarioIdle|BenchmarkTimerWheel' -microtime 200ms

# Shard parity smoke: run one experiment through cmd/hintshard as a
# 3-shard coordinator on its in-process fleet (workers streaming their
# partials through the framed wire protocol) and diff the report
# against the single-process hintbench output. Any byte of drift fails.
# The registry-wide version of this check (every experiment, several
# shard counts, in-process) is TestReportsIdenticalAcrossShards.
shard-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/hintshard" ./cmd/hintshard && \
	$(GO) build -o "$$tmp/hintbench" ./cmd/hintbench && \
	"$$tmp/hintshard" -run fig3-1 -shards 3 -scale 0.2 -seed 42 > "$$tmp/sharded.out" && \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig3-1 > "$$tmp/single.out" && \
	diff "$$tmp/single.out" "$$tmp/sharded.out" && \
	echo "shard-smoke: 3-shard report is bit-identical to the single-process run"

# Work-stealing cluster smoke: a real TCP-loopback coordinator with a
# 6-shard queue and 3 connecting worker processes, one of which is
# deliberately killed mid-shard (it receives an assignment and exits
# without answering, forcing a re-dispatch). The merged report must be
# byte-identical to the single-process hintbench output; the surviving
# workers must exit 0 (they are stopped cleanly, even when they lose a
# speculative race). The addr-file wait loop fails fast with the
# coordinator's stderr if the coordinator dies before publishing its
# address. The registry-wide version of this check (every experiment ×
# both transports × several worker counts) is internal/cluster's
# determinism tests.
cluster-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hintshard" ./cmd/hintshard || exit 1; \
	$(GO) build -o "$$tmp/hintbench" ./cmd/hintbench || exit 1; \
	( timeout 240 "$$tmp/hintshard" -run fig3-1 -shards 6 -listen 127.0.0.1:0 \
		-addr-file "$$tmp/addr" -scale 0.2 -seed 42 > "$$tmp/cluster.out" 2> "$$tmp/coord.err" ) & \
	coord=$$!; \
	for i in $$(seq 100); do \
		[ -s "$$tmp/addr" ] && break; \
		kill -0 $$coord 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	[ -s "$$tmp/addr" ] || { echo "coordinator never published its address:"; cat "$$tmp/coord.err"; exit 1; }; \
	addr=$$(cat "$$tmp/addr"); \
	"$$tmp/hintshard" -connect "$$addr" -die-after-assign 1 2>/dev/null; \
	[ $$? -eq 3 ] || { echo "fault-injected worker did not die with code 3"; exit 1; }; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" 2> "$$tmp/w2.err" ) & w2=$$!; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" 2> "$$tmp/w3.err" ) & w3=$$!; \
	wait $$coord || { echo "coordinator failed:"; cat "$$tmp/coord.err"; exit 1; }; \
	wait $$w2 || { echo "worker 2 exited non-zero:"; cat "$$tmp/w2.err"; exit 1; }; \
	wait $$w3 || { echo "worker 3 exited non-zero:"; cat "$$tmp/w3.err"; exit 1; }; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig3-1 > "$$tmp/single.out" || exit 1; \
	diff "$$tmp/single.out" "$$tmp/cluster.out" || exit 1; \
	echo "cluster-smoke: TCP run with a killed worker is bit-identical to the single-process run"

# Campaign smoke: a real TCP-loopback fleet runs a 3-experiment campaign
# through one warm coordinator, with verification sampling on and one
# worker killed mid-campaign (it completes its first assignment, then
# dies holding its second, forcing a re-dispatch while later jobs are
# already queued). Each report — written by -report-dir in submission
# order — must be byte-identical to the standalone hintbench output of
# the same (experiment, scale, seed). The registry-level version of this
# check is internal/campaign's determinism tests.
campaign-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hintshard" ./cmd/hintshard || exit 1; \
	$(GO) build -o "$$tmp/hintbench" ./cmd/hintbench || exit 1; \
	( timeout 240 "$$tmp/hintshard" -campaign -shards 5 -scale 0.2 -seed 42 \
		-listen 127.0.0.1:0 -addr-file "$$tmp/addr" -verify 0.4 -report-dir "$$tmp/reports" \
		fig2-2 fig3-1 fig5-1:seed=7 > "$$tmp/campaign.out" 2> "$$tmp/coord.err" ) & \
	coord=$$!; \
	for i in $$(seq 100); do \
		[ -s "$$tmp/addr" ] && break; \
		kill -0 $$coord 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	[ -s "$$tmp/addr" ] || { echo "campaign coordinator never published its address:"; cat "$$tmp/coord.err"; exit 1; }; \
	addr=$$(cat "$$tmp/addr"); \
	"$$tmp/hintshard" -connect "$$addr" -die-after-assign 2 2>/dev/null; \
	[ $$? -eq 3 ] || { echo "fault-injected worker did not die with code 3"; exit 1; }; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" 2> "$$tmp/w2.err" ) & w2=$$!; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" 2> "$$tmp/w3.err" ) & w3=$$!; \
	wait $$coord || { echo "campaign coordinator failed:"; cat "$$tmp/coord.err"; exit 1; }; \
	wait $$w2 || { echo "worker 2 exited non-zero:"; cat "$$tmp/w2.err"; exit 1; }; \
	wait $$w3 || { echo "worker 3 exited non-zero:"; cat "$$tmp/w3.err"; exit 1; }; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig2-2 > "$$tmp/single1.out" || exit 1; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig3-1 > "$$tmp/single2.out" || exit 1; \
	"$$tmp/hintbench" -scale 0.2 -seed 7 fig5-1 > "$$tmp/single3.out" || exit 1; \
	diff "$$tmp/single1.out" "$$tmp/reports/job1-fig2-2.out" || exit 1; \
	diff "$$tmp/single2.out" "$$tmp/reports/job2-fig3-1.out" || exit 1; \
	diff "$$tmp/single3.out" "$$tmp/reports/job3-fig5-1.out" || exit 1; \
	echo "campaign-smoke: 3-experiment TCP campaign with a killed worker: every report bit-identical to hintbench"

# Chaos smoke: the hardened transport proven over real TCP under real
# faults. The coordinator's -chaos-plan drops, duplicates, delays, and
# hard-partitions its own outbound frames (the first three conns; kills
# capped so the run converges), and one of the three workers corrupts
# its outbound frames — so the rolling CRC32C chain, the heartbeat
# reaper, shard requeue, and worker reconnect are all exercised in one
# campaign. Worker exit codes are deliberately not gated: a worker whose
# final Stop was eaten by a fault exits non-zero by design. The
# coordinator's exit code and the byte-for-byte report diffs against
# hintbench are the assertions.
chaos-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hintshard" ./cmd/hintshard || exit 1; \
	$(GO) build -o "$$tmp/hintbench" ./cmd/hintbench || exit 1; \
	( timeout 240 "$$tmp/hintshard" -campaign -shards 5 -scale 0.2 -seed 42 \
		-listen 127.0.0.1:0 -addr-file "$$tmp/addr" -report-dir "$$tmp/reports" \
		-retries 12 -heartbeat 100ms -heartbeat-misses 20 \
		-chaos-seed 7 -chaos-plan "drop=0.05,dup=0.05,delay=0.2:2ms,partition=8,conns=6,kills=6" \
		-v fig2-2 fig3-1 > "$$tmp/campaign.out" 2> "$$tmp/coord.err" ) & \
	coord=$$!; \
	for i in $$(seq 100); do \
		[ -s "$$tmp/addr" ] && break; \
		kill -0 $$coord 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	[ -s "$$tmp/addr" ] || { echo "chaos coordinator never published its address:"; cat "$$tmp/coord.err"; exit 1; }; \
	addr=$$(cat "$$tmp/addr"); \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" -reconnect 10 \
		-chaos-seed 99 -chaos-plan "corrupt=0.2,kills=2" -v 2> "$$tmp/w1.err" ) & w1=$$!; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" -reconnect 10 -v 2> "$$tmp/w2.err" ) & w2=$$!; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" -reconnect 10 -v 2> "$$tmp/w3.err" ) & w3=$$!; \
	wait $$coord || { echo "chaos campaign coordinator failed:"; \
		cat "$$tmp/coord.err" "$$tmp/w1.err" "$$tmp/w2.err" "$$tmp/w3.err" 2>/dev/null; exit 1; }; \
	kill $$w1 $$w2 $$w3 2>/dev/null; wait $$w1 $$w2 $$w3 2>/dev/null; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig2-2 > "$$tmp/single1.out" || exit 1; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig3-1 > "$$tmp/single2.out" || exit 1; \
	diff "$$tmp/single1.out" "$$tmp/reports/job1-fig2-2.out" || exit 1; \
	diff "$$tmp/single2.out" "$$tmp/reports/job2-fig3-1.out" || exit 1; \
	grep -q "reconnecting" "$$tmp/w1.err" "$$tmp/w2.err" "$$tmp/w3.err" || { \
		echo "chaos-smoke passed but no injected fault forced a reconnect -- the plan is vacuous:"; \
		cat "$$tmp/coord.err" "$$tmp/w1.err" "$$tmp/w2.err" "$$tmp/w3.err" 2>/dev/null; exit 1; }; \
	echo "chaos-smoke: campaign under drops, dups, delays, partitions, and a corrupting worker: faults fired, sessions reconnected, every report bit-identical to hintbench"

# Control-plane smoke over real TCP, in two deterministic phases.
# Phase 1, before any worker connects (so no dispatch can race the
# mutations): scrape /status through the one-shot client, submit one
# job, submit-then-cancel another, reject a bogus cancel, and check the
# submitted/cancelled counters on /metrics. Phase 2: connect two
# workers and poll the live endpoint until a worker row shows nonzero
# streamed loops — proof the status plane observes the fleet mid-run.
# The second campaign job is deliberately heavy (fig3-5 at scale 0.5)
# so that window is wide. Finally every report — including the job
# submitted over HTTP — must be byte-identical to standalone hintbench,
# and the cancelled job must have written none. The whole exchange runs
# with a session token: the same -token that authenticates the workers'
# handshakes signs the HTTP mutations, an unsigned submit must be
# answered 401, and the read-only endpoints stay open.
status-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hintshard" ./cmd/hintshard || exit 1; \
	$(GO) build -o "$$tmp/hintbench" ./cmd/hintbench || exit 1; \
	( timeout 240 "$$tmp/hintshard" -campaign -shards 3 -scale 0.2 -seed 42 \
		-listen 127.0.0.1:0 -addr-file "$$tmp/addr" -token s3cr3t \
		-status-addr 127.0.0.1:0 -status-addr-file "$$tmp/saddr" \
		-report-dir "$$tmp/reports" \
		fig2-2 fig3-5:scale=0.5:shards=4 > "$$tmp/campaign.out" 2> "$$tmp/coord.err" ) & \
	coord=$$!; \
	for i in $$(seq 100); do \
		[ -s "$$tmp/addr" ] && [ -s "$$tmp/saddr" ] && break; \
		kill -0 $$coord 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	[ -s "$$tmp/saddr" ] || { echo "coordinator never published its control-plane address:"; cat "$$tmp/coord.err"; exit 1; }; \
	addr=$$(cat "$$tmp/addr"); saddr=$$(cat "$$tmp/saddr"); \
	"$$tmp/hintshard" -status "$$saddr" > "$$tmp/st1.out" || { echo "status scrape failed"; cat "$$tmp/coord.err"; exit 1; }; \
	grep -q "workers: none connected yet" "$$tmp/st1.out" || { echo "expected an empty fleet in phase 1:"; cat "$$tmp/st1.out"; exit 1; }; \
	if "$$tmp/hintshard" -status "$$saddr" -submit fig3-1:seed=7:shards=2 > /dev/null 2> "$$tmp/unauth.err"; then \
		echo "unsigned submit succeeded against a token-gated control plane"; exit 1; fi; \
	grep -q "401" "$$tmp/unauth.err" || { echo "unsigned submit did not answer 401:"; cat "$$tmp/unauth.err"; exit 1; }; \
	"$$tmp/hintshard" -status "$$saddr" -token s3cr3t -submit fig3-1:seed=7:shards=2 | grep -q '"job": 2' || { echo "submit did not yield job 2"; exit 1; }; \
	"$$tmp/hintshard" -status "$$saddr" -token s3cr3t -submit fig2-2:seed=9:shards=2 | grep -q '"job": 3' || { echo "second submit did not yield job 3"; exit 1; }; \
	"$$tmp/hintshard" -status "$$saddr" -token s3cr3t -cancel 3 > /dev/null || { echo "cancel of job 3 failed"; exit 1; }; \
	if "$$tmp/hintshard" -status "$$saddr" -token s3cr3t -cancel 17 2>/dev/null; then echo "cancel of a nonexistent job succeeded"; exit 1; fi; \
	"$$tmp/hintshard" -status "$$saddr" > "$$tmp/st2.out" || exit 1; \
	grep -q "job=3 .*state=cancelled" "$$tmp/st2.out" || { echo "cancelled job not shown cancelled:"; cat "$$tmp/st2.out"; exit 1; }; \
	"$$tmp/hintshard" -status "$$saddr" -metrics > "$$tmp/metrics.out" || exit 1; \
	grep -q "hintshard_jobs_submitted_total 2" "$$tmp/metrics.out" || { echo "submitted counter wrong:"; cat "$$tmp/metrics.out"; exit 1; }; \
	grep -q "hintshard_jobs_cancelled_total 1" "$$tmp/metrics.out" || { echo "cancelled counter wrong:"; cat "$$tmp/metrics.out"; exit 1; }; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" -token s3cr3t 2> "$$tmp/w1.err" ) & w1=$$!; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" -token s3cr3t 2> "$$tmp/w2.err" ) & w2=$$!; \
	live=0; \
	for i in $$(seq 400); do \
		"$$tmp/hintshard" -status "$$saddr" > "$$tmp/live.out" 2>/dev/null || break; \
		grep -Eq "worker=.* loops=[1-9]" "$$tmp/live.out" && { live=1; break; }; \
		kill -0 $$coord 2>/dev/null || break; \
	done; \
	[ "$$live" = 1 ] || { echo "never observed a worker with nonzero live throughput:"; cat "$$tmp/live.out" "$$tmp/coord.err" 2>/dev/null; exit 1; }; \
	wait $$coord || { echo "campaign coordinator failed:"; cat "$$tmp/coord.err"; exit 1; }; \
	wait $$w1 || { echo "worker 1 exited non-zero:"; cat "$$tmp/w1.err"; exit 1; }; \
	wait $$w2 || { echo "worker 2 exited non-zero:"; cat "$$tmp/w2.err"; exit 1; }; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig2-2 > "$$tmp/single1.out" || exit 1; \
	"$$tmp/hintbench" -scale 0.5 -seed 42 fig3-5 > "$$tmp/single2.out" || exit 1; \
	"$$tmp/hintbench" -scale 0.2 -seed 7 fig3-1 > "$$tmp/single3.out" || exit 1; \
	diff "$$tmp/single1.out" "$$tmp/reports/job1-fig2-2.out" || exit 1; \
	diff "$$tmp/single2.out" "$$tmp/reports/job2-fig3-5.out" || exit 1; \
	diff "$$tmp/single3.out" "$$tmp/reports/job3-fig3-1.out" || exit 1; \
	[ ! -e "$$tmp/reports/job4-fig2-2.out" ] || { echo "cancelled job wrote a report"; exit 1; }; \
	echo "status-smoke: live scrape, HTTP submit and cancel took effect, reports bit-identical to hintbench"

# Intra-trial sharding smoke: fig3-7 — a formerly single-trial-bound
# experiment whose trial space is now a sub-trial grid of
# protocol×env×repetition cells — runs as 4 shards over a real
# TCP-loopback fleet of 3 worker processes, and the merged report must
# be byte-identical to the single-process hintbench run. The Go-level
# version of this check (dispatch spread, mid-sub-trial worker kill,
# every sub-trial experiment) is internal/cluster's subtrial tests.
subtrial-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hintshard" ./cmd/hintshard || exit 1; \
	$(GO) build -o "$$tmp/hintbench" ./cmd/hintbench || exit 1; \
	( timeout 240 "$$tmp/hintshard" -run fig3-7 -shards 4 -listen 127.0.0.1:0 \
		-addr-file "$$tmp/addr" -scale 0.2 -seed 42 > "$$tmp/fleet.out" 2> "$$tmp/coord.err" ) & \
	coord=$$!; \
	for i in $$(seq 100); do \
		[ -s "$$tmp/addr" ] && break; \
		kill -0 $$coord 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	[ -s "$$tmp/addr" ] || { echo "coordinator never published its address:"; cat "$$tmp/coord.err"; exit 1; }; \
	addr=$$(cat "$$tmp/addr"); \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" 2> "$$tmp/w1.err" ) & w1=$$!; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" 2> "$$tmp/w2.err" ) & w2=$$!; \
	( timeout 240 "$$tmp/hintshard" -connect "$$addr" 2> "$$tmp/w3.err" ) & w3=$$!; \
	wait $$coord || { echo "coordinator failed:"; cat "$$tmp/coord.err"; exit 1; }; \
	wait $$w1 || { echo "worker 1 exited non-zero:"; cat "$$tmp/w1.err"; exit 1; }; \
	wait $$w2 || { echo "worker 2 exited non-zero:"; cat "$$tmp/w2.err"; exit 1; }; \
	wait $$w3 || { echo "worker 3 exited non-zero:"; cat "$$tmp/w3.err"; exit 1; }; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 fig3-7 > "$$tmp/single.out" || exit 1; \
	diff "$$tmp/single.out" "$$tmp/fleet.out" || exit 1; \
	echo "subtrial-smoke: fig3-7 fanned across a 3-worker TCP fleet is bit-identical to the single-process run"

# Scenario-engine smoke: the scn-oracle experiment is the differential
# gate — its shape checks require the event engine to match the
# slot-driven oracles byte-for-byte (Metrics, the MAC replay ports, the
# chunk-union property) and statistically where engines interleave —
# and a city-grid run fanned over a real 3-worker fleet must be
# bit-identical to the single-process report, proving one city trial
# shards across workers by client chunk.
scenario-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hintshard" ./cmd/hintshard || exit 1; \
	$(GO) build -o "$$tmp/hintbench" ./cmd/hintbench || exit 1; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 scn-oracle > "$$tmp/oracle.out" || \
		{ echo "scenario-smoke: oracle differentials failed"; cat "$$tmp/oracle.out"; exit 1; }; \
	"$$tmp/hintshard" -run city-grid -shards 3 -scale 0.2 -seed 42 > "$$tmp/sharded.out" || exit 1; \
	"$$tmp/hintbench" -scale 0.2 -seed 42 city-grid > "$$tmp/single.out" || exit 1; \
	diff "$$tmp/single.out" "$$tmp/sharded.out" || exit 1; \
	echo "scenario-smoke: oracle differentials passed; 3-shard city run bit-identical to the single process"

# Coverage floors for the packages that carry the serialization,
# sharding, scheduling, campaign, experiment, serving and scenario
# contracts — roughly five points under the measured totals (stats
# 89.4, parallel 97.9, cluster 89.3, campaign 98.0, hintserve 88.0,
# scenario 89.2, experiments 94.0 at the time of recording), so genuine
# coverage loss fails while run-to-run scheduling variance does not.
# Raise a floor when its package's coverage rises for good.
COVER_FLOORS = stats:84 parallel:93 cluster:84 campaign:93 hintserve:83 scenario:84 experiments:89

# Per-package coverage summary for the contract-bearing packages,
# enforced against COVER_FLOORS.
cover:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -cover ./internal/stats/ ./internal/parallel/ ./internal/cluster/ ./internal/campaign/ \
		./internal/hintserve/ ./internal/scenario/ ./internal/experiments/ > "$$tmp/cover.txt" || { cat "$$tmp/cover.txt"; exit 1; }; \
	cat "$$tmp/cover.txt"; \
	status=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$(awk -v p="repro/internal/$$pkg" '$$1 == "ok" && $$2 == p { for (i = 3; i <= NF; i++) if ($$i == "coverage:") { gsub(/%/, "", $$(i+1)); print $$(i+1) } }' "$$tmp/cover.txt"); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for internal/$$pkg"; status=1; continue; fi; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p >= f) }'; then \
			echo "cover: internal/$$pkg $$pct% (floor $$floor%)"; \
		else \
			echo "cover: internal/$$pkg $$pct% is BELOW the $$floor% floor"; status=1; \
		fi; \
	done; \
	exit $$status

# Short fuzz pass over the ten fuzz targets: the stats codecs, the
# cluster wire layer (framing, message decoding, the session
# handshake), the coordinator's admission of job specs, and the hint
# protocol parsers (each target runs alone, as
# `go test -fuzz` requires). CI runs the same targets at a reduced FUZZTIME.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzAccumulatorCodec -fuzztime $(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz FuzzHistogramCodec -fuzztime $(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz FuzzSeriesCodec -fuzztime $(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz 'FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz FuzzReadFrameSum -fuzztime $(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz FuzzDecodeMessage -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz FuzzHandshake -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz FuzzAdmit -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz FuzzParseTrailer -fuzztime $(FUZZTIME) ./internal/hintproto/
	$(GO) test -fuzz FuzzParseHintFrame -fuzztime $(FUZZTIME) ./internal/hintproto/

# Hint-serving-plane smoke over real UDP: boot a hintnode AP, throw a
# hintload herd at it, kill the herd mid-run (its ACKs now hit dead
# sockets), then require a second herd to be served cleanly — the plane
# must survive vanishing clients and transient write errors. hintload
# exits non-zero when a run gets no ACKs, so the second run's exit code
# is the assertion.
hintserve-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hintnode" ./cmd/hintnode || exit 1; \
	$(GO) build -o "$$tmp/hintload" ./cmd/hintload || exit 1; \
	( timeout 180 "$$tmp/hintnode" -listen 127.0.0.1:0 -addr-file "$$tmp/addr" \
		-stats 0 > "$$tmp/ap.out" 2>&1 ) & \
	ap=$$!; \
	for i in $$(seq 100); do \
		[ -s "$$tmp/addr" ] && break; \
		kill -0 $$ap 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	[ -s "$$tmp/addr" ] || { echo "hintserve-smoke: AP never published its address"; cat "$$tmp/ap.out"; exit 1; }; \
	addr=$$(cat "$$tmp/addr"); \
	( timeout 120 "$$tmp/hintload" -target "$$addr" -clients 400 -packets 200000 \
		-senders 2 > "$$tmp/load1.out" 2>&1 ) & \
	herd=$$!; \
	sleep 1; kill -9 $$herd 2>/dev/null; wait $$herd 2>/dev/null; \
	timeout 120 "$$tmp/hintload" -target "$$addr" -clients 400 -first-client 1000 \
		-packets 20000 -corrupt 0.02 -senders 2 > "$$tmp/load2.out" 2>&1 || \
		{ echo "hintserve-smoke: post-kill herd failed"; cat "$$tmp/load2.out" "$$tmp/ap.out"; exit 1; }; \
	kill $$ap 2>/dev/null; wait $$ap 2>/dev/null; \
	cat "$$tmp/load2.out"; \
	echo "hintserve-smoke: plane survived a herd killed mid-run and kept serving"

ci: build vet shard-smoke subtrial-smoke scenario-smoke cluster-smoke campaign-smoke chaos-smoke hintserve-smoke status-smoke race
