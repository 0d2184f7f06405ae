# Tier-1 verification for this repository: `make check` is what CI and
# every PR must keep green (see ROADMAP.md).

GO ?= go

.PHONY: check fmt vet build test race lint fuzz-corpus-lint bench bench-check serve profile chaos-determinism routebench-determinism routebench-lazy-determinism distsim-determinism routeload-determinism fuzz-smoke

# The gate: vet, build and -race cover every package (./...), including
# internal/faultsim and cmd/routebench; lint runs the repo's own static
# analyzers (determinism and concurrency contracts, see DESIGN.md
# §Static analysis); fuzz-corpus-lint requires every fuzz target to
# ship a seed corpus; the determinism targets assert that the parallel
# build pipeline and the fault injector's seed guarantee produce
# byte-identical JSON across runs; bench-check re-derives the committed
# deterministic artifacts; fuzz-smoke gives every wire codec a short
# fuzz burst on top of its checked-in seed corpus.
check: fmt vet lint fuzz-corpus-lint build race chaos-determinism routebench-determinism routebench-lazy-determinism distsim-determinism routeload-determinism bench-check fuzz-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo's own static-analysis suite (cmd/determinlint): maprange,
# wallclock, parbody, guardedfield, floateq, hotpath, codecpair,
# goleak, lockorder. Run one analyzer with
# `go run ./cmd/determinlint -rules <name>`. -timing prints per-rule
# wall time and finding counts; -maxwall caps the total analysis time
# so the gate fails loudly if the suite regresses into minutes.
lint:
	$(GO) run ./cmd/determinlint -timing -maxwall 120s

# fuzz-targets prints "<package dir> <FuzzName>" for every Fuzz* target
# under internal/ and cmd/: the one scan fuzz-corpus-lint and
# fuzz-smoke share, so a new target cannot miss either.
FUZZ_TARGETS = for f in $$(grep -rln --include='*_test.go' '^func Fuzz' internal cmd); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "$$(dirname $$f) $$target"; \
		done; \
	done

# Every Fuzz* target must check in a seed corpus under
# testdata/fuzz/<FuzzName> in its package: an empty corpus means the
# fuzz-smoke burst explores from nothing and the codec's interesting
# shapes are not pinned in review.
fuzz-corpus-lint:
	@$(FUZZ_TARGETS) | { bad=0; while read -r dir target; do \
		corpus="$$dir/testdata/fuzz/$$target"; \
		if [ ! -d "$$corpus" ] || [ -z "$$(ls -A $$corpus 2>/dev/null)" ]; then \
			echo "$$dir: $$target has no seed corpus in $$corpus"; bad=1; \
		fi; \
	done; [ $$bad -eq 0 ]; } && echo "fuzz corpora: ok"

# Machine-readable benchmark sweeps (write BENCH_*.json) and the sample
# experiment output (docs/experiments_output.txt, headed by the command
# that printed it). The chaos and dist sweeps and the sample output are
# deterministic; bench-check reruns their commands (CHAOS_BENCH,
# DIST_BENCH, EXPERIMENTS_RUN) and diffs.
CHAOS_BENCH = -exp chaos -n 128 -pairs 300
DIST_BENCH = -exp dist -pairs 200
EXPERIMENTS_RUN = -exp all -n 400 -pairs 2000 -seed 7
bench:
	$(GO) run ./cmd/routebench -json BENCH_routebench.json
	$(GO) run ./cmd/routebench $(CHAOS_BENCH) -json BENCH_chaossim.json
	$(GO) run ./cmd/routebench $(DIST_BENCH) -json BENCH_distsim.json
	{ echo "# routebench $(EXPERIMENTS_RUN)"; $(GO) run ./cmd/routebench $(EXPERIMENTS_RUN); } > docs/experiments_output.txt
	$(GO) run ./cmd/routeload -json -duration 3s -conns 4 -batch 16 > BENCH_routeload.json

# double-run is the one recipe behind every determinism gate: it runs
# a command twice, each time writing its output to $$out (a fresh temp
# file), and fails unless the two outputs are byte-identical.
#   $(1) the command, which writes its output to $$out
#   $(2) the failure message
#   $(3) the ok line
comma := ,
define double-run
	@tmp1=$$(mktemp) && tmp2=$$(mktemp) && \
	out=$$tmp1 && $(1) && \
	out=$$tmp2 && $(1) && \
	{ cmp -s $$tmp1 $$tmp2 || { echo "$(2)"; rm -f $$tmp1 $$tmp2; exit 1; }; } && \
	rm -f $$tmp1 $$tmp2 && echo "$(3)"
endef

# The chaos sweep must be seed-deterministic: the same seed produces a
# byte-identical JSON sweep. Run a small sweep twice and diff.
chaos-determinism:
	$(call double-run,$(GO) run ./cmd/routebench -exp chaos -n 48 -pairs 60 -loss 0$(comma)0.1 -fail 0$(comma)0.1 -seed 11 -json $$out >/dev/null,routebench -exp chaos -json is not seed-deterministic,chaos determinism: ok)

# The bench sweep now builds schemes and routes cells in parallel
# (internal/par); with -timing=false the JSON must still be a pure
# function of the flags — including the traced sweep's stretch
# histograms and per-phase decomposition (-trace). Run a small sweep
# twice and diff.
routebench-determinism:
	$(call double-run,$(GO) run ./cmd/routebench -json $$out -n 48 -pairs 60 -seed 11 -timing=false -trace >/dev/null,routebench -json is not deterministic,routebench determinism: ok)

# Same gate on the lazy backend: its answers come from truncated
# Dijkstra rows derived on demand behind a shared LRU, so the JSON
# must be byte-stable across runs regardless of query arrival order,
# cache evictions, or the prefetch and sweep workers' schedule. Run
# twice and diff, on the power-law family the backend exists for (the
# power-law-w8 row, weights capped at 8). At
# n=48 every net level fits one window of the parallel ball sweep
# (metric.SweepBalls); n=256 runs levels of many windows, so workers
# build rows ahead of the in-order visitor.
routebench-lazy-determinism:
	$(call double-run,$(GO) run ./cmd/routebench -json $$out -backend lazy -graph power-law-w8 -n 48 -pairs 60 -seed 11 -timing=false -trace >/dev/null,routebench -json -backend=lazy is not deterministic,routebench lazy determinism: ok)
	$(call double-run,$(GO) run ./cmd/routebench -json $$out -backend lazy -graph power-law-w8 -n 256 -pairs 60 -seed 11 -timing=false -trace >/dev/null,routebench -json -backend=lazy -n 256 is not deterministic,routebench lazy determinism n=256: ok)

# The in-network construction must be seed-deterministic: engine
# delivery is serialized in sender-id order and fault draws are pure
# hashes, so the same flags produce a byte-identical JSON file — at
# every GOMAXPROCS and under loss. Run a small lossy sweep twice and
# diff.
distsim-determinism:
	$(call double-run,$(GO) run ./cmd/routebench -exp dist -sizes 48$(comma)96 -pairs 60 -buildloss 0.1 -seed 11 -json $$out >/dev/null,routebench -exp dist -json is not seed-deterministic,dist determinism: ok)

# routeload's deterministic mode must be a pure function of the flags:
# with -timing=false every connection does fixed work over a static pair
# share and the report carries only counts and route-shape sums, so two
# runs over both protocols are byte-identical. Run twice and diff.
routeload-determinism:
	$(call double-run,$(GO) run ./cmd/routeload -n 48 -pairs 60 -seed 11 -iters 5 -json -timing=false > $$out,routeload -json is not deterministic,routeload determinism: ok)

# The committed deterministic artifacts must be what their commands
# print today: rebuild each with the command `make bench` uses and cmp
# it against the checked-in file, so a code change that moves a number
# has to regenerate the artifact in the same commit. Wall time on a
# 2-vCPU VM: ~0.2 s chaos, ~30 s dist (the n=1024 construction), ~3 s
# experiments, ~42 s with the build.
bench-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) build -o $$tmp/routebench ./cmd/routebench && \
	$$tmp/routebench $(CHAOS_BENCH) -json $$tmp/chaos.json >/dev/null && \
	{ cmp -s $$tmp/chaos.json BENCH_chaossim.json || { echo "BENCH_chaossim.json is stale: run make bench"; exit 1; }; } && \
	$$tmp/routebench $(DIST_BENCH) -json $$tmp/dist.json >/dev/null && \
	{ cmp -s $$tmp/dist.json BENCH_distsim.json || { echo "BENCH_distsim.json is stale: run make bench"; exit 1; }; } && \
	{ echo "# routebench $(EXPERIMENTS_RUN)"; $$tmp/routebench $(EXPERIMENTS_RUN); } > $$tmp/exp.txt && \
	{ cmp -s $$tmp/exp.txt docs/experiments_output.txt || { echo "docs/experiments_output.txt is stale: run make bench"; exit 1; }; } && \
	echo "bench artifacts: ok"

# ~20s total: every Fuzz* target FUZZ_TARGETS finds — the codec
# fuzzers, the lazy oracle's differential fuzzer, the shortest-path
# kernel's queue fuzzer and the route cache's model fuzzer — runs for
# 1 s from its seed corpus (testdata/fuzz; regenerate the header
# corpora with REGEN_FUZZ_CORPUS=1 go test ./internal/... -run
# TestRegenFuzzCorpus). A fuzzer accepts exactly one -fuzz target per
# invocation, hence the loop.
fuzz-smoke:
	@$(FUZZ_TARGETS) | while read -r dir target; do \
		$(GO) test ./$$dir -run '^$$' -fuzz "^$$target\$$" -fuzztime 1s </dev/null >/dev/null || \
			{ echo "fuzz-smoke failed: $$target"; exit 1; }; \
	done && echo "fuzz smoke: ok"

# Capture a CPU profile of a full build+sweep (APSP, all scheme tables,
# routed pairs) and print the hottest frames. Inspect interactively with
# `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/routebench -json /tmp/routebench_profile.json -n 512 -cpuprofile cpu.prof
	$(GO) tool pprof -top -nodecount 15 cpu.prof

# Run the serving daemon on a default workload.
serve:
	$(GO) run ./cmd/routed -addr :8080
