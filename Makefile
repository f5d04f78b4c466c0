# Tier-1 verification and the instrument checks. `make ci` is what
# .github/workflows/ci.yml runs; it must stay green on every PR.

GO ?= go

.PHONY: ci changes-check fmt-check vet build test bench-check bench-align race faults obs fuzz scrape chaos loadsmoke golden cover bench hypotheses lines

# `race` runs every test once under the race detector, so the faults, obs
# and chaos batteries, subsets of it, stay out of ci and remain for local use.
ci: changes-check fmt-check vet build bench-check bench-align race fuzz scrape loadsmoke cover hypotheses

# A CHANGES.md entry is one paragraph that leads with the measured effect;
# early entries each ran past a thousand
# words. Fail when the newest `- PR N:` entry is longer than 250 words.
changes-check:
	@awk '/^- PR [0-9]+:/ { n = 0 } { n += NF } \
		END { if (n > 250) { printf "FAIL: the last CHANGES.md entry is %d words; the limit is 250\n", n; exit 1 } \
		printf "CHANGES.md: last entry is %d words (limit 250)\n", n }' CHANGES.md

# The tree is gofmt-clean; fail when `gofmt -l .` lists any file.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "FAIL: not gofmt-formatted:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark (BENCHMARK.json, bench/) is its own module, so
# the root `go build ./... && go test ./...` never compiles it — yet it
# calls internal APIs (serve.New, serve.NewRegistry, serve.ParseQuery, ...)
# through the `replace flexile => ../` directive. Vet and test it here
# (~15 s) so an internal-API refactor fails CI instead of failing the
# benchmark driver.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The harness's known defect, made checkable: bench/host.go's reference
# kernel (main.eliminate), whose reading scales every workload's setup_s,
# runs ~13 % slower when the linker places it on the odd 32-byte residue
# of a 64-byte line — and any edit to code linked into the harness moves it
# in 32-byte steps, so such an edit can read as +13-30 % setup_s on all
# seven workloads at once with nothing actually slower. Build the harness
# the way bench/run.sh does, print the symbol, and fail unless its address
# is 0 mod 64. If it fails, find which edit to harness-linked code moved
# it and shift it back (PR 19: a bounds-check hint in lp's pivot); the real
# fix (an alignment-insensitive kernel, or the address recorded in host.*
# and checked by -compare) needs a benchmark-only PR. Part of `make ci`.
BENCH_BUILD := $(CURDIR)/.bench_build
bench-align:
	@mkdir -p $(BENCH_BUILD)/bin $(BENCH_BUILD)/gocache $(BENCH_BUILD)/gotmp $(BENCH_BUILD)/gopath $(BENCH_BUILD)/config
	@GOCACHE=$(BENCH_BUILD)/gocache GOTMPDIR=$(BENCH_BUILD)/gotmp GOPATH=$(BENCH_BUILD)/gopath \
		XDG_CONFIG_HOME=$(BENCH_BUILD)/config GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		$(GO) build -C bench -o $(BENCH_BUILD)/bin/flexile-bench .
	@set -- $$($(GO) tool nm $(BENCH_BUILD)/bin/flexile-bench | grep ' main\.eliminate$$'); \
		[ -n "$$1" ] || { echo "FAIL: main.eliminate not found"; exit 1; }; echo "$$*"; \
		[ $$(( 0x$$1 % 64 )) -eq 0 ] || { echo "FAIL: 0x$$1 is $$(( 0x$$1 % 64 )) mod 64: every setup_s will read high"; exit 1; }

# The experiments package regenerates whole figures per test; under the
# race detector on few cores that exceeds Go's default 10m per-package
# timeout, so give it headroom.
race:
	$(GO) test -race -timeout 45m ./...

# The fault-injection suite: every forced failure class (panic, singular
# basis, iteration limit, cancellation) must end in recovery or a degraded
# result, race-clean.
faults:
	$(GO) test -race -timeout 15m -run 'Fault|Degraded|Cancel' ./...

# Fuzz smoke for the serving layer's byte-level decoders (DESIGN.md §10):
# the artifact decoder, the batch envelope parser and artifact-name
# resolution must turn arbitrary bytes into errors, never panics. The checked-in seed
# corpora (internal/serve/testdata/fuzz/) run on every plain `go test`;
# this adds a short coverage-guided exploration on top. One target per
# invocation — `go test -fuzz` accepts a single fuzz pattern.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz 'FuzzDecodeArtifact' -fuzztime $(FUZZTIME) -run '^$$' ./internal/serve/
	$(GO) test -fuzz 'FuzzParseBatchRequest' -fuzztime $(FUZZTIME) -run '^$$' ./internal/serve/
	$(GO) test -fuzz 'FuzzResolveArtifactName' -fuzztime $(FUZZTIME) -run '^$$' ./internal/serve/

# Live telemetry check (DESIGN.md §11): build the real flexile-serve
# binary, start it on loopback ports, hammer /v1/alloc a known number of
# times, then scrape /metrics on both the serving and the -debug-listen
# admin listeners and assert the page is exposition-grammar conformant
# with flexile_serve_requests_total equal to the hammer count, the
# request-latency histogram fully rendered, and go_ runtime families
# present.
scrape:
	$(GO) test -run 'TestScrapeEndToEnd' -count=1 ./cmd/flexile-serve/

# The seeded chaos battery (DESIGN.md §13): drive a live server through
# overload, corrupt-reload, client-disconnect and flapping-artifact storms
# and assert the resilience contract — explicit sheds with Retry-After,
# bit-identical admitted responses, failed reloads that keep the old
# artifact serving, and a goroutine count that returns to baseline.
# Race-enabled; client behavior is a pure function of each storm's seed.
chaos:
	$(GO) test -race -timeout 15m -count=1 -run 'TestChaos' ./internal/chaos/

# Load-generator smoke (DESIGN.md §13): build the real flexile-serve and
# flexile-load binaries, drive a short seeded open-loop storm at a
# two-artifact registry, and assert the JSON summary parses with sane
# p99 latency, zero unexplained sheds, and client-side hit/miss/entry
# counts that exactly match the server's own /metrics counters.
loadsmoke:
	$(GO) test -run 'TestLoadEndToEnd' -count=1 ./cmd/flexile-load/

# The observability + correctness battery (DESIGN.md §9): obs collector
# unit tests, the LP property battery (strong duality, complementary
# slackness, Bland agreement on 200 random LPs), the lockstep kernel battery
# (solves through the LU factors and carried reduced costs against the dense
# explicit inverse, degenerate LPs included), the LU unit battery, the MIP
# consistency suite (relaxation bounds, brute-force enumeration match), the
# flexile ScenLossOpt cross-check, and the metrics determinism /
# fault-accounting suites. Race-clean by contract.
obs:
	$(GO) test -race -timeout 15m ./internal/obs/
	$(GO) test -race -timeout 15m -run 'Property|Kernel|Degenerate|LU|Incumbent|BruteForce|WarmStart|ScenLossOptMatches|Metrics' \
		./internal/lp/ ./internal/mip/ ./internal/scheme/flexile/

# Regenerate the golden files pinning the rendered experiment output
# (internal/experiments/testdata/). Run after an intentional change to
# the solver's numbers or the render format, and commit the diff.
golden:
	$(GO) test ./internal/experiments -run 'TestGolden' -update -count=1

# Coverage floor: the repo-wide `go test -coverprofile` total must not
# drop below the checked-in floor (.cover_floor, a bare percentage).
# Raise the floor deliberately when coverage rises; never lower it to
# make a PR pass.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=$$(cat .cover_floor); \
	awk -v t=$$total -v f=$$floor 'BEGIN { \
		if (t+0 < f+0) { printf "FAIL: total coverage %.1f%% is below the floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Smoke-run the compiled-in benchmarks (paper figures, online allocation,
# serve paths). They report reproduction metrics and rough timings;
# performance comparisons are the bench/ harness's job (BENCHMARK.json).
BENCHTIME ?= 1x
bench:
	$(GO) test -bench . -run '^$$' -benchtime $(BENCHTIME) .

# The hypothesis gate (DESIGN.md §15): run every named experiment from
# its fixed seed and require (a) each hypothesis's own checks to pass and
# (b) the canonical verdict to match the checked-in
# hypotheses/<name>/verdict.json byte for byte. After an intentional
# change, regenerate with `go run ./cmd/flexile-hyp -update` and commit
# the diff like any other artifact.
hypotheses:
	$(GO) run ./cmd/flexile-hyp

# Go line counts by `wc -l`, the instrument behind the line gates in
# ROADMAP.md and CHANGES.md: non-test and test lines outside bench/ (and
# outside dot-directories such as .bench_build/), then non-test lines per
# package directory. Not part of ci.
GOFILES_OUTSIDE_BENCH := find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go'
lines:
	@$(GOFILES_OUTSIDE_BENCH) ! -name '*_test.go' -print | xargs cat | wc -l | awk '{ printf "%7d non-test\n", $$1 }'
	@$(GOFILES_OUTSIDE_BENCH) -name '*_test.go' -print | xargs cat | wc -l | awk '{ printf "%7d test\n", $$1 }'
	@$(GOFILES_OUTSIDE_BENCH) ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2
