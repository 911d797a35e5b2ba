# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet lint fmt-check test race alloc-check cover bench bench-smoke audit-smoke faults-smoke sinkd-smoke perfbench-test figures examples fuzz clean

all: build test

# check is the pre-commit gate: formatting, static analysis (vet + the
# kenlint invariant analyzers) and the race detector in one go. The race
# run IS the test suite (same tests, more checking), so a plain `go test`
# pass would only repeat it without the detector.
check: fmt-check vet lint race

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

# lint runs the custom go/analysis suite (cmd/kenlint): determinism,
# seeding, wire-error, float-comparison, observability, hot-path
# allocation and concurrency-discipline invariants.
# See docs/LINT.md. Ordered after vet in check so the `go vet` build pass
# has already warmed the build cache kenlint's `go run` compiles from —
# the two analyses share one compilation of the tree.
lint:
	$(GO) run ./cmd/kenlint ./...

fmt-check:
	@out=$$(gofmt -l cmd internal examples); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-check pins the hot-path allocation budgets (TestAllocBudget* —
# zero allocs per steady-state epoch; see docs/LINT.md). Run without
# -race: the budget tests skip themselves under race instrumentation,
# whose shadow allocations would drown the counts.
alloc-check:
	$(GO) test -run TestAllocBudget ./...

cover:
	$(GO) test -cover ./internal/...

# bench runs the go test micro-benchmarks. The repository benchmark —
# repeated runs with medians, spread, a host fingerprint and per-layer
# metrics — is perfbench/ (see BENCHMARK.json and perfbench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Fast end-to-end pass over every figure on the parallel engine.
bench-smoke:
	$(GO) run ./cmd/kenbench -all -quick -parallel 8

# sinkd-smoke proves the multi-tenant daemon end to end with real
# processes: kensinkd pinned to one deployment, three concurrent kensource
# tenants streaming through the session handshake, the /v1/query answers
# verified bit-identical to local reference replicas by kenswarm, a
# mismatched-spec client rejected with the typed "spec rejected" error,
# and the live SLO monitor probed both ways — /v1/health healthy via
# `kentop -once -fail-degraded` after the clean run, then degraded on a
# second daemon whose injected apply delay (-apply-delay) sheds a bursty
# tenant, flipping /v1/health to 503/"shedding" end to end.
sinkd-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"; kill $$daemon $$daemon2 2>/dev/null' EXIT && \
	$(GO) build -o "$$tmp/kensinkd" ./cmd/kensinkd && \
	$(GO) build -o "$$tmp/kenswarm" ./cmd/kenswarm && \
	$(GO) build -o "$$tmp/kensource" ./cmd/kensource && \
	$(GO) build -o "$$tmp/kentop" ./cmd/kentop && \
	{ "$$tmp/kensinkd" -pin -seed 1 -listen 127.0.0.1:7171 -http 127.0.0.1:7172 >"$$tmp/daemon.log" 2>&1 & } && daemon=$$! && \
	"$$tmp/kenswarm" -connect 127.0.0.1:7171 -http http://127.0.0.1:7172 \
		-seed 1 -tenants 3 -specs 1 -steps 150 -verify && \
	if "$$tmp/kensource" -connect 127.0.0.1:7171 -tenant intruder -seed 99 -steps 10 2>"$$tmp/rej.log"; then \
		echo "sinkd-smoke: FAIL (pinned daemon accepted a mismatched spec)"; exit 1; fi && \
	grep -q "spec rejected" "$$tmp/rej.log" && \
	"$$tmp/kentop" -http http://127.0.0.1:7172 -once -fail-degraded >"$$tmp/top.log" && \
	grep -q "status: ok" "$$tmp/top.log" && \
	{ "$$tmp/kensinkd" -listen 127.0.0.1:7173 -http 127.0.0.1:7174 \
		-frame-budget 2 -apply-delay 200ms >"$$tmp/daemon2.log" 2>&1 & } && daemon2=$$! && \
	sleep 1 && \
	{ "$$tmp/kensource" -connect 127.0.0.1:7173 -tenant bursty -seed 1 -steps 40 2>"$$tmp/shed.log" || true; } && \
	shed=""; for i in $$(seq 1 20); do \
		if "$$tmp/kentop" -http http://127.0.0.1:7174 -once | grep -q "shedding"; then shed=yes; break; fi; \
		sleep 0.5; \
	done; test -n "$$shed" || { echo "sinkd-smoke: FAIL (tenant never shed)"; cat "$$tmp/daemon2.log"; exit 1; } && \
	if "$$tmp/kentop" -http http://127.0.0.1:7174 -once -fail-degraded >"$$tmp/top2.log"; then \
		echo "sinkd-smoke: FAIL (kentop did not flag the degraded daemon)"; exit 1; fi && \
	grep -q "status: degraded" "$$tmp/top2.log" && \
	echo "sinkd-smoke: PASS (3 tenants verified bit-identical; mismatched spec rejected; health ok->degraded probed via kentop)"

# audit-smoke proves the protocol invariants on real traces: a kensim lab
# comparison and the quick benchmark suite at pool widths 1 and 8, each
# replayed through kenaudit -strict (ε bound, no silent divergence, byte
# accounting). The two kenbench audit reports must be byte-identical —
# parallel scheduling may reorder trace lines but never the audited facts.
# The last leg exercises the tamper evidence of the segmented store: the
# same kensim run written as a hash-chained store must pass
# kenaudit -verify-chain, and must fail it (exit 1) after a single flipped
# byte. See docs/OBSERVABILITY.md.
audit-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/kensim -dataset lab -scheme all -parallel 4 -test 300 -trace-out "$$tmp/kensim.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/kensim.jsonl" -strict -q && \
	$(GO) run ./cmd/kenbench -all -quick -parallel 1 -trace-out "$$tmp/seq.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenbench -all -quick -parallel 8 -trace-out "$$tmp/par.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/seq.jsonl" -strict -q -json "$$tmp/seq.json" && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/par.jsonl" -strict -q -json "$$tmp/par.json" && \
	cmp "$$tmp/seq.json" "$$tmp/par.json" && \
	$(GO) run ./cmd/kensim -dataset lab -scheme djc -parallel 1 -test 200 -trace-out "$$tmp/store/" -trace-segment-events 500 >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/store" -verify-chain -strict -q 2>/dev/null && \
	printf 'X' | dd of="$$tmp/store/seg-00000000.jsonl" bs=1 seek=100 count=1 conv=notrunc 2>/dev/null && \
	if $(GO) run ./cmd/kenaudit -trace "$$tmp/store" -verify-chain -q 2>/dev/null; then \
		echo "audit-smoke: FAIL (verify-chain accepted a corrupted store)"; exit 1; fi && \
	echo "audit-smoke: PASS (traces audit clean; parallel == sequential; corruption detected)"

# faults-smoke proves the reliability layer under fire: the §6 lossy
# protocol (kensim, 20% report loss with heartbeats) and the full packet
# simulator (kennet, 20% per-hop loss with ARQ, heartbeats and base-side
# failure detection), each trace replayed through kenaudit -strict — the
# auditor must excuse every ε miss by a traced, unrepaired drop and agree
# with both byte ledgers and the retransmission counts.
faults-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/kensim -dataset garden -scheme djc -test 400 -loss 0.2 -heartbeat 10 -trace-out "$$tmp/lossy.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/lossy.jsonl" -strict -q && \
	$(GO) run ./cmd/kennet -program ken -steps 200 -loss 0.2 -arq-retries 3 -heartbeat 10 -failure-alpha 0.01 -trace-out "$$tmp/arq.jsonl" >/dev/null && \
	$(GO) run ./cmd/kenaudit -trace "$$tmp/arq.jsonl" -strict -q && \
	echo "faults-smoke: PASS (lossy + ARQ traces audit clean at 20% loss)"

# perfbench-test builds, vets and self-tests the benchmark (perfbench/, a
# module of its own, so `go build ./...` and `go test ./...` never compile
# it): an API change that breaks the benchmark fails here, not only when
# the benchmark next runs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# Regenerate every figure of the paper plus the extension/sweep tables.
figures:
	$(GO) run ./cmd/kenbench -all -test 5000
	$(GO) run ./cmd/kenbench -fig 15 -test 900
	$(GO) run ./cmd/kenbench -fig 16 -test 1500

# examples runs every examples/ program end to end (CI does too);
# examples/streaming is the in-process source → replica demo.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/redwood
	$(GO) run ./examples/anomaly
	$(GO) run ./examples/lossy
	$(GO) run ./examples/lifetime
	$(GO) run ./examples/streaming
	$(GO) run ./examples/pullquery
	$(GO) run ./examples/analysis

# fuzz is the nightly CI job: the wire-frame and session decoders, the
# CSV trace reader, and frame streams applied to a live replica (a
# refused frame must leave its answer bit-for-bit unchanged).
fuzz:
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSession$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzReadCSVMatrix -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzReplicaApply -fuzztime 30s ./internal/stream/

clean:
	$(GO) clean -testcache
