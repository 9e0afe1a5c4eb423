GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-nofma race vet fmt verify bench bench-diff bench-paper serve-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/nn's vector sigmoid is math.Exp's amd64 FMA path op for op. With
# cpu.fma=off math.Exp takes its other path and rounds differently, so the
# package's start-up probe must switch the kernel off, and every bit-identity
# test must pass on the scalar loop (TestSigmoidProbeFollowsMathExp checks the
# switch itself).
test-nofma:
	GODEBUG=cpu.fma=off $(GO) test ./internal/nn

# Race-check the library packages; the obs registry, the parallel sweep
# telemetry and the fault-injection tests are explicitly exercised under
# -race by internal/experiments and internal/fault. The race detector runs
# ~10x slower than a plain test, so give the heavyweight sweep package more
# than the default 10m.
race:
	$(GO) test -race -timeout 20m ./internal/...

vet:
	$(GO) vet ./...

# Fail if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The PR gate: everything that must be green before merging.
verify: fmt vet build test test-nofma race

# Refresh the hot-path benchmark snapshot (ns/op, B/op, allocs/op for the
# BenchmarkHot* suite). bench-diff compares a fresh run against the committed
# snapshot and exits 1 on a >25% regression in ns/op, allocs/op, or bytes/op
# (any alloc growth from a zero-alloc baseline fails outright); CI runs it
# non-gating.
bench:
	$(GO) run ./cmd/bench -out BENCH_15.json -benchtime 2s

bench-diff:
	$(GO) run ./cmd/bench -diff BENCH_15.json

# Full benchmark sweep across every package (slow; not snapshot-tracked).
bench-paper:
	$(GO) test -bench=. -benchmem ./...

# End-to-end check of the simulation daemon: start it on a loopback port,
# submit a tiny deterministic sweep twice over real HTTP, require the second
# submission to be a byte-identical cache hit, and check the health endpoints.
serve-smoke:
	$(GO) run ./cmd/simd -smoke

clean:
	$(GO) clean ./...
