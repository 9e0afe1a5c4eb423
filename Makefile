GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-nofma race vet fmt bench-once verify serve-smoke clean

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

# Race-check the library packages and the commands; the obs registry, the
# parallel sweep telemetry and the fault-injection tests are explicitly
# exercised under -race by internal/experiments and internal/fault, and the
# command tests run whole sweeps and trainarb's metrics sidecar. The race
# detector runs ~10x slower than a plain test, so give the heavyweight sweep
# package more than the default 10m.
race:
	$(GO) test -race -timeout 20m ./internal/... ./cmd/...

vet:
	$(GO) vet ./...

# Fail if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run every Go benchmark exactly once, so the BenchmarkHot* developer
# microbenchmarks keep compiling and running. It times nothing worth reading:
# performance is measured and gated by benchmark/run.sh, and the zero-alloc
# contracts by the AllocsPerRun tests in `test`.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The PR gate: everything that must be green before merging.
verify: fmt vet build test test-nofma race bench-once

# End-to-end check of the simulation daemon: start it on a loopback port,
# submit a tiny deterministic sweep twice over real HTTP, require the second
# submission to be a byte-identical cache hit, and check the health endpoints.
serve-smoke:
	$(GO) run ./cmd/simd -smoke

clean:
	$(GO) clean ./...
