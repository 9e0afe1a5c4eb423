GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-nofma race vet vet-cross nofuse fmt layering examples bench-once verify clean

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

# Race-check the library packages and the commands; the parallel sweep
# telemetry and the fault-injection tests are explicitly
# exercised under -race by internal/experiments and internal/fault, and the
# command tests run whole sweeps and trainarb's metrics sidecar. The race
# detector runs ~10x slower than a plain test, so give the heavyweight sweep
# package more than the default 10m.
race:
	$(GO) test -race -timeout 20m ./internal/... ./cmd/...

vet:
	$(GO) vet ./...

# Type-check and vet every package for arm64, so the portable kernel files
# built only off amd64 (internal/nn/gemm_other.go) compile in CI too.
vet-cross:
	GOARCH=arm64 $(GO) vet ./...

# Go lets a compiler fuse x*y+z into one rounding unless an explicit float64()
# rounds the product. gc fuses on arm64 and never on amd64, so an unrounded
# product would give one host's figures other bits than another's. Every such
# product in the program is written float64(x*y): fail, naming the function and
# the line, if the arm64 assembly listing of ./internal/... holds a fused
# multiply-add in any function of this module.
FUSED = FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS
nofuse:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags='mlnoc/...=-S' ./internal/... 2>&1) || { echo "$$out" | tail -20; exit 1; }; \
	bad=$$(printf "%s\n" "$$out" | awk '/ STEXT /{fn=$$1} $$4 ~ /^($(FUSED))$$/ && fn ~ /^mlnoc\//{print fn, $$3}' | sort -u); \
	if [ -n "$$bad" ]; then echo "fused multiply-add in:"; echo "$$bad"; exit 1; fi

# Fail if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The library layers carry no instruments: obs, trace and telemetry are
# attached from above (the commands and serve, the readers) through the
# network's hooks. rl and core carry no recorder for their reader either
# (trainarb records its training curves from core.TrainSpec's hooks),
# experiments hands each sweep cell's network to its Input.Cell hook, and
# cliutil leaves the commands' obs and trace flags to cliutil/cmdline. Fail,
# naming the package, if any of these layers depends on one of them,
# directly or not. core holds the agent and its state; the
# environments it trains in (traffic's mesh, apu's system running synfull's
# models) come to it as core.Env values, so core must not depend on those
# packages either.
LAYERS = noc arb traffic fault nn rl synfull xrand apu core experiments cliutil
layering:
	@fail=0; for p in $(LAYERS); do \
		deps=$$($(GO) list -deps ./internal/$$p) || { echo "go list failed for internal/$$p"; fail=1; continue; }; \
		bad=$$(echo "$$deps" | grep -E '^mlnoc/internal/(obs|trace|telemetry)$$'); \
		if [ -n "$$bad" ]; then echo "internal/$$p depends on" $$bad; fail=1; fi; \
		if [ $$p = core ]; then \
			bad=$$(echo "$$deps" | grep -E '^mlnoc/internal/(apu|synfull|traffic)$$'); \
			if [ -n "$$bad" ]; then echo "internal/core depends on" $$bad; fail=1; fi; \
		fi; \
	done; exit $$fail

# Run each program under examples/ once (a few seconds together; they write
# no files), so they keep working, not just compiling. examples/hardware
# exits non-zero when a named rule's Fig. 8 P-block disagrees with the
# priority the simulator runs.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Run every Go benchmark exactly once, so the BenchmarkHot* developer
# microbenchmarks keep compiling and running. It times nothing worth reading:
# performance is measured and gated by benchmark/run.sh, and the zero-alloc
# contracts by the AllocsPerRun tests in `test`.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The PR gate: everything that must be green before merging.
verify: fmt vet vet-cross nofuse layering build test examples test-nofma race bench-once

clean:
	$(GO) clean ./...
