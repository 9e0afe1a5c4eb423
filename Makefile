GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-nofma race vet vet-cross nofuse reach fmt layering examples bench-once verify clean

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

# Every function declared under internal/ must be in some binary. Build every
# main package with inlining off (a callee keeps its symbol), for amd64 and for
# arm64 (nn/gemm_other.go is built only off amd64), and fail, naming file and
# line, on a non-test `func` that no binary holds (generic ones by their
# [go.shape] instantiations, assembly by their .abi0 symbols) unless
# internal/reach.allow lists it; an allowlist line that covers nothing fails
# too. What may be listed, each line with its reason: packages only tests
# import, methods an interface requires, code waiting for its caller, and code
# tests run as an oracle. Functions that only benchmark holds are printed
# without failing.
reach:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	mains=$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) && \
	for a in amd64 arm64; do GOARCH=$$a $(GO) build -gcflags=all=-l -o $$tmp/$$a/ $$mains || exit 1; done && \
	$(GO) tool nm $$tmp/*/* > $$tmp/syms && \
	grep -n '^func ' $$(find internal -name '*.go' ! -name '*_test.go') > $$tmp/decls && \
	awk 'function bare(s) { while (gsub(/\[[^][]*\]/, "", s)); return s } \
		FNR == 1 { f++ } \
		f == 1 && NF && $$1 !~ /^#/ { allow[$$1] = 0 } \
		f == 2 && $$3 ~ /^[Tt]$$/ && $$4 ~ /^mlnoc\/internal\// { b = $$1; sub(/:$$/, "", b); sub(/.*\//, "", b); \
			s = bare(substr($$0, index($$0, $$4) + 15)); gsub(/\(\*|\)/, "", s); sub(/\.abi0$$/, "", s); \
			sub(/\.init\.[0-9]+$$/, ".init", s); if (!((s, b) in seen)) { seen[s, b]; n[s]++; by[s] = b } } \
		f == 3 { split($$0, p, ":"); at = p[1] ":" p[2]; sig = substr($$0, length(at) + 7); \
			k = p[1]; sub(/^internal\//, "", k); sub(/\/[^\/]*$$/, ".", k); \
			if (sig ~ /^\(/) { r = bare(substr(sig, 2, index(sig, ")") - 2)); sub(/^[^)]*\) /, "", sig); \
				sub(/.* /, "", r); sub(/^\*/, "", r); k = k r "." } \
			match(sig, /^[A-Za-z0-9_]+/); k = k substr(sig, 1, RLENGTH); \
			if (n[k] == 1 && by[k] == "benchmark") print "only benchmark holds " at ": " k; \
			if (n[k]) next; ok = 0; \
			for (e in allow) if (e == k || (e ~ /\*$$/ && index(k, substr(e, 1, length(e) - 1)) == 1)) { allow[e]++; ok = 1 } \
			if (!ok) { print at ": " k " is in no binary"; bad = 1 } } \
		END { for (e in allow) if (!allow[e]) { print "internal/reach.allow: " e " covers no function"; bad = 1 }; exit bad }' \
		internal/reach.allow $$tmp/syms $$tmp/decls

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
verify: fmt vet vet-cross nofuse reach layering build test examples test-nofma race bench-once

clean:
	$(GO) clean ./...
