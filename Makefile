GO ?= go

.PHONY: all build test race lint flatlint fuzz fmt benchmark-check bench-check loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full local gate: gofmt, vet, staticcheck (when available),
# flatlint, and the race-enabled test suite. See scripts/lint.sh.
lint:
	sh scripts/lint.sh

# Just the repo-specific analyzers.
flatlint:
	$(GO) run ./cmd/flatlint ./...

# Every fuzz target, 30s each by default (FUZZTIME=... to change).
fuzz:
	sh scripts/fuzz.sh

fmt:
	gofmt -w .

# benchmark/ is a separate module (replace flat => ../) that tier-1
# build/test never compile; run this after touching any API it drives.
benchmark-check:
	(cd benchmark && $(GO) vet . && $(GO) test -short ./...)

# The page-read regression gate: re-run every committed BENCH_*.json at
# the configuration the file records and require every cell outside its
# timed columns to match exactly (~1 min).
bench-check:
	$(GO) run ./cmd/flatbench -check .

# Non-test Go line count outside benchmark/ — the number simplification
# PRs report before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l
