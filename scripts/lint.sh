#!/bin/sh
# One-command local gate (`make lint`): gofmt, go vet, staticcheck,
# flatlint (this module and benchmark/), and the race-enabled test
# suite.
#
#   LINT_FAST=1            skip the test suite (checks only)
#   INSTALL_STATICCHECK=1  go install the pinned staticcheck if missing
#
# staticcheck is skipped with a notice when it is neither installed nor
# allowed to be fetched, so the gate also works offline.
set -eu
cd "$(dirname "$0")/.."

# The single source of truth for the staticcheck version CI pins.
STATICCHECK_VERSION=2025.1

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "files need gofmt:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck"
	staticcheck ./...
elif [ "${INSTALL_STATICCHECK:-0}" = 1 ]; then
	echo "== staticcheck (installing @$STATICCHECK_VERSION)"
	go install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"
	"$(go env GOPATH)/bin/staticcheck" ./...
else
	echo "== staticcheck: not installed; skipping (INSTALL_STATICCHECK=1 fetches @$STATICCHECK_VERSION)"
fi

echo "== flatlint"
go run ./cmd/flatlint ./...
(cd benchmark && go run flat/cmd/flatlint ./...)

if [ "${LINT_FAST:-0}" != 1 ]; then
	echo "== go test -race"
	go test -race ./...
fi

echo "lint: all checks passed"
