#!/usr/bin/env bash
# lint.sh — run the full lint stack locally, mirroring the CI lint
# job: gofmt, go vet, mlplint (the in-repo invariant multichecker,
# whose rules include frozen coverage, the orphaned-package check and
# the world wall), allocgate (compiler escape analysis vs the
# //mlplint:allocfree annotations), and staticcheck (pinned; skipped
# with a warning when the binary is unavailable, e.g. offline).
#
# Usage: ./scripts/lint.sh [packages...]   (default ./...)
set -u

cd "$(dirname "$0")/.."

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./...)
fi

# Matches the staticcheck pin in .github/workflows/ci.yml.
STATICCHECK_VERSION=2025.1.1

failed=0

echo "==> gofmt"
fmt_out="$(gofmt -l .)"
if [ -n "$fmt_out" ]; then
  echo "gofmt needed on:" >&2
  echo "$fmt_out" >&2
  failed=1
fi

echo "==> go vet"
go vet "${pkgs[@]}" || failed=1

echo "==> mlplint (invariant analyzers)"
go run ./cmd/mlplint "${pkgs[@]}" || failed=1

echo "==> allocgate (hot-path escape analysis)"
./scripts/allocgate.sh || failed=1

echo "==> staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck "${pkgs[@]}" || failed=1
elif go install "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" 2>/dev/null &&
  command -v "$(go env GOPATH)/bin/staticcheck" >/dev/null 2>&1; then
  "$(go env GOPATH)/bin/staticcheck" "${pkgs[@]}" || failed=1
else
  echo "warning: staticcheck unavailable (offline?); CI runs it pinned at ${STATICCHECK_VERSION}" >&2
fi

if [ "$failed" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: OK"
