#!/usr/bin/env bash
# lint.sh — run the full lint stack locally, mirroring the CI lint
# job: gofmt, go vet, mlplint (the in-repo invariant multichecker),
# the orphaned-package check, allocgate (compiler escape analysis vs
# the //mlplint:allocfree annotations), and staticcheck (pinned; skipped with a warning when
# the binary is unavailable, e.g. offline).
#
# Usage: ./scripts/lint.sh [packages...]   (default ./...)
#        ./scripts/lint.sh -frozen-coverage-only
#        ./scripts/lint.sh -orphans-only
#
# -frozen-coverage-only runs just the serving-tier frozen-annotation
# and memo-write coverage check, -orphans-only just the orphaned
# internal-package check (the CI lint job's dedicated steps).
set -u

cd "$(dirname "$0")/.."

# The gateway publishes Snapshot by atomic pointer swap and readers
# never synchronize, so its immutability — and that of the core.Result
# and core.LinkIndex it shares between epochs — must stay
# machine-checked: the types and their builders have to carry
# //mlplint:frozen for the frozen analyzer to have jurisdiction.
# Deleting an annotation would silently disarm that check — so their
# presence is a gate.
#
# No Result is written after its builder returns — the link index and
# its encoded link array included — and where those two fields are
# written is gated too: Result.linkIndex only in the MeshState.Snapshot
# builder, which builds the index with the Result; LinkIndex.Encoded
# only in the index builders of internal/core/linkindex.go — the patch
# and the three encoding helpers the patch and the from-scratch build
# share. A write anywhere else fails, as does an allowed write outside
# an annotated builder without a reasoned //mlplint:frozen waiver on the
# line above (no such write is left).
frozen_coverage() {
  local ok=0 file decl
  while IFS='|' read -r file decl; do
    if ! awk -v decl="$decl" '
        /^\/\/mlplint:frozen/ { armed = 1; next }
        index($0, decl) == 1  { if (armed) found = 1 }
        !/^\/\// && !/^$/     { armed = 0 }
        END { exit found ? 0 : 1 }
      ' "$file"; then
      echo "frozen coverage: $file: \`$decl\` lost its //mlplint:frozen annotation" >&2
      ok=1
    fi
  done <<'DECLS'
internal/serve/snapshot.go|type Snapshot struct
internal/serve/snapshot.go|func NewSnapshot(
internal/serve/snapshot.go|func newSnapshot(
internal/core/infer.go|type Result struct
internal/core/linkindex.go|type LinkIndex struct
internal/core/linkindex.go|func newLinkIndex(
internal/core/linkindex.go|func patchLinkIndex(
internal/core/meshstate.go|func (ms *MeshState) Snapshot(
DECLS

  # Memo write sites: field|functions allowed to assign it.
  local field allowed
  while IFS='|' read -r field allowed; do
    if ! find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
      xargs -0 awk -v field="$field" -v allowed="$allowed" '
        FNR == 1                  { fn = ""; builder = 0; armed = 0; prev = "" }
        /^\/\/mlplint:frozen[ \t]*$/ { armed = 1 }
        /^func /                  {
          fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn)
          builder = armed
        }
        !/^\/\// && !/^$/         { armed = 0 }
        $0 ~ "\\." field "[ \t]*(,[^=;(){}]*)?=[^=]" {
          n++
          if (index("," allowed ",", "," fn ",") == 0) {
            printf "frozen coverage: %s:%d: memo field .%s written in %s, outside its builder/prefill window (%s)\n", FILENAME, FNR, field, fn, allowed > "/dev/stderr"
            bad = 1
          } else if (!builder && prev !~ /\/\/mlplint:frozen [^ ]/) {
            printf "frozen coverage: %s:%d: memo write to .%s lost its //mlplint:frozen <reason> waiver\n", FILENAME, FNR, field > "/dev/stderr"
            bad = 1
          }
        }
        { prev = $0 }
        END {
          if (!n) { printf "frozen coverage: no write to memo field .%s found; update scripts/lint.sh if it was renamed\n", field > "/dev/stderr"; bad = 1 }
          exit bad
        }'; then
      ok=1
    fi
  done <<'MEMOS'
linkIndex|Snapshot
Encoded|patchLinkIndex,encode,encodeLink,closeEncoded
MEMOS
  return "$ok"
}

# A package under internal/ that no other package of the module imports
# is dead weight the compiler cannot see: it builds, its tests pass, and
# nothing reaches it. Imports from another package's tests count (a
# test-support package is in use); a package's own external test
# importing it does not. `go list ./...` never descends into testdata
# directories, so the analyzers' fixture packages are not candidates.
orphan_packages() {
  local module imports orphans
  module="$(go list -m)" || return 1
  imports="$(go list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}' ./...)" || return 1
  orphans="$(echo "$imports" | awk -v prefix="$module/internal/" '
      { pkgs[$1] = 1; for (i = 2; i <= NF; i++) if ($i != $1) used[$i] = 1 }
      END { for (p in pkgs) if (index(p, prefix) == 1 && !(p in used)) print p }
    ' | sort)"
  if [ -n "$orphans" ]; then
    echo "orphan packages: imported by no other package of $module (delete them or wire them in):" >&2
    echo "$orphans" | sed 's/^/      /' >&2
    return 1
  fi
}

if [ "${1:-}" = "-orphans-only" ]; then
  echo "==> orphan packages (every internal/ package has an importer)"
  orphan_packages || { echo "lint: FAILED" >&2; exit 1; }
  echo "lint: OK"
  exit 0
fi

if [ "${1:-}" = "-frozen-coverage-only" ]; then
  echo "==> frozen coverage (serving-tier snapshot types and memos)"
  frozen_coverage || { echo "lint: FAILED" >&2; exit 1; }
  echo "lint: OK"
  exit 0
fi

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

echo "==> frozen coverage (serving-tier snapshot types and memos)"
frozen_coverage || failed=1

echo "==> orphan packages (every internal/ package has an importer)"
orphan_packages || failed=1

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
