#!/usr/bin/env bash
# allocgate.sh — cross-check //mlplint:allocfree annotations against
# real compiler escape analysis.
#
#   ./scripts/allocgate.sh                  gate the tree against scripts/allocgate.base
#   ./scripts/allocgate.sh -update          regenerate the baseline from the tree
#   ./scripts/allocgate.sh -compare B C     compare two prepared escape lists
#
# mlplint -allocspans dumps the file:line span of every annotated
# function; `go build -gcflags='<module>/...=-m=1'` reports the
# compiler's escape decisions (the build cache replays -m output, so
# repeated runs cost nothing). Escapes landing inside an annotated
# span are normalized to "funcname<TAB>message" — no line numbers, so
# edits elsewhere in the file don't churn the baseline — then sorted
# and de-duplicated into the escape list.
#
# Gate semantics mirror benchgate.sh: an escape present in the tree
# but not in the checked-in baseline is a new heap allocation on an
# annotated hot path and fails; a baseline escape that disappeared is
# an improvement, reported with a nudge to tighten the baseline via
# -update. The baseline is checked in, so a missing one fails: a gate
# that cannot run is a bug, not a skip.
set -euo pipefail
cd "$(dirname "$0")/.."

BASEFILE=scripts/allocgate.base

compare() {
    local basef="$1" curf="$2" fail=0
    local new gone
    new="$(comm -13 "$basef" "$curf")"
    gone="$(comm -23 "$basef" "$curf")"
    if [ -n "$gone" ]; then
        echo "note: escapes in baseline but no longer produced (run $0 -update to tighten):"
        echo "$gone" | sed 's/^/      /'
    fi
    if [ -n "$new" ]; then
        echo "FAIL: new heap escapes in //mlplint:allocfree functions:" >&2
        echo "$new" | sed 's/^/      /' >&2
        echo "hint: hoist the allocation out of the hot path, or audit it and regenerate the baseline with $0 -update" >&2
        fail=1
    else
        echo "ok:   no new escapes ($(wc -l < "$curf" | tr -d ' ') baselined)"
    fi
    return "$fail"
}

if [ "${1:-}" = "-compare" ]; then
    if [ "$#" -ne 3 ]; then
        echo "usage: $0 -compare base current" >&2
        exit 2
    fi
    compare "$2" "$3"
    exit "$?"
fi

module="$(go list -m)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/mlplint -allocspans ./... > "$tmp/spans"
nfuncs="$(wc -l < "$tmp/spans" | tr -d ' ')"
if [ "$nfuncs" -eq 0 ]; then
    echo "FAIL: no //mlplint:allocfree-annotated functions found" >&2
    exit 1
fi

# -m diagnostics land on stderr; the build itself writes nothing.
go build -gcflags="${module}/...=-m=1" ./... 2> "$tmp/m" || {
    cat "$tmp/m" >&2
    exit 2
}

awk -F: '
    NR == FNR { file[NR] = $1; start[NR] = $2; end[NR] = $3; name[NR] = $4; n = NR; next }
    /escapes to heap|moved to heap/ {
        f = $1; line = $2 + 0
        msg = $0
        sub(/^[^:]*:[0-9]*:[0-9]*: /, "", msg)
        for (i = 1; i <= n; i++) {
            if (f == file[i] && line >= start[i] && line <= end[i]) {
                print name[i] "\t" msg
                break
            }
        }
    }
' "$tmp/spans" "$tmp/m" | sort -u > "$tmp/cur"

if [ "${1:-}" = "-update" ]; then
    cp "$tmp/cur" "$BASEFILE"
    echo "wrote $BASEFILE: $(wc -l < "$BASEFILE" | tr -d ' ') escape(s) across $nfuncs annotated function(s)"
    exit 0
fi

if [ ! -f "$BASEFILE" ]; then
    echo "FAIL: $BASEFILE missing; generate it with $0 -update" >&2
    exit 1
fi

echo "allocgate: $nfuncs annotated function(s)"
compare "$BASEFILE" "$tmp/cur"
