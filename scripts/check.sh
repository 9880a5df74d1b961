#!/bin/sh
# Full verification gate: build, vet, race-enabled tests, then every gate
# in the catalogue (scripts/gates) concurrently. `make check` runs this
# script; it also works where make is not installed.
#
#   scripts/check.sh          the full gate
#   scripts/check.sh NAME...  only the named catalogue gates, in order
#
# The serial prefix (build, vet, race) establishes a compiling,
# race-clean tree; every catalogue gate only re-runs subsets with fixed
# seeds or fresh interleavings, so the gates share no state and run in
# parallel. Each gate's output is line-prefixed with its name; the
# script fails if any gate fails, after letting all of them finish.
set -eu

cd "$(dirname "$0")/.."

tab="$(printf '\t')"

# gates prints the catalogue's "NAME<tab>COMMAND" lines.
gates() {
    grep -v '^#' scripts/gates | grep "$tab"
}

# command_of NAME prints the catalogued command of gate NAME.
command_of() {
    gates | while IFS="$tab" read -r name cmd; do
        if [ "$name" = "$1" ]; then
            printf '%s\n' "$cmd"
        fi
    done
}

if [ "$#" -gt 0 ]; then
    for name in "$@"; do
        cmd="$(command_of "$name")"
        if [ -z "$cmd" ]; then
            echo "check.sh: no gate named $name in scripts/gates" >&2
            exit 2
        fi
        echo "== $name: $cmd"
        sh -c "$cmd"
    done
    exit 0
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

names="$(gates | cut -f1 | tr '\n' ' ')"
echo "== concurrent gates ($names)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run NAME CMD: run a gate in the background, prefixing every output line
# with [NAME] and recording its exit status in $tmp/NAME.status.
run() {
    name="$1"
    {
        if sh -c "$2" 2>&1; then
            echo 0 >"$tmp/$name.status"
        else
            echo 1 >"$tmp/$name.status"
        fi
    } | sed "s/^/[$name] /" &
}

# The loop reads the catalogue from a file, not a pipe, so the
# background gates are children of this shell and `wait` waits for them.
gates >"$tmp/catalogue"
while IFS="$tab" read -r name cmd; do
    run "$name" "$cmd"
done <"$tmp/catalogue"

wait

failed=0
for name in $names; do
    status="$(cat "$tmp/$name.status" 2>/dev/null || echo 1)"
    if [ "$status" != 0 ]; then
        echo "== FAILED: $name"
        failed=1
    fi
done
if [ "$failed" != 0 ]; then
    exit 1
fi

echo "== OK"
