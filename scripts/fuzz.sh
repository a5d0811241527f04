#!/bin/sh
# Short-budget fuzzing sweep over every fuzz target in the repo. Each target
# gets FUZZTIME (default 20s) of coverage-guided mutation on top of the
# checked-in seed corpus; any crasher fails the script and leaves the
# reproducer under the package's testdata/fuzz/ directory for triage.
#
# The targets are discovered, not listed: `go test -list '^Fuzz'` in every
# package of the module, so a new target joins the sweep without an edit
# here. No target is excluded.
#
# Usage: scripts/fuzz.sh [fuzztime]
set -eu

FUZZTIME="${1:-20s}"

n=0
for pkg in $(go list ./...); do
	list=$(go test -list '^Fuzz' "$pkg") || {
		echo "fuzz.sh: cannot list the fuzz targets of $pkg" >&2
		exit 1
	}
	for target in $(printf '%s\n' "$list" | grep '^Fuzz' || true); do
		echo "==> go test -fuzz=^${target}\$ -fuzztime=${FUZZTIME} ${pkg}"
		go test -fuzz="^${target}\$" -fuzztime="${FUZZTIME}" "${pkg}"
		n=$((n + 1))
	done
done
if [ "$n" -eq 0 ]; then
	echo "fuzz.sh: found no fuzz targets" >&2
	exit 1
fi
echo "fuzz sweep clean: $n targets"
