#!/bin/sh
# loc.sh reports a change's Go lines of code per directory: the lines
# added, deleted and net from BASE to HEAD, with _test.go files counted
# apart from the rest, then a total row. It only reads
# `git diff --numstat`, so uncommitted edits are not counted.
#
#   sh scripts/loc.sh [BASE]      # BASE defaults to HEAD~1
#   make loc BASE=<ref>
set -eu

base=${1:-HEAD~1}
git diff --numstat --no-renames "$base" HEAD -- '*.go' | sort -k3 | awk '
function row(name, k) {
	printf "%-32s %6d %6d %+6d   %6d %6d %+6d\n", name,
		add[k, "code"], del[k, "code"], add[k, "code"] - del[k, "code"],
		add[k, "test"], del[k, "test"], add[k, "test"] - del[k, "test"]
}
{
	dir = $3
	if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
	kind = $3 ~ /_test\.go$/ ? "test" : "code"
	if (!(dir in seen)) { seen[dir] = 1; order[++n] = dir }
	add[dir, kind] += $1; del[dir, kind] += $2
	add["total", kind] += $1; del["total", kind] += $2
}
END {
	printf "%-32s %6s %6s %6s   %6s %6s %6s\n", "directory", "add", "del", "net", "t.add", "t.del", "t.net"
	for (i = 1; i <= n; i++) row(order[i], order[i])
	row("total", "total")
}'
