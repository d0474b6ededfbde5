#!/bin/sh
# tables_check.sh checks the paper's small-suite tables against the
# committed results. It runs `scangen -suite small` (Tables 5 and 6)
# and `scantrans -suite small` (Table 7) at the default seed, and
# requires every circuit row to equal the committed row of the same
# table and circuit in results_table5_6.txt and results_table7.txt.
# A Table 5/6 row with no committed row fails; a Table 7 row with no
# committed row (results_table7.txt carries the paper's Table 7 list,
# not the whole small suite) is printed as unchecked. Suite totals are
# not compared: the committed files total the full suites.
#
# Run from the repository root: sh scripts/tables_check.sh
# (or make tables-check). GO overrides the go command.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$GO" build -o "$tmp/" ./cmd/scangen ./cmd/scantrans
"$tmp/scangen" -suite small >"$tmp/table5_6.txt"
"$tmp/scantrans" -suite small >"$tmp/table7.txt"

# Committed rows first, then "@@run" and the run's rows. Each row is
# keyed by its table number and first field (the circuit).
{
	cat results_table5_6.txt results_table7.txt
	echo @@run
	cat "$tmp/table5_6.txt" "$tmp/table7.txt"
} | awk '
/^@@run$/ { run = 1; table = ""; next }
/^Table [0-9]+:/ { table = $2; sub(/:$/, "", table); next }
table == "" || NF == 0 || $1 == "circ" || $1 == "total" { next }
!run { want[table, $1] = $0; next }
table == "7" && !((table, $1) in want) { unchecked = unchecked " " $1; next }
{
	rows[table]++
	if (!((table, $1) in want)) {
		bad++
		printf "tables-check: Table %s %s has no committed row\n  run:       %s\n", table, $1, $0
	} else if (want[table, $1] != $0) {
		bad++
		printf "tables-check: Table %s %s differs\n  committed: %s\n  run:       %s\n", table, $1, want[table, $1], $0
	} else {
		same[table]++
	}
}
END {
	for (t = 5; t <= 7; t++) {
		if (!rows[t]) {
			bad++
			printf "tables-check: no Table %d row was checked\n", t
		}
		printf "tables-check: Table %d: %d of %d checked rows equal the committed rows\n", t, same[t], rows[t]
	}
	if (unchecked != "")
		printf "tables-check: unchecked, no committed Table 7 row:%s\n", unchecked
	exit bad > 0
}'
