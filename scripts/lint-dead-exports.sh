#!/usr/bin/env bash
# Dead-export report: lists every exported top-level func declared in
# non-test Go under internal/ that no non-test Go file calls — neither
# a bare use inside its own package nor a pkg.Name use from another
# package, bench/ and examples/ included. Tests do not count: a func
# only a test calls is dead code with a test around it. Comment lines
# do not count either.
#
# The reproduction packages (logic, systolic, mmmc, expo, fpga,
# verilog, tables) are skipped: their exported surface models the
# paper's hardware and figures, and parts of it exist to be checked by
# tests. Methods are not scanned, since a method name alone does not
# say which type a call site means.
#
# Report only: the exit status is 0 whatever it finds.
#
# Usage: bash scripts/lint-dead-exports.sh   (from anywhere in the repo)
set -uo pipefail
cd "$(dirname "$0")/.."

skip='^internal/(logic|systolic|mmmc|expo|fpga|verilog|tables)/'
comment='^[^:]*:[0-9]+:[[:space:]]*//'
found=0
while IFS=: read -r file line name; do
	dir=$(dirname "$file")
	pkg=$(sed -n 's/^package \([A-Za-z0-9_]*\).*/\1/p' "$file" | head -n 1)
	own=$(grep -HnwE -- "$name" $(ls "$dir"/*.go | grep -v '_test\.go$') |
		grep -v "^$file:$line:" | grep -cvE "$comment")
	other=$(grep -rHnE --include='*.go' --exclude='*_test.go' -- "\\b$pkg\\.$name\\b" . |
		grep -cvE "$comment")
	if [ "$own" -eq 0 ] && [ "$other" -eq 0 ]; then
		echo "dead export: $file:$line: $pkg.$name has no caller outside tests"
		found=$((found + 1))
	fi
done < <(grep -rnE --include='*.go' --exclude='*_test.go' \
	'^func [A-Z][A-Za-z0-9_]*[[(]' internal |
	grep -vE "$skip" |
	sed -E 's/^([^:]+):([0-9]+):func ([A-Za-z0-9_]*)[[(].*/\1:\2:\3/')
echo "$found dead export(s)"
exit 0
