#!/usr/bin/env bash
# Dead-option lint: every exported functional option (func With...)
# declared in non-test Go must be referenced somewhere in the repo
# besides its own declaration — a use inside its own package, or a
# pkg.WithX use from another one (tests count). An option nobody sets
# is a knob with a single value: delete it and make the value a
# constant. Comment lines do not count as references.
#
# Usage: bash scripts/lint-dead-options.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

comment='^[^:]*:[0-9]+:[[:space:]]*//'
dead=0
while IFS=: read -r file line name; do
	dir=$(dirname "$file")
	pkg=$(sed -n 's/^package \([A-Za-z0-9_]*\).*/\1/p' "$file" | head -n 1)
	own=$(grep -HnwE -- "$name" "$dir"/*.go |
		grep -v "^$file:$line:" | grep -cvE "$comment" || true)
	other=$(grep -rHnE --include='*.go' -- "\\b$pkg\\.$name\\b" . |
		grep -cvE "$comment" || true)
	if [ "$own" -eq 0 ] && [ "$other" -eq 0 ]; then
		echo "dead option: $file:$line: $pkg.$name has no caller" >&2
		dead=1
	fi
done < <(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.git \
	'^func With[A-Za-z0-9_]*\(' . |
	sed -E 's/^([^:]+):([0-9]+):func (With[A-Za-z0-9_]*)\(.*/\1:\2:\3/')
exit "$dead"
