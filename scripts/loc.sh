#!/bin/sh
# Non-test and test Go lines per package (directory), then the module
# total: the line counts a simplicity change reports before and after.
# Each count is `find ... ! -name '*_test.go' | xargs cat | wc -l`, the
# rule ROADMAP.md states, with testdata left out.
#
# Usage: scripts/loc.sh [checkout]   (default: this script's checkout)
set -eu
cd "${1:-$(dirname "$0")/..}"

count() { find "$@" ! -path '*/testdata/*' | xargs -r cat | wc -l; }

printf '%-28s %9s %9s\n' package non-test test
find . -name '*.go' ! -path '*/testdata/*' ! -path './.git/*' | xargs -n1 dirname | sort -u |
	while read -r dir; do
		printf '%-28s %9d %9d\n' "${dir#./}" \
			"$(count "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')" \
			"$(count "$dir" -maxdepth 1 -name '*_test.go')"
	done
printf '%-28s %9d %9d\n' total "$(count . -name '*.go' ! -name '*_test.go')" "$(count . -name '*_test.go')"
