#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in the CI workflow
# matches no test in the packages its command lists, so that a smoke step
# cannot quietly run nothing after a test is renamed or deleted.
#
# Usage: .github/scripts/check-run-patterns.sh [workflow.yml]
#
# Each `go test … -run PATTERN … ./pkg …` command is checked on its own
# line: `go test -list .` names every test, fuzz target and example of
# the listed packages, and each `|`-separated alternative of PATTERN must
# match one of them (benchmarks do not count: -run does not run them).
# The pattern `^$`, which fuzz commands use to run no test, is skipped.
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
failed=0
while IFS= read -r line; do
	pattern=$(sed -nE "s/.*-run '([^']*)'.*/\1/p" <<<"$line")
	[[ -z $pattern ]] && pattern=$(sed -nE 's/.*-run ([^ ]+).*/\1/p' <<<"$line")
	[[ $pattern == '^$' ]] && continue
	read -ra pkgs <<<"$(grep -oE '\./[^ ]*' <<<"$line" | tr '\n' ' ')"
	if ((${#pkgs[@]} == 0)); then
		echo "no packages named in: $line" >&2
		failed=1
		continue
	fi
	names=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Fuzz|Example)' || true)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "-run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			failed=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$workflow")
exit $failed
