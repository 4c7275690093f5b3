#!/usr/bin/env bash
# The stdout-identity gate (make determinism):
#
#   scripts/determinism.sh
#
# Builds cambench once and runs the whole quick suite at -parallel 1 and
# -parallel 8, with no fault plan and with -faults 7:1e-4. Each pair must be
# byte-identical and equal its golden file: testdata/quick.txt and
# testdata/quick-faults.txt. On a mismatch it prints the diff of the first
# experiment block ("### id — title" up to the next "### ") that differs.
# A change meant to move the model re-records both files with the command
# the message names, and the diff of the files is the review. GOARCH=386
# in the environment builds and checks a 32-bit binary against the same
# files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root"
"${GO:-go}" build -o "$tmp/cambench" ./cmd/cambench

# block prints experiment $1's block of file $2.
block() { awk -v id="$1" '/^### /{on = ($2 == id)} on' "$2"; }

for golden in testdata/quick.txt testdata/quick-faults.txt; do
	flags=()
	label="no faults"
	if [ "$golden" = testdata/quick-faults.txt ]; then
		flags=(-faults 7:1e-4)
		label="-faults 7:1e-4"
	fi
	for p in 1 8; do
		"$tmp/cambench" -exp all -quick -parallel $p "${flags[@]}" > "$tmp/p$p" 2> "$tmp/err" || { cat "$tmp/err"; exit 1; }
	done
	cmp -s "$tmp/p1" "$tmp/p8" || { echo "determinism: $label: -parallel 1 and -parallel 8 differ"; exit 1; }
	if ! cmp -s "$golden" "$tmp/p1"; then
		for id in $(cat "$golden" "$tmp/p1" | awk '/^### / && !seen[$2]++ {print $2}'); do
			if ! cmp -s <(block "$id" "$golden") <(block "$id" "$tmp/p1"); then
				echo "determinism: $label: stdout differs from $golden, first in $id:"
				diff -u --label "$golden" --label "cambench" <(block "$id" "$golden") <(block "$id" "$tmp/p1") || true
				break
			fi
		done
		echo "determinism: a change meant to move the model re-records it: go run ./cmd/cambench -exp all -quick${flags[*]:+ ${flags[*]}} > $golden"
		exit 1
	fi
	echo "determinism: $label: -parallel 1 and 8 match $golden"
done
