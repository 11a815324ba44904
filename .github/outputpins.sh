#!/usr/bin/env bash
# outputpins.sh checks that every default mitosis-bench target (each one
# `mitosis-bench -list` does not mark as left out of "all") still prints the
# simulated output pinned in .github/outputs.sha256.
#
# It builds cmd/mitosis-bench once, runs `mitosis-bench -quick TARGET` for
# each target, drops the "[TARGET completed in ...]" wall-time line and
# compares the SHA-256 of what is left with the pinned digest. A target that
# fails, prints something else, or has no pin fails the check, and so does a
# pin whose target is gone. Every figure, table and ablation is simulated
# output, identical across runs, GOMAXPROCS values and engine modes.
#
# Usage: .github/outputpins.sh          compare, exit 1 on any difference
#        .github/outputpins.sh -write   regenerate the pin file
set -euo pipefail

write=0
case "${1:-}" in
-write) write=1 ;;
"") ;;
*)
	echo "usage: outputpins.sh [-write]" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
pins=$root/.github/outputs.sha256
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

(cd "$root" && go build -o "$tmp/mitosis-bench" ./cmd/mitosis-bench)
targets=$("$tmp/mitosis-bench" -list | awk '!/not in "all"/ { print $1 }')

for t in $targets; do
	if ! (cd "$tmp" && ./mitosis-bench -quick "$t") >"$tmp/$t.out" 2>&1; then
		echo "outputpins: mitosis-bench -quick $t failed:" >&2
		tail -20 "$tmp/$t.out" >&2
		exit 1
	fi
	sum=$({ grep -v "^\[$t completed in .*\]\$" "$tmp/$t.out" || true; } | sha256sum)
	echo "${sum%% *}  $t"
done >"$tmp/outputs.sha256"

if ((write)); then
	cp "$tmp/outputs.sha256" "$pins"
	echo "outputpins: wrote $(wc -l <"$pins") pins to ${pins#"$root"/}"
	exit 0
fi
if ! diff -u "$pins" "$tmp/outputs.sha256"; then
	echo "outputpins: simulated output changed (lines above: - pinned, + now)." >&2
	echo "Compare the targets' output with the parent build's; if the change is intended," >&2
	echo "regenerate the pins with .github/outputpins.sh -write." >&2
	exit 1
fi
echo "outputpins: $(wc -l <"$pins") targets match their pins"
