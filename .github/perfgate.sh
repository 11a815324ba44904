#!/usr/bin/env bash
# perfgate.sh REF compares the host speed of the checkout with REF's on the
# gated BenchmarkMicro* rows, on this host, in one go.
#
# It builds a `go test -c` binary of REF (checked out in a temporary git
# worktree) and one of the checkout, then runs each gated row of each binary
# twice, alternating which binary goes first. A row reports "paced": the
# 10th percentile over its slices of the slice's ns/op divided by the
# ns/step of a fixed integer kernel timed between slices (bench_test.go,
# paced), so a host that slows both down together cancels out. The gate prints, per row,
# the median paced value of REF and of the checkout and their ratio, and
# fails when a row's ratio exceeds BOUND. A row REF does not report is
# printed and skipped.
#
# Usage: .github/perfgate.sh REF   (for example HEAD^1)
set -euo pipefail

ref=${1:?usage: perfgate.sh REF}
bound=1.30
rows=(
	BenchmarkMicroAccessBatchTLBHit
	BenchmarkMicroAccessTLBMiss
	BenchmarkMicroFaultStorm
	BenchmarkMicroEngineParallelGUPS/par
	BenchmarkMicroSweepCellPooled
	BenchmarkMicroChurn
	BenchmarkMicroPageTableAlloc
	BenchmarkMicroTierTick
	BenchmarkMicroPolicyTick
	BenchmarkMicroWalk/2d
	BenchmarkMicroCostDRAM
	BenchmarkMicroEmptyRound
	BenchmarkMicroFaultTick
	BenchmarkMicroSetPTEReplicated
)

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/ref" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/ref" "$ref"
(cd "$tmp/ref" && go test -c -o "$tmp/ref.test" .)
(cd "$root" && go test -c -o "$tmp/head.test" .)

# paced SIDE ROW runs SIDE's binary from its package directory and prints
# the row's paced value, or nothing if the binary lacks the row.
paced() {
	local dir=$root pattern="^${2%%/*}\$"
	[[ $1 == ref ]] && dir=$tmp/ref
	[[ $2 == */* ]] && pattern+="/^${2#*/}\$"
	(cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench "$pattern" -test.benchtime 1s -test.timeout 5m) |
		awk '/^Benchmark/ { for (i = 3; i < NF; i++) if ($(i + 1) == "paced") print $i }'
}

median() { sort -g | awk '{ v[NR] = $1 } END { if (NR) print (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2 }'; }

failed=0
printf '%-40s %12s %12s %7s\n' row ref head ratio
for row in "${rows[@]}"; do
	r=() h=()
	for order in "ref head" "head ref"; do
		for side in $order; do
			v=$(paced "$side" "$row")
			[[ -z $v ]] && continue
			if [[ $side == ref ]]; then r+=("$v"); else h+=("$v"); fi
		done
	done
	if ((${#h[@]} == 0)); then
		echo "perfgate: the checkout does not report $row" >&2
		exit 1
	fi
	hmed=$(printf '%s\n' "${h[@]}" | median)
	if ((${#r[@]} == 0)); then
		printf '%-40s %12s %12s %7s  skipped: %s does not report it\n' "$row" - "$hmed" - "$ref"
		continue
	fi
	rmed=$(printf '%s\n' "${r[@]}" | median)
	ratio=$(awk -v h="$hmed" -v r="$rmed" 'BEGIN { printf "%.3f", h / r }')
	verdict=
	if awk -v x="$ratio" -v b="$bound" 'BEGIN { exit !(x > b) }'; then
		verdict="  FAIL: slower than $ref by more than $bound x"
		failed=1
	fi
	printf '%-40s %12s %12s %7s%s\n' "$row" "$rmed" "$hmed" "$ratio" "$verdict"
done
exit "$failed"
