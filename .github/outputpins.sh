#!/usr/bin/env bash
# outputpins.sh checks that every default mitosis-bench target (each one
# `mitosis-bench -list` does not mark as left out of "all") and a fixed list
# of numactl and ptdump invocations still print the simulated output pinned
# in .github/outputs.sha256.
#
# It builds cmd/mitosis-bench, cmd/numactl and cmd/ptdump once, runs
# `mitosis-bench -quick TARGET` for each target, drops the "[TARGET completed
# in ...]" wall-time line and compares the SHA-256 of what is left with the
# pinned digest; each tool invocation is pinned the same way under its
# command line. A target or invocation that fails, prints something else, or
# has no pin fails the check, and so does a pin whose target is gone. Every
# figure, table, ablation and tool output is simulated output, identical
# across runs, GOMAXPROCS values and engine modes.
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

# Tool invocations, each pinned under its command line. Rejected flags are
# left out: log.Fatal stamps its line with the wall-clock time.
tool_runs=(
	"numactl -all -r all -ops 20000 XSBench"
	"numactl -membind 1 -ops 20000 Redis"
	"numactl -interleave -thp -pgtablerepl 0,1 -ops 20000 Redis"
	"numactl -all -cpunodebind 2 -ops 20000 XSBench"
	"numactl -cpunodebind 1 -r 0 -ops 20000 GUPS"
	"ptdump"
	"ptdump -replicate"
	"ptdump -scenario wm -workload Redis -thp"
	"ptdump -tiers cxl@0 -ptnode 4"
	"ptdump -replicate -faults poison-pt:r600:p0:n1;offline:r1200:n2"
	"ptdump -faults poison-pt:r600:p0:n0"
	"ptdump -geometry"
	"ptdump -geometry -hardware x8664la57"
	"ptdump -geometry -hardware victima"
)

(cd "$root" && go build -o "$tmp/" ./cmd/mitosis-bench ./cmd/numactl ./cmd/ptdump)
targets=$("$tmp/mitosis-bench" -list | awk '!/not in "all"/ { print $1 }')

{
	for t in $targets; do
		if ! (cd "$tmp" && ./mitosis-bench -quick "$t") >"$tmp/$t.out" 2>&1; then
			echo "outputpins: mitosis-bench -quick $t failed:" >&2
			tail -20 "$tmp/$t.out" >&2
			exit 1
		fi
		sum=$({ grep -v "^\[$t completed in .*\]\$" "$tmp/$t.out" || true; } | sha256sum)
		echo "${sum%% *}  $t"
	done
	for run in "${tool_runs[@]}"; do
		read -ra args <<<"$run"
		if ! (cd "$tmp" && "./${args[0]}" "${args[@]:1}") >"$tmp/tool.out" 2>&1; then
			echo "outputpins: $run failed:" >&2
			tail -20 "$tmp/tool.out" >&2
			exit 1
		fi
		sum=$(sha256sum <"$tmp/tool.out")
		echo "${sum%% *}  $run"
	done
} >"$tmp/outputs.sha256"

if ((write)); then
	cp "$tmp/outputs.sha256" "$pins"
	echo "outputpins: wrote $(wc -l <"$pins") pins to ${pins#"$root"/}"
	exit 0
fi
if ! diff -u "$pins" "$tmp/outputs.sha256"; then
	echo "outputpins: simulated output changed (lines above: - pinned, + now)." >&2
	echo "Compare the output with the parent build's; if the change is intended," >&2
	echo "regenerate the pins with .github/outputpins.sh -write." >&2
	exit 1
fi
echo "outputpins: $(wc -l <"$pins") targets and invocations match their pins"
