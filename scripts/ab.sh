#!/usr/bin/env bash
# A/B run of the repo benchmark: a base revision against the working
# tree, in alternating pairs, judged by the benchmark's own -compare.
#
#   scripts/ab.sh [-n pairs] [-base rev] [-smoke] [-o file]
#
# Defaults: 10 pairs, base HEAD, output BENCH_ab.json. Every run takes
# the benchmark's own window length. Pair i runs every workload on the
# base first when i is odd and on the change first when it is even.
# -smoke is one pair on the Bits 5 corpus with 1 s windows: it checks
# the plumbing and measures nothing.
#
# The output file holds, per workload and end-to-end metric, both sides'
# per-pair values, the median change/base ratio, how many pairs moved
# each way, the -compare verdicts, both revisions, the window length the
# runs report and the host fingerprint. The base's source, both binaries, their Go build cache
# and the per-run files live in a temporary directory removed on exit:
# the output file is all the script leaves behind. Needs git, go, jq.
set -euo pipefail

pairs=10 base=HEAD smoke=false out=BENCH_ab.json
while [ $# -gt 0 ]; do
	case "$1" in
	-n) pairs=$2; shift 2 ;;
	-base) base=$2; shift 2 ;;
	-smoke) smoke=true pairs=1; shift ;;
	-o) out=$2; shift 2 ;;
	*)
		echo "usage: $0 [-n pairs] [-base rev] [-smoke] [-o file]" >&2
		exit 2
		;;
	esac
done
command -v jq >/dev/null || { echo "ab: jq is needed to write $out" >&2; exit 1; }

root=$(git rev-parse --show-toplevel)
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
base_rev=$(git -C "$root" rev-parse "$base")
change_rev=$(git -C "$root" rev-parse HEAD)
dirty=false
[ -z "$(git -C "$root" status --porcelain)" ] || dirty=true

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOCACHE="$tmp/gocache"
mkdir "$tmp/base"
git -C "$root" archive "$base_rev" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./benchmark)
(cd "$root" && go build -o "$tmp/bench-change" ./benchmark)

flags=(-seed 1993)
if $smoke; then
	flags+=(-smoke -seconds 1)
fi
workloads=$(jq -r '.workloads[].name' "$root/BENCHMARK.json")

# run SIDE PAIR WORKLOAD: one run, merged into that side's pair file.
# Each binary runs in its own tree, where it reads BENCHMARK.json.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$tmp/base
	echo "ab: pair $2, $3, $1" >&2
	if ! (cd "$dir" && "$tmp/bench-$1" -workload "$3" "${flags[@]}" -out "$tmp/$1-$2.json" >"$tmp/run.log" 2>&1); then
		cat "$tmp/run.log" >&2
		echo "ab: the $1 run of $3 failed" >&2
		exit 1
	fi
}

for i in $(seq 1 "$pairs"); do
	order="base change"
	if [ $((i % 2)) = 0 ]; then
		order="change base"
	fi
	for w in $workloads; do
		for side in $order; do
			run "$side" "$i" "$w"
		done
	done
	# -compare exits 1 when something is worse; the verdicts say which.
	(cd "$root" && "$tmp/bench-change" -compare "$tmp/base-$i.json" "$tmp/change-$i.json" >"$tmp/compare-$i.txt") || true
	awk -v pair="$i" 'NF == 7 && $7 ~ /^(ok|worse|unresolved|info)$/ {
		printf "{\"pair\":%d,\"workload\":\"%s\",\"metric\":\"%s\",\"verdict\":\"%s\"}\n", pair, $1, $2, $7
	}' "$tmp/compare-$i.txt" >>"$tmp/verdicts.jsonl"
done

files() { for i in $(seq 1 "$pairs"); do echo "$tmp/$1-$i.json"; done; }
# shellcheck disable=SC2046
jq -s . $(files base) >"$tmp/base.json"
# shellcheck disable=SC2046
jq -s . $(files change) >"$tmp/change.json"
jq -s . "$tmp/verdicts.jsonl" >"$tmp/verdicts.json"

jq -n \
	--slurpfile B "$tmp/base.json" --slurpfile C "$tmp/change.json" --slurpfile V "$tmp/verdicts.json" \
	--arg base_rev "$base_rev" --arg change_rev "$change_rev" --argjson dirty "$dirty" \
	--argjson smoke "$smoke" '
	def median: sort | if length == 0 then null
		elif length % 2 == 1 then .[(length - 1) / 2]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	$B[0] as $b | $C[0] as $c | $V[0] as $v |
	{
		base: {rev: $base_rev},
		change: {rev: $change_rev, uncommitted_changes: $dirty},
		pairs: ($b | length),
		order: [range(1; ($b | length) + 1) | if . % 2 == 1 then "base first" else "change first" end],
		seconds: ([$b[], $c[] | .results[] | .seconds] | unique),
		smoke: $smoke,
		host: ($c[0].results | to_entries[0].value.host | del(.git_rev)),
		workloads: ($c[0].results | keys | map(. as $w | {key: $w, value: {
			correct: {base: [$b[] | .results[$w].correct], change: [$c[] | .results[$w].correct]},
			metrics: ($c[0].results[$w].end_to_end | keys | map(. as $m | {key: $m, value: (
				{base: [$b[] | .results[$w].end_to_end[$m].value],
				 change: [$c[] | .results[$w].end_to_end[$m].value]}
				| [range(0; .base | length) as $i | [.base[$i], .change[$i]]] as $p
				| . + {
					unit: $c[0].results[$w].end_to_end[$m].unit,
					median_ratio: ([$p[] | select(.[0] != 0) | .[1] / .[0]] | median),
					pairs_up: ([$p[] | select(.[1] > .[0])] | length),
					pairs_down: ([$p[] | select(.[1] < .[0])] | length),
					pairs_equal: ([$p[] | select(.[1] == .[0])] | length),
					verdicts: [$v[] | select(.workload == $w and .metric == $m) | .verdict]
				})}) | from_entries)
		}}) | from_entries)
	}' >"$out"
echo "ab: wrote $out" >&2
