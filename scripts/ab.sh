#!/bin/sh
# Paired parent/change benchmark: scripts/ab.sh <git-ref> <workload> [pairs]
# (make ab REF=… WORKLOAD=… PAIRS=…). The parent is <git-ref> exported
# under .bench_build/ (ignored); the change is the working tree. Each
# pair is one untraced `go run ./bench` per side with the same seed, the
# order alternating P C C P …, so a drift in host load lands on both
# sides. Prints, for every end-to-end metric, each side's median and
# quartiles, the pairs the change won, and the verdict of the
# choosing-metrics guide, section 8: a gain needs at least nine tenths of
# the decided pairs and a median gap wider than the parent's own
# inter-quartile distance. bench/history.jsonl is restored afterwards, so
# measuring leaves bench/ byte-identical.
set -eu

[ $# -ge 2 ] || { echo "usage: $0 <git-ref> <workload> [pairs]" >&2; exit 2; }
ref=$1 workload=$2 pairs=${3:-10}

cd "$(git rev-parse --show-toplevel)"
parent=.bench_build/ab-parent
rows=.bench_build/ab-rows.txt
saved=.bench_build/ab-history.jsonl
rm -rf "$parent"
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"
cp bench/history.jsonl "$saved"
trap 'cp "$saved" bench/history.jsonl; rm -f "$saved"' EXIT
: >"$rows"

# measure <dir> <side> <seed>: one run, read off the table it prints;
# appends "<side> <seed> <metric> <value>" rows.
measure() {
	(cd "$1" && go run ./bench --workload "$workload" --seed "$3" --seconds 10 --trace 0) |
		awk -v side="$2" -v seed="$3" '/^  (setup_s|op_ms_p50|mem_mb|fail_frac) / { print side, seed, $1, $2 }' >>"$rows"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		measure "$parent" P "$i"
		measure . C "$i"
	else
		measure . C "$i"
		measure "$parent" P "$i"
	fi
	echo "pair $i/$pairs done" >&2
	i=$((i + 1))
done

[ "$(grep -c ' op_ms_p50 ' "$rows")" -eq $((2 * pairs)) ] || echo "warning: some runs printed no result" >&2
echo "== $workload: parent $ref vs working tree, $pairs pairs, lower is better"
echo "   (GAIN / worse: the section-8 rule, either way; whether worse is a regression is the BENCHMARK.json bound's call)"
sort -k3,3 -k1,1 -k4,4g "$rows" | awk '
function quantile(v, n, q,    pos, lo) {
	pos = (n - 1) * q; lo = int(pos)
	return lo + 1 < n ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[n - 1]
}
function report(    side, n, v, i, med, q1, q3, won, lost, s, verdict) {
	for (side = 0; side < 2; side++) {
		n = cnt[side]
		for (i = 0; i < n; i++) v[i] = val[side, i]
		med[side] = quantile(v, n, 0.5); q1[side] = quantile(v, n, 0.25); q3[side] = quantile(v, n, 0.75)
	}
	won = lost = 0
	for (s in bySeed) {
		split(s, k, SUBSEP)
		if (k[1] != "P") continue
		if (("C", k[2]) in bySeed) {
			if (bySeed["C", k[2]] < bySeed[s]) won++
			else if (bySeed["C", k[2]] > bySeed[s]) lost++
		}
	}
	verdict = "-"
	if (won + lost > 0 && won >= 0.9 * (won + lost) && med[1] - med[0] > q3[1] - q1[1]) verdict = "GAIN"
	else if (won + lost > 0 && lost >= 0.9 * (won + lost) && med[0] - med[1] > q3[1] - q1[1]) verdict = "worse"
	printf "%-10s parent %10.4g [%.4g, %.4g]  change %10.4g [%.4g, %.4g]  ratio %.3f  won %d lost %d  %s\n",
		metric, med[1], q1[1], q3[1], med[0], q1[0], q3[0], med[1] ? med[0] / med[1] : 0, won, lost, verdict
}
{
	if ($3 != metric && metric != "") { report(); delete val; delete cnt; delete bySeed }
	metric = $3
	side = ($1 == "P")
	val[side, cnt[side]++] = $4
	bySeed[$1, $2] = $4
}
END { if (metric != "") report() }'
