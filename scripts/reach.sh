#!/bin/sh
# Reach audit: scripts/reach.sh [workdir] (make reach). Builds every CLI,
# the example and the benchmark with -cover -coverpkg=lpm/..., runs each
# documented user path with GOCOVERDIR set — lpmreport text/-json/
# -checkpoint/-resume/-warmup-fast and sharded over two lpmworkers with
# -shard-journal -shard-validate, lpmexplore, lpmrun -metrics -timeline
# -serve -json, lpmtrace -record/-stat/-replay -events,
# README's lpmlint and lpmdiff commands, the lpmserve walkthrough, the
# diffgate inputs, the quickstart example and
# `go run ./bench -smoke` — then merges that profile with the make bench
# packages run under `go test -cover -coverpkg=lpm/...`. Prints every
# non-test function outside bench/ (which only benchmark changes edit)
# that no path reaches (0.0%), then their count.
#
# A function on the list is a deletion candidate unless it is safety code
# (an error, retry or quarantine path), a test fake or reference oracle,
# or an accessor a gate's test calls. Takes a few minutes on two cores;
# it is not part of make ci. Everything it writes goes under workdir
# (default: a fresh temporary directory) and .bench_build/ (ignored).
# It needs no git metadata, so it also runs in a `git archive` export.
set -eu

cd "$(dirname "$0")/.."
work=${1:-$(mktemp -d)}
bin=$work/bin
run=$work/run
cov=$work/cov
rm -rf "$bin" "$run" "$cov"
mkdir -p "$bin" "$run" "$cov"
GOCOVERDIR=$cov
export GOCOVERDIR

pids=
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "reach: building covered binaries" >&2
go build -cover -coverpkg=lpm/... -o "$bin/" ./cmd/... ./examples/quickstart
go build -cover -coverpkg=lpm/... -o "$bin/bench" ./bench

# waitfile <file>: block until a background process has written it.
waitfile() {
	i=0
	until [ -s "$1" ]; do
		i=$((i + 1))
		[ "$i" -le 600 ] || { echo "reach: timed out waiting for $1" >&2; exit 1; }
		sleep 0.1
	done
}

# serveaddr <log>: the host:port an lpmserve banner in log names.
serveaddr() {
	waitfile "$1"
	sed -n 's|^lpmserve .* on http://||p' "$1" | head -1
}

echo "reach: lpmreport" >&2
"$bin/lpmreport" -quick >"$run/quick.txt"
"$bin/lpmreport" -quick -json -experiment fig1,interval -interval-samples 50000 >"$run/fresh.json"
"$bin/lpmdiff" testdata/golden/report_fig1_interval.json "$run/fresh.json" >/dev/null
"$bin/lpmreport" -quick -experiment table1 -checkpoint "$run/report.ckpt" >/dev/null
"$bin/lpmreport" -quick -experiment table1 -resume "$run/report.ckpt" >/dev/null
"$bin/lpmreport" -quick -json -experiment table1 -checkpoint "$run/report-json.ckpt" >"$run/table1.json"
"$bin/lpmreport" -quick -json -experiment table1 -resume "$run/report-json.ckpt" >/dev/null
"$bin/lpmreport" -quick -experiment table1 -warmup-fast >/dev/null
"$bin/lpmreport" -quick -json -experiment table1 -warmup-fast >"$run/table1-fast.json"
"$bin/lpmdiff" -threshold 0.01 -abs 1e-9 -max 5 "$run/table1.json" "$run/table1-fast.json" >/dev/null || true

echo "reach: sharded lpmreport" >&2
"$bin/lpmreport" -quick -json -experiment table1 -shard 127.0.0.1:0 -shard-addr-file "$run/addr" \
	-shard-min 2 -shard-journal "$run/journal" -shard-validate 2 >"$run/shard.json" 2>"$run/shard.log" &
coord=$!
pids="$pids $coord"
waitfile "$run/addr"
"$bin/lpmworker" -quiet -slots 1 "$(cat "$run/addr")" &
pids="$pids $!"
"$bin/lpmworker" -quiet -slots 1 "$(cat "$run/addr")" &
pids="$pids $!"
wait "$coord"
"$bin/lpmworker" -version >/dev/null
"$bin/lpmworker" -help 2>/dev/null || true

echo "reach: lpmexplore" >&2
"$bin/lpmexplore" -grain coarse -window 8000 -warmup 30000 -maxsteps 4 >/dev/null
"$bin/lpmexplore" -json -grain fine -window 8000 -warmup 30000 -maxsteps 4 -checkpoint "$run/explore.ckpt" >/dev/null
"$bin/lpmexplore" -json -grain fine -window 8000 -warmup 30000 -maxsteps 4 -resume "$run/explore.ckpt" >/dev/null

echo "reach: lpmrun" >&2
"$bin/lpmrun" -list >/dev/null
for w in 401.bzip2 429.mcf 403.gcc; do
	"$bin/lpmrun" -workload "$w" -instructions 8000 -warmup 5000 -metrics -timeline >/dev/null
done
"$bin/lpmrun" -workload 403.gcc -instructions 8000 -warmup 5000 -warmup-fast -json >/dev/null
"$bin/lpmrun" -workload 429.mcf -instructions 20000 -warmup 5000 -metrics -serve 127.0.0.1:0 -serve-hold 2s >"$run/lpmrun-serve.txt" &
lr=$!
pids="$pids $lr"
waitfile "$run/lpmrun-serve.txt"
addr=$(sed -n 's|^serving .* on http://||p' "$run/lpmrun-serve.txt" | head -1)
curl -sf "$addr/metrics" >/dev/null || true
curl -sf "$addr/timeline" >/dev/null || true
wait "$lr"

echo "reach: lpmtrace" >&2
"$bin/lpmtrace" -record "$run/t.lpmt" -workload 429.mcf -n 20000 >/dev/null
"$bin/lpmtrace" -stat "$run/t.lpmt" >/dev/null
"$bin/lpmtrace" -replay "$run/t.lpmt" -instructions 10000 -events "$run/ev.json" >/dev/null
"$bin/lpmtrace" -replay "$run/t.lpmt" -instructions 10000 -events "$run/ev.jsonl" >/dev/null

echo "reach: lpmlint" >&2
"$bin/lpmlint" . ./cmd/... ./internal/... ./examples/... >/dev/null
"$bin/lpmlint" -list >/dev/null
"$bin/lpmlint" internal/sim/... >/dev/null
"$bin/lpmlint" -format=github ./internal/... >/dev/null
(cd internal/lint/testdata/src/determinism && "$bin/lpmlint" -format=github ./... >/dev/null) || true

echo "reach: quickstart" >&2
"$bin/quickstart" >/dev/null

# serve <log>: the README walkthrough against one lpmserve — submit,
# list, follow the SSE stream to done, scrape, fetch the result, cancel
# a run — then SIGTERM, which drains and exits 0.
serve() {
	log=$1
	"$bin/lpmserve" -addr 127.0.0.1:0 -grace 5s >"$log" 2>"$log.err" &
	sv=$!
	pids="$pids $sv"
	a=http://$(serveaddr "$log")
	curl -sf -d '{"workload":"403.gcc","tenant":"acme","instructions":20000,"warmup":5000}' "$a/api/v1/runs" >/dev/null
	curl -sf -d '{"workload":"429.mcf","tenant":"beta","instructions":20000,"warmup":5000}' "$a/api/v1/runs" >/dev/null
	curl -sf "$a/api/v1/runs" >/dev/null
	curl -sf -N --max-time 60 "$a/api/v1/runs/r-1/events" >/dev/null || true
	curl -sf "$a/api/v1/runs/r-1" >/dev/null
	curl -sf "$a/api/v1/runs/r-1/timeline" >/dev/null
	curl -sf "$a/api/v1/runs/r-1/metrics" >/dev/null
	curl -sf "$a/api/v1/runs/r-1/result" >/dev/null
	curl -sf "$a/metrics" >/dev/null
	curl -s -d '{"workload":"nope"}' "$a/api/v1/runs" >/dev/null
	curl -sf -d '{"workload":"401.bzip2","tenant":"acme","instructions":30000000}' "$a/api/v1/runs" >/dev/null
	curl -sf -X POST "$a/api/v1/runs/r-3/cancel" >/dev/null
	kill -TERM "$sv"
	wait "$sv"
}

echo "reach: lpmserve" >&2
serve "$run/serve.log"

echo "reach: bench -smoke" >&2
"$bin/bench" -smoke >/dev/null

echo "reach: make bench packages" >&2
go test -cover -coverpkg=lpm/... -coverprofile="$work/bench.out" -bench . -benchtime 1x -run '^$' \
	. ./internal/trace ./internal/stats ./internal/analyzer ./internal/sim/cache ./internal/sim/chip \
	./internal/sim/noc ./internal/sim/dram ./internal/fabric ./internal/ctrl >/dev/null

# Merge: a block counts as reached when any run reached it.
go tool covdata textfmt -i="$cov" -o "$work/paths.out"
{
	echo "mode: set"
	tail -q -n +2 "$work/paths.out" "$work/bench.out" |
		awk '{ k = $1 " " $2; if (!(k in c) || $3 > 0) c[k] = ($3 > 0) } END { for (k in c) print k, c[k] }' |
		sort
} >"$work/merged.out"
go tool cover -func="$work/merged.out" | awk '
	$NF == "0.0%" && $1 !~ /^lpm\/bench\// { sub("^lpm/", "", $1); print $1, $2; n++ }
	END { printf "%d non-test functions at 0.0%%\n", n }'
