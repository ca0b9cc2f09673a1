#!/bin/sh
# ci.sh — the checks a change must pass before merging.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# perfbench is a module of its own, so the ./... patterns above never
# compile it: an API change that breaks the benchmark fails here instead.
echo "== perfbench module: vet and test"
(cd perfbench && go vet ./... && go test ./...)

echo "== benchmark smoke (one iteration each)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzBinaryRoundTrip$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzTextParse$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzCheckpointRoundTrip$' -fuzztime 10s ./internal/checkpoint
go test -run '^$' -fuzz '^FuzzJobConfigDecode$' -fuzztime 10s ./internal/jobs
go test -run '^$' -fuzz '^FuzzConfigValidate$' -fuzztime 10s ./internal/system
go test -run '^$' -fuzz '^FuzzSnapshotJSON$' -fuzztime 10s ./internal/audit

echo "== coverage floors (internal/checkpoint, internal/stats, internal/jobs, internal/tsdb, internal/victim, internal/rlt, internal/probe, internal/telemetry)"
for pkg in internal/checkpoint internal/stats internal/jobs internal/tsdb internal/victim internal/rlt \
    internal/probe internal/telemetry; do
    pct=$(go test -cover "./$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage: no figure reported for $pkg" >&2
        exit 1
    fi
    if [ "$(printf '%.0f' "$pct")" -lt 70 ]; then
        echo "coverage: $pkg at $pct%, floor is 70%" >&2
        exit 1
    fi
    echo "$pkg: $pct%"
done

# A run saved by -checkpoint and finished by -restore must reproduce the
# uninterrupted report byte for byte: the JSON report on pops, and the text
# report on four machines that cover the v-pointer, both R-R organizations
# and the reverse-lookup table, three of them with a victim cache.
echo "== checkpoint/restore vs sequential smoke"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/vrsim -preset pops -scale 0.01 -json > "$tmp/seq.json"
go run ./cmd/vrsim -preset pops -scale 0.01 -checkpoint "$tmp/ck.bin" -checkpoint-at 2000 > /dev/null
go run ./cmd/vrsim -preset pops -scale 0.01 -restore "$tmp/ck.bin" -json > "$tmp/restored.json"
cmp "$tmp/seq.json" "$tmp/restored.json"
go build -o "$tmp/vrsim" ./cmd/vrsim
for machine in "-preset pops -org vr" "-preset thor -org rr -victim 4" \
    "-preset thor -org rrnoincl -victim 4" "-preset thor -org rlt -victim 4"; do
    # $machine is deliberately unquoted: it holds several flags.
    "$tmp/vrsim" $machine -scale 0.01 > "$tmp/seq.txt"
    "$tmp/vrsim" $machine -scale 0.01 -checkpoint "$tmp/ck4.bin" -checkpoint-at 15000 > /dev/null
    "$tmp/vrsim" $machine -scale 0.01 -restore "$tmp/ck4.bin" > "$tmp/restored.txt"
    cmp "$tmp/seq.txt" "$tmp/restored.txt"
done

# The cross-organization differential harness under the race detector, run
# twice: every synonym strategy (v-pointer, reverse-lookup table, victim
# cache, write-through) must observe identical data behaviour on identical
# reference streams, and the geometry fuzzer must hold the same story across
# random legal shapes.
echo "== cross-organization differential suite under race"
go test -race -count 2 -run 'TestDifferential' ./internal/system
go test -race -count 2 -run 'TestGeometryFuzz|TestVREqualsRR|TestProtocolsEquivalent|TestPIDTagsEquivalent' ./internal/core

# System.Run and sweep.Run read the trace ahead through trace.Fanout on a
# helper goroutine. The contract tests of all three run ten times under the
# race detector, which reports any reader call made after Fanout returns;
# then once more, with the golden corpus, on a single P, where the reader
# and the machines must take turns without deadlocking or changing a byte
# of output. The short timeouts turn a deadlock into a failure within
# minutes.
echo "== read-ahead contract under race, and on one P"
go test -race -count 10 -timeout 5m -run 'TestRunReadAheadContract|TestRunAllocationsBounded' ./internal/system
go test -race -count 10 -timeout 5m -run 'TestFanout' ./internal/trace
go test -race -count 10 -timeout 5m -run 'TestSweepReaderErrorUndrained|TestSweepReaderPanic' ./internal/sweep
GOMAXPROCS=1 go test -count 1 -timeout 2m -run 'TestRunReadAheadContract|TestRunAllocationsBounded' ./internal/system
GOMAXPROCS=1 go test -count 1 -timeout 2m -run 'TestFanout' ./internal/trace
GOMAXPROCS=1 go test -count 1 -timeout 2m -run 'TestSweepReaderErrorUndrained|TestSweepReaderPanic' ./internal/sweep
GOMAXPROCS=1 go test -count 1 -timeout 2m -run 'TestGoldenCorpus' ./cmd/vrsim

# Audit under the race detector: run the full invariant auditor against every
# organization on a real workload and fail on any violation (vrsim exits
# non-zero when the auditor finds one). No -cpus override: the preset trace
# carries its own CPU count.
echo "== invariant audit under race across organizations"
for org in vr rr rrnoincl rlt; do
    go run -race ./cmd/vrsim -preset pops -scale 0.02 -audit -audit-every 1000 -org "$org" > /dev/null
done
# Synonym machinery under audit: a victim cache (exclusivity + containment
# invariants) and a deliberately small reverse-lookup table (reciprocity
# invariant, forced evictions on nearly every fill).
go run -race ./cmd/vrsim -preset pops -scale 0.02 -audit -audit-every 1000 -org vr -victim 4 > /dev/null
go run -race ./cmd/vrsim -preset pops -scale 0.02 -audit -audit-every 1000 -org rlt -rlt-entries 16 -victim 4 > /dev/null

# The Table 4 interface signals ride the probe stream: the synonym demo,
# printing each event as it is emitted, must show a data supply and an
# invack (P1's cold write) and a synonym move (P2's read under its own
# name), and end with the data oracle's verdict.
echo "== Table 4 signals on the probe stream (examples/synonym -signals)"
go run ./examples/synonym -signals > "$tmp/synonym.out"
for want in "cpu0 data-supply " "cpu0 invack " "cpu0 syn-move " "data oracle verified"; do
    grep -q -- "$want" "$tmp/synonym.out" || { echo "synonym demo: no \"$want\" line" >&2; exit 1; }
done

# Telemetry: the tracing/attribution layer under the race detector (its
# on-demand dump path crosses goroutines), then an end-to-end flight-recorder
# smoke — a run with an injected audit violation must exit non-zero and leave
# a parseable post-mortem bundle behind.
echo "== telemetry tests under race + flight recorder smoke"
go test -race ./internal/telemetry
if go run ./cmd/vrsim -preset pops -scale 0.02 -timed -tlb-penalty 8 \
    -audit-every 1000 -inject-violation -flightrec "$tmp/fr" -attr > "$tmp/fr.out" 2>&1; then
    echo "flightrec smoke: injected violation did not fail the run" >&2
    exit 1
fi
bundle=$(ls "$tmp"/fr/flightrec-*-audit-violation.json)
go run ./cmd/vrsim -verify-bundle "$bundle"

# Autotuner soundness under the race detector: a ~60-config search with
# pruning enabled must return exactly the frontier the exhaustive search
# finds (-check-exhaustive re-runs without pruning and compares).
echo "== autotune pruning soundness under race"
# 60 configs: three plain orgs sweep the victim axis, and the rlt
# organization additionally sweeps its table size (non-rlt orgs drop the
# rltEntries != 0 points during expansion).
cat > "$tmp/grammar.json" <<'GRAMMAR'
{
  "organizations": ["vr", "rr", "vr-wt", "rlt"],
  "l1Sizes": [1024, 4096, 8192],
  "l1Assocs": [1],
  "l2Sizes": [65536, 131072],
  "blockRatios": [2],
  "victimEntries": [0, 4],
  "rltEntries": [0, 16]
}
GRAMMAR
go run -race ./cmd/autotune -grammar "$tmp/grammar.json" -preset pops \
    -scale 0.01 -probe-refs 8000 -shards 2 -warmup 1000 \
    -margin 0.15 -check-exhaustive > "$tmp/autotune.out"
grep -q "margin sound: true" "$tmp/autotune.out"
grep -q "pruning sound" "$tmp/autotune.out"
grep -Eq "pruned [1-9]" "$tmp/autotune.out"
# Every probe cell of a shard copies one MMU snapshot, and every cell reads
# one in-memory trace. Under the race detector on four Ps, a snapshot or a
# trace slice written while cells share it fails these tests.
GOMAXPROCS=4 go test -race -count 3 \
    -run 'TestRunWindow|TestSearchDeterministic|TestPruningSound' \
    ./internal/checkpoint ./internal/autotune

# Restart equivalence of the persisted time-series: a parked and resumed job
# must write exactly the windows an uninterrupted run writes, contiguous
# across the restart. Where the job parks depends on scheduling, so one run
# covers one park point; three runs under the race detector cover more.
echo "== job time-series across a restart (race, 3 runs)"
go test -race -count 3 -run 'TestRestartSeriesEquivalence|TestTimeseriesRestartContinuity' ./internal/jobs

# Job-server smoke: a real daemon on a real socket. Submit a table6-style
# sweep (VR vs RR at the paper's main sizes), verify the report names every
# machine, then walk the observatory surfaces — persisted time-series over
# HTTP (deterministic across reads), the CSV dump, one `top` frame, the
# job-correlated structured JSON log and the OTLP trace file — before
# SIGTERMing the daemon and requiring a clean shutdown (vrsimd checks for
# leaked worker goroutines itself before printing the marker).
echo "== vrsimd job-server smoke"
go build -o "$tmp/vrsimd" ./cmd/vrsimd
"$tmp/vrsimd" serve -http 127.0.0.1:0 -state "$tmp/vrsimd-state" \
    -log-format json -progress-every 5000 \
    -addr-file "$tmp/vrsimd.addr" > "$tmp/vrsimd.log" 2>&1 &
vrsimd_pid=$!
for _ in $(seq 50); do
    [ -s "$tmp/vrsimd.addr" ] && break
    sleep 0.1
done
[ -s "$tmp/vrsimd.addr" ] || { cat "$tmp/vrsimd.log" >&2; exit 1; }
cat > "$tmp/job.json" <<'JOB'
{
  "kind": "sweep", "preset": "pops", "scale": 0.02,
  "machines": [
    {"label": "vr-16K/256K", "org": "vr", "l1Size": 16384, "l2Size": 262144},
    {"label": "rr-16K/256K", "org": "rr", "l1Size": 16384, "l2Size": 262144},
    {"label": "vr-64K/1M",   "org": "vr", "l1Size": 65536, "l2Size": 1048576}
  ]
}
JOB
vrsimd_url="http://$(cat "$tmp/vrsimd.addr")"
"$tmp/vrsimd" submit -addr "$vrsimd_url" \
    -config "$tmp/job.json" -wait -report > "$tmp/job-report.json" 2> "$tmp/submit.err"
cat "$tmp/submit.err" >&2
for label in "vr-16K/256K" "rr-16K/256K" "vr-64K/1M"; do
    grep -q "\"$label\"" "$tmp/job-report.json"
done
grep -q '"references"' "$tmp/job-report.json"

job_id=$(sed -n 's/^submitted \(j[0-9]*\).*/\1/p' "$tmp/submit.err")
[ -n "$job_id" ] || { echo "ci: no job id in submit output" >&2; exit 1; }
# Persisted time-series: samples present, two reads byte-identical, and the
# CSV dump carries the header plus at least one row.
curl -sf "$vrsimd_url/jobs/$job_id/timeseries?metric=busocc" > "$tmp/ts1.json"
curl -sf "$vrsimd_url/jobs/$job_id/timeseries?metric=busocc" > "$tmp/ts2.json"
cmp "$tmp/ts1.json" "$tmp/ts2.json"
grep -q '"startRef"' "$tmp/ts1.json"
curl -sf "$vrsimd_url/jobs/$job_id/timeseries?metric=l1ratio&points=8&format=csv" > "$tmp/ts.csv"
head -1 "$tmp/ts.csv" | grep -q '^seq,'
[ "$(wc -l < "$tmp/ts.csv")" -ge 2 ]
# One dashboard frame over the same endpoints.
"$tmp/vrsimd" top -addr "$vrsimd_url" -metric l1ratio -once > "$tmp/top.out"
grep -q "workers" "$tmp/top.out"
grep -q "$job_id" "$tmp/top.out"
# Structured JSON log correlated by job id, and the job's OTLP trace file.
grep -q "\"job\":\"$job_id\"" "$tmp/vrsimd.log"
[ -s "$tmp/vrsimd-state/$job_id.trace.json" ]
grep -q '"resourceSpans"' "$tmp/vrsimd-state/$job_id.trace.json"
# Queue/run latency histograms registered on the Prometheus surface.
curl -sf "$vrsimd_url/metrics" | grep -q '^vrsimd_job_run_seconds_count'
kill -TERM "$vrsimd_pid"
wait "$vrsimd_pid" || { cat "$tmp/vrsimd.log" >&2; exit 1; }
grep -q "clean shutdown" "$tmp/vrsimd.log"

# Best of 5 runs against the recorded baseline; the loose threshold absorbs
# the noise of a shared single-core container (a real regression is far
# larger than the jitter this floor tolerates).
echo "== bench guard (sweep throughput vs BENCH_sweep.json baseline)"
go run ./cmd/benchguard -count 5 -threshold 0.8

echo "ci: all checks passed"
