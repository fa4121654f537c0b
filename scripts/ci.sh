#!/usr/bin/env bash
# CI entry point: everything a reviewer needs to validate the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
test -z "$(gofmt -l .)" || { gofmt -l .; echo "gofmt failures"; exit 1; }

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "WARNING: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
  govulncheck ./...
else
  echo "WARNING: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== tests =="
# Includes the determinism lint: TestRepoIsClean (internal/analysis/v2plint)
# runs every v2plint analyzer over the whole module and fails with one
# file:line:col line per unwaived finding.
go test ./...

echo "== race =="
# Every package, so also the packet-ownership tests: packet.Pool's unit
# tests (TestPool*), the recycling-vs-quarantine comparison of every scheme
# (TestNobodyReadsAReleasedPacket, 32 runs), the steady-state allocation
# test over every scheme but controller (TestPacketPathSteadyStateAllocFree),
# the parse of internal/baselines and internal/core for a function literal
# that captures a packet (TestNoClosureCapturesAPacket)
# and ptrace's records outliving the run. The sharded engine takes its packets from a nil pool; this step
# and the TestShard* step below are what would catch a release that
# reached a free list from another domain's worker.
go test -race ./...

echo "== random-scenario invariant search (10000 checks, ~20 s) =="
# `go test` above runs 40 scenarios per property; this runs 4000 (the
# generator is seeded, so the same 4000 every time). A search of this
# kind found the §3.3 migration loop that TestKnownMigrationLoops now
# asserts is gone. Each random migration event also checks packet
# conservation mid-run, held packets included.
go test -count=1 -run TestSystemInvariants ./internal/harness -quickchecks 10000

echo "== fuzz (5 s per target, from the committed seed corpora) =="
# `go test` above already replays every seed (f.Add and testdata/fuzz);
# this lets the mutator search briefly from them. -fuzz takes one target
# in one package per invocation. A crasher is written to the package's
# testdata/fuzz/<target>/ — commit it with the fix.
while read -r target pkg; do
  go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "$pkg"
done <<'EOF'
FuzzQueueModel ./internal/eventq
FuzzLinkModel ./internal/simnet
FuzzFaultStateModel ./internal/simnet
FuzzNetModel ./internal/vnet
FuzzRoutesMatchBFS ./internal/topology
FuzzReadWorkload ./internal/trace
FuzzRead ./internal/ptrace
FuzzUnmarshal ./internal/packet
FuzzHashVIP ./internal/packet
FuzzFaultSchedule ./internal/faults
FuzzSpecValidate ./internal/scenario
EOF

echo "== shard determinism (byte-identical reports at 1/2/4/8 workers, under -race) =="
# The sharded engine's core promise: same seed, same bytes, any worker
# count — including telemetry series, fault schedules, and the serial
# oracle. Runs under the race detector so a synchronization hole in the
# barrier protocol fails CI even if it happens not to corrupt output.
go test -race -count=1 -run 'TestShard' ./internal/harness

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== examples smoke =="
# Every example, built and run from $tmp: telemetry writes telemetry.csv
# into its working directory and packettrace its captures into TMPDIR.
# faults takes -quick for a small config; the rest run as a reader would
# run them. The slowest, gatewayreduction, takes about 2 s.
for ex in customtopology faults gatewayreduction migration multitenant packettrace productionday quickstart telemetry; do
  go build -o "$tmp/ex-$ex" "./examples/$ex"
  args=()
  if [ "$ex" = faults ]; then args=(-quick); fi
  (cd "$tmp" && TMPDIR="$tmp" "./ex-$ex" "${args[@]}" >/dev/null) || { echo "examples smoke: $ex failed"; exit 1; }
done

echo "== switchv2p-sim telemetry smoke =="
# The CLI's telemetry flags end to end: the JSON document, serial and at
# two shards, carries counters, gauges and the engine profile, and the
# CSV timeline starts with its time axis. A few hundred ms each.
go build -o "$tmp/sim" ./cmd/switchv2p-sim
sim_args=(-vms 1024 -duration 200us -maxflows 500)
"$tmp/sim" "${sim_args[@]}" -telemetry-out "$tmp/t.json" >/dev/null
"$tmp/sim" "${sim_args[@]}" -telemetry-out "$tmp/t.csv" >/dev/null
"$tmp/sim" "${sim_args[@]}" -shards 2 -telemetry-out "$tmp/t2.json" >/dev/null
for f in t.json t2.json; do
  for key in counters gauges profile; do
    grep -q "\"$key\"" "$tmp/$f" || { echo "telemetry smoke: $f has no \"$key\""; exit 1; }
  done
done
head -n 1 "$tmp/t.csv" | grep -q '^time_us,' || { echo "telemetry smoke: CSV header does not start with time_us"; exit 1; }

echo "== switchv2p-sim bad-input smoke =="
# Numeric input that cannot size a run is an error message (exit 1), not
# a Go panic (exit 2 with "panic:" on stderr).
sim_rejects() {
  local status=0
  "$tmp/sim" "$@" >/dev/null 2>"$tmp/reject.err" || status=$?
  if [ "$status" != 1 ] || grep -q 'panic:' "$tmp/reject.err"; then
    echo "bad-input smoke: switchv2p-sim $* exited $status, want 1 without a panic"
    cat "$tmp/reject.err"
    exit 1
  fi
}
sim_rejects -cache -1
sim_rejects -vms -5
sim_rejects -load NaN
sim_rejects -maxflows -3
sim_rejects -gateways -2
sim_rejects -shards -1
sim_rejects -telemetry -telemetry-interval -5us

echo "== benches (one iteration each, smoke) =="
# Compile-and-run every package-local micro-benchmark once so they
# cannot bit-rot; the allocation benches (LinkSerializer, EcmpForward)
# double as smoke coverage for the allocation-free hot path. End-to-end
# throughput is measured by `go run ./bench`, not here.
go test -bench=. -benchmem -benchtime=1x -run='^$' ./...

echo "== production-day scenario smoke =="
# Short horizon: the quick scale compresses the six-phase operational
# day into 24ms of simulated time, so the smoke stays seconds of wall
# clock while still driving churn, a migration storm, gateway drains
# and a rolling upgrade. Assert every phase shows up with an SLO verdict.
scenario_out="$(go run ./cmd/experiments -scenario production-day -scale quick -parallel)"
for phase in morning-ramp midday-churn migration-storm gateway-autoscale rolling-upgrade evening-drain; do
  echo "$scenario_out" | grep -q "$phase" || { echo "scenario smoke: phase $phase missing from output"; exit 1; }
done
echo "$scenario_out" | grep -Eq 'pass|FAIL' || { echo "scenario smoke: no SLO verdicts in output"; exit 1; }

echo "== benchmark digest gate (go run ./bench, seed 1, one short repetition per workload) =="
# Every bench workload hashes its simulation output and compares it with
# bench/golden.json; -trace 0 skips the profiled phase, so this is ~40 s.
# All five workloads must print sim_digest_match 1.
digest_matches="$(go run ./bench -seed 1 -trace 0 -reps 1 -seconds 5 | grep -c 'sim_digest_match 1' || true)"
test "$digest_matches" = 5 || { echo "bench digest gate: $digest_matches of 5 workloads match bench/golden.json"; exit 1; }

echo "CI OK"
