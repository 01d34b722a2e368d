#!/bin/sh
# CI entry point: build everything and run the full test suite with the
# fixed property-test seed, so results are reproducible run to run.
#
# For soak testing, set SOAK_SEED (or export CCP_PROP_SEED directly) to
# rerun the randomized suites — property tests, fault-plan invariants —
# under a fresh seed after the deterministic pass:
#
#   SOAK_SEED=$(date +%s) sh bin/ci.sh
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== golden rules =="
# dune checks a golden only through its (diff ...) rule in test/dune, so
# a test/*.expected file without one is never compared.
for f in test/*.expected; do
  grep -q "(diff $(basename "$f") " test/dune || { echo "no diff rule: $f" >&2; exit 1; }
done

echo "== test (fixed seed) =="
dune runtest --force

echo "== fuzz smoke (fixed seed) =="
dune exec bin/fuzz_smoke.exe -- 500

echo "== bench smoke =="
# Exercises the bechamel sections (the event queue's schedule-and-fire
# and in-place re-arm at 1 k live events, one packet through a link
# with ~800 others in propagation (micro row ccp/net/link-hop), the p99
# of 250 k samples (ccp/stats/percentile), the codec, first and repeat
# installs through the datapath's Install handler and a repeat agent
# install (micro rows ccp/install/first, ccp/install/repeat,
# ccp/agent/install/repeat), compiled-vs-interpreted per-ACK,
# observability and tracing overhead) end to end;
# numbers land in BENCH.json ({name,value,unit} rows, schema-checked by
# the writer itself). Timings are not gated here — see docs/perf.md for the
# expected band — but the obs section Gc-asserts the obs-off per-ACK
# path at 0 minor words and the tracing section bounds the span
# lifecycle's float-boxing words.
dune exec bench/main.exe -- micro perack obs tracing telemetry

echo "== obs smoke =="
# The flight recorder end to end: a short traced run whose JSONL the
# driver re-parses after writing (a malformed line exits non-zero), plus
# the same through the CSV sink. The metrics-off zero-allocation Gc
# assertion runs as part of the suite above (obs: "per-ACK path
# allocation-free with obs off").
obs_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- run --rate 24 --duration 3 --flows ccp-reno \
  --trace "$obs_tmp/trace.jsonl" > /dev/null
dune exec bin/ccp_sim.exe -- run --rate 24 --duration 3 --flows ccp-reno,reno@1 \
  --trace "$obs_tmp/trace.csv" > /dev/null
test -s "$obs_tmp/trace.jsonl" && test -s "$obs_tmp/trace.csv"
rm -rf "$obs_tmp"

echo "== trace smoke =="
# The span tracer end to end: the Figure-2 reaction-latency scenario with
# a Chrome trace_event export (re-parsed and re-validated by the driver
# after writing) and reaction.* percentile rows merged into BENCH.json.
# The driver exits non-zero if a clean series' measured p99 falls outside
# the calibrated latency model's band.
trace_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- latency --duration 4 \
  --trace "$trace_tmp/chrome.json" --bench-json BENCH.json > /dev/null
test -s "$trace_tmp/chrome.json"
grep -q '"reaction\.' BENCH.json
rm -rf "$trace_tmp"

echo "== robustness smoke =="
# The measurement-noise matrix end to end (docs/robustness.md): a tiny
# algorithms x perturbations run through the CLI, whose scorecard JSON
# the driver re-reads and schema-validates after writing (a malformed or
# out-of-range scorecard exits non-zero), with robustness.* rows merged
# into BENCH.json. The suite above diffs the byte-frozen scorecard
# (test/golden_scorecard.expected) and runs the perturbed-ACK
# zero-allocation Gc assertion on the obs-off per-ACK fold path
# (robustness: "fold zero-alloc on perturbed acks").
rob_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- robustness --algos ccp-vegas \
  --perturb baseline,combined --duration 2 --rate 24 \
  --scorecard "$rob_tmp/scorecard.json" --bench-json BENCH.json > /dev/null
test -s "$rob_tmp/scorecard.json"
grep -q '"robustness\.' BENCH.json
rm -rf "$rob_tmp"

echo "== chaos smoke =="
# Agent-side resilience end to end (docs/safety.md, docs/fault-injection
# .md): IPC faults x measurement noise x ~4x agent overload x agent
# crash, run cold and warm through the CLI. The driver re-reads and
# schema-validates the scorecard JSON after writing (a malformed or
# out-of-range scorecard exits non-zero) and merges chaos.* rows into
# BENCH.json. The byte-frozen seed-42 scorecard and the recovery/
# starvation/utilization envelopes run in the suite above (chaos.*).
chaos_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- chaos --duration 6 \
  --scorecard "$chaos_tmp/scorecard.json" --bench-json BENCH.json > /dev/null
test -s "$chaos_tmp/scorecard.json"
grep -q '"chaos\.' BENCH.json
rm -rf "$chaos_tmp"

echo "== health smoke =="
# The control-loop SLO engine end to end (docs/observability.md): the
# seed-42 chaos composition with the telemetry bundle armed, exported as
# a ccp-timeline/v1 document the driver re-reads and schema-validates
# after writing (window accounting, monotone quantiles, space-saving
# error bounds, health shapes — a malformed timeline exits non-zero).
# The agent-crash window must raise the orphan_rate burn-rate alert and
# a later window must clear it; dune diffs the byte-frozen seed-42
# timeline (test/golden_timeline.expected) in the suite above.
health_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- chaos --duration 6 --seeds 42 \
  --timeline "$health_tmp/timeline.json" > /dev/null
test -s "$health_tmp/timeline.json"
grep -q '"schema":"ccp-timeline/v1"' "$health_tmp/timeline.json"
grep -q '"slo":"orphan_rate","window":[0-9]*,"t_s":[0-9.]*,"to":"firing"' \
  "$health_tmp/timeline.json"
grep -q '"slo":"orphan_rate","window":[0-9]*,"t_s":[0-9.]*,"to":"ok"' \
  "$health_tmp/timeline.json"
rm -rf "$health_tmp"

echo "== incast smoke =="
# The flow-multiplexed control plane end to end (docs/scale.md): a
# 64-flow synchronized/staggered fan-in over the slot-pooled agent with
# report batching on, run through the CLI. The driver re-reads and
# schema-validates the scorecard JSON after writing (a malformed or
# out-of-range scorecard exits non-zero) and merges incast.* rows into
# BENCH.json. The byte-frozen seed-42 scorecard, the pool-churn
# property, and the batch-frame round-trip/corruption tests run in the
# suite above (scale.*, incast.*, ipc.batch).
incast_tmp="$(mktemp -d)"
dune exec bin/ccp_sim.exe -- incast -n 64 --seeds 42 --duration 0.5 \
  --scorecard "$incast_tmp/scorecard.json" --bench-json BENCH.json > /dev/null
test -s "$incast_tmp/scorecard.json"
grep -q '"incast\.' BENCH.json
# An artifact path that cannot be written is a one-line error and exit
# 1, not an uncaught exception after the whole matrix has run.
status=0
dune exec bin/ccp_sim.exe -- incast -n 4 --duration 0.05 \
  --scorecard "$incast_tmp/missing/sc.json" > /dev/null 2> "$incast_tmp/err" || status=$?
test "$status" -eq 1
test "$(wc -l < "$incast_tmp/err")" -eq 1
rm -rf "$incast_tmp"

echo "== bad input smoke =="
# A link rate, RTT or duration that is not a positive finite number, a
# --flows entry with an unknown algorithm or a bad start time, and a
# list option (--seeds, incast's -n and --arrivals, an --algos or
# --perturb subset) with an entry that is not an integer, not a
# positive flow count or not a known name, is a one-line error and exit
# 124 before anything is simulated: not a crash, not the exit 1 kept for
# an artifact that cannot be written, and not a run at zero
# serialization time that prints "utilization nan%".
bad_tmp="$(mktemp -d)"
bad_input() {
  status=0
  dune exec bin/ccp_sim.exe -- "$@" > /dev/null 2> "$bad_tmp/err" || status=$?
  test "$status" -eq 124
  test "$(wc -l < "$bad_tmp/err")" -eq 1
}
for rate in 0 nan; do
  bad_input run --rate "$rate" --duration 0.1
done
bad_input run --flows bogus --duration 0.1
bad_input run --flows reno,reno@nan --duration 0.1
bad_input run --duration nan
bad_input csv --rate 0 --duration 0.1
bad_input chaos --duration nan
bad_input incast --seeds abc
bad_input incast -n 0
bad_input incast --arrivals bogus
bad_input incast --algos bogus
bad_input robustness --algos bogus
bad_input robustness --perturb bogus
bad_input chaos --seeds x
# bench/main.exe rejects an unknown section name before any section runs.
status=0
dune exec bench/main.exe -- bogus > /dev/null 2> "$bad_tmp/err" || status=$?
test "$status" -ne 0
test "$(wc -l < "$bad_tmp/err")" -eq 1
rm -rf "$bad_tmp"

echo "== scale bench smoke =="
# The slot-pool churn and batched-report amortization benchmarks: the
# driver itself exits non-zero if registration churn allocates per-flow
# Gc garbage that grows with N, if the batched agent-side cost per
# report fails to beat the unbatched path, or if the minor words per
# dispatched report exceed twice the value measured when the ceiling was
# set (57 unbatched; 40.9 batched, where each report decodes in place
# from its frame) or grow with N, or if a ccp-aggregate
# group sends the datapath more than 2 frames per report or more at a
# bigger group (N = 16 to 16,384). The reply-frame gate: with a sink
# that answers every report with set_cwnd, the agent must send the
# datapath exactly 1 frame per report unbatched and at most 1/16 batched
# (1/32 with frames of 32: a report frame's answers share one reply
# frame). It emits scale.agent_words_per_report.*,
# scale.datapath_frames_per_report.{unbatched,batched}.* and
# scale.aggregate_frames_per_report.* rows beside the timing rows.
QUICK=1 dune exec bench/main.exe -- scale
grep -q '"scale\.' BENCH.json

echo "== e2e bench smoke =="
# The end-to-end simulator benchmark (bench/e2e/README.md) for about a
# second per workload, i.e. one or a few repetition pairs each, ~20 s in
# all. Timings are not gated here, but every repetition's output checks
# are: each traced repetition's digest must equal its untraced twin's,
# the error counters must be zero and the utilization floors must hold.
# A failed repetition makes ccp_bench exit 1 and report a non-zero
# "failed" count on its last line.
e2e_out="$(bash bench/e2e/run.sh --seconds 1 --trace 1)"
e2e_result="$(printf '%s\n' "$e2e_out" | tail -n 1)"
case "$e2e_result" in
  *'"failed":0,'*) ;;
  *) echo "e2e bench smoke: $e2e_result" >&2; exit 1 ;;
esac

echo "== trajectory gate =="
# alloc_mwords is exact for a commit and seed on any machine, so a
# one-second run must match the latest committed trajectory
# (bench/trajectory/prN.json with the largest N, 25 s runs at seed 42)
# within the metric's BENCHMARK.json bound, or bench/trajectory_gate.exe
# exits 1. sim_speed, setup_s and peak_heap_mb are printed as advisory:
# CI machines differ. A perf change commits its own trajectory file.
gate_tmp="$(mktemp -d)"
bash bench/e2e/run.sh --seconds 1 --out "$gate_tmp/now.json" > /dev/null
dune exec bench/trajectory_gate.exe -- "$gate_tmp/now.json"
rm -rf "$gate_tmp"

if [ -n "${SOAK_SEED:-}" ]; then
  echo "== soak (CCP_PROP_SEED=$SOAK_SEED) =="
  CCP_PROP_SEED="$SOAK_SEED" dune exec test/main.exe -- test -e
  CCP_PROP_SEED="$SOAK_SEED" dune exec bin/fuzz_smoke.exe -- 500
fi
