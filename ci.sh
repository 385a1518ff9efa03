#!/usr/bin/env sh
# Tier-1 gate: build, tests, lints. Run from the repository root.
set -eux

cargo build --release
# Every package's tests: the root package's integration suite and each
# crate's own unit and integration tests.
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Static-analysis gate: every freshly locked benchmark must lint clean at
# deny-all, and a deliberately mutated netlist must be rejected.
GLK=target/release/glk
WORK=$(mktemp -d)
# Building perfbench rewrites perfbench/Cargo.lock, which this gate must
# leave as committed: keep a copy and put it back on every exit, so a
# failing smoke restores it too.
cp perfbench/Cargo.lock "$WORK/perfbench.Cargo.lock"
trap 'cp "$WORK/perfbench.Cargo.lock" perfbench/Cargo.lock; rm -rf "$WORK"' EXIT

cat > "$WORK/s27.bench" <<'EOF'
# s27 (ISCAS'89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
EOF

# Lock with several configurations; lock-gk itself ends in a lint audit,
# and the standalone gate re-checks the emitted file at deny-all (which
# includes the analysis-backed codes) plus an explicit deny of the
# dataflow-engine findings — GK key bits must stay exempt by construction.
"$GLK" lock-gk "$WORK/s27.bench" "$WORK/plain" --gks 2 --seed 1
"$GLK" lock-gk "$WORK/s27.bench" "$WORK/mixed" --gks 2 --seed 2 --mix
"$GLK" lock-gk "$WORK/s27.bench" "$WORK/shared" --gks 2 --seed 3 --share
for locked in "$WORK"/*.locked.bench; do
    "$GLK" lint "$locked" --format json --deny all
    "$GLK" lint "$locked" --format json \
        --deny key-constant-collapsed,key-taint-dead,point-function-structure,key-partition-disjoint
done

# Strict-flag gate: a flag that `glk help` does not list for the
# subcommand is a usage error (exit 2), not a run on defaults. Every other
# `glk` invocation in this script is the gate's positive half.
STATUS=0
"$GLK" attack "$WORK/plain.attack.bench" "$WORK/s27.bench" --solver legacy || STATUS=$?
test "$STATUS" -eq 2

# Dataflow-analysis gate: `glk analyze` runs on each locked design and its
# `analysis.*` probes must all fire (dead-probe detection for the engine).
"$GLK" analyze "$WORK/plain.locked.bench" --format json --nets \
    --trace "$WORK/analyze.jsonl" > /dev/null
"$GLK" trace-check "$WORK/analyze.jsonl" --sites analyze

# Negative check: a malformed netlist must exit nonzero through the
# diagnostic pipeline, not a panic.
printf 'G1 = AND)G2(G3\n' > "$WORK/bad.bench"
if "$GLK" lint "$WORK/bad.bench" --format json; then
    echo "lint accepted a malformed netlist" >&2
    exit 1
fi

# Differential-fuzzing gate: 500 seeded cases through the full referee
# registry; any engine disagreement fails the build with a shrunk
# reproducer. Deterministic: --seed 7 --cases 500 is bit-for-bit stable.
"$GLK" fuzz --seed 7 --cases 500

# Negative check: a deliberately broken referee input (the reference
# evaluator computing XNOR as XOR) must be caught, shrunk, and persisted —
# proving the fuzz loop detects real semantic divergences end to end.
if "$GLK" fuzz --seed 7 --cases 200 --referee scalar-vs-packed \
    --inject xnor-flip --corpus "$WORK/fuzz-corpus" > "$WORK/fuzz-inject.out"; then
    echo "fuzz missed an injected XNOR fault" >&2
    exit 1
fi
grep -q 'reproducer -> ' "$WORK/fuzz-inject.out"
ls "$WORK/fuzz-corpus"/*.case > /dev/null

# Observability gate: a traced hybrid attack and a traced fuzz batch must
# produce schema-valid traces with every expected probe firing (dead-probe
# detection — an instrumentation refactor that disconnects a site fails
# here, not in a dashboard).
"$GLK" lock-gk "$WORK/s27.bench" "$WORK/hybrid" --gks 2 --xor-bits 3 --seed 7 \
    --trace "$WORK/lock.jsonl"
"$GLK" trace-check "$WORK/lock.jsonl" --sites lock-gk
"$GLK" attack "$WORK/hybrid.attack.bench" "$WORK/s27.bench" \
    --trace "$WORK/attack.jsonl" --metrics
"$GLK" trace-check "$WORK/attack.jsonl" --sites attack
"$GLK" fuzz --seed 7 --cases 200 --trace "$WORK/fuzz.jsonl"
"$GLK" trace-check "$WORK/fuzz.jsonl" --sites fuzz

# Campaign gate: the orchestrator's determinism contract, end to end.
# The report must be a pure function of the spec — identical bytes for
# --jobs 4 vs --jobs 1, and for a halted-then-resumed run — and the
# campaign trace must fire every expected probe.
cat > "$WORK/campaign.spec" <<'EOF'
bench s27
locker xor 3
locker sarlock 3
locker gk 1
attack sat
attack removal
seeds 1 2
max-iters 64
samples 256
EOF
"$GLK" campaign --spec "$WORK/campaign.spec" --jobs 4 --out "$WORK/camp-par" \
    --trace "$WORK/campaign.jsonl"
"$GLK" trace-check "$WORK/campaign.jsonl" --sites campaign
"$GLK" campaign --spec "$WORK/campaign.spec" --jobs 1 --out "$WORK/camp-ser"
cmp "$WORK/camp-par.report.txt" "$WORK/camp-ser.report.txt"
cmp "$WORK/camp-par.report.json" "$WORK/camp-ser.report.json"

# Kill-and-resume: halt after 2 retired jobs, resume, and demand a report
# byte-identical to the uninterrupted run with no job journaled twice.
"$GLK" campaign --spec "$WORK/campaign.spec" --jobs 2 --halt-after 2 \
    --out "$WORK/camp-res"
"$GLK" campaign --spec "$WORK/campaign.spec" --jobs 2 --resume \
    --out "$WORK/camp-res"
cmp "$WORK/camp-res.report.txt" "$WORK/camp-par.report.txt"
cmp "$WORK/camp-res.report.json" "$WORK/camp-par.report.json"
test "$(tail -n +2 "$WORK/camp-res.journal.jsonl" | grep -o '"id":"[^"]*"' \
    | sort | uniq -d | wc -l)" -eq 0

# Serve gate: a real daemon, exercised by separate client processes —
# oracle queries (single, bulk, and a determinism-checked sweep), a
# sharded campaign whose merged journals must reproduce the local report
# byte-for-byte, a trace-check over the serve probe domain, and a clean
# SIGTERM shutdown.
"$GLK" serve --allow-debug --trace "$WORK/serve.jsonl" \
    > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^serve: listening on //p' "$WORK/serve.out")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
"$GLK" query "$ADDR" ping
"$GLK" query "$ADDR" load-bench s27
"$GLK" query "$ADDR" oracle s27 0101010
"$GLK" query "$ADDR" oracle-bulk s27 0000000 1111111 1010101
"$GLK" query "$ADDR" sweep s27 --count 5000 --seed 9 > "$WORK/sweep1.out"
"$GLK" query "$ADDR" sweep s27 --count 5000 --seed 9 > "$WORK/sweep2.out"
cmp "$WORK/sweep1.out" "$WORK/sweep2.out"

# Two client processes each run one shard of the campaign concurrently;
# the merged journals must render the same bytes as the local run above.
"$GLK" query "$ADDR" campaign --spec "$WORK/campaign.spec" \
    --shard 0/2 --journal "$WORK/serve-s0.jsonl" > /dev/null &
QUERY_PID=$!
"$GLK" query "$ADDR" campaign --spec "$WORK/campaign.spec" \
    --shard 1/2 --journal "$WORK/serve-s1.jsonl" > /dev/null
wait $QUERY_PID
"$GLK" campaign --spec "$WORK/campaign.spec" \
    --merge-journals "$WORK/serve-s0.jsonl,$WORK/serve-s1.jsonl" \
    --out "$WORK/camp-serve" > /dev/null
cmp "$WORK/camp-serve.report.txt" "$WORK/camp-par.report.txt"
cmp "$WORK/camp-serve.report.json" "$WORK/camp-par.report.json"

# Clean SIGTERM shutdown; the daemon flushes its trace on the way out,
# and every serve probe must have fired.
kill -TERM $SERVE_PID
wait $SERVE_PID
grep -q 'serve: shut down' "$WORK/serve.err"
"$GLK" trace-check "$WORK/serve.jsonl" --sites serve

# Count gate: projected model counting. `glk count` is deterministic in
# its inputs — two runs must be byte-identical — and on the GK attack
# view it must print the paper's quantitative signature: zero DIP space,
# one key class, every input corrupted under the sampled key. The traced
# run must fire every count probe, and the count-vs-exhaustive referee
# smoke checks the hash-count estimator against brute force on random
# small circuits.
"$GLK" count "$WORK/plain.attack.bench" "$WORK/s27.bench" --key-prefix gk \
    > "$WORK/count1.out"
"$GLK" count "$WORK/plain.attack.bench" "$WORK/s27.bench" --key-prefix gk \
    > "$WORK/count2.out"
cmp "$WORK/count1.out" "$WORK/count2.out"
grep -Eq 'dip +exact +0 ' "$WORK/count1.out"
grep -Eq 'key-classes +1$' "$WORK/count1.out"
"$GLK" count "$WORK/plain.attack.bench" "$WORK/s27.bench" --key-prefix gk \
    --trace "$WORK/count.jsonl" > /dev/null
"$GLK" trace-check "$WORK/count.jsonl" --sites count
"$GLK" fuzz --seed 11 --cases 60 --referee count-vs-exhaustive
# Seed 3 draws MUX key-gates between an input and a flip-flop Q, the
# sequential shape whose DIP and wrong-key counts must reach the solver.
"$GLK" fuzz --seed 3 --cases 300 --referee count-vs-exhaustive

# perfbench smoke: a short lock-flow run (parse, STA, feasibility, GK
# insertion, SAT attack on the seven IWLS profiles) must report every op
# correct and none failed, and its seed-1 warm-up digest pins every
# locked output: the parser and the GK flow must stay byte-identical.
python3 perfbench/run.py --workload lock-flow --seed 1 --seconds 3 --trace 0 \
    > "$WORK/perfbench.out" 2> "$WORK/perfbench.err"
tail -n 1 "$WORK/perfbench.out" | grep -q '"correct": true'
tail -n 1 "$WORK/perfbench.out" | grep -q '"failed": 0,'
grep -q 'warm-up pass digest 73ed1cb1bfe51e48$' "$WORK/perfbench.err"

# perfbench corruptibility smoke: a short run of the hash-count estimator
# and the exhaustive sweep on 56 locked s27 cells must report every op
# correct and none failed. Its seed-1 warm-up digest pins every cell's
# scores and the `count.*` counters, solver calls and encoded XOR rows
# included: a change to the estimator's search shows here.
python3 perfbench/run.py --workload corruptibility --seed 1 --seconds 3 --trace 0 \
    > "$WORK/perfbench-count.out" 2> "$WORK/perfbench-count.err"
tail -n 1 "$WORK/perfbench-count.out" | grep -q '"correct": true'
tail -n 1 "$WORK/perfbench-count.out" | grep -q '"failed": 0,'
grep -q 'warm-up pass digest b243c7c2e76ce205$' "$WORK/perfbench-count.err"

# perfbench dip-loop smoke: a short run of the XOR/MUX/SARLock attacks to
# convergence on 120 locked cells must report every op correct and none
# failed. Its seed-1 warm-up digest pins the static lockers' netlists and,
# through them, the CNF order, the DIPs and the recovered keys.
python3 perfbench/run.py --workload dip-loop --seed 1 --seconds 3 --trace 0 \
    > "$WORK/perfbench-dip.out" 2> "$WORK/perfbench-dip.err"
tail -n 1 "$WORK/perfbench-dip.out" | grep -q '"correct": true'
tail -n 1 "$WORK/perfbench-dip.out" | grep -q '"failed": 0,'
grep -q 'warm-up pass digest 2515d84cb5bce7b5$' "$WORK/perfbench-dip.err"

# perfbench oracle-serve smoke: a short run against the daemon (bulk and
# single requests through the codec and the batcher) must check every
# reply bit for bit and fail none. Correctness only; no wall-time gate.
python3 perfbench/run.py --workload oracle-serve --seed 1 --seconds 3 --trace 0 \
    > "$WORK/perfbench-serve.out"
tail -n 1 "$WORK/perfbench-serve.out" | grep -q '"correct": true'
tail -n 1 "$WORK/perfbench-serve.out" | grep -q '"failed": 0,'

# sat_solver bench smoke: trimmed equivalence tier, 1 ms measurement
# windows, no snapshot rewrite — proves the harness (micro tier and
# equivalence tier) runs end to end.
GLITCHLOCK_BENCH_MS=1 GLITCHLOCK_BENCH_NO_SNAPSHOT=1 GLITCHLOCK_BENCH_SMOKE=1 \
    cargo bench -p glitchlock-bench --bench sat_solver

# serve_load smoke: shrunk sizes, no snapshot rewrite — proves the TCP
# load harness (sequential vs bulk vs sweep scenarios) runs end to end.
GLITCHLOCK_BENCH_SMOKE=1 GLITCHLOCK_BENCH_NO_SNAPSHOT=1 \
    cargo run -q --release -p glitchlock-bench --bin serve_load

# count_scores smoke: one repetition, no snapshot rewrite — proves the
# exhaustive-vs-hash-count harness (including its sweep-vs-base-enumeration
# cross-check assertions) runs end to end.
GLITCHLOCK_BENCH_SMOKE=1 GLITCHLOCK_BENCH_NO_SNAPSHOT=1 \
    cargo run -q --release -p glitchlock-bench --bin count_scores
