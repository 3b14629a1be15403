#!/bin/sh
# CI check: build, run the full test suite, and refuse tracked build
# artifacts (a committed _build/ once shipped with the repo; keep it out).
# CI must leave the checkout as it found it: every smoke writes to a temp
# dir, and the final guard fails the run if `git status` changed.
set -eu

cd "$(dirname "$0")/.."

in_git=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  in_git=true
  status_before=$(git status --porcelain)
else
  echo "ci: not a git checkout; skipping the tracked-file guard" >&2
fi

if git ls-files --error-unmatch _build >/dev/null 2>&1 || \
   git ls-files | grep -q '^_build/'; then
  echo "ci: _build/ is tracked by git — run 'git rm -r --cached _build'" >&2
  exit 1
fi

dune build
dune runtest

# Static checks: self-test the AST checker on its fixture corpus, prove it
# flags seeded violations, then scan the tree.
./scripts/lint.sh
seeded=$(mktemp -d)
trap 'rm -rf "$seeded"' EXIT
printf 'let sorted l = List.sort compare l\n' > "$seeded/bad.ml"
if ./_build/default/bin/tric_check.exe "$seeded" | grep -q 'poly-compare'; then
  : # the seeded polymorphic compare was caught
else
  echo "ci: tric_check failed to flag a seeded poly-compare violation" >&2
  exit 1
fi
mkdir -p "$seeded/bin"
printf 'let total = ref 0\nlet drive pool =\n  let tasks = [| (fun () -> incr total) |] in\n  Pool.run pool tasks\n' > "$seeded/bin/race.ml"
if ./_build/default/bin/tric_check.exe "$seeded/bin" | grep -q 'domain-ownership'; then
  : # the seeded race was caught
else
  echo "ci: tric_check failed to flag a seeded domain-ownership violation" >&2
  exit 1
fi

# Shadow-audited replay smoke: generate a small SNB dataset, interleave
# removals (--churn) into the add-only stream, and certify the maintained
# state of the trie engines and one baseline against ground truth every
# 500 updates — per-update and micro-batched.
auditds=$(mktemp -u).tric
dune exec bin/tric_cli.exe -- generate snb -o "$auditds" --edges 4000 --qdb 60 > /dev/null
for engine in TRIC TRIC+ INV+; do
  dune exec bin/tric_cli.exe -- \
    audit "$auditds" --engine "$engine" --every 500 --churn 0.2 > /dev/null
done
dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 --batch 64 > /dev/null

# Windowed audited churn replay: the same stream scoped to a sliding
# window (count-based, then event-time), per-update and micro-batched.
# Every shadow audit now also certifies window coherence — no edge
# outlives its deadline or capacity, nothing window-live is absent from
# the stream, and the inner engines are re-certified against the window's
# own live set instead of the full stream history.
dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 --window "500 EVENTS" > /dev/null
dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 --batch 64 --window 1h > /dev/null

# Shard matrix: the same churned audited replay through the owner-targeted
# dispatcher at 1, 2 and 4 domains.  Every shadow audit re-certifies the
# dispatched state (including routing coherence: trie placement AND the
# per-key dispatch bitmaps) against ground truth, so a green run here
# proves targeted dispatch = sequential on this stream.  A sharded row
# must report its shard count ("over N shards"), so a --shards that stops
# reaching the engine fails here instead of silently running on one.
audit_sharded() {
  shards=$1
  shift
  out=$(dune exec bin/tric_cli.exe -- \
    audit "$auditds" --every 500 --churn 0.2 --shards "$shards" "$@")
  if [ "$shards" -gt 1 ] && ! printf '%s\n' "$out" | grep -q "over $shards shards"; then
    echo "ci: audit --shards $shards did not run over $shards shards" >&2
    exit 1
  fi
}
for shards in 1 2 4; do
  audit_sharded "$shards" --engine TRIC+
  audit_sharded "$shards" --engine TRIC --batch 32
done
# Oversharded batched row: 8 domains exceed the label alphabet, so some
# shards own nothing — the skewed-ownership regime targeted routing and
# batched dispatch must survive unchanged.
audit_sharded 8 --engine TRIC --batch 32
# The final join's whole removal path at once: window expiries and churn
# retracted batch-wise against views read in place on two shards.
audit_sharded 2 --engine TRIC+ --batch 32 --window 1h
# Telemetry: a metrics-enabled audited churn replay (4 shards) exporting
# its merged snapshot, which is then re-parsed and schema-checked by the
# stats subcommand's strict validator.
metricsjson=$(mktemp -u).json
audit_sharded 4 --engine TRIC+ --metrics-out "$metricsjson"
dune exec bin/tric_cli.exe -- stats --check "$metricsjson"
rm -f "$metricsjson"
rm -f "$auditds"

# Telemetry overhead smoke: metrics-on vs metrics-off throughput on the
# same batched replay must stay within the TRIC_OVERHEAD_MAX_PCT budget
# (default 5%); the strict mode exits non-zero past it.
TRIC_OVERHEAD_ONLY=1 TRIC_OVERHEAD_EDGES=2000 TRIC_OVERHEAD_QDB=50 \
  dune exec bench/main.exe

# Torn-journal crash recovery, straight from the suite.
dune exec test/test_main.exe -- test durability 3 > /dev/null

# Subscription-server smoke, two layers: (1) the kill -9 torture from
# the suite — subscribers over a churned stream, SIGKILL mid-stream,
# restart, reconnect with resume tokens, and the combined streams must be
# gapless and duplicate-free against a sequential oracle, with snapshot
# compaction bounding the replayed tail and an audit-clean recovered
# state; (2) a line-protocol client session against a background serve,
# whose shutdown metrics envelope is schema-checked by the stats
# validator.
dune exec test/test_main.exe -- test server 13 > /dev/null

srvdir=$(mktemp -d)
./_build/default/bin/tric_cli.exe serve --socket "$srvdir/s.sock" \
  --journal "$srvdir/j.log" --shards 2 --metrics-out "$srvdir/metrics.json" \
  > "$srvdir/server.log" 2>&1 &
srvpid=$!
# Capture the session before grepping: grep -q on the live pipe would
# exit at the match and SIGPIPE the client before it sends quit, leaving
# the server running forever.
printf '%s\n' \
    "hello ci" \
    "register edges ?x -a-> ?y" \
    "publish u -a-> v" \
    "recv 1" \
    "ack 1" \
    "stats prometheus" \
    "quit" \
  | ./_build/default/bin/tric_cli.exe client --socket "$srvdir/s.sock" \
  > "$srvdir/session.log"
if grep -q 'notify useq=1' "$srvdir/session.log"; then
  : # the session saw its notification
else
  echo "ci: server client session failed" >&2
  kill "$srvpid" 2>/dev/null || true
  exit 1
fi
wait "$srvpid"
./_build/default/bin/tric_cli.exe stats --check "$srvdir/metrics.json"
rm -rf "$srvdir"

# Harness smoke at a high scale factor: small enough to finish in seconds,
# and fig12a's stream shrinks below its checkpoint count, which is exactly
# the duplicate-checkpoint regime the growth figures must render cleanly.
TRIC_SCALE=20000 TRIC_BUDGET=2 dune exec bin/tric_cli.exe -- run all > /dev/null

if $in_git && [ "$(git status --porcelain)" != "$status_before" ]; then
  echo "ci: the run changed the checkout (git status before/after differs):" >&2
  git status --porcelain >&2
  exit 1
fi

echo "ci: ok"
