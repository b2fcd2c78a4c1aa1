#!/usr/bin/env bash
# check.sh — the repository's pre-merge gate (see ROADMAP.md).
#
# Runs, in order: formatting, go vet (including the -copylocks guard
# backing tl2.Var/libtm.Obj's no-copy contract), build + full test
# suite (shuffled, so inter-test ordering dependencies can't hide),
# go vet + go test inside the end-to-end benchmark module perfbench/
# (its own go.mod, so ./... never reaches it, yet it imports
# internal/* and breaks on any signature change there), the race
# detector over both STM runtimes plus the fault matrix (injected
# aborts/stalls must never deadlock the gate), a race-mode
# smoke of the schedule explorer and its oracle/scheduler stack
# (-short trims the schedule budgets), a bounded online-controller
# soak under the race detector (the streaming learner building epoch
# snapshots and swapping them into a live gate while the commit path
# runs), an overload-control soak under the race detector (the AIMD
# admission limiter, priority shedding and both runtimes' token
# ledgers hammered by oversubscribed workers, plus the deterministic
# collapse-curve acceptance test), a fuzz smoke over the binary
# decoders and the tts key codecs, and gstmlint (the STM-aware
# transaction-safety linter, checks gstm000..gstm010, including the
# interprocedural gstm006 over the module-wide call graph). The lint
# stage runs -fix -diff as a dry-run gate too — any machine-applicable
# fix left unapplied in the tree fails the build with the diff it
# would make — and finishes with a static-prior smoke: synthesize a
# cold-start model from the examples (gstmlint -prior) and run one
# tiny gstm -op coldstart pipeline against it. A manifest-freshness
# gate then regenerates the effect manifest (gstmlint -manifest) over
# the same packages and fails if it differs from the committed
# MANIFEST.gsm — a stale certificate is a soundness hazard, not just
# drift. Finally scripts/benchdiff.sh re-runs the micro-benchmark set
# against the committed BENCH_baseline.json: >15% ns/op regressions
# fail (GSTM_BENCHDIFF_TOL to adjust; GSTM_BENCHDIFF_SKIP_NS=1 on
# hardware that did not record the baseline), and any allocation on a
# benchmark the baseline pins at zero allocs/op fails unconditionally
# — the zero-alloc commit paths are a contract, not a tuning knob.
# Exits non-zero on the first failure. CI runs this same script
# (.github/workflows/ci.yml). Set GSTM_FUZZTIME to lengthen the fuzz
# smoke (default 10s per target).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== build + tests (shuffled) =="
go build ./...
go test -shuffle=on ./...

echo "== perfbench module (vet + tests) =="
# Offline, with the module settings perfbench/run.sh builds under.
(cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off &&
    go vet . && go test .)

echo "== race detector (STM runtimes + fault matrix) =="
go test -race ./internal/tl2 ./internal/libtm
go test -race -run TestFaultMatrix ./internal/harness

echo "== explorer smoke (scheduler + oracle, race mode) =="
go test -race -short ./internal/sched ./internal/oracle ./internal/explorer

echo "== online controller soak (epoch swaps under race) =="
# Bounded runs with the background learner swapping models into the
# live gate: the commit path, the epoch pipeline and the drift guards
# all racing for real. The learner's own package races alongside.
go test -race ./internal/online
go test -race -run TestOnlineSoak ./internal/harness

echo "== overload soak (admission control under race) =="
# The AIMD limiter's own package races, then oversubscribed workers
# hammer both runtimes through shared limiters (every call accounted
# exactly once: commit, shed or deadline; token ledger drains to
# zero), and the deterministic oversubscription simulator proves the
# collapse-curve acceptance claim: protected throughput at 8x holds
# >= 70% of its 1x peak while unprotected demonstrably degrades.
go test -race ./internal/overload
go test -race -run 'TestOverloadSoak|TestFaultMatrix/Overload' ./internal/harness
go test -run 'TestOversub' ./internal/harness

echo "== fuzz smoke (binary decoders + tts key codecs) =="
FUZZTIME="${GSTM_FUZZTIME:-10s}"
go test -run='^$' -fuzz=FuzzModelDecode -fuzztime="$FUZZTIME" ./internal/model
go test -run='^$' -fuzz=FuzzReadSequence -fuzztime="$FUZZTIME" ./internal/trace
go test -run='^$' -fuzz=FuzzPairEncode -fuzztime="$FUZZTIME" ./internal/tts
go test -run='^$' -fuzz=FuzzStateEncode -fuzztime="$FUZZTIME" ./internal/tts

echo "== gstmlint =="
go run ./cmd/gstmlint ./...

echo "== gstmlint fix gate (dry run) =="
# A non-empty diff means a machine-applicable fix was left unapplied;
# the diff itself is the error message.
fixdiff=$(go run ./cmd/gstmlint -fix -diff ./... || true)
if [ -n "$fixdiff" ]; then
    echo "gstmlint -fix would change the tree; apply or waive:" >&2
    echo "$fixdiff" >&2
    exit 1
fi

echo "== static prior smoke (gstmlint -prior -> gstm -op coldstart) =="
prior=$(mktemp)
manifest=$(mktemp)
trap 'rm -f "$prior" "$manifest"' EXIT
go run ./cmd/gstmlint -prior "$prior" -prior-threads 4 ./examples/... ./cmd/synquake/...
go run ./cmd/gstm -bench kmeans -threads 4 -runs 2 -size small \
    -op coldstart -static-prior "$prior" -model "$prior.nonexistent"

echo "== manifest freshness (gstmlint -manifest vs MANIFEST.gsm) =="
go run ./cmd/gstmlint -manifest "$manifest" ./examples/... ./cmd/synquake/...
if ! cmp -s "$manifest" MANIFEST.gsm; then
    echo "MANIFEST.gsm is stale against the current sources; regenerate with:" >&2
    echo "  go run ./cmd/gstmlint -manifest MANIFEST.gsm ./examples/... ./cmd/synquake/..." >&2
    exit 1
fi

echo "== benchdiff (micro set vs committed baseline) =="
./scripts/benchdiff.sh

echo "all checks passed"
