#!/bin/sh
# Tier-1+ correctness gate: build, vet, domain-aware static analysis
# (cmd/scilint), then the full test suite under the race detector.
# Run from anywhere inside the repo; exits non-zero on the first
# failing stage.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# Every committed Go file must be gofmt-clean. Besides catching drift,
# this keeps the //unit: and //exact: annotations in the directive form
# gofmt preserves: a spaced "//exact: " line is rewritten by gofmt to
# "// exact: ", which exactflow no longer recognizes.
echo "==> gofmt -l"
unformatted=$(gofmt -l $(git ls-files '*.go'))
[ -z "$unformatted" ] || { echo "check: not gofmt-clean:" >&2; echo "$unformatted" >&2; exit 1; }

echo "==> scilint ./..."
go run ./cmd/scilint ./...

# The linter lints itself: the flow analyzers (CFG builder, dataflow
# engine, taint propagation) are exactly the kind of fixpoint code
# where a leaked lock or nondeterministic map range would be embarrassing.
echo "==> scilint self-lint (./cmd/... ./internal/lint/...)"
go run ./cmd/scilint ./cmd/... ./internal/lint/...

echo "==> go test -race ./..."
go test -race ./...

# Focused re-run of the 0-ULP batched-kinematics pin outside the
# cached suite.
echo "==> batched-kinematics contract smoke (TorsionsBatch)"
go test -run 'TorsionsBatch' -count=1 ./internal/chem

# Short fuzz runs over the untrusted edges (AutoGrid .map reader,
# provenance SQL). A crasher fails the gate and is written under the
# package's testdata/fuzz, where it becomes a seed-corpus regression
# case once committed.
echo "==> fuzz smoke (10 s per target)"
go test -run '^$' -fuzz FuzzParseMap -fuzztime=10s ./internal/grid
go test -run '^$' -fuzz FuzzQuery -fuzztime=10s ./internal/prov

echo "==> kernel benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench . -benchtime=1x \
	./internal/grid ./internal/dock \
	./internal/dock/tables ./internal/dock/vina ./internal/dock/ad4

# The synthetic dataset generator must be deterministic: two
# generations into fresh directories are byte-identical, including the
# -large L2-overflow pair.
echo "==> gendata determinism (two generations byte-identical)"
gen_a=$(mktemp -d) && gen_b=$(mktemp -d)
go run ./cmd/gendata -out "$gen_a" -receptors 3 -ligands 2 -large
go run ./cmd/gendata -out "$gen_b" -receptors 3 -ligands 2 -large
diff -r "$gen_a" "$gen_b" || { echo "check: gendata output differs between runs" >&2; exit 1; }
rm -rf "$gen_a" "$gen_b"

echo "==> search benchmark smoke (dockbench -exp search -quick)"
go run ./cmd/dockbench -exp search -quick -benchout ''

echo "==> batched-scoring benchmark smoke, exact cells (dockbench -exp kernels -quick)"
go run ./cmd/dockbench -exp kernels -quick -benchout ''

echo "==> provenance store benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench . -benchtime=1x ./internal/prov

echo "==> provenance store benchmark smoke (dockbench -exp prov -quick)"
go run ./cmd/dockbench -exp prov -quick -benchout ''

echo "==> campaign service benchmark smoke (dockbench -exp campaigns -quick)"
go run ./cmd/dockbench -exp campaigns -quick -benchout ''

# End-to-end serve smoke: start the resident campaign service, submit
# a tiny campaign over HTTP, poll it to completion, then SIGTERM and
# require a clean drain. Exercises the same code path as production:
# real sockets, real signals, real shutdown ordering.
echo "==> campaign service serve smoke (scidock -serve)"
go build -o /tmp/scidock-check ./cmd/scidock
servelog=$(mktemp)
/tmp/scidock-check -serve 127.0.0.1:0 >"$servelog" 2>&1 &
servepid=$!
trap 'kill "$servepid" 2>/dev/null || true; rm -f "$servelog" /tmp/scidock-check' EXIT
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/^scidock: serving campaign API on //p' "$servelog")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "check: serve smoke: server never reported its address" >&2; cat "$servelog" >&2; exit 1; }
id=$(curl -sf -X POST "http://$addr/campaigns" \
	-d '{"mode":"ad4","receptors":2,"ligands":1,"cores":4,"effort":"smoke","seed":7,"disable_failures":true}' \
	| sed -n 's/.*"id": \([0-9]*\).*/\1/p')
[ -n "$id" ] || { echo "check: serve smoke: submit returned no id" >&2; exit 1; }
state=""
for _ in $(seq 1 600); do
	state=$(curl -sf "http://$addr/campaigns/$id" | sed -n 's/.*"state": "\([A-Z]*\)".*/\1/p')
	case "$state" in DONE|FAILED|CANCELLED) break ;; esac
	sleep 0.1
done
[ "$state" = DONE ] || { echo "check: serve smoke: campaign ended in state '$state', want DONE" >&2; exit 1; }
curl -sf -X POST "http://$addr/campaigns/$id/query?sql=SELECT%20count(*)%20FROM%20ddocking" \
	| grep -q '"rows"' || { echo "check: serve smoke: provenance query failed" >&2; exit 1; }
kill -TERM "$servepid"
wait "$servepid" || { echo "check: serve smoke: server exited non-zero after SIGTERM" >&2; cat "$servelog" >&2; exit 1; }
grep -q "shutdown complete" "$servelog" || { echo "check: serve smoke: no clean shutdown" >&2; cat "$servelog" >&2; exit 1; }
trap - EXIT
rm -f "$servelog" /tmp/scidock-check

echo "check: all gates passed"
