#!/usr/bin/env bash
# Production coverage report (make cover-prod). Informational, not a
# gate. Builds the five binaries, the examples and the bench with
# -cover -coverpkg=cormi/..., runs the recipes README.md,
# EXPERIMENTS.md and the Makefile name (plus the smokes make verify
# runs), then runs `go test -coverpkg=cormi/... ./...`, and prints
# every function with at least one statement that no recipe entered,
# marking "test" those the test pass entered. A function on the list
# either gets a recipe here, stays as a failure path or interface
# obligation with a named test, or is deleted (EXPERIMENTS.md,
# "Production coverage").
#
# Run from anywhere: bash scripts/cover-prod.sh. Everything it writes
# goes to a temporary directory that is removed on exit.
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$(mktemp -d)"
node=""
cleanup() {
	if [ -n "$node" ]; then kill "$node" 2>/dev/null; wait "$node" 2>/dev/null; fi
	rm -rf "$work"
}
trap cleanup EXIT
bin="$work/bin"
prod="$work/prod"
mkdir -p "$bin" "$prod" "$work/test" "$work/out"

echo "building with -cover -coverpkg=cormi/..."
go build -cover -coverpkg=cormi/... -o "$bin/" ./cmd/... ./examples/... || exit 1
go build -C bench -cover -coverpkg=cormi/... -o "$bin/cormi-bench" . || exit 1

failed=0
# run executes one recipe with its coverage going to $prod; output is
# kept in $work/out, and a nonzero exit is reported, not fatal.
run() {
	echo "  $*"
	GOCOVERDIR="$prod" "$bin/$@" >"$work/out/last" 2>&1
	local rc=$?
	if [ "$rc" -ne 0 ]; then
		echo "    FAILED (exit $rc):"
		tail -5 "$work/out/last" | sed 's/^/      /'
		failed=$((failed + 1))
	fi
}

echo "running the recipes"
# README quick start and EXPERIMENTS.md
for ex in quickstart compiler linkedlist lu superopt webserver; do run "$ex"; done
run rmic -example
run rmic -example -dump-heap
run rmic -example -dump-ssa
run rmic -example -dump-class
run rmic -example -sites
run rmic -example -fingerprints
run rmic -explain -example
run rmic -explain-json examples/minijp/diamond.jp
run rmic -explain-smoke
run rmic -verdict-matrix examples/minijp
run rmic -analysis-stats examples/minijp/shared_helper.jp
run rmic -analysis-stats-json examples/minijp/shared_helper.jp
run rmirun -example
for jp in examples/minijp/*.jp; do
	run rmic "$jp"
	run rmirun "$jp"
done
run rmibench
run rmibench -scale paper
run rmibench -scaling
run rmibench -faults
run rmibench -faults -drop 0.1 -dup 0.05 -seed 7
run rmibench -chain 8
run rmibench -trace "$work/out/rmi.json"
run rmibench -faults -trace "$work/out/dump.json"
run rminode
run rminode -drop 0.1 -dup 0.05
run rminode -sends 5 -obs-smoke
run cormi-bench -quick

# rminode -obs serves until interrupted; rmitop polls it.
GOCOVERDIR="$prod" "$bin/rminode" -obs 127.0.0.1:0 >"$work/out/node" 2>&1 &
node=$!
addr=""
for _ in $(seq 1 600); do
	addr="$(sed -n 's|^serving http://\([^ ]*\) until interrupted$|\1|p' "$work/out/node")"
	if [ -n "$addr" ]; then break; fi
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "  rminode -obs did not come up"
	failed=$((failed + 1))
else
	echo "  rminode -obs $addr (serving)"
	run rmitop -cluster "$addr" -once
	run rmitop -cluster "$addr" -frames 2 -interval 100ms -peers "$addr"
	run rmitop -cluster "$addr" -slow Main.main.1
	id="$(curl -s "http://$addr/traces" | sed -n 's/.*"trace_id": *\([0-9]*\).*/\1/p' | head -1)"
	if [ -n "$id" ]; then
		run rmitop -cluster "$addr" -trace "$id"
	else
		echo "  /traces listed no trace"
		failed=$((failed + 1))
	fi
fi
kill -INT "$node" 2>/dev/null
if ! wait "$node"; then
	echo "  rminode -obs did not stop cleanly on SIGINT"
	failed=$((failed + 1))
fi
node=""

echo "running go test -coverpkg=cormi/... ./..."
if ! go test -count=1 -cover -coverpkg=cormi/... ./... -args -test.gocoverdir="$work/test" >"$work/out/test" 2>&1; then
	echo "  go test FAILED:"
	grep -E '^(FAIL|---)' "$work/out/test" | head -20 | sed 's/^/    /'
	failed=$((failed + 1))
fi

go tool covdata textfmt -i="$prod" -o "$work/prod.txt" || exit 1
go tool covdata textfmt -i="$work/test" -o "$work/test.txt" || exit 1
echo
echo "functions no recipe entered (\"test\": go test entered them):"
go run scripts/coverfuncs.go "$work/prod.txt" "$work/test.txt" || exit 1
if [ "$failed" -gt 0 ]; then
	echo "$failed recipe(s) failed; the report undercounts what production runs"
	exit 1
fi
