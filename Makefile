# Developer entry points. `make check` is the full gate the CI and the
# acceptance criteria run: build, vet, the test suite with the race
# detector on, then every gate in the catalogue (scripts/gates)
# concurrently, all through scripts/check.sh. The catalogue is the one
# place a gate's command is written; `make NAME` runs gate NAME alone.

GO ?= go

GATES := $(shell grep -v '^\#' scripts/gates | cut -f1)

.PHONY: check build vet test race bench bench-save bench-parallel fleet-matrix bench-hierarchy $(GATES)

check:
	./scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

$(GATES):
	./scripts/check.sh $@

# Full evaluation benchmarks (Table I/II/III, Fig. 16-20). Slow; the test
# targets above skip them via -short where applicable.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark artifact: micro-bench ns/op, B/op, allocs/op
# plus the serial-vs-pipelined Fig. 19 sweep, checked in as BENCH_<date>.json.
bench-save:
	$(GO) run ./cmd/p4auth-bench -save BENCH_$$(date -u +%Y-%m-%d).json

# Parallel ingress sweep (workers x window over authenticated DP-DP
# probes) printed as a report; the machine-readable rows land in the
# bench-save artifact.
bench-parallel:
	$(GO) run ./cmd/p4auth-bench -exp fig19par

# Fleet survival matrix artifact: the app × fault × protection matrix at
# k=4 plus k=8 fat-tree / RouteScout wall-clock throughput at 1, 4 and 8
# shards, checked in as BENCH_<date>-matrix.json.
fleet-matrix:
	$(GO) run ./cmd/p4auth-bench -matrix BENCH_$$(date -u +%Y-%m-%d)-matrix.json

# Hierarchical control-plane artifact: cross-pod key-establishment
# latency and aggregate pod write throughput at pods=4/8 with and
# without WAN latency injection, checked in as BENCH_<date>-hierarchy.json.
bench-hierarchy:
	$(GO) run ./cmd/p4auth-bench -hierarchy BENCH_$$(date -u +%Y-%m-%d)-hierarchy.json
