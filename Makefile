# Convenience entry points; `make check` is the tier-1 gate CI runs.

.PHONY: all build test check fmt bench-smoke baseline clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

# Formatting is advisory: ocamlformat may not be installed everywhere,
# so the alias degrades to a no-op instead of failing the gate.
fmt:
	-dune fmt

# Fast end-to-end exercise of the reproduction harness, including the
# Domain-pool trial runtime and the sequential-vs-pipelined e2e bench
# section (results are --jobs invariant; only wall-clocks move).
bench-smoke: build
	dune exec bench/main.exe -- --quick --no-perf --jobs 2

# Re-record regression baselines (goalpost moves — commit deliberately).
# The section list is bench/suite.ml's Suite.all; `baseline-%` forwards the
# name and the executable errors on anything it doesn't know, so the two
# can't drift. `dune exec bench/baseline.exe -- --list-sections` prints
# the valid names. (bench/BENCH_cache.seed.json is frozen and never
# re-recorded by these targets.)
baseline: build
	dune exec bench/baseline.exe -- --section all

baseline-%: build
	dune exec bench/baseline.exe -- --section $*

clean:
	dune clean
