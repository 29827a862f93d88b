# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check bench examples clean fmt

all: build

build:
	dune build @all

test:
	dune runtest

# Build everything, then run the full test suite — the pre-push gate.
check: build test

fmt:
	dune fmt

# Regenerate every evaluation table and figure (EXPERIMENTS.md's data).
bench:
	dune exec bin/vmht_cli.exe -- bench

examples:
	dune exec examples/quickstart.exe
	dune exec examples/pointer_chasing.exe
	dune exec examples/multi_thread_pipeline.exe
	dune exec examples/tlb_tuning.exe
	dune exec examples/pipelined_stream.exe
	dune exec examples/isolation.exe

clean:
	dune clean
