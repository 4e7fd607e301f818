.PHONY: all build test bench experiments examples clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- bench

experiments:
	dune exec bin/ksa.exe -- experiments

examples:
	dune exec examples/quickstart.exe
	dune exec examples/partition_demo.exe
	dune exec examples/candidate_check.exe
	dune exec examples/border_explorer.exe
	dune exec examples/fd_playground.exe
	dune exec examples/round_model.exe
	dune exec examples/register_demo.exe

clean:
	dune clean
