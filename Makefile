.PHONY: all build test bench experiments examples loc clean

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

# lines of OCaml source in lib/ and bin/ (*.ml and *.mli), the size ROADMAP tracks
loc:
	@find lib bin \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l

clean:
	dune clean
