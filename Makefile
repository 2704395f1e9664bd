# Developer / CI entry points.
#
# REPRO_WORKERS feeds the experiment runner's default worker count
# (repro.exp.runner.resolve_workers); CI pins it to 2 so the sweep-backed
# benches exercise the multi-process path deterministically.

PYTHON ?= python
REPRO_WORKERS ?= 2

export PYTHONPATH := src

.PHONY: test lint smoke bench bench-check sweep-policies docs-cli linkcheck-docs clean

test:
	$(PYTHON) -m pytest -x -q

# Static checks over the memory, NoC, engine and experiment layers
# (ruff + mypy come from the `lint` extra; CI installs them, local runs
# need `pip install -e '.[lint]'` once).
LINT_PATHS = src/repro/mem src/repro/noc src/repro/sim src/repro/exp
lint:
	$(PYTHON) -m ruff check $(LINT_PATHS)
	$(PYTHON) -m mypy $(LINT_PATHS)

bench:
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m pytest -q -p no:cacheprovider benchmarks

# Outside-in benchmark gate (see bench/README.md): the tracer and compare
# tests, then one short run each of tcg-kmp (the core pipeline),
# chip64-ocean (the NoC hub path) and sweep-mixed (the runner, its warm
# chains and 10 cache replays) whose result lines must report every
# golden digest correct.
BENCH_CHECK_WORKLOADS = tcg-kmp chip64-ocean sweep-mixed
bench-check:
	$(PYTHON) -m pytest -q -p no:cacheprovider bench/tests
	mkdir -p results
	for w in $(BENCH_CHECK_WORKLOADS); do \
		$(PYTHON) -m bench.run --workload $$w --seed 0 --seconds 5 \
			--trace 0 > results/bench-check-$$w.out \
			|| { cat results/bench-check-$$w.out; exit 1; }; \
		cat results/bench-check-$$w.out; \
		tail -n 1 results/bench-check-$$w.out \
			| grep -q '"correct": true' || exit 1; \
	done

# One end-to-end pass over the CLI surfaces the unit tests do not drive
# (`make test` already runs every pytest module): the checkpoint
# save/info/restore lifecycle; one calibrated traffic run and one
# energy-annotated compare; three cached sweeps (a warm-started sched
# horizon sweep, an arrival x load traffic sweep, a dvfs x node compare
# sweep), each run twice so the replay must take every point from the
# cache; and the Fig 17/19 benches, which rewrite their committed outputs
# under benchmarks/results/ (CI then requires them unchanged).  The six
# examples/*.py run in `make test` (tests/integration/test_examples.py).
# Simulator speed is judged by bench/ (see bench/README.md), not here.
SMOKE_OUT = results/smoke
SMOKE_SWEEPS = \
	"--kind sched --tasks 24 --contexts 8 --sched-policies laxity \
	 --scenarios deadline-storm --run-cycles 300000 600000 --warm-start \
	 --warm-cycles 50000 --name warm-smoke" \
	"--kind traffic --chips 2 --requests 500 --sub-rings 2 --cores 2 \
	 --arrivals poisson bursty --balancers least-outstanding \
	 --loads 0.5 0.7 0.9 --name traffic-smoke" \
	"--kind compare --sub-rings 1 --cores 4 --instrs 80 \
	 --dvfs-points eco nominal --nodes 32 40 --name energy-smoke"
smoke:
	$(PYTHON) -m repro.cli checkpoint save $(SMOKE_OUT)/smoke.ckpt.gz \
		--cycles 800 --kind smarco --workload kmp --seed 3 \
		--sub-rings 2 --cores 4 --threads-per-core 4 --instrs 120
	$(PYTHON) -m repro.cli checkpoint info $(SMOKE_OUT)/smoke.ckpt.gz
	$(PYTHON) -m repro.cli checkpoint restore $(SMOKE_OUT)/smoke.ckpt.gz
	$(PYTHON) -m repro.cli traffic kmp --chips 2 --requests 500 \
		--instrs 200 --load 0.8 --sub-rings 2 --cores 2
	$(PYTHON) -m repro.cli compare kmp --sub-rings 2 --instrs 150 \
		--energy --dvfs eco
	for args in $(SMOKE_SWEEPS); do \
		REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli sweep kmp \
			$$args --out $(SMOKE_OUT) || exit 1; \
		REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli sweep kmp \
			$$args --out $(SMOKE_OUT) > $(SMOKE_OUT)/replay.out \
			|| { cat $(SMOKE_OUT)/replay.out; exit 1; }; \
		cat $(SMOKE_OUT)/replay.out; \
		grep -Eq '^([0-9]+) points \| \1 cache hits' \
			$(SMOKE_OUT)/replay.out || exit 1; \
	done
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m pytest -q -p no:cacheprovider \
		benchmarks -k "fig17 or fig19"

# Scheduler policy zoo smoke: every registered policy x every adversarial
# scenario through the cached runner with the invariant audit layer armed;
# prints the who-wins-where table (see docs/scheduling.md).
sweep-policies:
	REPRO_AUDIT=collect REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli \
		sweep kmp --kind sched --tasks 48 --contexts 16 \
		--name sweep-policies --out results/sched

# Regenerate the generated CLI reference from the live argparse tree.
docs-cli:
	$(PYTHON) -m repro.cli --dump-docs > docs/cli.md

# Fail on dead relative links in any tracked markdown file.
linkcheck-docs:
	$(PYTHON) tools/check_doc_links.py

clean:
	rm -rf .pytest_cache benchmarks/results/cache benchmarks/results/runs results
	find . -name __pycache__ -type d -exec rm -rf {} +
