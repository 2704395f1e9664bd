# Developer / CI entry points.
#
# REPRO_WORKERS feeds the experiment runner's default worker count
# (repro.exp.runner.resolve_workers); CI pins it to 2 so the sweep-backed
# benches exercise the multi-process path deterministically.

PYTHON ?= python
REPRO_WORKERS ?= 2

export PYTHONPATH := src

.PHONY: test lint bench-smoke bench bench-check perf perf-smoke ckpt-smoke traffic-smoke energy-smoke sweep-policies docs-cli linkcheck-docs clean

test:
	$(PYTHON) -m pytest -x -q

# Static checks over the memory, NoC, engine and experiment layers
# (ruff + mypy come from the `lint` extra; CI installs them, local runs
# need `pip install -e '.[lint]'` once).
LINT_PATHS = src/repro/mem src/repro/noc src/repro/sim src/repro/exp
lint:
	$(PYTHON) -m ruff check $(LINT_PATHS)
	$(PYTHON) -m mypy $(LINT_PATHS)

bench-smoke:
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m pytest -q -p no:cacheprovider benchmarks -k "fig17 or fig19"

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

# Full microbenchmark suite; writes results/perf/BENCH_<timestamp>.json
# (see docs/performance.md for the record schema and compare gate).
perf:
	$(PYTHON) -m repro.cli perf

# CI gate: tiny suite, compared against the checked-in baseline with a
# generous threshold (CI machines vary widely; tight thresholds belong
# on one quiet machine comparing its own records).
PERF_BASELINE ?= benchmarks/results/perf/BENCH_baseline_tiny.json
PERF_THRESHOLD ?= 75
perf-smoke:
	$(PYTHON) -m repro.cli perf --size tiny --repeat 3 --out results/perf
	$(PYTHON) -m repro.cli perf --compare $(PERF_BASELINE) \
		"$$(ls -t results/perf/BENCH_*.json | head -1)" \
		--threshold $(PERF_THRESHOLD)

# Checkpoint/restore smoke: the bit-identical-resume digest tests for all
# three session kinds, the warm-sweep and warm-chain equivalence tests,
# then the CLI checkpoint lifecycle and a warm-started sweep end to end
# (see docs/checkpointing.md).
ckpt-smoke:
	$(PYTHON) -m pytest -q -p no:cacheprovider \
		tests/chip/test_session_restore.py tests/exp/test_warm_sweep.py \
		tests/exp/test_warm_chain.py
	$(PYTHON) -m repro.cli checkpoint save results/ckpt/smoke.ckpt.gz \
		--cycles 800 --kind smarco --workload kmp --seed 3 \
		--sub-rings 2 --cores 4 --threads-per-core 4 --instrs 120
	$(PYTHON) -m repro.cli checkpoint info results/ckpt/smoke.ckpt.gz
	$(PYTHON) -m repro.cli checkpoint restore results/ckpt/smoke.ckpt.gz
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli \
		sweep kmp --kind sched --tasks 24 --contexts 8 \
		--sched-policies laxity --scenarios deadline-storm \
		--run-cycles 300000 600000 --warm-start --warm-cycles 50000 \
		--name ckpt-smoke --out results/ckpt

# Open-loop traffic smoke: the shared quantile module and the traffic
# layer's unit tests, a single calibrated cluster run, then a small
# arrival x load sweep replayed from the cache to prove the percentile
# output is deterministic and cache-hit-stable (see docs/traffic.md).
traffic-smoke:
	$(PYTHON) -m pytest -q -p no:cacheprovider \
		tests/analysis/test_quantiles.py tests/traffic
	$(PYTHON) -m repro.cli traffic kmp --chips 2 --requests 500 \
		--instrs 200 --load 0.8 --sub-rings 2 --cores 2
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli \
		sweep kmp --kind traffic --chips 2 --requests 500 \
		--sub-rings 2 --cores 2 --arrivals poisson bursty \
		--balancers least-outstanding --loads 0.5 0.7 0.9 \
		--name traffic-smoke --out results/traffic
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli \
		sweep kmp --kind traffic --chips 2 --requests 500 \
		--sub-rings 2 --cores 2 --arrivals poisson bursty \
		--balancers least-outstanding --loads 0.5 0.7 0.9 \
		--name traffic-smoke --out results/traffic \
		| tee results/traffic/replay.out
	grep -q "6 cache hits" results/traffic/replay.out

# Activity-energy smoke: the power-stack unit tests (Table 1, tech
# scaling, DVFS, activity accounting + conservation), one energy-
# annotated compare run, then a tiny dvfs x node efficiency sweep
# replayed from the cache to prove the energy axes key it correctly
# (see docs/power.md).
energy-smoke:
	$(PYTHON) -m pytest -q -p no:cacheprovider tests/power
	$(PYTHON) -m repro.cli compare kmp --sub-rings 2 --instrs 150 \
		--energy --dvfs eco
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli \
		sweep kmp --kind compare --sub-rings 1 --cores 4 \
		--instrs 80 --dvfs-points eco nominal --nodes 32 40 \
		--name energy-smoke --out results/energy
	REPRO_WORKERS=$(REPRO_WORKERS) $(PYTHON) -m repro.cli \
		sweep kmp --kind compare --sub-rings 1 --cores 4 \
		--instrs 80 --dvfs-points eco nominal --nodes 32 40 \
		--name energy-smoke --out results/energy \
		| tee results/energy/replay.out
	grep -q "4 cache hits" results/energy/replay.out

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
