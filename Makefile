# Developer entry points.  Everything runs against the in-tree sources via
# PYTHONPATH, so no install step is required.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test leak-check coverage bench bench-smoke bench-full serve-demo serve-load \
	network-smoke network-demo perf perf-gate perf-scale lint gate analyze

## Tier-1 verification, the command CI runs: the unit/property/integration
## suite under tests/ plus the figure/table benchmarks and the e2e smoke
## tests under benchmarks/, stopping at the first failure.
test:
	$(PYTHON) -m pytest -x -q

## The fault and serving tests with every unclosed file an error (CI: a
## step of the test job).  Each test closes the stores it opens, so a
## ResourceWarning can only come from a handle the program leaks.  A warning
## raised in a finalizer reaches pytest as an unraisable exception, hence the
## second flag.
leak-check:
	$(PYTHON) -m pytest tests/faults tests/serving -q \
		-W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning

## Line coverage over src/repro (requires pytest-cov).  The suite measures
## ~95% line coverage; the fail-under pin sits a safety margin below and
## matches the CI coverage job.  Raise it when coverage improves, never
## lower it to make a PR pass.
coverage:
	$(PYTHON) -m pytest tests -q --cov=repro --cov-report=term-missing \
		--cov-fail-under=90

## Fast smoke pass over the benchmark harness (seconds, not minutes).
## Use this to sanity-check perf-sensitive changes before a full run.
bench-smoke:
	$(PYTHON) -m pytest -m smoke benchmarks -q

## Laptop-scale reproduction of every figure/table benchmark.
bench:
	$(PYTHON) -m pytest benchmarks -q

## Paper-scale budgets (slow; see benchmarks/conftest.py).
bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks -q

## Fast end-to-end network sanity pass: a 2-subgraph toy network through the
## shared tuning service, and a short-budget TuningDriver.tune_network (the
## loop behind the paper's figures) for HARL, its greedy ablation and Ansor
## (seconds; also a CI job).
network-smoke:
	$(PYTHON) -m pytest -m network_smoke tests -q

## Hot-path micro-benchmarks: emits a schema-versioned BENCH_perf.json with
## median/p95 wall-clock and throughput per stage, plus the speedup of the
## vectorised array stages over harness-local scalar loops, and enforces the
## feature-extraction floor (>= 3x over stacked schedule_features).
perf:
	$(PYTHON) benchmarks/perf/run.py --output BENCH_perf.json --check

## perf + the CI regression gate: fail on >25% throughput regression in any
## stage vs the checked-in benchmarks/perf/baseline.json.
perf-gate: perf
	$(PYTHON) benchmarks/perf/compare.py BENCH_perf.json benchmarks/perf/baseline.json

## Million-entry registry scale benchmark: synthesises a 1M-entry v1 registry,
## upgrades it in place, and enforces the machine-independent speedup floors
## (startup-to-first-hit >= 10x over the eager v1 scan, batched NN scoring
## >= 5x over a per-entry loop).  Emits the BENCH_scale.json artifact.
perf-scale:
	$(PYTHON) benchmarks/perf/scale.py --output BENCH_scale.json --check

## Closed-loop load benchmark against the asyncio network front end: boots a
## server, replays Zipf/burst multi-tenant traffic at it, writes the
## BENCH_load.json artifact (p50/p95/p99 latency, registry hit rate, shed
## rate) and enforces the machine-independent serving invariants (every
## request answered, shed answers registry-only, hit-rate floor).  A second
## pass squeezes the same harness to one admission slot and writes
## BENCH_load_saturated.json, so shedding and degraded answers are exercised
## even on fast machines.
serve-load:
	$(PYTHON) benchmarks/perf/loadgen.py --output BENCH_load.json --check
	$(PYTHON) benchmarks/perf/loadgen.py --saturate --check \
		--output BENCH_load_saturated.json

## Release gate: run every fault-injection recovery obligation (registry,
## record store, compaction, tuning service, network server) over 3 seeds and
## write the pass/fail report artifact (GATE_obligations.json).  Red report
## == non-zero exit == the build does not ship.
gate:
	$(PYTHON) -m repro.faults.gate --seeds 3 --report GATE_obligations.json

## Static checks (requires ruff; config in ruff.toml).  Format enforcement
## starts with the perf harness and will widen as files are formatted.
## mypy (strict-lite, scoped via mypy.ini) runs when installed and is
## skipped quietly otherwise, so laptop runs without dev deps still lint.
lint:
	ruff check .
	ruff format --check benchmarks/perf
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini; \
	else \
		echo "mypy not installed; skipping type check (CI runs it)"; \
	fi

## Repo-aware static checkers (lock discipline, asyncio blocking calls,
## fault/obligation coverage, obs hygiene).  Non-zero exit on any finding
## not accepted in ANALYSIS_baseline.json; writes ANALYSIS_report.json.
analyze:
	$(PYTHON) -m repro.analysis --root src --baseline ANALYSIS_baseline.json \
		--report ANALYSIS_report.json

## Walk the serving subsystem: request coalescing, registry hits, transfer
## warm starts (see examples/serving_demo.py).
serve-demo:
	$(PYTHON) examples/serving_demo.py

## Walk end-to-end network tuning: ResNet-50 cold, MobileNet-V2 warm-started
## from it, ResNet-50 again from the registry (see examples/network_demo.py).
network-demo:
	$(PYTHON) examples/network_demo.py
