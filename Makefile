PYTHON ?= python
export PYTHONPATH := src

## Exit 0 iff the Python expression $(2) holds over `s`, the dict of the
## `stats {json}` line a runner verb printed to stderr (captured in $(1)).
STATS_CHECK = $(PYTHON) -c "import json,sys; s=[json.loads(l[6:]) for l in open('$(1)') if l.startswith('stats ')][-1]; sys.exit(0 if $(2) else 1)"

.PHONY: test bench bench-check bench-quick bench-baseline check

test:
	$(PYTHON) -m pytest -x -q

## The default verification path: unit tests, the quick perf gate, and
## the CLI smokes (cache, tracing, faults, compare, explore, serve).
## The fidelity end-to-end checks are tier-1 tests.  Run
## `make bench-check` for the full kernel gate before refreshing
## BENCH_kernels.json.
check: test bench-quick smoke trace-smoke faults-smoke compare-smoke explore-smoke serve-smoke
	@echo "check ok: tests, bench guard and all smokes passed"

## Measure the tracked kernels and refresh the "current" section of
## BENCH_kernels.json (the committed perf record).
bench:
	$(PYTHON) -m benchmarks.bench_regression --write

## Fail (exit 1) if any tracked kernel regressed more than 20% vs the
## committed BENCH_kernels.json (tighter per-kernel overrides and the
## absolute seed gates apply on top).
bench-check:
	$(PYTHON) -m benchmarks.bench_regression --check

## The fast perf gate (~15 s): DES ping-pong healthy + faulted and the
## cost-model kernels only, 3 repeats each, absolute gates included.
bench-quick:
	$(PYTHON) -m benchmarks.bench_regression --check --quick

## Re-record the "baseline" (before) section. Only for starting a new
## optimization cycle.
bench-baseline:
	$(PYTHON) -m benchmarks.bench_regression --capture-baseline

TRACE_SMOKE_DIR := /tmp/repro-trace-smoke

## Capture one representative trace (fast DES cell), then validate the
## written file against the Chrome trace-event schema.
.PHONY: trace-smoke
trace-smoke:
	rm -rf $(TRACE_SMOKE_DIR)
	$(PYTHON) -m repro trace fig9 --trace $(TRACE_SMOKE_DIR)
	@$(PYTHON) -c "import sys; from repro.obs.export import main; sys.exit(main(['$(TRACE_SMOKE_DIR)/fig9.trace.json']))" \
	  || { echo 'trace-smoke FAILED: invalid Chrome trace'; exit 1; }
	@echo "trace-smoke ok"

FAULTS_SMOKE_DIR := /tmp/repro-faults-smoke
FAULTS_SMOKE_RUN := $(PYTHON) -m repro run fig9 --fast \
	  --faults "drop:probability=0.02;jitter:amplitude=0.001;seed=7" \
	  --cache-dir $(FAULTS_SMOKE_DIR)/cache
FAULTS_SMOKE_REPLAYED := s['runner.cached'] == s['runner.cells'] and s['runner.executed'] == 0

## Injected-fault sweep into a fresh cell store, then a second pass
## that must resume entirely from the store (0 cells re-executed) and
## render byte-identical output.  Then the tail of cells.jsonl is torn
## as a kill would leave it: the next pass re-executes the torn cell,
## and a third pass must again replay everything from the healed
## store, byte-identical.
.PHONY: faults-smoke
faults-smoke:
	rm -rf $(FAULTS_SMOKE_DIR) && mkdir -p $(FAULTS_SMOKE_DIR)
	$(FAULTS_SMOKE_RUN) >$(FAULTS_SMOKE_DIR)/cold.txt 2>$(FAULTS_SMOKE_DIR)/cold_stats.txt
	$(FAULTS_SMOKE_RUN) >$(FAULTS_SMOKE_DIR)/warm.txt 2>$(FAULTS_SMOKE_DIR)/warm_stats.txt
	@cat $(FAULTS_SMOKE_DIR)/warm_stats.txt
	@diff $(FAULTS_SMOKE_DIR)/cold.txt $(FAULTS_SMOKE_DIR)/warm.txt \
	  || { echo 'faults-smoke FAILED: resumed run differs from original'; exit 1; }
	@$(call STATS_CHECK,$(FAULTS_SMOKE_DIR)/warm_stats.txt,$(FAULTS_SMOKE_REPLAYED)) \
	  || { echo 'faults-smoke FAILED: resume re-executed cells instead of replaying the store'; exit 1; }
	$(PYTHON) -c "import os; p='$(FAULTS_SMOKE_DIR)/cache/cells.jsonl'; os.truncate(p, os.path.getsize(p) - 20)"
	$(FAULTS_SMOKE_RUN) >$(FAULTS_SMOKE_DIR)/torn.txt 2>$(FAULTS_SMOKE_DIR)/torn_stats.txt
	@cat $(FAULTS_SMOKE_DIR)/torn_stats.txt
	@$(call STATS_CHECK,$(FAULTS_SMOKE_DIR)/torn_stats.txt,s['runner.executed'] >= 1) \
	  || { echo 'faults-smoke FAILED: torn store re-executed no cell'; exit 1; }
	$(FAULTS_SMOKE_RUN) >$(FAULTS_SMOKE_DIR)/healed.txt 2>$(FAULTS_SMOKE_DIR)/healed_stats.txt
	@cat $(FAULTS_SMOKE_DIR)/healed_stats.txt
	@diff $(FAULTS_SMOKE_DIR)/cold.txt $(FAULTS_SMOKE_DIR)/healed.txt \
	  || { echo 'faults-smoke FAILED: run after a torn store differs from original'; exit 1; }
	@$(call STATS_CHECK,$(FAULTS_SMOKE_DIR)/healed_stats.txt,$(FAULTS_SMOKE_REPLAYED)) \
	  || { echo 'faults-smoke FAILED: the cell after a torn tail was lost from the store'; exit 1; }
	@echo "faults-smoke ok: faulted sweep completed, resumed from the cell store and healed a torn tail"

COMPARE_SMOKE_DIR := /tmp/repro-compare-smoke

## The machine zoo end to end: `repro compare` over two contrasting
## presets x two experiments, run twice without a cache — the
## who-wins/crossover table must be byte-identical across runs and
## every cell served by the analytic tier (0 escalated).
.PHONY: compare-smoke
compare-smoke:
	rm -rf $(COMPARE_SMOKE_DIR) && mkdir -p $(COMPARE_SMOKE_DIR)
	$(PYTHON) -m repro compare --machines fat_numa,gpu_node \
	  --experiments overflow,dgemm --no-cache \
	  >$(COMPARE_SMOKE_DIR)/a.txt 2>$(COMPARE_SMOKE_DIR)/a_stats.txt
	$(PYTHON) -m repro compare --machines fat_numa,gpu_node \
	  --experiments overflow,dgemm --no-cache \
	  >$(COMPARE_SMOKE_DIR)/b.txt 2>$(COMPARE_SMOKE_DIR)/b_stats.txt
	@cat $(COMPARE_SMOKE_DIR)/b_stats.txt
	@diff $(COMPARE_SMOKE_DIR)/a.txt $(COMPARE_SMOKE_DIR)/b.txt \
	  || { echo 'compare-smoke FAILED: two runs rendered different tables'; exit 1; }
	@grep -q "crossovers" $(COMPARE_SMOKE_DIR)/a.txt \
	  || { echo 'compare-smoke FAILED: no crossover section in the table'; exit 1; }
	@$(call STATS_CHECK,$(COMPARE_SMOKE_DIR)/b_stats.txt,s['runner.fast'] > 0 and s['runner.escalated'] == 0) \
	  || { echo 'compare-smoke FAILED: cells escaped the analytic tier'; exit 1; }
	@echo "compare-smoke ok: cross-machine table stable and fully surrogate-served"

EXPLORE_SMOKE_DIR := /tmp/repro-explore-smoke
EXPLORE_SMOKE_RUN := $(PYTHON) -m repro explore --study worst-faults --no-cache
EXPLORE_SMOKE_REPLAYED := s['explore.replayed'] == s['explore.candidates'] and s['runner.cells'] == 0

## The explore loop end to end: two cold runs of one study must print
## byte-identical reports and write byte-identical trajectory
## journals; a third run resumed from the first journal must replay
## every candidate (0 cells run) and report the same best candidate.
.PHONY: explore-smoke
explore-smoke:
	rm -rf $(EXPLORE_SMOKE_DIR) && mkdir -p $(EXPLORE_SMOKE_DIR)
	$(EXPLORE_SMOKE_RUN) --journal $(EXPLORE_SMOKE_DIR)/a.jsonl \
	  >$(EXPLORE_SMOKE_DIR)/a.txt 2>$(EXPLORE_SMOKE_DIR)/a_stats.txt
	$(EXPLORE_SMOKE_RUN) --journal $(EXPLORE_SMOKE_DIR)/b.jsonl \
	  >$(EXPLORE_SMOKE_DIR)/b.txt 2>$(EXPLORE_SMOKE_DIR)/b_stats.txt
	@diff $(EXPLORE_SMOKE_DIR)/a.txt $(EXPLORE_SMOKE_DIR)/b.txt \
	  || { echo 'explore-smoke FAILED: two cold runs printed different reports'; exit 1; }
	@cmp $(EXPLORE_SMOKE_DIR)/a.jsonl $(EXPLORE_SMOKE_DIR)/b.jsonl \
	  || { echo 'explore-smoke FAILED: two cold runs wrote different journals'; exit 1; }
	$(EXPLORE_SMOKE_RUN) --journal $(EXPLORE_SMOKE_DIR)/a.jsonl \
	  >$(EXPLORE_SMOKE_DIR)/resumed.txt 2>$(EXPLORE_SMOKE_DIR)/resumed_stats.txt
	@cat $(EXPLORE_SMOKE_DIR)/resumed_stats.txt
	@$(call STATS_CHECK,$(EXPLORE_SMOKE_DIR)/resumed_stats.txt,$(EXPLORE_SMOKE_REPLAYED)) \
	  || { echo 'explore-smoke FAILED: the resumed run re-ran candidates instead of replaying the journal'; exit 1; }
	@sed -n '/^best/,$$p' $(EXPLORE_SMOKE_DIR)/a.txt >$(EXPLORE_SMOKE_DIR)/a_best.txt
	@sed -n '/^best/,$$p' $(EXPLORE_SMOKE_DIR)/resumed.txt >$(EXPLORE_SMOKE_DIR)/resumed_best.txt
	@test -s $(EXPLORE_SMOKE_DIR)/a_best.txt \
	  || { echo 'explore-smoke FAILED: the cold run reported no best candidate'; exit 1; }
	@diff $(EXPLORE_SMOKE_DIR)/a_best.txt $(EXPLORE_SMOKE_DIR)/resumed_best.txt \
	  || { echo 'explore-smoke FAILED: the resumed run reported a different best candidate'; exit 1; }
	@echo "explore-smoke ok: cold runs byte-identical, resume replayed every candidate to the same best"

SERVE_SMOKE_DIR := /tmp/repro-serve-smoke

## The real `repro serve` process end to end: fig5's full sweep sent
## cold then warm over TCP must return the rows of a direct Runner.run;
## the warm pass must form no batch and execute no cell (cache hits are
## answered on the event loop), and SIGINT must stop the server with
## exit 0.
.PHONY: serve-smoke
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR) && mkdir -p $(SERVE_SMOKE_DIR)
	$(PYTHON) tests/serve_smoke.py $(SERVE_SMOKE_DIR)

SMOKE_CACHE := /tmp/repro-smoke-cache
SMOKE_RUN := $(PYTHON) -m repro all --fast --jobs auto --cache-dir $(SMOKE_CACHE)

## End-to-end run of the whole characterization: two concurrent cold
## passes share one fresh cell store, then a warm pass must replay
## every cell from it (0 executed).  All three print the golden report,
## and the store journals each cell once.
.PHONY: smoke
smoke:
	rm -rf $(SMOKE_CACHE) && mkdir -p $(SMOKE_CACHE)
	$(SMOKE_RUN) >$(SMOKE_CACHE)/cold1.txt 2>$(SMOKE_CACHE)/cold1_stats.txt & \
	  $(SMOKE_RUN) >$(SMOKE_CACHE)/cold2.txt 2>$(SMOKE_CACHE)/cold2_stats.txt; status=$$?; \
	  wait $$! && exit $$status
	$(SMOKE_RUN) >$(SMOKE_CACHE)/warm.txt 2>$(SMOKE_CACHE)/stats.txt
	@cat $(SMOKE_CACHE)/stats.txt
	@for pass in cold1 cold2 warm; do \
	  diff tests/golden/repro_all_fast.txt $(SMOKE_CACHE)/$$pass.txt \
	  || { echo "smoke FAILED: $$pass pass differs from the golden report"; exit 1; }; \
	done
	@$(call STATS_CHECK,$(SMOKE_CACHE)/stats.txt,s['runner.executed'] == 0) \
	  || { echo 'smoke FAILED: warm pass executed cells'; exit 1; }
	@$(PYTHON) -c "import json,sys; k=[json.loads(l)['key'] for l in open('$(SMOKE_CACHE)/cells.jsonl').readlines()[1:]]; print(len(k), 'lines,', len(set(k)), 'keys'); sys.exit(0 if len(k) == len(set(k)) else 1)" \
	  || { echo 'smoke FAILED: a cell is journaled twice'; exit 1; }
	@echo "smoke ok: concurrent cold passes and the warm replay match the golden report"
