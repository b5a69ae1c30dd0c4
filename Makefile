# Developer entry points.  PYTHONPATH is injected so no editable
# install is required (the image has no network for pip).

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: verify verify-full ci ci-numpy ci-no-numpy ci-smoke ci-store-smoke ci-corpus-smoke bench

# Tier-1: the fast suite (pytest.ini excludes `slow`-marked tests).
verify:
	$(PYTEST) -x -q

# Everything, including multi-process `slow` tests; the -m expression
# overrides the pytest.ini filter.
verify-full:
	$(PYTEST) -q -m "slow or not slow"

# The one CI script: .github/workflows/ci.yml runs `make ci-numpy` on
# its numpy legs and `make ci-no-numpy` on the others; `make ci` runs
# both here (the no-numpy leg blocks numpy with a shim module).
#
# ci-smoke drives the real CLI on whatever interpreter path
# SMOKE_PATH names: the capability matrix, one downsized
# registry-driven experiment (E20) with worker fan-out, the churn
# smoke (a downsized E21 through the dynamic-graph flags), the serve
# smoke (a live `repro serve` daemon on a small grid answering a
# concurrent query stream, every answer verified bit-identical to the
# batch path and every shared-memory segment verified unlinked on
# shutdown — once with the serving defaults, once pinned to an
# explicit coalescing window with a small batch-max so the batch-max
# flush path runs, and once with a zero window, which dispatches
# without waiting through the same dispatcher), the trial-store smoke
# (sqlite cold fill, warm replay with identical output and exact
# hit/miss tallies, stat, a verified migration back to json-files),
# run once at --jobs 1 and once at --jobs 2, and the store-agnostic
# tier-1 subset with sqlite as the process default.
#
# ci-numpy adds the tier-1 suite, the corpus-cache smoke (cold fill,
# warm replay with identical output and exact hit/miss tallies,
# verify), run once at --jobs 1 and once at --jobs 2 so the tally
# also covers lookups made in worker processes, and the fallback
# identity check: `repro run E1,E3 --quick` prints byte-identical
# output on the fast kernels and with numpy import-blocked (the
# serial kernels the trial layer falls back to).
#
# ci-no-numpy runs the tier-1 suite and ci-smoke with numpy
# import-blocked, exercising every stdlib fallback.
NO_NUMPY = .ci-no-numpy
NUMPY_SHIM = mkdir -p $(NO_NUMPY) && printf 'raise ImportError("numpy disabled for the no-numpy CI leg")\n' > $(NO_NUMPY)/numpy.py
SMOKE_PATH = src
REPRO = PYTHONPATH=$(SMOKE_PATH) python -m repro
STORE_SMOKE = $(REPRO) run E17 --quick --set sizes=60,120 --set num_graphs=2 --cache-dir .ci-store --store-backend sqlite
STORE_JOBS = 1
CORPUS_SMOKE = PYTHONPATH=src python -m repro run E17 --quick --set sizes=60,120 --set num_graphs=2 --corpus-dir .ci-corpus
CORPUS_JOBS = 1

ci: ci-numpy ci-no-numpy

ci-numpy:
	$(PYTEST) -x -q
	$(MAKE) --no-print-directory ci-smoke
	$(MAKE) --no-print-directory ci-corpus-smoke CORPUS_JOBS=1
	$(MAKE) --no-print-directory ci-corpus-smoke CORPUS_JOBS=2
	@$(NUMPY_SHIM)
	PYTHONPATH=src python -m repro run E1,E3 --quick > .ci-fast.log
	PYTHONPATH=$(NO_NUMPY):src python -m repro run E1,E3 --quick > .ci-serial.log
	cmp .ci-fast.log .ci-serial.log
	rm -rf $(NO_NUMPY) .ci-fast.log .ci-serial.log

ci-corpus-smoke:
	rm -rf .ci-corpus
	$(CORPUS_SMOKE) --jobs $(CORPUS_JOBS) | tee .ci-corpus-cold.log
	grep -q "corpus: 0 hits, 4 misses" .ci-corpus-cold.log
	$(CORPUS_SMOKE) --jobs $(CORPUS_JOBS) | tee .ci-corpus-warm.log
	grep -q "corpus: 4 hits, 0 misses" .ci-corpus-warm.log
	grep -v "^corpus:" .ci-corpus-cold.log > .ci-corpus-cold.trimmed
	grep -v "^corpus:" .ci-corpus-warm.log > .ci-corpus-warm.trimmed
	diff .ci-corpus-cold.trimmed .ci-corpus-warm.trimmed
	PYTHONPATH=src python -m repro corpus verify .ci-corpus
	rm -rf .ci-corpus .ci-corpus-cold.log .ci-corpus-warm.log .ci-corpus-cold.trimmed .ci-corpus-warm.trimmed

ci-no-numpy:
	@$(NUMPY_SHIM)
	PYTHONPATH=$(NO_NUMPY):src python -m pytest -x -q && \
		$(MAKE) --no-print-directory ci-smoke SMOKE_PATH=$(NO_NUMPY):src; \
		status=$$?; rm -rf $(NO_NUMPY); exit $$status

ci-smoke:
	$(REPRO) list
	$(REPRO) run E20 --quick --jobs 2
	$(REPRO) run E21 --quick --churn-rate 0.1 --churn-bias degree --resnapshot-every 5
	$(REPRO) serve --sizes 120 --seeds 3 --smoke
	$(REPRO) serve --sizes 120 --seeds 3 --batch-window 5 --batch-max 8 --smoke
	$(REPRO) serve --sizes 120 --seeds 3 --batch-window 0 --smoke
	$(MAKE) --no-print-directory ci-store-smoke STORE_JOBS=1 SMOKE_PATH=$(SMOKE_PATH)
	$(MAKE) --no-print-directory ci-store-smoke STORE_JOBS=2 SMOKE_PATH=$(SMOKE_PATH)
	PYTHONPATH=$(SMOKE_PATH) REPRO_STORE_BACKEND=sqlite python -m pytest -x -q tests/test_store_backends.py tests/test_result_store.py tests/test_runner.py tests/test_registry.py

ci-store-smoke:
	rm -rf .ci-store
	$(STORE_SMOKE) --jobs $(STORE_JOBS) | tee .ci-store-cold.log
	grep -q "store: 0 hits, 4 misses" .ci-store-cold.log
	$(STORE_SMOKE) --jobs $(STORE_JOBS) | tee .ci-store-warm.log
	grep -q "store: 4 hits, 0 misses" .ci-store-warm.log
	grep -v "^store:" .ci-store-cold.log > .ci-store-cold.trimmed
	grep -v "^store:" .ci-store-warm.log > .ci-store-warm.trimmed
	diff .ci-store-cold.trimmed .ci-store-warm.trimmed
	$(REPRO) store stat .ci-store
	$(REPRO) store migrate .ci-store --from sqlite --to json-files
	rm -rf .ci-store .ci-store-cold.log .ci-store-warm.log .ci-store-cold.trimmed .ci-store-warm.trimmed

# Paper-scale benchmark harness.  REPRO_BENCH_JOBS fans trials out
# over worker processes; REPRO_BENCH_CACHE_DIR replays finished trials.
bench:
	$(PYTEST) -q -s benchmarks/bench_e1_mori_weak.py \
		benchmarks/bench_e2_mori_strong.py \
		benchmarks/bench_e3_cooper_frieze.py \
		benchmarks/bench_e6_degree_distribution.py \
		benchmarks/bench_e17_simulation.py \
		benchmarks/bench_e20_cross_model.py
