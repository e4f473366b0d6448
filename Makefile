# Convenience entry points; everything runs with the src layout on PYTHONPATH.

PY := PYTHONPATH=src python

.PHONY: test test-no-cc check lint typecheck bench-smoke serve-smoke bench-service \
	incremental-smoke bench-incremental shard-smoke bench-sharded obs-smoke \
	bench-obs store-smoke bench-store

test:
	$(PY) -m pytest -x -q

# The pure-Python twins of every native kernel entry point, run as on a
# box without a C compiler: PATH holds only the interpreter's own bin
# directory (no cc) and the kernel cache is a fresh empty directory, so
# the kernel cannot load and every solve runs the twins.
TWIN_TESTS := tests/test_golden_solve.py tests/test_golden_seed.py \
	tests/test_vectorized_twins.py tests/test_native_kernel.py \
	tests/test_wire_packed.py tests/test_degree_choosable.py \
	tests/test_oracles.py tests/test_phase_resume.py \
	tests/test_round_identities.py tests/test_dcc.py \
	tests/test_golden_update_stream.py tests/test_update_ladder.py \
	tests/test_small_components.py tests/test_ruling_sets.py \
	tests/test_list_coloring.py tests/test_linial.py tests/test_happiness.py

test-no-cc:
	@bin=$$(dirname "$$(python -c 'import sys; print(sys.executable)')"); \
	cache=$$(mktemp -d); \
	PATH="$$bin" XDG_CACHE_HOME="$$cache" PYTHONPATH=src "$$bin/python" -c \
		"import sys; from repro import native; s = native.kernel_status(); print(s.describe()); sys.exit(bool(s.functions))" \
	&& PATH="$$bin" XDG_CACHE_HOME="$$cache" PYTHONPATH=src "$$bin/python" -m pytest -q \
		-p no:cacheprovider $(TWIN_TESTS); \
	status=$$?; rm -rf "$$cache"; exit $$status

# What CI runs: the tier-1 suite, the bench-rot smoke pass, the service
# smoke (boot the TCP server, fire 50 mixed requests through
# ColoringClient, assert validity + cache hits + load shedding), the
# incremental smoke (single-edge update vs fresh solve at n=32768: >= 10x,
# digest-chained, validity-asserted), the shard smoke (2-shard cluster
# bring-up, routed solve/update/stats, a worker killed and restarted
# mid-load, the 2-shard throughput floor),
# the observability smoke (traced 2-shard fleet: every request must
# reassemble into one connected router-to-solver-phase span tree from
# the per-process JSONL exports, and the sampling-off tracing tax must
# stay under 2%), and the store smoke (2-shard fleet with --store-dir
# populated, SIGKILLed, restarted on the same directory: >= 90% warm
# hits, bit-identical digests, every WAL chain replayed, bounded
# restart-to-warm time), so the solver facade, the bench harness, the
# serving layer, the update path, the scale-out tier, the
# instrumentation and the durable storage layer cannot rot
# independently.  Speed is gated apart from this, by an A/B run against
# the base commit: python scripts/ab.py --base REV --out PATH (the CI
# `ab` job).
check: test bench-smoke serve-smoke incremental-smoke shard-smoke obs-smoke store-smoke

# Style + invariant gate.  Two layers: ruff (generic defect rules; CI
# installs a pinned version, locally it is skipped if absent) and
# reprolint, the repo-specific AST linter (src/repro/devtools) that
# enforces what ruff cannot see — see docs/DEVTOOLS.md.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks scripts; \
	else \
		echo "ruff not installed; skipping (CI runs it pinned)"; \
	fi
	$(PY) -m repro lint src scripts benchmarks tests

# Type gate: mypy over the strict surfaces (storage, obs, sharding; see
# [tool.mypy] in pyproject.toml).  Skipped locally if mypy is absent —
# CI installs a pinned version.
typecheck:
	@if python -c "import mypy" >/dev/null 2>&1; then \
		MYPYPATH=src python -m mypy -p repro.service.storage -p repro.obs -p repro.service.sharding; \
	else \
		echo "mypy not installed; skipping (CI runs it pinned)"; \
	fi

# Service smoke: real server + client over localhost TCP.
serve-smoke:
	$(PY) benchmarks/bench_s1_service.py --smoke

# Incremental smoke: the update verb's acceptance gate (engine + TCP +
# sustained stream).  scripts/ab.py compares its update_ms and sustained
# ops/sec with the base commit's.
incremental-smoke:
	$(PY) benchmarks/bench_s2_incremental.py --smoke

# The incremental bench with its wire check at n=4096.
bench-incremental:
	$(PY) benchmarks/bench_s2_incremental.py

# Sharded-service smoke: real 2-shard fleet (child processes) behind the
# consistent-hash router — routed solve/update/stats asserted
# bit-identical and chain-local, one shard SIGKILLed and restarted
# mid-load — and the throughput floor (2-shard >= 1.5x single-process,
# skipped on boxes with < 2 CPUs).
shard-smoke:
	$(PY) benchmarks/bench_s3_sharded.py --smoke

# Full sharded load test: offered-vs-achieved QPS at 1/2/4 shards.
bench-sharded:
	$(PY) benchmarks/bench_s3_sharded.py

# Observability smoke: a traced 2-shard fleet must produce complete
# cross-tier traces (router.request -> router.forward -> server.request
# -> gateway.* -> solver.*) reassembled from per-process JSONL exports,
# the metrics verb must serve the merged fleet view, and the
# sampling-off overhead on the cached hot path must stay under
# REPRO_OBS_MAX_OVERHEAD_PCT (default 2%).  Spans land in
# benchmarks/results/obs_traces/ (the CI trace artifact); inspect them
# with `python -m repro trace benchmarks/results/obs_traces`.
obs-smoke:
	$(PY) benchmarks/bench_s4_obs.py --smoke

# Full observability run (more solves, longer chains, bigger A/B batches).
bench-obs:
	$(PY) benchmarks/bench_s4_obs.py

# Durable-store smoke: populate a 2-shard fleet started with
# --store-dir, SIGKILL every worker, restart on the same directory —
# the restarted fleet must serve the populated keyspace warm (>= 90%
# cached, bit-identical content digests), replay every WAL chain, and
# boot within the cold-boot + replay budget.  The store directory
# itself (benchmarks/results/s5_store_dir/) is the failure artifact;
# see docs/STORAGE.md for the on-disk layout.
store-smoke:
	$(PY) benchmarks/bench_s5_store.py --smoke

# Full durable-store run (bigger keyspace, longer chains).
bench-store:
	$(PY) benchmarks/bench_s5_store.py

# Full serving-layer load test (open-loop traffic; JSON in benchmarks/results/).
bench-service:
	$(PY) benchmarks/bench_s1_service.py --rate 100 --requests 300

# CI rot check: every benchmarks/bench_e*.py at its single smallest size.
bench-smoke:
	$(PY) -m repro bench --smoke
