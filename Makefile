PYTHON ?= python
export PYTHONPATH := src

# coverage floor (%) for the training fast path and batched runtime
COV_FLOOR ?= 85

.PHONY: test test-fast test-nightly test-cov test-tape test-train \
	test-infer test-embed test-imports test-quantize test-advisor test-ranges test-profiler \
	test-experiments test-assembly bench \
	bench-assembly bench-serve bench-serve-fleet bench-quantized \
	bench-advisor bench-static serve-fleet serve-smoke docs-check \
	lint-dataset

test:
	$(PYTHON) -m pytest tests/ -q

# tier-1 CI slice: everything but the slow sweeps
test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

# nightly depth: full suite (slow sweeps included) + deep hypothesis profile
test-nightly:
	REPRO_HYPOTHESIS_PROFILE=nightly $(PYTHON) -m pytest tests/ -q

# Coverage over the batched training path and runtime; needs pytest-cov
# (`pip install -e .[cov]`). Skips gracefully where pytest-cov is absent.
test-cov:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest tests/ -q \
			--cov=repro.train --cov=repro.runtime \
			--cov-report=term-missing \
			--cov-fail-under=$(COV_FLOOR); \
	else \
		echo "pytest-cov not installed; skipping coverage (pip install -e .[cov])"; \
	fi

# Tape-compiler wall: differential (byte-identity + gradient parity),
# hypothesis properties, and golden-tape regression (see docs/RUNTIME.md).
test-tape:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest \
		tests/runtime/test_tape_differential.py \
		tests/runtime/test_tape_properties.py \
		tests/runtime/test_tape_golden.py -q

# Training wall: the packing and reproducibility suite (tests/train: a
# ragged pack vs its graphs packed one at a time, for MV-GNN, DGCNN,
# Static GNN and both Fig. 8 single-view LSTM models), the golden training
# digest, the finite-difference gradchecks of the adapters' training route
# (tests/train/test_adapter_gradcheck.py, with planted scaled sortpool and
# sigmoid VJPs), of every op (tests/nn/test_tensor.py, with a planted
# perturbed VJP), the LSTM against a numpy oracle (tests/nn/test_rnn.py)
# and the segment ops, the model forwards (tests/models/test_models.py:
# NCC's one-sequence batches against its ragged batch rows), the optimizer
# tests, the bit-exact oracles of the scatter VJPs, CSR pack and Adam, and
# the tape-compiler wall over every graph model (see docs/RUNTIME.md
# "Training fast path").
test-train:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest \
		tests/train/ \
		tests/models/test_models.py \
		tests/nn/test_tensor.py \
		tests/nn/test_rnn.py \
		tests/nn/test_batched_gradcheck.py \
		tests/nn/test_optim.py \
		tests/nn/test_primitive_scatter.py \
		tests/runtime/test_tape_differential.py \
		tests/runtime/test_tape_properties.py \
		tests/runtime/test_tape_golden.py -q

# Inference wall: the tape wall, the folded replay plan against the
# unfused tape (golden fixtures, the BT engine at 1-32 graphs on both
# tiers, random gather programs, planted wrong-alias faults),
# the oracles of the sort-pool and CSR-product kernels, the engine and its
# thread-safety tests, the served hot path (no mode flip per batch,
# executor steps bound at construction, a planted swapped primitive), the
# GR admission gate's pinned findings, and byte-identical serve bodies
# across backends (see docs/RUNTIME.md "Trace-compiled forward").
test-infer:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest \
		tests/runtime/test_tape_differential.py \
		tests/runtime/test_tape_properties.py \
		tests/runtime/test_tape_golden.py \
		tests/runtime/test_folded_plan.py \
		tests/nn/test_kernel_oracles.py \
		tests/runtime/test_engine.py \
		tests/runtime/test_thread_safety.py \
		tests/runtime/test_executor_hot_path.py \
		tests/lint/test_graph_gate_equivalence.py \
		"tests/serve/test_fleet.py::TestBackendParity" -q

# Embedding wall: the inst2vec and anonymous-walk tests, the bit-exact
# oracles of the ordered scatter-add (lockstep positions and accumulated
# tails: tied, equal and dominant group lengths, fewer groups than the
# cut, a planted swapped-update fault), the SGD step with its reused
# scratch pair (full, short, full batches) and the vectorized walk
# sampler, the golden embedding digest with its planted sum-first
# scatter, dataset extraction, and the agreement of extraction and the
# training cache's featurizer (see docs/RUNTIME.md "The training step").
test-embed:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest \
		tests/embeddings/ \
		tests/dataset/test_extraction.py \
		tests/dataset/test_featurizer.py -q

# Cold-start wall: the import budget (``import repro.cli`` loads no
# networkx, scipy, models, trainer, runtime or server; --help and argument
# errors load no numpy) and a --help that exits 0 (see docs/RUNTIME.md
# "Cold start").
test-imports:
	$(PYTHON) -m pytest tests/test_import_budget.py -q
	$(PYTHON) -m repro --help > /dev/null

# Quantized fast-tier wall: differential accuracy wall across the
# architecture/batch-shape matrix, int8-grid hypothesis properties, and
# the serve-layer precision tiering (see docs/RUNTIME.md).
test-quantize:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest \
		tests/runtime/test_quantized_differential.py \
		tests/nn/test_quantize_properties.py \
		tests/serve/test_precision.py -q

# Advisor wall: plan schema + clause ordering, transform round-trips,
# scheduler determinism, the schedule golden digest, the
# sequential-vs-interleaved differential suite, the planted-race
# refutation, AD001, /v1/advise (see docs/ADVISOR.md), and the work
# counters of the loop passes the advisor runs (block sets and
# reductions once per function).
test-advisor:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest tests/advisor/ \
		tests/analysis/test_block_sets_once.py \
		tests/analysis/test_reductions_once.py -q

# Value-range wall: interval-domain unit tests, fixpoint/soundness
# checks over the bundled apps, the array-summary schedule, the golden
# range digest, the shared per-program analysis, the range-sharpened
# prover suite, the IR004-IR006 corruption rows (see docs/LINT.md), and
# the verifier's dominators against the set-intersection reference.
test-ranges:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest \
		tests/analysis/test_ranges.py \
		tests/analysis/test_ranges_golden.py \
		tests/ir/test_dominators.py \
		tests/lint/test_shared_analysis.py \
		tests/lint/test_static_dep.py \
		tests/lint/test_corruption_matrix.py -q

# Profiler wall: the golden profile digest (dependences, loop stats,
# exec counts, arrays, faults and probe calls of every bundled program
# under all six pipelines, recording on and off) plus the interpreter,
# shadow-memory and static-profile unit tests, and the interpreter's
# threads (yield points, faults and the step budget inside a thread)
# (see docs/ARCHITECTURE.md).
test-profiler:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest tests/profiler/ -q

# Experiment drivers wall: Table III, Fig. 7 and Fig. 8 each computed by
# one repro.experiments driver, run on the tiny dataset with a cut-down
# training budget: row fields, majority priors equal to the split's label
# share, two seeds giving two rows per cell, one seed equal to a plain
# call, each model trained once per context, and a constant
# majority-class predictor failing the Table III prior gate.
test-experiments:
	$(PYTHON) -m pytest tests/experiments/ -q

# Assembly wall: a cold assembly computes each program's facts once (one
# O0 lowering, one Pluto and one AutoPar vote per distinct program of
# the tiny configuration; shared lowerings left unchanged; a 2-worker
# pool gives the serial fingerprints), the dependence index of a profile
# against brute-force scans of its table (carried symbols at minimum
# counts 1 and 2, Table I counts, CFL DAG adjacency order, DiscoPoP
# verdicts and reasons, a planted dropped dependence, no stale slice
# after an edit), the rest of the dataset suite and the tool baselines
# (see docs/ARCHITECTURE.md "Once per program, once per profile").  DS005
# hashes each program once, and each pipeline application makes one copy
# of its program that its passes rewrite in place: the pass unit tests,
# the pipeline property tests (every pipeline preserves semantics) and the
# per-pass verification and its failure attribution run here too.
test-assembly:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest \
		tests/dataset/ \
		tests/tools/ \
		tests/profiler/test_dep_index.py \
		tests/ir/test_passes.py \
		tests/ir/test_passes_property.py \
		tests/ir/test_pipeline_verify.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-assembly:
	$(PYTHON) -m pytest benchmarks/bench_assembly_throughput.py --benchmark-only -q

# Micro-batched vs batch-size-1 serving throughput + open-loop deadline
# check. QUICK=1 runs the small ungated CI variant.
bench-serve:
ifdef QUICK
	$(PYTHON) benchmarks/bench_serve_latency.py --quick
else
	$(PYTHON) -m pytest benchmarks/bench_serve_latency.py --benchmark-only -q
endif

# Worker-pool scaling: InferenceService at fleet_workers 1/2/4 (1 = the
# in-process backend), content-hash shard routing, open-loop deadline
# check.  The near-linear scaling floor only gates on hosts with >= 4
# cores; QUICK=1 runs the small ungated CI variant.
bench-serve-fleet:
ifdef QUICK
	$(PYTHON) benchmarks/bench_serve_latency.py --fleet --quick
else
	$(PYTHON) benchmarks/bench_serve_latency.py --fleet
endif

# Fast-vs-exact inference throughput at batch 32 over a realistic-size
# pool, with the differential accuracy gate.  The >= 1.3x speedup floor
# only gates full runs; QUICK=1 runs the small ungated CI variant.
bench-quantized:
ifdef QUICK
	$(PYTHON) benchmarks/bench_quantized_inference.py --quick
else
	$(PYTHON) benchmarks/bench_quantized_inference.py
endif

# Advisor pipeline: plan building + simulated-interleaving validation
# over the tiny roster, gated on the known-answer self-check (a planted
# race the scheduler must refute).  QUICK=1 runs T=2 with one seed.
bench-advisor:
ifdef QUICK
	$(PYTHON) benchmarks/bench_advisor.py --quick
else
	$(PYTHON) benchmarks/bench_advisor.py
endif

# Range-sharpened static prover vs the classic prover over the tiny
# roster: the sharpened pass must settle strictly more loops, agree with
# the dynamic oracle on every settled verdict, and pass the interpreter
# soundness probe.  QUICK=1 runs one soundness seed per program.
bench-static:
ifdef QUICK
	$(PYTHON) benchmarks/bench_static_analysis.py --quick
else
	$(PYTHON) benchmarks/bench_static_analysis.py
endif

# Run a local 4-worker serving fleet (supervisor + sharded engine
# workers; see docs/OPERATIONS.md for the runbook).
serve-fleet:
	$(PYTHON) -m repro serve --app fib --epochs 0 --port 8100 --workers 4

# End-to-end serving smoke: subprocess server, concurrent HTTP clients,
# /metrics conservation, SIGTERM -> 130.
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py

docs-check:
	$(PYTHON) -m pytest tests/docs/ -q

# Static consistency analyzer over the tiny dataset configuration
# (see docs/LINT.md). --strict fails the build on WARNING findings too;
# --quick keeps it inside the CI budget.
lint-dataset:
	$(PYTHON) -m repro lint --tiny --strict --quick
