# Developer entry points. `make verify` is the full pre-merge gate.

CARGO ?= cargo

.PHONY: build test bench-pairs benchmark-check clippy determinism \
	golden smoke-faults smoke-trace smoke-crash smoke-dist fmt docs-check \
	api-check verify repro loc

# --workspace matters: the root Cargo.toml is a package, so a bare
# `cargo build` would skip member binaries (repro, spotdc-trace) that
# the smoke scripts below invoke straight out of target/release.
build:
	$(CARGO) build --release --workspace

# --workspace here too: a bare `cargo test` runs only the root
# package's tests, skipping every crate's unit and property suites.
test:
	$(CARGO) test -q --workspace

# One workspace-wide gate over every target (libs, bins, tests,
# examples): nothing per-crate to forget, nothing --lib-only misses.
clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Byte-identical output at 1 vs 4 workers — the parallel layer's anchor —
# plus fault-seed determinism and the per-slot invariant checker.
determinism:
	$(CARGO) test -p spotdc-sim --test determinism

# Refactor guard: SimReport for all three modes at seed 42 must match
# the checked-in snapshots byte for byte, the hyperscale, per-PDU and
# armed paths their pinned digests, and the release `repro --quick`
# stdout every figure's numbers (tests/golden/; GOLDEN_REGEN=1
# rewrites all three).
golden: build
	$(CARGO) test -p spotdc --test golden_report --test golden_paths
	scripts/golden_repro

# Fault-injection smoke run: the full robustness sweep with the release
# invariant checker forced on. Any Eq. 1–4 violation fails the run.
smoke-faults: build
	$(CARGO) run -p spotdc-bench --bin repro --release -- \
		--exp robustness --validate --quick --quiet

# Observability smoke run: quick faulted sweeps with a telemetry log,
# then spotdc-trace must name the simulation each emergency tripped in,
# time all nine pipeline stages, read utilization <= 1 for every
# experiment, and render deterministically.
smoke-trace: build
	scripts/smoke_trace

# Kill-and-recover chaos run: seeded SIGKILLs plus torn/corrupt journal
# injections; every resumed run's stdout must be byte-identical to an
# uninterrupted golden run, in all three modes.
smoke-crash: build
	scripts/crash_harness

# Distributed clearing smoke: runs at shards {2, 4} must be
# byte-identical to the serial run in every mode, and a sharded run's
# trace must show one frame per shard per direction per slot, with the
# handshakes tallied apart.
smoke-dist: build
	scripts/smoke_dist

fmt:
	$(CARGO) fmt --check

# Every `make <target>`, script, path and `Type::item` the documents
# mention must exist, and every ROADMAP citation must name a current
# item, so deleting or renumbering fails here until the mentions follow.
docs-check:
	scripts/doc_refs

# Every public item in the crates' non-test code must be named by some
# other line of Rust in the repository (a caller, a test, an example or
# benchmark/): a callerless item fails here until it goes (ROADMAP 7).
api-check:
	scripts/pub_callers

# The A/B behind every performance claim: BENCHMARK.json's command on
# the working tree against BASE, in alternating pairs, reporting both
# medians with quartiles, wins / pairs and the gate's within / WORSE
# verdict against the metric's bound per end-to-end metric (see
# scripts/bench_pairs). `make bench-pairs BASE=HEAD WORKLOADS=clear-replay`
# measures uncommitted work on one workload.
BASE ?= HEAD~1
PAIRS ?= 10
SEED ?= 42
WORKLOADS ?= testbed-modes armed-3k perpdu-15k sharded-15k clear-replay
bench-pairs:
	scripts/bench_pairs -b $(BASE) -n $(PAIRS) -s $(SEED) $(WORKLOADS)

# The line counts ROADMAP.md tracks and every simplicity PR quotes —
# per-file total and non-test lines, all Rust under crates/ and
# benchmark/ — for the working tree beside BASE, with the deltas.
loc:
	scripts/loc -b $(BASE)

# The BENCHMARK.json gate builds `benchmark/` (a standalone package
# with path dependencies on crates/*, outside this workspace) from the
# checkout and runs it; a crate API change that stops it compiling, or
# breaks one of its smoke-size workloads, must fail here first.
benchmark-check:
	$(CARGO) build --release --offline --manifest-path benchmark/Cargo.toml
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml

repro:
	$(CARGO) run -p spotdc-bench --bin repro --release -- --quick \
		--out repro-results --telemetry repro-results/telemetry.jsonl

verify: build test golden determinism clippy benchmark-check smoke-faults smoke-trace smoke-crash smoke-dist docs-check api-check fmt
