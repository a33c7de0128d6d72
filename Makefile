# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench perf trend check ci clean

all: build

build:
	dune build

test:
	dune runtest

# Perf-regression harness: writes BENCH_<n>.json in the repo root.
bench:
	dune exec bench/regress.exe

# Bechamel micro-benchmarks (finer-grained, no JSON output).
perf:
	dune exec bench/main.exe -- perf

# Perf-trend ledger: walk every committed BENCH_<n>.json (globbed in
# index order) and flag silent normalized drifts.
trend:
	dune exec bench/regress.exe -- --trend

# Tier-1 gate: full build, benches compile, tests pass.
check:
	dune build
	dune build @bench
	dune runtest

# check + perf smoke: fail if any kernel regresses >2x vs the committed
# baseline, then a `spatialdb report` smoke query whose JSON must
# validate (schema, trace events, plan + cost attribution with every
# executed node's actual/predicted ratio finite, finite diagnostics),
# then a cost-model smoke: `spatialdb explain` of the Figure 1
# triangle plus a short progressed sample run, with the plan JSON
# schema-validated, then an observability smoke: a
# recorded sample run with structured logging and a Prometheus
# snapshot, both validated, and the flight record replayed
# bit-for-bit.  A second recorded run drives the batched multi-chain
# kernel (`--diag --chains 4`) through its own record -> replay round
# trip.  Then the engine-name smoke: an interpreter-recorded union run
# is replayed under `--engine vm`, which must reproduce the recorded
# sample stream bit-for-bit, and a `--engine vm-opt` run (rewritten
# plan, so a different stream by design) goes through its own record
# -> replay round trip; a `spatialdb report --engine vm-opt` whose
# tagged attribution rows must validate; and `regress --trend` over the
# committed BENCH trajectory.
# Then the observability-context smoke: the same union query run as 2
# concurrent jobs on separate domains (each in its own context) and
# again sequentially; the merged telemetry counters of the two runs
# must be identical (context merging loses nothing), the published
# status document must validate with >= 2 contexts showing
# draws, `spatialdb status` must render it, and a contexted
# (`--status-out`) recorded run must still replay bit-for-bit.
# Finally the accuracy-contract smoke: `spatialdb audit` of the
# Figure 1 union against the exact oracle (40 replicates over 2
# domains; `--walk-steps 60`, the d = 2 default schedule, keeps the
# leaves' DFK estimates and the union's Karp-Luby acceptance loop,
# which the plan would otherwise replace by the oracle's own exact
# volume), its audit document validated and gated against
# the committed AUDIT_1.json ledger (same fingerprint, contract still
# met), a fault-injected audit (`--phase-samples 5` starves the DFK
# leaf estimates, which the plan then keeps instead of exact leaf
# volumes) that must FAIL with exit 1, and a domains-vs-seq audit
# differential (also sampled under `--walk-steps 60`): the two
# documents must be byte-identical and their
# merged telemetry counters exactly equal.
# Every document is checked by the one validator, `bench/validate.exe`
# (subcommands report, plan, logs, status, audit).  Throwaway
# artifacts go to _build/.
ci: check
	dune exec bench/regress.exe -- --fast -o _build/BENCH_ci.json --check BENCH_1.json
	dune exec bin/spatialdb.exe -- report --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 \
	  -o _build/report_smoke.json
	dune exec bench/validate.exe -- report _build/report_smoke.json --require-converged
	dune exec bin/spatialdb.exe -- explain --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" \
	  --format json > _build/plan_smoke.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 -n 3 \
	  --progress > /dev/null
	dune exec bench/validate.exe -- plan _build/plan_smoke.json
	dune exec bin/spatialdb.exe -- explain --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --task volume --format json > _build/plan_union_volume.json
	dune exec bench/validate.exe -- plan _build/plan_union_volume.json
	grep -q '"op": "union", "dim": 2, "volume": "exact"' _build/plan_union_volume.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 -n 5 \
	  --log-level debug --log-out _build/ci_log.jsonl \
	  --metrics-out _build/ci_metrics.prom \
	  --record _build/ci.flightrec.json > _build/ci_samples.tsv
	dune exec bench/validate.exe -- logs --log _build/ci_log.jsonl \
	  --metrics _build/ci_metrics.prom
	dune exec bin/spatialdb.exe -- replay _build/ci.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 -n 5 \
	  --diag --chains 4 \
	  --record _build/ci_batch.flightrec.json > _build/ci_batch_samples.tsv
	dune exec bin/spatialdb.exe -- replay _build/ci_batch.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 \
	  --record _build/ci_union.flightrec.json > _build/ci_union_samples.tsv
	dune exec bin/spatialdb.exe -- replay --engine vm _build/ci_union.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 --engine vm-opt \
	  --record _build/ci_vmopt.flightrec.json > _build/ci_vmopt_samples.tsv
	dune exec bin/spatialdb.exe -- replay _build/ci_vmopt.flightrec.json
	dune exec bin/spatialdb.exe -- report --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --engine vm-opt -o _build/report_vmopt.json
	dune exec bench/validate.exe -- report _build/report_vmopt.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --jobs 2 --jobs-mode domains --live \
	  --stats-out _build/ci_jobs_par.json \
	  --status-out _build/ci_status.json > _build/ci_jobs_par.tsv 2> /dev/null
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --jobs 2 --jobs-mode seq \
	  --stats-out _build/ci_jobs_seq.json > _build/ci_jobs_seq.tsv
	cmp _build/ci_jobs_par.tsv _build/ci_jobs_seq.tsv
	dune exec bench/validate.exe -- status \
	  _build/ci_status.json --min-contexts 2 \
	  --compare-counters _build/ci_jobs_par.json _build/ci_jobs_seq.json
	dune exec bin/spatialdb.exe -- status _build/ci_status.json --require 2
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 --status-out _build/ci_ctx_status.json \
	  --record _build/ci_ctx.flightrec.json > /dev/null
	dune exec bin/spatialdb.exe -- replay _build/ci_ctx.flightrec.json
	dune exec bench/regress.exe -- --trend
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 40 --jobs 2 --oracle exact --walk-steps 60 \
	  --out _build/audit_ci.json > /dev/null
	dune exec bench/validate.exe -- audit _build/audit_ci.json \
	  --check AUDIT_1.json
	status=0; dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --phase-samples 5 --oracle exact > /dev/null || status=$$?; \
	  test $$status -eq 1
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 6 --jobs 2 --jobs-mode domains --oracle exact --walk-steps 60 \
	  --stats-out _build/ci_audit_par.json \
	  --out _build/ci_audit_par_doc.json > /dev/null
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 6 --jobs 2 --jobs-mode seq --oracle exact --walk-steps 60 \
	  --stats-out _build/ci_audit_seq.json \
	  --out _build/ci_audit_seq_doc.json > /dev/null
	cmp _build/ci_audit_par_doc.json _build/ci_audit_seq_doc.json
	dune exec bench/validate.exe -- status \
	  --compare-counters _build/ci_audit_par.json _build/ci_audit_seq.json

clean:
	dune clean
	rm -f *.flightrec.json
