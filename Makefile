.PHONY: all build test check lint-compare doc clean

all: build

build:
	dune build

test:
	dune runtest

# Polymorphic compare in sorts and polymorphic Hashtbl.hash are banned
# from the solver hot path (lib/flow, lib/hire, the priority-queue
# modules of lib/prelude and the lib/topology queries they pull in):
# they walk values structurally and allocate.  Use Int.compare /
# Float.compare / String.compare and Prelude.Int_tbl instead
# (docs/PERFORMANCE.md).  lib/hire/flow_network.ml must also not call
# the Sharing accessors that copy or sort (supported_services,
# active_services, Sharing.available, Sharing.capacity): it prices
# switches through Sharing.iter_supporting, live_available,
# live_capacity, n_active and n_supported.  Nor may it call
# Resource.utilization: Cost_model.ms_to_k and mn_to_k read the server
# and switch ledgers in place instead of building a utilization vector.
# In lib/flow/mcmf.ml, the SSP Dijkstra and the zero-length search
# before it (from `let dijkstra` up to `let solve`)
# and `decompose` (to the end of the file) must not call Graph.iter_out
# or Graph.fold_out: they walk the forward chains and the live twins
# through Graph.Raw, without a closure and without visiting
# zero-capacity twins.  The shortcut
# section of lib/hire/flow_network.ml (from `let push_shortcut` up to
# `(* Build`) must not call Array.sort, List.sort, Array.of_list,
# Array.to_list or List.mem: a group's candidates live in the builder's
# reused int buffers and are ordered by Prelude.Cost_sort.
# The body of Sharing.iter_supporting (lib/hire/sharing.ml) must not
# call Hashtbl.mem: it walks the service's cached array of capable
# switches instead of asking every switch's capability table.  And
# lib/hire/flow_network.ml must not mention Aux_inc or big_arcs: the
# builder creates only the nodes a shortcut can reach, not the INC
# shadow copy of the topology or the switch-switch arcs
# (docs/PERFORMANCE.md, "Only reachable nodes").  In the same file,
# only the memo lookup `shared_loc_ctx` may call `loc_ctx`, and only
# `loc_ctx` may call Locality.Gain.compute or Locality.upsilon: a
# group's locality context is staged once per related set and shared
# (docs/PERFORMANCE.md, "Shared locality context").  In
# lib/flow/mcmf.ml, `s.gen <- s.gen + 1` appears exactly once: one
# search generation per augmentation, as a Dijkstra resumes the
# zero-length search that missed instead of starting a new one; and
# the body of `zero_path` must not mention Heap.Int_pair: every key of
# that search is 0, so its frontier is a heap of node ids in the
# scratch (docs/PERFORMANCE.md, "Zero-length augmenting paths").
# lib/flow/mcmf.ml defines exactly one `let dijkstra` function, and
# nothing in lib/ or bin/ mentions Classic, Bucket_queue, cost_ub or
# flow.queue: the SSP has one search path, the zero-length search and
# the heap Dijkstra that resumes it; the full-settle reference SSP lives
# in test/ssp_reference.ml.  Nothing in lib/flow or lib/hire mentions
# set_flow_tracking, reset_touched, record_touch or reopt: a patched
# build undoes the last solve's flow with the one full sweep,
# Graph.reset_flows (docs/PERFORMANCE.md, "The sparse reset (deleted)").
# In bin/, the experiment-cell flags (--mtbf, --mttr, --max-retries,
# --faults, --inc-capable, --util, --horizon, --solver-budget,
# --solver-steps, --guard, --setup, --mu) are each named in one
# `info [` only, and `Faults.Plan.default_config with`, the scheduler
# check ("unknown scheduler %S") and the setup parser ("unknown setup
# %S") appear once: hire_sim, hire_sweep and hire_service take them all
# from bin/cell_flags.ml, which turns them into an Experiment.spec.
lint-compare:
	@! grep -rnE '(List\.sort|List\.sort_uniq|Array\.sort)[ (]+compare' lib/flow lib/hire lib/prelude lib/topology \
		|| { echo "lint-compare: FAIL (polymorphic compare in a sort above)"; exit 1; }
	@! { grep -rn 'Hashtbl\.hash' lib/flow lib/hire lib/prelude lib/topology | grep -v '\[Hashtbl\.hash\]'; } \
		|| { echo "lint-compare: FAIL (polymorphic Hashtbl.hash above)"; exit 1; }
	@! grep -nE '(supported_services|active_services|Sharing\.available|Sharing\.capacity)\b' lib/hire/flow_network.ml \
		|| { echo "lint-compare: FAIL (copying or sorting Sharing accessor in flow_network.ml above)"; exit 1; }
	@! grep -nE 'Resource\.utilization\b' lib/hire/flow_network.ml \
		|| { echo "lint-compare: FAIL (utilization vector in flow_network.ml above)"; exit 1; }
	@! { sed -n '/^let dijkstra/,/^let solve/p;/^let decompose/,$$p' lib/flow/mcmf.ml \
		| grep -nE 'Graph\.(iter_out|fold_out)'; } \
		|| { echo "lint-compare: FAIL (full residual scan in the fast SSP or decompose above)"; exit 1; }
	@! { sed -n '/^let push_shortcut/,/^(\* Build/p' lib/hire/flow_network.ml \
		| grep -nE '(Array\.sort|List\.sort|Array\.of_list|Array\.to_list|List\.mem)\b'; } \
		|| { echo "lint-compare: FAIL (allocating list/array call in shortcut selection above)"; exit 1; }
	@! { sed -n '/^let iter_supporting/,/^let /p' lib/hire/sharing.ml | grep -n 'Hashtbl\.mem'; } \
		|| { echo "lint-compare: FAIL (per-switch capability lookup in Sharing.iter_supporting above)"; exit 1; }
	@! grep -nE 'Aux_inc|big_arcs' lib/hire/flow_network.ml \
		|| { echo "lint-compare: FAIL (unreachable topology part in flow_network.ml above)"; exit 1; }
	@! { awk '/^let /{ d = ($$2 == "rec" ? $$3 : $$2) } d != "loc_ctx" && d != "shared_loc_ctx"' \
		lib/hire/flow_network.ml | grep -nE '\bloc_ctx +[a-z(~]'; } \
		|| { echo "lint-compare: FAIL (locality context computed outside the memo lookup above)"; exit 1; }
	@! { awk '/^let /{ d = ($$2 == "rec" ? $$3 : $$2) } d != "loc_ctx"' lib/hire/flow_network.ml \
		| grep -nE 'Locality\.(Gain\.compute|upsilon)\b'; } \
		|| { echo "lint-compare: FAIL (Υ or Γ staged outside loc_ctx above)"; exit 1; }
	@test "$$(grep -c 's\.gen <- s\.gen + 1' lib/flow/mcmf.ml)" -eq 1 \
		|| { echo "lint-compare: FAIL (mcmf.ml must bump s.gen in exactly one place)"; exit 1; }
	@! { sed -n '/^let zero_path/,/^let /p' lib/flow/mcmf.ml | grep -n 'Heap\.Int_pair'; } \
		|| { echo "lint-compare: FAIL (zero_path uses the keyed heap above)"; exit 1; }
	@test "$$(grep -cE '^let (rec )?dijkstra' lib/flow/mcmf.ml)" -eq 1 \
		|| { echo "lint-compare: FAIL (mcmf.ml must define exactly one Dijkstra)"; exit 1; }
	@! grep -rnE 'Classic|Bucket_queue|cost_ub|flow\.queue' lib bin \
		|| { echo "lint-compare: FAIL (second SSP search path above)"; exit 1; }
	@! grep -rnE 'set_flow_tracking|reset_touched|record_touch|reopt' lib/flow lib/hire \
		|| { echo "lint-compare: FAIL (second flow reset above)"; exit 1; }
	@! { grep -rhoE 'info *\[[^]]*\]' bin | grep -oE '"[a-z-]+"' | sort | uniq -d \
		| grep -xE '"(mtbf|mttr|max-retries|faults|inc-capable|util|horizon|solver-budget|solver-steps|guard|setup|mu)"'; } \
		|| { echo "lint-compare: FAIL (cell flag above defined outside bin/cell_flags.ml)"; exit 1; }
	@for pat in 'Faults\.Plan\.default_config with' 'unknown scheduler %S' 'unknown setup %S'; do \
		test "$$(grep -rhoE "$$pat" bin | wc -l)" -le 1 \
		|| { echo "lint-compare: FAIL ($$pat appears more than once in bin/)"; exit 1; }; \
	done
	@echo "lint-compare: OK"

# The cell flags `make check` runs through all three CLIs, next to
# yarn-concurrent, mu 0.5 and the heterogeneous setup.
CHECK_CELL = -k 4 --horizon 40 --util 2.0 --inc-capable 0.5 --faults --mtbf 40 --mttr 5

# Tier-1 gate plus smoke-checks that the observability and fault flags
# are wired into the CLI (docs/OBSERVABILITY.md, docs/FAULTS.md), that a
# small deterministic fault-injected run completes, that bad flags and
# a malformed bench/main.exe environment knob fail fast with a one-line
# error, that the parallel sweep runner (docs/RUNNER.md) executes and
# resumes a tiny sweep but serves none of its cached cells to a re-run
# under a failpoint schedule, and that a run with an exhausted solver
# budget degrades along the fallback chain instead of wedging
# (docs/RESILIENCE.md), that hire_sim's seeds on three forked worker
# processes (--jobs 3) print byte-identical stdout to --jobs 1, that
# one cell spelled with the shared cell flags (bin/cell_flags.ml) gives
# byte-identical CSV rows through hire_sim, hire_sweep and hire_service
# (CHECK_CELL: a scheduler with no solver, so no wall-clock column), that a
# malformed HIRE_FAILPOINTS and a --jobs run with failpoints armed fail
# fast with a one-line error,
# and that a journaled run crashed mid-flight by the journal.crash
# failpoint (docs/FAILPOINTS.md) with a corrupted WAL tail recovers — tear
# truncated (journal.torn_tail), replayed, and finished byte-identical to
# an uninterrupted run (docs/JOURNAL.md), and that the admission server
# (docs/SERVER.md) serves a submit/drain/shutdown session over its Unix
# socket and fails fast with a one-line error on an unusable state dir,
# and that a serve session under an injected fsync failure
# (docs/FAILPOINTS.md) logs the armed schedule, enters degraded mode,
# heals back to healthy, and still completes the client session.
check: lint-compare
	dune build
	dune runtest
	dune exec bin/hire_sim.exe -- --help=plain | grep -q -- '--trace'
	dune exec bin/hire_sim.exe -- --help=plain | grep -q -- '--obs-summary'
	dune exec bin/hire_sim.exe -- --help=plain | grep -q -- '--faults'
	dune exec bin/hire_sim.exe -- --scheduler yarn-concurrent --mu 0.25 -k 4 \
		--horizon 30 --seeds 1 --faults --mtbf 40 --mttr 5 > /dev/null
	@if dune exec bin/hire_sim.exe -- -s bogus 2>/tmp/hire_sim_err.txt; then \
		echo "check: FAIL (bad scheduler should exit non-zero)"; exit 1; fi
	@grep -q 'unknown scheduler' /tmp/hire_sim_err.txt || \
		{ echo "check: FAIL (expected one-line unknown-scheduler error)"; exit 1; }
	@test "$$(wc -l < /tmp/hire_sim_err.txt)" -eq 1 || \
		{ echo "check: FAIL (error should be one line, got:)"; cat /tmp/hire_sim_err.txt; exit 1; }
	@if HIRE_BENCH_SEEDS=x dune exec bench/main.exe 2>/tmp/hire_bench_err.txt >/dev/null; then \
		echo "check: FAIL (malformed HIRE_BENCH_SEEDS should exit non-zero)"; exit 1; fi
	@grep -q 'HIRE_BENCH_SEEDS' /tmp/hire_bench_err.txt || \
		{ echo "check: FAIL (expected a HIRE_BENCH_SEEDS error)"; cat /tmp/hire_bench_err.txt; exit 1; }
	@test "$$(wc -l < /tmp/hire_bench_err.txt)" -eq 1 || \
		{ echo "check: FAIL (error should be one line, got:)"; cat /tmp/hire_bench_err.txt; exit 1; }
	rm -f /tmp/hire_bench_err.txt
	rm -rf /tmp/hire_check_sweep
	dune exec bin/hire_sweep.exe -- --jobs 2 -k 4 --horizon 40 --util 2.0 \
		--schedulers yarn-concurrent --mus 0.5 --seeds 1,2 \
		--cache-dir /tmp/hire_check_sweep/cache \
		--out /tmp/hire_check_sweep/sweep.csv --quiet
	dune exec bin/hire_sweep.exe -- --jobs 2 -k 4 --horizon 40 --util 2.0 \
		--schedulers yarn-concurrent --mus 0.5 --seeds 1,2 \
		--cache-dir /tmp/hire_check_sweep/cache \
		--out /tmp/hire_check_sweep/sweep.csv --quiet --resume \
		| grep -q '2 cached'
	HIRE_FAILPOINTS='seed=1;solve.exhaust=25%trip' dune exec bin/hire_sweep.exe -- \
		--jobs 2 -k 4 --horizon 40 --util 2.0 \
		--schedulers yarn-concurrent --mus 0.5 --seeds 1,2 \
		--cache-dir /tmp/hire_check_sweep/cache \
		--out /tmp/hire_check_sweep/sweep.csv --quiet --resume 2>/dev/null \
		| grep -q ' 0 cached'
	rm -rf /tmp/hire_check_sweep
	dune exec bin/hire_sim.exe -- -s hire -k 4 --horizon 40 --util 2.0 --seeds 1 \
		--solver-budget 0 --guard 1 \
		| grep -E 'degraded-rounds=[1-9]' > /dev/null
	dune exec bin/hire_sim.exe -- -s yarn-concurrent -k 4 --horizon 40 --util 2.0 \
		--seeds 1,2,3 --jobs 1 > /tmp/hire_check_jobs1.txt
	dune exec bin/hire_sim.exe -- -s yarn-concurrent -k 4 --horizon 40 --util 2.0 \
		--seeds 1,2,3 --jobs 3 > /tmp/hire_check_jobs3.txt
	@cmp /tmp/hire_check_jobs1.txt /tmp/hire_check_jobs3.txt || \
		{ echo "check: FAIL (hire_sim --jobs 3 stdout differs from --jobs 1)"; exit 1; }
	rm -f /tmp/hire_check_jobs1.txt /tmp/hire_check_jobs3.txt
	rm -rf /tmp/hire_check_cell && mkdir -p /tmp/hire_check_cell
	dune exec bin/hire_sim.exe -- -s yarn-concurrent --mu 0.5 --setup heterogeneous \
		$(CHECK_CELL) --seeds 1,2 --solver-steps 50 --guard 1 \
		--csv /tmp/hire_check_cell/sim2.csv > /dev/null
	dune exec bin/hire_sweep.exe -- --schedulers yarn-concurrent --mus 0.5 \
		--setups heterogeneous $(CHECK_CELL) --seeds 1,2 --solver-steps 50 --guard 1 \
		--no-cache --out /tmp/hire_check_cell/sweep2.csv --quiet > /dev/null
	@cmp /tmp/hire_check_cell/sim2.csv /tmp/hire_check_cell/sweep2.csv || \
		{ echo "check: FAIL (hire_sweep CSV differs from hire_sim's for one cell)"; exit 1; }
	dune exec bin/hire_sim.exe -- -s yarn-concurrent --mu 0.5 --setup heterogeneous \
		$(CHECK_CELL) --seeds 1 --csv /tmp/hire_check_cell/sim1.csv > /dev/null
	dune exec bin/hire_service.exe -- --state-dir /tmp/hire_check_cell/service \
		-s yarn-concurrent --mu 0.5 --setup heterogeneous $(CHECK_CELL) --seed 1 \
		--csv /tmp/hire_check_cell/service1.csv > /dev/null
	@cmp /tmp/hire_check_cell/sim1.csv /tmp/hire_check_cell/service1.csv || \
		{ echo "check: FAIL (hire_service CSV differs from hire_sim's for one cell)"; exit 1; }
	rm -rf /tmp/hire_check_cell
	@if HIRE_FAILPOINTS='solve.exhaust=frobnicate' dune exec bin/hire_sweep.exe -- \
		-k 4 --horizon 10 --schedulers hire --mus 0.5 --seeds 1 \
		--cache-dir /tmp/hire_check_fp/cache --out /tmp/hire_check_fp/sweep.csv \
		2>/tmp/hire_fp_err.txt >/dev/null; then \
		echo "check: FAIL (malformed HIRE_FAILPOINTS should exit non-zero)"; exit 1; fi
	@grep -q '^hire_sweep: HIRE_FAILPOINTS' /tmp/hire_fp_err.txt || \
		{ echo "check: FAIL (expected a HIRE_FAILPOINTS error)"; cat /tmp/hire_fp_err.txt; exit 1; }
	@test "$$(wc -l < /tmp/hire_fp_err.txt)" -eq 1 || \
		{ echo "check: FAIL (error should be one line, got:)"; cat /tmp/hire_fp_err.txt; exit 1; }
	@if HIRE_FAILPOINTS='seed=1;solve.exhaust=25%trip' dune exec bin/hire_sim.exe -- \
		-s hire -k 4 --horizon 10 --seeds 1,2 --jobs 2 2>/tmp/hire_fp_err.txt >/dev/null; then \
		echo "check: FAIL (--jobs with failpoints armed should exit non-zero)"; exit 1; fi
	@grep -q '^hire_sim: --jobs cannot run with HIRE_FAILPOINTS' /tmp/hire_fp_err.txt || \
		{ echo "check: FAIL (expected a --jobs/HIRE_FAILPOINTS error)"; cat /tmp/hire_fp_err.txt; exit 1; }
	@test "$$(wc -l < /tmp/hire_fp_err.txt)" -eq 1 || \
		{ echo "check: FAIL (error should be one line, got:)"; cat /tmp/hire_fp_err.txt; exit 1; }
	rm -rf /tmp/hire_fp_err.txt /tmp/hire_check_fp
	dune exec bin/hire_service.exe -- --help=plain | grep -q -- '--recover'
	dune exec bin/hire_sim.exe -- --help=plain | grep -q -- '--journal'
	rm -rf /tmp/hire_check_journal
	dune exec bin/hire_service.exe -- --state-dir /tmp/hire_check_journal/ref \
		-k 8 --horizon 30 --seed 1 --faults --mtbf 40 --mttr 5 \
		--csv /tmp/hire_check_journal/ref.csv > /dev/null
	@if HIRE_FAILPOINTS='journal.crash=300*off->crash(5)' \
		dune exec bin/hire_service.exe -- --state-dir /tmp/hire_check_journal/run \
		-k 8 --horizon 30 --seed 1 --faults --mtbf 40 --mttr 5 > /dev/null 2>&1; then \
		echo "check: FAIL (armed crash should exit non-zero)"; exit 1; fi
	printf '\012\000\000' >> /tmp/hire_check_journal/run/journal/wal.bin
	dune exec bin/hire_service.exe -- --state-dir /tmp/hire_check_journal/run \
		--recover --obs-summary --csv /tmp/hire_check_journal/rec.csv \
		| grep -Eq 'journal\.torn_tail +1'
	cmp /tmp/hire_check_journal/ref.csv /tmp/hire_check_journal/rec.csv
	rm -rf /tmp/hire_check_journal
	dune exec bin/hire_service.exe -- --help=plain | grep -q -- '--serve'
	rm -rf /tmp/hire_check_server /tmp/hire_check_notadir
	touch /tmp/hire_check_notadir
	@if dune exec bin/hire_service.exe -- --state-dir /tmp/hire_check_notadir/sub \
		-k 4 --horizon 10 2>/tmp/hire_service_err.txt >/dev/null; then \
		echo "check: FAIL (unusable state dir should exit non-zero)"; exit 1; fi
	@test "$$(wc -l < /tmp/hire_service_err.txt)" -eq 1 || \
		{ echo "check: FAIL (error should be one line, got:)"; cat /tmp/hire_service_err.txt; exit 1; }
	@grep -q '^hire_service:' /tmp/hire_service_err.txt || \
		{ echo "check: FAIL (expected hire_service: error prefix, got:)"; cat /tmp/hire_service_err.txt; exit 1; }
	rm -f /tmp/hire_check_notadir /tmp/hire_service_err.txt
	@./_build/default/bin/hire_service.exe --serve --state-dir /tmp/hire_check_server \
		-k 4 --horizon 0 --seed 1 --round-interval 0.2 \
		--csv /tmp/hire_check_server/server.csv > /tmp/hire_check_server.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 100); do test -S /tmp/hire_check_server/server.sock && break; sleep 0.1; done; \
	./_build/default/bin/hire_client.exe --socket /tmp/hire_check_server/server.sock \
		--submit 3 --drain --shutdown > /dev/null \
		|| { echo "check: FAIL (hire_client session failed)"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid || { echo "check: FAIL (server exited non-zero)"; cat /tmp/hire_check_server.log; exit 1; }
	@test -s /tmp/hire_check_server/server.csv || \
		{ echo "check: FAIL (serve-mode CSV missing)"; exit 1; }
	rm -rf /tmp/hire_check_server /tmp/hire_check_server.log
	rm -rf /tmp/hire_check_failpt
	@HIRE_FAILPOINTS='seed=1;journal.fsync=1*eio' \
	./_build/default/bin/hire_service.exe --serve --state-dir /tmp/hire_check_failpt \
		-k 4 --horizon 0 --seed 1 --round-interval 0.2 \
		> /tmp/hire_check_failpt.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 100); do test -S /tmp/hire_check_failpt/server.sock && break; sleep 0.1; done; \
	./_build/default/bin/hire_client.exe --socket /tmp/hire_check_failpt/server.sock \
		--submit 3 --client-prefix fp --retries 8 --drain --shutdown > /dev/null \
		|| { echo "check: FAIL (client session through failpoints failed)"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid || { echo "check: FAIL (failpoint server exited non-zero)"; cat /tmp/hire_check_failpt.log; exit 1; }
	@grep -q 'fault injection armed: failpoints seed=1' /tmp/hire_check_failpt.log || \
		{ echo "check: FAIL (armed-failpoints startup line missing)"; cat /tmp/hire_check_failpt.log; exit 1; }
	@grep -q '^degraded: shedding submissions after storage failure' /tmp/hire_check_failpt.log || \
		{ echo "check: FAIL (degraded-mode entry line missing)"; cat /tmp/hire_check_failpt.log; exit 1; }
	@grep -q '^healthy: storage writes succeed again' /tmp/hire_check_failpt.log || \
		{ echo "check: FAIL (degraded-mode exit line missing)"; cat /tmp/hire_check_failpt.log; exit 1; }
	rm -rf /tmp/hire_check_failpt /tmp/hire_check_failpt.log
	@echo "check: OK"

# odoc is optional in this environment; the lib/obs dune env marks its
# odoc warnings fatal, so when odoc is present the docs must be clean.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc; \
	else \
		echo "doc: odoc not installed, skipping"; \
	fi

clean:
	dune clean
