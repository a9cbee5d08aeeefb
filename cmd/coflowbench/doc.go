// Command coflowbench is the repository's end-to-end benchmark. It runs
// four workloads through the real front doors — spec.Run for the
// library, a coflowd child process over loopback for the service —
// prints every end-to-end metric by name and unit, checks every output,
// and breaks each workload down layer by layer in a separate traced run.
//
// It is a module of its own (its go.mod replaces repro with the
// repository root), so the root module's build, tests and linter do
// not see it, and the traced wrappers it registers exist only in this
// binary. Its tests run from this directory: go test ./... (add -short
// to skip those that build coflowbench or coflowd, or run hundreds of
// specs).
//
// # Running it
//
// run.sh builds coflowbench and coflowd into .bench_build at the root
// of the checkout and passes its arguments on:
//
//	bash cmd/coflowbench/run.sh --workload offline-lp --seed 3 --seconds 20 --trace 0
//	bash cmd/coflowbench/run.sh -seed 1            # all four, untraced then traced
//	bash cmd/coflowbench/run.sh -seed 1 -sets 2    # twice, and check the sets agree
//
// With -workload, one run happens in this process and its last line of
// standard output is the result:
//
//	{"correct":true,"attempted":48,"failed":0,"metrics":{"op_p50_ms":{"value":461.2,"unit":"ms"},…}}
//
// "attempted" counts ops issued and "failed" those that errored: an op
// error, an oracle violation (every op sets validate, so the oracle
// checks every output), a non-2xx reply or a transport error. A failed
// op is never retried or dropped; the first ten are printed with their
// spec and error. "correct" is false when an output check failed (see
// Checks). With -trace 0 the metrics are the end-to-end ones below,
// with -trace 1 the per-layer ones; -trace-out writes the traced run's
// spans to a file.
//
// Without -workload, every workload runs untraced and then traced, each
// in a fresh child process, and a summary follows. With -sets N the
// whole benchmark repeats N times; it prints each end-to-end metric's
// per-set values, their spread ((max−min)/median) and the bound, and
// exits non-zero when a spread exceeds its bound, an output is wrong,
// or a deterministic counter differs between sets on an op both ran:
// failures, report digests, ratio_vs_lb, and the traced work counters
// (pivots, refactorizations, lu.fill_nnz, model rows and nonzeros,
// events, alloc calls, replans).
//
// # Workloads
//
// All are closed loops with a single caller (library workloads use one
// worker) or, for the service, two connections. The instance corpora
// are fixed and -seed drives the algorithms' random seeds, the op order
// and the service's request mix: LP solve times of the paper's
// instances spread over two orders of magnitude, so fresh instances per
// seed would measure which instances a run drew. Library workloads run
// whole rounds until -seconds has passed, so a run's metrics do not
// depend on where its clock ran out.
//
//   - offline-lp: the paper's Figure-9 cell, stretch on 8-coflow FB
//     instances on SWAN with 48 slots and 20 trials, workload seeds
//     1–16 per round. The simplex solve is about 99% of an op; model
//     build and Stretch rounding share the rest. Sim and coflowd are
//     bypassed.
//   - online-backlog: fifo, las, fair and sincronia-online on 10000
//     coflows on leaf-spine:leaves=8,spines=4,hosts=4 at mean
//     interarrival 0.25, workload seeds 1 and 2 in alternate rounds.
//     The backlog grows and no LP runs: the sim event loop against
//     Policy.Allocate, which takes most of the simulation's time.
//   - online-replan: epoch:stretch on 100-coflow instances on SWAN at
//     mean interarrival 4, with 8 slots, one trial and warm-started
//     LPs, workload seeds 1–10 per round. Each op makes about 90 small
//     re-plan solves instead of one large cold one. 8 slots cap the
//     re-plan grid at 32, the epoch:stretch cliff: workload seed 15
//     ends with a residual LP that is infeasible there, so the corpus
//     stops before it. The sincronia-greedy service corpus likewise
//     starts past the seeds that fail the oracle. A workload on which
//     ops fail would measure failures, not work.
//   - service: coflowd -workers 2 -cache 256, POST /v1/run over two
//     loopback connections until -seconds has passed. Requests are 40%
//     sincronia-greedy on 64 coflows, 30% las on 500, 10% stretch on 4
//     with 24 slots — each walking a corpus of workload seeds the
//     oracle accepts round robin, with a fresh algorithm seed so no two
//     share a cache key — and 20% repeats of a request 2–200 back, which
//     stay inside the 256-entry FIFO cache. HTTP, JSON, the cache and the worker
//     semaphore carry a real share of the cost here and nowhere else.
//
// # End-to-end metrics
//
// Measured with tracing off. Each metric's bound — the share of the
// parent's median by which it may worsen before a change counts as a
// regression — is in BENCHMARK.json and in endToEnd, which a test keeps
// equal; endToEnd says why the wall-clock ones are 0.25.
//
//	name             unit       better  meaning
//	setup_s          s          lower   start → first op could be issued: median of 15
//	                                    fresh starts of this program through the workload's
//	                                    set-up, which generates every distinct instance the
//	                                    run cycles through (service: draws the request list,
//	                                    then starts coflowd until /healthz answers 200); the
//	                                    starts are spread over the run, between ops, because
//	                                    host load shifts set-up times for seconds at a time
//	ops_per_s        ops/s      higher  ops completed over the run's window: its wall time
//	                                    less the set-up samples
//	op_p50_ms        ms         lower   median op time (service: client latency)
//	op_tail_ms       ms         lower   the workload's tail percentile, printed with the op
//	                                    count: the highest of p75/p90/p99/p99.9 with ten
//	                                    samples beyond it at the workload's design size, else
//	                                    the maximum (offline-lp p75 of 48, online-backlog max
//	                                    of 8, online-replan max of 30, service p99 of
//	                                    4000–5500)
//	coflows_per_s    coflows/s  higher  geometric mean over ops of coflows / op time; the
//	                                    geometric mean keeps fair's 7 s ops from hiding a las
//	                                    gain
//	alloc_mb_per_op  MB         lower   heap allocated per op, 2^20 bytes (service: coflowd's,
//	                                    from its runtime.MemStats)
//	peak_rss_mb      MB         lower   VmHWM of this process (service: of coflowd)
//	ratio_vs_lb      ratio      lower   mean Σw·C over its lower bound: the LP bound when the
//	                                    algorithm solves one, else Σw·(release + the slowest
//	                                    flow's demand at its bottleneck rate); a speed-up must
//	                                    not buy a worse schedule
//
// Failures are not a metric (no metric may read 0): they are the
// result's "failed" count, and the fail ratio is printed beside it.
//
// # Per-layer metrics
//
// The traced run replays every op of the same op list with the layers'
// public calls timed one by one: spec.Spec.Normalized →
// spec.Spec.Materialize → engine.Schedule or sim.Simulate →
// validate.Result or validate.SimResult → json.Marshal of the report.
// Stretch runs as the traced-stretch engine scheduler, which replays
// core.RunAdaptive's grid loop and calls model.BuildSinglePath,
// (*model.LP).SolveWarm, core.Heuristic and each trial's
// schedule.Stretch, (*schedule.Schedule).Compact and Verify itself;
// policies run as traced:<policy> wrappers that time Allocate, and
// epoch:stretch runs as traced:epoch:traced-stretch. Both are
// registered in this binary only. Every replayed report must equal the
// front door's byte for byte — lower bound, weighted objective,
// completions and events included — or the benchmark aborts. The front
// door and the replay alternate which goes first.
//
// Times and counts are means per op, ratios are over the run's totals.
// The service's are per request, from the client and from coflowd's
// /metrics before and after the run; layers coflowd does not expose
// read 0 there. Each layer metric should move the end-to-end metrics
// named here, on the workloads named, and hold still elsewhere:
//
//	spec.normalize_ms, workload.generate_ms
//	    setup_s and op_p50_ms on online-backlog (10k-coflow generation);
//	    ~0 on offline-lp
//	engine.schedule_ms, engine.schedules
//	    op_p50_ms on offline-lp; coflows_per_s on online-replan
//	model.build_ms, model.rows, model.nnz
//	    coflows_per_s and alloc_mb_per_op on online-replan; little on offline-lp
//	simplex.solve_ms, simplex.solves, simplex.pivots, simplex.refactorizations,
//	simplex.perturbations, simplex.repairs, simplex.retries,
//	simplex.devex_pass_ratio, simplex.warm_accept_ratio, lu.factorizations,
//	lu.fill_nnz, core.grid_retries, core.grid_preskips
//	    ops_per_s and op_p50_ms on offline-lp; coflows_per_s on online-replan;
//	    0 on online-backlog
//	core.heuristic_ms, schedule.stretch_ms, schedule.compact_ms, schedule.verify_ms
//	    op_p50_ms on offline-lp (a small share)
//	sim.simulate_ms, sim.allocate_ms, sim.loop_self_ms, sim.adapter_self_ms,
//	sim.allocate_share, sim.alloc_calls, sim.loop_events, sim.replans,
//	sim.check_incremental_ms, sim.las_splice_mean, sim.fair_freeze_rounds_mean
//	    coflows_per_s on online-backlog; nothing on offline-lp
//	validate.result_ms, validate.sim_ms
//	    op_p50_ms on every library workload (small)
//	encode.report_ms, encode.report_bytes
//	    ops_per_s on the service
//	http.client_ms, http.server_ms, http.transport_ms, http.semaphore_wait_ms,
//	http.non_2xx, http.response_bytes, cache.hit_ratio, cache.evictions
//	    ops_per_s, op_p50_ms and op_tail_ms on the service; nothing elsewhere
//	trace.op_ms, trace.overhead_ms, trace.attributed_share
//	    the traced op time, what tracing adds over the untraced front
//	    door, and the share of the op its layers' self times cover
//
// sim.allocate_ms is the inclusive time in Allocate; sim.adapter_self_ms
// is Allocate minus the engine calls it makes (the epoch adapter's own
// work, or the whole policy for the native ones); sim.loop_self_ms is
// Simulate minus Allocate. The -trace 1 run also prints a table of
// every layer's busy and self time per op and its share of the traced
// op.
//
// # The trace file
//
// -trace-out writes a JSON array of spans: id, parent (-1 for an op's
// root span), op (the op index), name, start_ms and end_ms (since the
// run began), busy_ms and calls. A span's self time is its busy_ms
// minus the busy_ms of the spans whose parent it is. Allocate runs tens
// of thousands of times per op, so sim.allocate is one span per op
// whose busy_ms sums its calls, start_ms is the first and end_ms the
// last; re-plans inside it are its children. For the service each
// request is one http.request span.
//
// # Checks
//
// Every library op validates through the oracle. A traced replay must
// match its front door bit for bit. Every service reply must be a
// validated report, a repeat must be byte-identical to the reply it
// repeats, and every hundredth fresh request is recomputed in-process
// through spec.Run after the run and must match the served bytes.
package main
