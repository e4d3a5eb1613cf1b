// Command perfbench is the repository's benchmark. It runs one named
// workload in process, measures it for a fixed time, checks every output
// and prints every metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 35 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and metrics;
// the run prints exactly the metrics listed there, end-to-end metrics with
// --trace 0 and per-layer metrics with --trace 1. The full record (host
// fingerprint, phases, every metric, per-matrix probe rows) is written to
// .bench_build/perfbench/results/, and a traced run's spans to
// .bench_build/perfbench/traces/. Two records compare with
//
//	bash perfbench/run.sh --compare a.json b.json
//
// which refuses records from different hardware (CPU model, cache size,
// nproc, GOMAXPROCS).
//
// The benchmark drives only public seams: harness.SolveWith and its
// OnIteration/OnDetection hooks, the tiers' Handler(), the router's
// Config.Transport and the client's api.WithHTTPClient. It adds no flag,
// option or code path to the program.
//
// # Workloads
//
//   - campaign: the paper's experiment, in process with no HTTP. The nine
//     suite matrices at scale 8 under the unprotected CG baseline (α = 0),
//     Online-Detection at α = 0, and ABFT-Detection and ABFT-Correction at
//     α ∈ {0, 1e-2, 1/16}, four seeds per cell, one solve at a time on the
//     default kernel pool with warm workspaces. Why: per-nonzero kernel
//     work and the recovery machinery do nearly all the work; the service
//     layers do none. Online-Detection under faults (α ∈ {1e-2, 1/16}) is
//     not among the timed operations, as some of its solves fail by design
//     (see Correctness); a traced run solves those cells once per matrix
//     and seed after the timed loop, for the core.*.online metrics.
//   - serve-hot: the router in front of two in-process shards (default
//     configs), fault-free small systems over four identities, every
//     solver × {unprotected, ABFT-D, ABFT-C}; two requests in eight are
//     k=4 batches on cg groups and one in eight is streamed. Why: after
//     warm-up every request is a cache hit, so the per-request path (HTTP,
//     JSON, identity, scheduler, encode and digest, router hop) and the
//     fixed per-solve costs of core and pool dominate. Not listed in
//     BENCHMARK.json, so only run by hand: its 2–5 ms requests magnify the
//     shared host's drift. Between two sets of ten runs in which campaign
//     and serve-churn slowed by 8–12%, its median p50 rose 24%, its p90
//     40% and its throughput fell 17%, past the largest bound allowed
//     (0.25); in the slowest runs the hypervisor took 6–15% of the VM's
//     CPU time (bench.host_steal_share).
//   - serve-churn: the same tiers and phases on mid-size fault-free
//     systems (n = 2500–3500). Three requests in eight go to four hot
//     identities; the other five scan 96 tail identities, 1.5 times the
//     ring's cache capacity, and two requests in eight send their tail
//     matrix inline as CSR. Why: the shard cache now fills and evicts
//     beside its hits, so matrix build, checksum encoding, partition
//     planning, workspace prewarm and inline decode dominate; a
//     cache-policy or set-up-cost change shows here and is predicted to
//     show no change on campaign (and on serve-hot).
//
// Requests come from one seeded generator. Each kind of request keeps a
// fixed position in every eight, hot groups are dealt from shuffled decks
// and the tail is scanned in one seeded order, so every stretch of a run
// sends nearly the same mix.
//
// A service run alternates, 15 times, an open-loop segment (seeded
// Poisson arrivals, at most nproc requests in flight, latency timed from
// each request's due time) with a closed-loop segment (nproc clients). The
// open-loop rate is about a quarter of the closed-loop capacity measured
// on a shared 2-vCPU Xeon VM. At 60% of capacity, the run-to-run
// slowdowns of up to 30% that VM shows moved the open-loop percentiles by
// 30–60%; at a twelfth, the vCPUs idled between requests and the latencies
// followed how fast the host woke them. The VM also changes speed for
// seconds at a time, so each service figure is the median over the 15
// cycles.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric:
//
//   - setup_s: inputs built, tiers listening, references solved, warm-up
//     done, garbage collected; the median of five set-ups in the run.
//   - lat_p50_ms, lat_p90_ms: per solve on campaign; on the service
//     workloads, open-loop due time to verified response (the median of
//     the cycles' p50 and p90). The pooled open-loop p99 is reported per
//     layer as bench.lat_p99_ms: it did not repeat within a tenth from run
//     to run, and the campaign's few hundred solves do not support a p99.
//   - ops_per_s: solves per second on campaign; on the service workloads,
//     verified closed-loop responses per second, the median over the
//     cycles.
//   - ok_share: operations that succeeded with a correct output, over
//     operations attempted (1 − fail share; a ratio that is never 0).
//   - slo_ok_share: operations that succeeded within the workload's
//     latency limit, over those attempted: 1000 ms per campaign solve,
//     50 ms per serve-hot and 200 ms per serve-churn open-loop request,
//     three to five times the slowest solve and the p99s seen at the seed
//     commit.
//   - mem_peak_mb: peak resident set (VmHWM) of the benchmark process.
//
// # Correctness
//
// Every solve's answer is checked. Campaign solves recompute ‖b − Ax‖/‖b‖
// on a pristine copy with sparse.CSR.MulVec; it must equal the residual
// the solver reports and lie below 100× the 1e-8 solver tolerance (1e-6,
// the bar of the repository's solver tests). Repeated solves must
// reproduce their residual hash and core.Stats counts, and at the default
// seed (1) every cell must match testdata/campaign_golden.json. Every
// served result (each batch lane and each streamed terminal result
// included) must carry the residual hash of a sequential in-process
// harness.SolveWith reference computed during set-up, whose own residual
// is checked the same way; the client verifies every response digest. A
// wrong output sets "correct" to false and the command exits 1.
//
// Any failed campaign solve is a wrong output. One outcome is failed
// without being wrong, and it is kept out of the timed operations:
// Online-Detection under injected faults accepts corruption below its
// detection threshold (its convergence confirmation checks the live,
// possibly corrupted system), so at α ∈ {1e-2, 1/16} a solve can end with
// a true residual of 1–4e-6 on the pristine matrix, or give up after
// repeated confirmations. On seeds 101–120 that happened to 7 of the 720
// such solves. A traced run still solves and checks those cells (golden
// file and residual reproduction included) and reports the share that
// drifted as core.online_drift_share, listing each in the record's notes.
//
// # Per-layer metrics
//
// Each per-layer metric, the end-to-end metric and workload it should
// move, and where the prediction is no change; serve-hot rows apply when
// it is run by hand. Kernel and set-up probes
// run on the workload's own matrices; flops and bytes are computed from
// array sizes. The largest SpMV working set (2.2 MiB, campaign; at most
// 140k nonzeros) fits in both the 4 MiB L2 and the 300 MiB last-level
// cache of the VM the benchmark was sized on, so the rule of a working set
// four times the last-level cache cannot be met there, and no bandwidth
// or roofline ratio is claimed; the record states both sizes.
// Service-layer metrics read 0 on campaign and core fault metrics read 0
// on the fault-free service workloads; the record lists them as not
// exercised.
//
//	sparse.spmv_ns_per_nnz        campaign ops_per_s, lat_p50_ms
//	sparse.spmv_pool_ns_per_nnz   campaign ops_per_s
//	sparse.spmv_{flops,bytes}_per_call, sparse.max_working_set_kib
//	                              computed sizes; no timing target
//	pool.spmv_speedup             campaign; serve-hot ops_per_s (size-aware dispatch)
//	pool.dispatch_us              serve-hot lat_p50_ms, ops_per_s; serve-churn ops_per_s;
//	                              no change on campaign
//	vec.dot_ns_per_elem           campaign lat_p50_ms
//	abft.mulvec_{d,c}_ns_per_nnz  campaign ops_per_s (ABFT cells)
//	abft.verify_ns_per_row        campaign ops_per_s
//	abft.verif_over_spmv          campaign lat_p50_ms (the paper's Tverif/Titer)
//	abft.{mulvec,verify}_flops_per_call  computed; no timing target
//	abft.encode_ms                serve-churn lat_p50_ms; setup_s on every workload
//	harness.build_ms              serve-churn lat_p90_ms; setup_s on every workload
//	core.iter_us.<scheme>         campaign lat_p50_ms; serve-* lat_p50_ms
//	solver.iter_us                campaign lat_p50_ms
//	core.protect_overhead.<scheme>, core.protect_base_ms
//	                              diagnostic (the paper's normalised time)
//	core.recovery_us.<scheme>     campaign lat_p90_ms, ops_per_s at α > 0;
//	                              no change on serve-* (α = 0); the .online
//	                              rows, like every core count of Online-
//	                              Detection under faults, come from the
//	                              untimed solves and are diagnostic only
//	core.reexec_share.<scheme>    campaign ops_per_s
//	core.{detections,corrections,rollbacks,checkpoints,faults_injected}.<scheme>
//	                              campaign ops_per_s; no change on serve-*
//	core.correct_share            campaign lat_p90_ms
//	core.online_drift_share       none; Online-Detection solves under faults
//	                              that gave up or ended over 1e-6 (untimed)
//	api.client_ms_p50, _p99       serve-* lat_p50_ms, lat_p90_ms
//	api.wire_ms_p50               serve-* lat_p50_ms
//	api.req_bytes_mean, api.resp_bytes_mean
//	                              serve-hot ops_per_s; serve-churn lat_p50_ms
//	router.handle_ms_p50, router.self_ms_p50
//	                              serve-* lat_p50_ms, ops_per_s
//	router.forward_ms_p50         serve-* lat_p50_ms
//	router.attempts_per_req       serve-* ok_share, lat_p90_ms
//	server.handle_ms_p50, server.self_ms_p50
//	                              serve-* lat_p50_ms, ops_per_s
//	server.queue_ms_p50, _p99     serve-* lat_p90_ms, slo_ok_share
//	server.solve_ms_p50, _p99     serve-* lat_p50_ms
//	server.cache_hit_share, server.cache_evictions
//	                              serve-churn lat_p50_ms, ops_per_s;
//	                              ≈ 1 and 0 on serve-hot, predicted no change
//	server.coalesced_share, server.rejected, server.expired
//	                              serve-* lat_p90_ms, ok_share
//	go.allocs_per_op, go.bytes_per_op, go.gc_cpu_share
//	                              serve-* lat_p90_ms, mem_peak_mb
//	bench.lat_p99_ms              serve-* open-loop tail; no gate
//	bench.fail_share              1 − ok_share
//	bench.gen_lag_p99_ms, bench.open_backlog_max
//	                              validity of the open loop; a run past
//	                              20 ms lag or a backlog of 50 requests is
//	                              marked invalid, not slow
//	bench.trace_overhead_share    none; traced against untraced lat_p50_ms
//	bench.host_steal_share        none; the share of the VM's CPU time the
//	                              hypervisor took during the run, which
//	                              explains a slow run on a shared host
//
// The layer spans (bench.request → api.client → router.handle →
// router.forward → server.handle, joined by the X-Resilient-Trace ID the
// benchmark mints; harness.solve with core.iter and core.detect marks;
// sparse.spmv, abft.mulvec, abft.verify, vec.dot, pool.dispatch,
// harness.build and abft.encode probe spans) are kept in memory and
// written when the run ends. A layer's self time is its span minus its
// child spans; the shard's self time also subtracts the queue and solve
// times its response reports.
package main
