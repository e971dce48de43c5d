// Package repro is a from-scratch Go reproduction of "A Relational Matrix
// Algebra and its Implementation in a Column Store" (Dolmatova, Augsten,
// Böhlen — SIGMOD 2020).
//
// The public API lives in repro/rma. The benchmarks in bench_test.go
// regenerate the paper's evaluation, one per table and figure; the
// cmd/rmabench tool prints them in the paper's layout (and, with -json,
// writes a machine-readable BENCH_<n>.json kernel report). The repo
// benchmark — five end-to-end workloads with per-layer metrics — is
// described in benchmark/README.md.
//
// # Per-query execution contexts
//
// Every invocation of the stack runs under an explicit execution context
// (internal/exec.Ctx) carrying three things: the worker budget, a
// size-classed buffer arena, and a stats sink. Every layer takes the
// context as its first argument — the vectorized BAT kernels, the sort
// and sparse kernels, the column loops of package batlin, the dense
// kernels of package linalg (MatMul, SYRK, QR, SVD), the relational
// operators of package rel, and the copy-in/copy-out loops of package
// core. A nil context is valid everywhere and means "default budget,
// shared arena, no stats".
//
// Because the budget lives in the context rather than in a process-wide
// knob, concurrent queries with different core.Options.Parallelism
// settings are race-free by construction: each query's operators resolve
// workers against the query's own Ctx, and core.Stats.Workers reports
// that budget per invocation. The former global knobs
// (bat.SetParallelism, linalg.SetParallelism) survive only as deprecated
// shims that seed the fallback budget nil contexts resolve against. A
// dedicated CI step runs the mixed-budget concurrency stress tests under
// -race with GOMAXPROCS=4.
//
//   - Ctx.ParallelFor splits an index range over at most Ctx.Workers()
//     goroutines with a serial cutoff (exec.SerialCutoff elements), so
//     small columns never pay for scheduling.
//   - The reductions (bat.Sum, bat.Dot via Ctx.Reduce) accumulate over
//     fixed-size chunks combined in chunk order, so results are
//     bitwise-identical at any worker budget — asserted by -race
//     property tests that run multiple contexts simultaneously.
//   - The arena (exec.Arena, reachable as Ctx.Arena) recycles float64,
//     int, int64, and string buffers through size-classed sync.Pools;
//     bat.Release retires a whole column tail of any domain. The dense
//     path's toMatrix operands draw their backing arrays from the
//     context's arena and return them once the kernel has consumed them.
//     Iterative algorithms release each superseded scratch column,
//     keeping Gauss-Jordan inversion and Gram-Schmidt QR allocation-flat
//     across iterations. Queries wanting buffer isolation can carry a
//     private exec.NewArena in their context; multi-tenant deployments
//     use accounted arenas instead (see below).
//
// # Memory governance
//
// Multi-tenant execution is governed by exec.Governor: each tenant is
// an accounting principal with an optional byte budget, and every
// governed query draws its buffers from a per-query accounted arena
// (Tenant.NewArena) charging that tenant. Accounted arenas track
// live/peak bytes and per-domain pool hit/miss/free counters, and
// verify buffer origin through a per-arena ledger — a buffer freed into
// an arena that did not allocate it is left to the garbage collector
// rather than corrupting the tenant's byte count or smuggling
// unaccounted memory into the pools. Arena.Close at end of query
// releases the query's outstanding charges, so failed or abandoned
// queries cannot strand bytes against a budget; result columns handed
// to the caller simply leave the governed scope (the budget bounds
// in-flight execution memory, not retained results).
//
// An allocation that would push a tenant past its budget fails the
// query with an error matching exec.ErrMemoryBudget — never a panic —
// and the charge is checked before any memory is committed, so a
// rejected request cannot spike the process's physical footprint.
// Tenant caps persist on the governor: core.Options.MemoryBudget zero
// preserves a previously set cap, negative explicitly removes it
// (exec.Governor.ArenaFor is the single resolution point).
// Internally the overrun unwinds the kernels as a typed panic that
// every error-returning API boundary (bat, batlin, rel, core, sql)
// converts back through exec.CatchBudget; the parallel drivers forward
// worker-goroutine panics to the caller so the conversion works inside
// fan-outs too. core.Unary/Binary retry a budget-failed invocation once
// serially — the parallel kernels need extra scratch (merge-sort double
// buffers) that the serial paths do not, and all kernels are
// bitwise-deterministic across worker budgets, so a fallback result is
// identical to the parallel one (core.Stats.SerialFallback records the
// downgrade). sql.DB applies the same retry per statement.
//
// Admission control is reservation-based: a governor built with a
// global cap admits a query only when the sum of admitted budgets stays
// under the cap (plus an optional concurrent-query limit), queueing
// excess queries instead of overcommitting; sql.DB admits every
// statement against its governor. The per-run staging of the sparse
// kernels (Sparse.Gather, bat.SparseAdd) and the join build's
// partitioning scratch are arena-charged at their upper bounds, the
// elementwise BAT kernels hand their int→float and densified-sparse
// conversion views back to the arena as soon as the kernel has read
// them, and a tenant's arenas share one warm pool set so consecutive
// statements reuse each other's buffers instead of starting from cold
// pools. A buffer freed into a foreign arena is uncharged from its true
// owner at free time: accounted allocations register in a process-wide
// owner registry (sync.Map keyed by the buffer's first-element pointer,
// guarded by an atomic live-count fast path so ungoverned execution
// pays one atomic load), and any arena's free path consults it before
// pooling — the owner's ledger and byte count are settled immediately
// rather than at owner close, while the buffer itself still goes to the
// garbage collector, never into another tenant's pools. Known limit:
// the typed join-key hash slices bypass the arena deliberately — there
// is no uint64 pool domain, and adding one for a single call site would
// cost more in pool bookkeeping than the allocation it saves.
//
// The surface is observable end to end: core.Options{Tenant,
// MemoryBudget, Governor} governs one invocation and snapshots the
// tenant counters into core.Stats.Arena; exec.Metrics() (the default
// governor) and sql.DB.Metrics() return per-tenant live/peak bytes and
// pool hit rates; rmacli exposes \mem n, \tenant name and \stats; both
// CLIs publish the snapshot through expvar as "rma.memory".
//
// The relational operators run on the same substrate:
//
//   - rel.HashJoin is a hash-partitioned join over typed 64-bit key
//     hashes (no per-row string keys): the build side is
//     radix-partitioned in two parallel passes, and the probe runs as a
//     parallel count pass plus a parallel scatter through per-row output
//     offsets. Output order is canonical — probe rows in left order,
//     matches per row in build order — at any worker budget.
//   - rel.GroupBy folds rows into per-chunk partial aggregation tables
//     over fixed chunks of bat.SerialCutoff rows, merged in ascending
//     chunk order, so group order and float sums are bitwise-identical
//     at any worker budget.
//   - bat.SortIndex (and rel's ORDER BY path) uses bat.SortStable, a
//     parallel stable merge sort over arena-backed permutation buffers;
//     the stable permutation is unique, so the result is independent of
//     the worker budget.
//   - The zero-suppressed kernels (bat.SparseAdd, Sparse.Gather,
//     Sparse.Densify, Sparse.Sum) decompose over OID ranges concatenated
//     in range order (Sum reduces over fixed chunks), with the same
//     determinism guarantee.
//
// # Streaming execution
//
// SELECT statements run on a morsel-driven streaming pipeline by
// default (sql.DB.SetStreaming toggles it). A small logical planner
// (internal/sql/plan.go) decomposes the statement's FROM tree, pushes
// WHERE conjuncts down to the deepest input that binds their columns
// (scan predicates fuse into the scan's morsel loop; probe-side
// predicates filter join inputs before the build), prunes unreferenced
// columns, and dry-compiles every expression against zero-row prototype
// sources at plan time — so a statement that plans successfully cannot
// fail to compile mid-stream. Any planning error falls back to the
// materializing executor, which reproduces the exact user-visible
// error; the two paths share the projection/ORDER BY/DISTINCT/LIMIT
// tail, so results and error messages are identical by construction
// (asserted bitwise by the differential tests in stream_test.go).
//
// Operators are composed as pull iterators over bat.Batch morsels of
// bat.MorselSize (4096) rows: next returns the next batch or nil at
// end-of-stream, close releases held buffers and is safe during
// unwinds. Scans emit zero-copy column views when no predicate
// survives pushdown and arena-gathered batches otherwise; each morsel
// is released as soon as its consumer has drained it, so a
// filter→join→group pipeline holds one morsel per stage plus the join
// build and aggregation tables — peak arena bytes become the maximum
// across stages instead of the sum of full intermediates. Hash joins
// build once via rel.JoinBuild sized from the (pruned, pre-filtered)
// build side and probe per morsel; under a parallel budget a build side
// above bat.SerialCutoff rows is radix-partitioned on its key hashes and
// the partitions are indexed in parallel. Aggregations fold morsels into
// rel.StreamAgg, which buffers rows into the same
// bat.SerialCutoff-aligned chunks as rel.GroupBy regardless of morsel
// boundaries. Both therefore keep the determinism contract: probe
// output stays in probe-row order with matches in build order, chunked
// float sums combine in fixed chunk order, and results are
// bitwise-identical to the materializing path at any worker budget.
// exec.PipelineStats records per-stage batch/row counts and peak held
// bytes, surfaced through sql.DB.PipelineStats and rmacli \stats.
//
// # Out-of-core storage and spill
//
// internal/store is the on-disk column-segment format: a table
// checkpoints as one file of per-column segments of store.SegRows
// (65536) rows, each segment carrying a min/max zone map (floats
// through IEEE bit patterns so NaN and -0 round-trip, ints exactly,
// strings byte-wise) and an independently chosen encoding —
// dictionary codes when the segment's distinct count is small,
// run-length pairs when runs dominate, raw fixed-width words
// otherwise. Segments are aligned to blocks of store.BlockRows rows,
// which equals bat.MorselSize (4096), and SegRows is an exact multiple
// of it, so segment-granular decisions (zone-map skips, buffer-pool
// residency) always preserve morsel boundaries and with them the
// engine's bitwise determinism.
// Reads go through mmap when the platform provides it and fall back to
// buffered I/O otherwise; decoded segments are charged to the reading
// query's arena (store.Pool evicts LRU segments under a byte cap, so a
// scan's resident footprint is bounded regardless of table size) and
// handed back when the cursor advances.
//
// Persistence rides the same format: CREATE TABLE ... PERSIST
// checkpoints the table into the DB's data directory (sql.DB.SetDataDir)
// on every mutation, and sql.DB.LoadPersisted restores all checkpointed
// tables after a restart — bitwise, including -0 and string interning
// behavior, as the restart test drives through an actual cmd/rmaserver
// process cycle. Scans over persisted tables consult the zone maps:
// WHERE conjuncts that prove per-column bounds (comparisons, BETWEEN,
// string equality) skip whole segments whose min/max ranges cannot
// match, before any row is touched.
//
// Spill is the third rung of the statement retry ladder. Each statement
// runs normal → serial (on budget errors, when it ran parallel) →
// serial with forced spill (when the DB has a spill directory,
// sql.DB.SetSpill). Above that, spill engages proactively: every
// estimate-gated consumer asks exec.Ctx.ShouldSpill(estimate) before
// allocating its dominant transient, where the threshold is the
// configured byte count, or half the tenant's budget when configured as
// zero (unbudgeted tenants never auto-spill). The consumers are the
// three the roadmap named: hash-join pair staging (16-way partitioned
// pair files merged back in canonical probe order — both
// rel.HashJoin and the SQL layer's rel.EquiJoinPairsSpilled
// route), grouped aggregation (rel.StreamAgg and rel.GroupBy freeze
// partial tables to disk and merge), and sort (per-run files k-way
// merged; a serial sort is one run and never stages). Every spilled
// path reproduces its in-memory result bit for bit at any worker
// count — asserted by a self-calibrating differential test that
// measures the in-memory and fully-spilled serial peaks and runs the
// statement under the midpoint budget, plus spill-forced legs of the
// fuzz oracle (RMA_ORACLE_SPILL) and a -race CI stress step.
// exec.SpillStats (bytes, partitions, events) aggregates into
// sql.DB.Metrics alongside the arena counters.
//
// # Block-partitioned execution
//
// Large dense operands are held as matrix.BlockMatrix: a tile grid of
// row-major tiles of matrix.TileEdge (256) rows/columns, edge tiles
// ragged. Each tile is charged to the owning query's arena as its own
// allocation, so a matrix bigger than any single arena size class
// materializes tile by tile instead of demanding one contiguous slab —
// and spills tile-at-a-time through the same exec.Spill machinery as
// the relational operators (BlockMatrix.EnableSpill bounds resident
// tiles; evictions report through Ctx.NoteSpill). core.toMatrix grows
// a block-aware path: ordered relations above a size gate materialize
// directly into tiles, and blocked results flow back column-wise
// without an intermediate flat copy.
//
// The blocked kernels (linalg.MatMulBlocked, SYRKBlocked, QRBlocked,
// CholeskyBlocked) drive tile updates through exec.Ctx.ParallelFor and
// keep the repository's determinism contract the hard way: every
// output tile accumulates its k-panel products in fixed ascending
// order, panel factorizations apply reflectors/pivots in the same
// order and with the same per-element arithmetic as the flat loops, so
// blocked results are bitwise-identical to the flat kernels at any
// worker count and any tile-grid shape — asserted by differential
// tests over tile edges yielding 1/2/7/16-tile grids, non-divisible
// edge sizes, and worker budgets {1, 2, 8} under -race.
//
// # Static analysis
//
// cmd/rmalint machine-checks four of the invariants above as a
// go-vet-compatible analyzer suite (internal/analysis), run in CI
// through go vet -vettool over every package:
//
//   - arenapair: every arena allocation (exec.Arena's typed allocators
//     and the bat.Alloc shims) must be freed, released, or escape —
//     returned, stored, captured — on every control-flow path; an early
//     return that strands a buffer is reported at the exit that leaks.
//   - ctxfirst: exported functions in the kernel packages (bat, batlin,
//     linalg, rel, matrix) that allocate or fan out must take *exec.Ctx
//     as their first parameter — the per-query context discipline.
//   - budgetboundary: exported error-returning functions in core, sql,
//     and cmd/rmaserver whose call graph can reach an accounted-arena
//     allocation must defer exec.CatchBudget, so budget overruns reach
//     callers as typed errors, never panics.
//   - detorder: map iteration order must not feed result slices, float
//     accumulations, or channel sends without a canonical sort, and
//     time.Now / the global math/rand source are banned outside cmd,
//     bench, and test code — the bitwise-determinism contract.
//
// A finding that reflects a deliberate exception is suppressed in place
// with a `//lint:ignore rmalint/<analyzer> reason` comment on (or
// directly above) the offending line. rmalint -json emits the findings
// machine-readably and counts every suppression, so the escape hatch
// stays auditable; each analyzer also ships analysistest-style fixtures
// under internal/analysis/testdata, including a regression fixture
// reproducing the streaming GROUP BY scratch-column leak fixed in an
// earlier revision.
//
// # Plan cache
//
// sql.DB keeps a bounded LRU plan cache (256 entries) keyed by
// normalized statement text: statements are re-lexed, keywords
// uppercased, identifiers and strings canonically quoted, and token
// text joined with single spaces, so whitespace, comment, and keyword
// case variants of one statement share an entry. A cache entry holds
// the parsed SELECT plus its lazily-built streaming plan; plans are
// finalized at build time (every stage's batch schema precomputed) and
// never mutated during execution, so one cached plan executes safely
// from any number of concurrent statements — asserted under -race, and
// cross-checked against the uncached paths by the differential fuzz
// oracle (oracle_test.go), which runs randomly generated SELECTs
// streamed, materialized, and cached at worker budgets {1,2,8} and
// requires bitwise-identical relations and identical error strings.
// Only single-statement SELECTs over plain table FROM trees are
// cacheable (derived tables and RMA table functions execute at plan
// time, so caching them would freeze data, not shape). The cache
// invalidates wholesale on CREATE/INSERT/DROP/Register, on the
// streaming toggle, and on option changes; DB.Metrics carries
// hit/miss/invalidation counters. Per-statement execution options
// (tenant, budget, workers) ride DB.ExecWith/QueryWith rather than
// DB-global state, so a multi-tenant server never serializes on
// configuration.
//
// # Wire-protocol server
//
// cmd/rmaserver fronts a sql.DB over HTTP/JSON: API keys map to
// governed tenants (key=tenant:budgetMiB), every statement is admitted
// through the governor and executed via ExecWith under its tenant's
// budget, and result sets stream back as column batches of
// bat.MorselSize rows. Errors are typed JSON — a tenant over its
// memory budget gets HTTP 429 with code "memory_budget" and the byte
// arithmetic; neighbors are untouched. GET /metrics serves the
// "rma.memory" surface (governor admission state, per-tenant bytes,
// plan-cache counters) plus per-tenant statement latency p50/p99 from
// lock-free log-scale histograms; /debug/vars exposes the same through
// expvar. On SIGINT/SIGTERM the server drains: new statements get 503
// "draining" while in-flight ones finish and close their arenas, then
// the process exits. The e2e tests (cmd/rmaserver/server_test.go)
// drive budget isolation, admission queueing under a single-slot
// governor, graceful drain, and the 4-tenants-by-8-connections load
// under -race. rmabench -load NxM replays the same serving mix as a
// load generator and reports per-tenant quantiles; the sql.Load rows
// in BENCH_<n>.json track the cached and cache-off serving latency.
//
// core.Options.Parallelism bounds the worker budget per invocation
// (default GOMAXPROCS, 1 forces serial); core.Unary/Binary build the
// invocation's context from the options, and the effective count is
// recorded in core.Stats.Workers alongside the context's fan-out
// counters. The SQL
// layer builds one context per statement, so concurrent statements with
// different budgets never share a knob; its expression-keyed equi-joins
// materialize typed key columns and route through rel.EquiJoinPairs (no
// per-row string keys). cmd/benchdiff diffs consecutive BENCH_<n>.json
// kernel reports and fails CI on >20% ns/op regressions; rmabench
// reports each kernel's fastest of three benchmark rounds so host
// scheduling noise does not masquerade as a regression.
package repro
