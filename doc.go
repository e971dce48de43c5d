// Package repro is a from-scratch Go reproduction of "A Relational Matrix
// Algebra and its Implementation in a Column Store" (Dolmatova, Augsten,
// Böhlen — SIGMOD 2020).
//
// The public API lives in repro/rma. cmd/rmabench regenerates the
// paper's evaluation, one experiment per table and figure, and prints it
// in the paper's layout (rmabench -run). The repo benchmark — five
// end-to-end workloads with per-layer metrics, the performance gate — is
// described in benchmark/README.md.
//
// # Per-query execution contexts
//
// Every invocation of the stack runs under an explicit execution context
// (internal/exec.Ctx) carrying three things: the worker budget, a
// size-classed buffer arena, and a stats sink. Every layer takes the
// context as its first argument — the vectorized BAT kernels, the sort
// and zero-suppressed (sparse) kernels, the column loops of package batlin, the dense
// kernels of package linalg (MatMul, SYRK, QR, SVD), the relational
// operators of package rel, and the copy-in/copy-out loops of package
// core. A nil context is valid everywhere and means "default budget,
// shared arena, no stats".
//
// Because the budget lives in the context rather than in a process-wide
// knob, concurrent queries with different core.Options.Parallelism
// settings are race-free by construction: each query's operators resolve
// workers against the query's own Ctx, and core.Stats.Workers reports
// that budget per invocation. No process-wide setting remains: nil
// contexts and contexts built without a budget run with GOMAXPROCS as it
// was when the process started. A dedicated CI step runs the mixed-budget
// concurrency stress tests under -race with GOMAXPROCS=4.
//
//   - Ctx.ParallelFor splits an index range over at most Ctx.Workers()
//     goroutines with a serial cutoff (exec.SerialCutoff elements), so
//     small columns never pay for scheduling. It is the only fan-out of
//     the kernel packages (bat, batlin, linalg, rel): the SVD's Jacobi
//     rounds run on it too, so every kernel goroutine counts in
//     Stats.ParallelGoroutines and forwards its panic to the caller.
//   - The reductions (bat.Sum, bat.Dot via Ctx.Reduce) accumulate over
//     fixed-size chunks combined in chunk order, so results are
//     bitwise-identical at any worker budget — asserted by -race
//     property tests that run multiple contexts simultaneously.
//   - The arena (exec.Arena, reachable as Ctx.Arena) recycles float64,
//     int, int64, and string buffers through size-classed sync.Pools;
//     bat.Release retires a whole column tail of any domain. The dense
//     path's working columns, its gathered or converted operand columns,
//     its kernels' scratch and its result columns draw their buffers from
//     the context's arena, and the kernels hand back what they do not
//     return. Iterative algorithms update their work columns in place,
//     keeping Gauss-Jordan inversion and Gram-Schmidt QR allocation-flat
//     across iterations. There are two kinds of arena: the shared one,
//     which keeps no books, and the per-query tenant arenas of governed
//     execution (see below).
//
// # Memory governance
//
// Multi-tenant execution is governed by exec.Governor: each tenant is
// an accounting principal with an optional byte budget, and every
// governed query draws its buffers from a per-query accounted arena
// (Tenant.NewArena) charging that tenant. Accounted arenas track
// live/peak bytes and per-domain pool hit/miss/free counters, and
// verify buffer origin through a per-arena ledger — a tenant arena
// neither uncharges nor pools a buffer it did not allocate, so a stray
// free cannot corrupt a tenant's byte count or smuggle unaccounted
// memory into the pools. Arena.Close at end of query
// releases the query's outstanding charges, so failed or abandoned
// queries cannot strand bytes against a budget; result columns handed
// to the caller simply leave the governed scope (the budget bounds
// in-flight execution memory, not retained results). The SQL tests
// hold a statement's Go heap allocation to twice its tenant peak plus
// 1 MiB (TestGroupStateAccounting, TestOracleAccounting).
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
// fan-outs too. Nothing is re-run on a budget error: an invocation or
// statement executes once, and no operator holds more arena memory at
// many workers than at one. The operators whose parallel path needs
// scratch the serial path does not (the merge sort's n-int buffer where
// a serial sort holds an n/2-int scratch, the sparse gather's and
// merge's per-run staging, Reduce's per-chunk partials) draw it first
// through exec.Arena.TryInts/TryFloats and, when the budget refuses it,
// run their serial body in place (counted in exec.Stats.SerialFallbacks;
// core.Stats.SerialFallback records it per invocation). Column loops
// over sparse or Int tails run one column at a time (bat.ColumnFor), and
// Gauss-Jordan INV/DET update their work columns in place. All kernels
// are bitwise-deterministic across worker budgets, so a fallback result
// is identical to the parallel one.
//
// Admission control is reservation-based: a governor built with a
// global cap admits a query only when the sum of admitted budgets stays
// under the cap (plus an optional concurrent-query limit), queueing
// excess queries instead of overcommitting; sql.DB admits every
// statement against its options' governor (core.Options.Governor, the
// process default when nil — the one rule core applies too), and a
// statement still queued when the context.Context passed to
// DB.ExecContext is done gives up its place (Governor.Admit skips the
// abandoned ticket) and returns ctx.Err(). The per-run staging of the sparse
// kernels (Sparse.Gather, bat.SparseAdd) and the join build's
// partitioning scratch are arena-charged at their upper bounds, the
// elementwise BAT kernels hand their int→float and densified-sparse
// conversion views back to the arena as soon as the kernel has read
// them, and a tenant's arenas share one warm pool set so consecutive
// statements reuse each other's buffers instead of starting from cold
// pools. An accounted arena keeps one ledger, keyed by each buffer's
// typed first-element pointer, and nothing else tracks its buffers: a
// buffer freed into an arena that did not draw it (another tenant's, or
// the shared one) stays charged to its owner until the owner's Close,
// and a tenant arena that did not draw it neither charges nor pools it,
// so accounting may over-count live bytes for a while but never
// under-counts. Known limit: the join's per-row key hashes bypass the
// arena (there is no uint64 pool domain); the group table stores none
// and rehashes its keys when it grows.
//
// The surface is observable end to end: core.Options{Tenant,
// MemoryBudget, Governor} governs one invocation and snapshots the
// tenant counters into core.Stats.Arena; exec.Governor.Metrics and
// sql.DB.Metrics() return per-tenant live/peak bytes and pool hit
// rates; rmacli exposes \mem n, \tenant name and \stats; rmacli and
// rmaserver publish the snapshot through expvar as "rma.memory".
//
// The relational operators run on the same substrate:
//
//   - rel.HashJoin is a hash join over typed 64-bit key hashes (no
//     per-row string keys), hashed column at a time. It drives the one
//     join core over whole relations: rel.NewJoinBuild indexes the
//     build side in one flat head/next hash index drawn from the arena
//     (rel/hashtab.go, the same index under every group table); a
//     parallel count pass records every left row's first
//     match and output offset; the result columns are drawn once at
//     their exact length; and a scatter pass runs over the workers by
//     probe morsel, each worker gathering at most bat.MorselSize pairs
//     at a time straight into the result at its offset. No pair list
//     of the whole join exists, so its footprint beyond the inputs is
//     the index, the offsets and the result. The streamed SQL join
//     runs the same two passes (JoinBuild.Count, JoinProbe.Scatter)
//     over one morsel at a time. Output order is canonical — probe rows
//     in left order, matches per row in build order — at any worker
//     budget. A JoinBuild over no key columns is the cross product (a
//     product is the join on the empty attribute set), so the SQL
//     layer has one join operator for equi, LEFT, CROSS and non-equi
//     ON joins; rel.HashJoin itself still requires keys.
//   - rel.GroupBy is one rel.StreamAgg fed the whole relation: each
//     row folds straight into its group's state, so every group
//     accumulates its own rows in row order, groups appear in
//     first-seen order, and the result is the same at any worker
//     budget. Its group table is typed arena columns (the keys, and per
//     aggregate a count, a float or both) that the result takes over.
//     Without aggregates GroupBy returns the distinct keys: SQL's
//     DISTINCT.
//   - bat.SortKeys and its bounded form bat.TopKeys are the code that
//     orders rows: ORDER BY, rel.Sort and the order schemas of RMA
//     (bat.KeyIndex) call SortKeys, ORDER BY ... LIMIT k calls TopKeys,
//     and the key shape alone picks SortKeys' algorithm. One Int or
//     Float key, either direction, is radix-sorted over
//     order-preserving unsigned keys (floats canonicalised so −0 = +0
//     and NaN sorts after +Inf; a descending key complements them).
//     Keys already ascending return the identity after one pre-scan. A
//     key whose span (max − min) is n − 1, as dense ids are, is
//     scattered into the result buffer filled with −1, each row into
//     slot[key − min], so the filled slots are the permutation. A taken
//     slot means the key repeats; the sort then falls through to one
//     stable counting pass over key − min, which also sorts a span
//     above 255 and below n through a (span+1)-int histogram. Any other
//     key, and one whose histogram the arena refuses, takes an LSD radix
//     sort over 8-bit digits, skipping every digit all rows share. If
//     the arena refuses the LSD sort's n-int scratch it gives its
//     buffers back and the merge sort runs instead. Every other key
//     list — strings, several keys — goes through bat.SortStable, one
//     buffered stable merge sort under one typed comparator (floats
//     by bat.CompareFloat, the radix sort's order): per-worker runs
//     that insertion-sort 32-row blocks
//     and merge them bottom-up in place through a half-run scratch,
//     then pairwise merges of the runs against an n-int buffer. Both
//     draw their permutation buffers from the arena, and the stable
//     permutation is unique, so the result is independent of the path
//     and of the worker budget. TopKeys returns exactly the first k
//     rows of that permutation (MonetDB's firstn): a max-heap of k row
//     positions under the same comparator, ties broken on position, and
//     then a stable merge sort of the survivors, holding O(k) ints
//     whatever n is.
//   - The zero-suppressed kernels (bat.SparseAdd, Sparse.Gather,
//     Sparse.Densify, Sparse.Sum) decompose over OID ranges concatenated
//     in range order (Sum reduces over fixed chunks), with the same
//     determinism guarantee. The format stays behind the RMA kernels:
//     BAT tails, package batlin and core's BAT policy read it (Table 5's
//     ADD runs bat.SparseAdd on the compressed columns). The relational
//     engine handles dense columns only: package rel densifies sparse
//     keys, aggregate inputs and join payloads on read, and sql.DB.Register
//     densifies a registered relation's sparse tails once.
//
// # Streaming execution
//
// Every SELECT statement runs on one morsel-driven streaming pipeline;
// there is no second executor and no toggle. A small logical planner
// (internal/sql/plan.go) decomposes the statement's FROM tree, pushes
// WHERE conjuncts down to the deepest input that binds their columns
// (scan predicates fuse into the scan's morsel loop; probe-side
// predicates filter join inputs before the build), prunes unreferenced
// columns, and compiles every expression once per plan into a
// column-at-a-time program bound to column positions
// (internal/sql/eval.go) — so a statement that plans successfully cannot
// fail to compile mid-stream, and a planning error is the error the
// user sees. Cached plans share their immutable programs across
// concurrent statements. Per morsel every expression node yields one
// typed vector: a bare column reference is the morsel's own vector, a
// literal broadcasts, and each operator is one tight loop whose
// intermediates come from and return to the statement's arena.
// Predicates refine a candidate list (MonetDB's), so a later conjunct
// and the right side of AND/OR evaluate only the rows still undecided —
// the row-wise short-circuit semantics, under which an integer % by
// zero on an excluded row cannot fail the statement (on a reached row it
// is the typed sql.ErrDivisionByZero). ORDER BY keys are materialized
// once before the sort, and the projection keeps an unfiltered stored
// column as a zero-copy view. ORDER BY may name input columns the SELECT
// list drops (without DISTINCT): the projection then keeps them for the
// sort. ORDER BY ... LIMIT k with k at most one morsel is a top-k: without
// grouping or DISTINCT the projection folds each morsel into the k rows
// kept so far (kept = TopKeys(kept ++ morsel), input keys evaluated on the
// morsel itself), so the statement holds O(k + bat.MorselSize) rows; over
// a grouped or DISTINCT result TopKeys selects the k rows before the one
// gather. Both are bitwise the full sort's first k rows. Results and
// error messages are pinned bitwise against a naive
// whole-relation reference executor and a row-at-a-time reference
// evaluator that live only in the tests (internal/sql/reference_test.go,
// internal/sql/rowexpr_test.go).
//
// Operators are composed as pull iterators over bat.Batch morsels of
// bat.MorselSize (4096) rows: next returns the next batch or nil at
// end-of-stream, close releases held buffers and is safe during
// unwinds. Scans emit zero-copy column views when no predicate
// survives pushdown or every row of a morsel matches, and
// arena-gathered batches otherwise; each morsel is released as soon as
// its consumer has drained it, so a
// filter→join→group pipeline holds one morsel per stage plus the join
// build and aggregation tables — peak arena bytes become the maximum
// across stages instead of the sum of full intermediates. Every join —
// equi, LEFT, CROSS, and a non-equi ON as a cross product under its
// residual filter — builds once via rel.JoinBuild over the (pruned,
// pre-filtered) build side, keyless for a cross product — one serial
// pass into the flat hash index, charged to the statement's arena until
// the join drains. Each probe morsel then runs the count pass and
// scatters its pairs in blocks of at most bat.MorselSize through
// scratch drawn at open, so a batch never outgrows a morsel however
// far a probe row fans out.
// Aggregations fold morsels into rel.StreamAgg, whose group table is
// the same flat index and which folds every group's rows in row order
// regardless of morsel boundaries. Both therefore keep the determinism
// contract: probe output stays in probe-row order with matches in build
// order, float sums associate sequentially per group, and results are
// bitwise-identical to rel.HashJoin and rel.GroupBy over the whole input
// at any worker budget.
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
// otherwise. The dictionary trial runs on a flat open-addressing table
// that the writer reuses across segments. Segments are aligned to
// blocks of store.BlockRows rows, which equals bat.MorselSize (4096),
// and SegRows is an exact multiple of it, so segment-granular
// decisions (zone-map skips, spill replay blocks) always preserve
// morsel boundaries and with them the engine's bitwise determinism.
// Reads go through mmap when the platform provides it and fall back to
// buffered I/O otherwise, and decoded segments are charged to the
// reading query's arena. Segments are read incrementally only through
// store.Cursor, which spill replay uses: it holds one decoded segment
// per column and hands it back as it advances. A persisted table loads
// whole into memory (sql.DB.LoadPersisted), so a scan's footprint is the
// table's; scanning persisted tables through the cursor under the tenant
// budget is ROADMAP item 3(d).
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
// Each statement runs once; a budget error that no operator's serial
// fallback avoids fails it with the typed error. Spill engages
// proactively when the DB has a spill directory (sql.DB.SetSpill), and
// grouped aggregation is the one spilling operator: rel.StreamAgg (under
// rel.GroupBy and DISTINCT too) asks exec.Ctx.ShouldSpill(bytes held)
// before its group table grows, where the threshold is the configured
// byte count, or half the tenant's budget when configured as zero
// (unbudgeted tenants never auto-spill). Once it answers true, the aggregation freezes its group
// table and stages the rows of unseen keys to partition files, replayed
// in row order. The other operators have nothing worth staging: a sort
// would write only its permutation, while the keys it compares and the
// output gathered through it stay resident; rel.HashJoin gathers each
// block of pairs straight into its result; and the streamed SQL join
// holds at most bat.MorselSize pairs at a time.
// The spilled aggregation reproduces its in-memory result bit for bit
// at any worker count — asserted by the spill tests of internal/rel and
// internal/sql, the spill leg of the fuzz oracle (RMA_ORACLE_SPILL) and
// a -race CI stress step.
// exec.SpillStats (bytes, partitions, events) aggregates into
// sql.DB.Metrics alongside the arena counters.
//
// # The operation table
//
// Each of the nineteen operations is one row of core's operation table
// (opTable in internal/core/op.go): its arity, its shape type (Tables
// 1-3), its §8.1 sort need, its argument requirements (Table 1, and
// whether an argument may have no rows, which only TRA, ADD, SUB and
// EMU admit), its §7.3 BAT kernel if it has one, whether PolicyAuto
// keeps it on BATs (ADD, SUB and EMU), and its dense kernel. ParseOp,
// Op.Binary, ShapeOf and Ops read the table, and unary and binary
// operations share one Algorithm 1 driver (core's run): it resolves the
// row, splits each argument, sorts them as the row's sort need and the
// SortMode say, checks the requirements, evaluates the base result on
// the engine the policy and the row pick, and assembles the result. No
// other code in core branches on the operation, and an unknown
// operation fails with ParseOp's error before anything is split or
// sorted. core.TestOpRouting pins each row's engine and sort decision
// under every policy and sort mode.
//
// # Context handling
//
// Handling contextual information — sorting each argument by its order
// schema and carrying the order part into the result — is most of an
// elementwise operation's cost (the paper's §8.1 and Fig. 13). Each
// argument is sorted once, and its order schema proved a key in the same
// call (bat.KeyIndex): for the usual single dense-id key the slot scatter
// above sorts, and its first taken slot is the repeat that makes the
// schema no key; keys already ascending, or held in fewer values than
// rows, are judged by the pre-scan; after any other sort one typed,
// column-at-a-time pass compares adjacent sorted rows. A NaN names no
// row, so a Float order column holding one is no key. Under the BAT policy
// ADD, SUB and EMU never gather an application column into operation
// order: bat.Add, bat.Sub and bat.Mul take each operand's permutation
// and compute out[k] = a[pa[k]] ∘ b[pb[k]] into one arena column, the
// leftfetchjoin fused into the kernel, as MonetDB fetches through an OID
// list inside its operators. Under SortFull both permutations are the
// sort orders; under the paper's SortOptimized the first argument keeps
// its input order (a nil permutation) and the second is read through
// its alignment to the first. Only the order columns that become the
// result's row origins are gathered. Two zero-suppressed operands of
// ADD are still gathered in compressed form and added by
// bat.SparseAdd (Table 5); the dense policy keeps its copy-in, the
// transformation the paper's policy comparison measures. The elementwise
// kernels make one operation per element, with the operands in the same
// order as a gather followed by the kernel, so a result element's bits
// depend on neither the route nor the worker budget.
//
// # Column-form dense execution
//
// The dense operand of every RMA op is the relation's own ordered float
// columns, as RMA's closure asks: no third representation sits between
// the BATs and the kernel, and package linalg has one column
// implementation of each operation. The products — MMU, CPD and OPD —
// only read their operands and take the ordered application columns in
// place (core's floatCols over orderedAppCols): a dense float column
// whose rows are already in operation order is aliased, a permuted
// column is gathered once and an Int or sparse one converted once into
// the context's arena. Every other kernel factors, rotates or rewrites
// its operand — INV, DET and square SOL (LU), QQR, RQR and
// least-squares SOL (Householder QR), CHF, EVC and EVL, DSV, USV, VSV
// and RNK (one-sided Jacobi SVD; USV's and VSV's square factors, like
// the columns of zero singular values, are completed by the trailing
// columns of the Householder Q of the thin factor, as LAPACK's dgesvd
// forms them), TRA, and ADD, SUB and EMU — so it
// takes one arena copy of each ordered column (core's workCols, the
// copy-in Figure 14b measures) and works on it in place; ADD, SUB and
// EMU leave their result in the first operand's copy. Every kernel
// draws its scratch and its result columns from the arena, and the
// result columns become the result's BATs as they are: there is no copy
// back. The products are linalg.MatMulCols, OuterProductCols (a·bᵀ read
// in place), CrossProductCols and SYRKCols (the self case CPD(r, r), the
// paper's cblas_dsyrk route: j ≥ i, then mirrored). Everything stays in
// memory; the one spill consumer is the grouped aggregation above.
//
// Each dense op has exactly one route, picked by the op and never by
// the operand size. Only the R and AIDA simulations (internal/competitor
// and the experiments in internal/bench that drive them) keep the
// row-major matrix.Matrix, and they hand its columns to the same
// kernels. core.TestRMAAccounting holds every op, under both policies,
// to the tenant ledger: a warm invocation's Go allocation stays within
// twice its tenant peak plus 1 MiB.
//
// The column kernels walk their operands in row strips of 256 rows, so
// one strip of every operand column stays in cache while it is reused,
// and keep the repository's determinism contract: every output element
// has one owner and one accumulator that adds its products in
// ascending order, skipping zero left factors (the product's parallel
// unit is a row strip of one output column; the cross product's is one
// output row, or in the self case the pair of rows i and n−1−i, which
// balances the triangle), the panel QR applies reflectors to each
// column in ascending order with the same per-column arithmetic, and
// LU's trailing update (col_j[i] -= l_i·col_j[k], one column per
// worker) gives every element its updates in ascending k, so results
// are bitwise-identical at any worker count — asserted against
// naive reference loops at row counts around one strip, column counts
// of every residue mod 4, Inf/NaN opposite zero left factors and worker
// budgets {1, 2, 8} under -race, and pinned to recorded result digests
// in core at budgets {1, 2, 3, 8}.
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
//     as their first parameter — the per-query context discipline — and
//     their non-test code holds no go statement: they fan out through
//     Ctx.ParallelFor alone.
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
// directly above) the offending line. `go vet -vettool=rmalint -json`
// emits the findings machine-readably and counts every suppression, so the escape hatch
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
// cross-checked against the uncached path by the differential fuzz
// oracle (oracle_test.go), which runs randomly generated SELECTs
// streamed, through the reference executor, and cached at worker
// budgets {1,2,8} and requires bitwise-identical relations and
// identical error strings. A failed plan is not cached.
// Only single-statement SELECTs over plain table FROM trees are
// cacheable (derived tables and RMA table functions execute at plan
// time, so caching them would freeze data, not shape). The cache
// invalidates wholesale on CREATE/INSERT/DROP/Register and on option
// changes; DB.Metrics carries
// hit/miss/invalidation counters. Per-statement execution options
// (tenant, budget, workers, governor) ride
// DB.ExecContext/ExecWith/QueryWith rather than
// DB-global state, so a multi-tenant server never serializes on
// configuration.
//
// # Wire-protocol server
//
// cmd/rmaserver fronts a sql.DB over HTTP/JSON: API keys map to
// governed tenants (key=tenant:budgetMiB), every statement is admitted
// through the server's governor (installed with DB.SetRMAOptions and
// carried in each request's core.Options) and executed via
// DB.ExecContext under the request's context and its tenant's budget —
// a client that disconnects while its statement is queued leaves the
// admission queue — and result sets stream back as column batches of
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
// governor, a queued client that times out, graceful drain, and the 4-tenants-by-8-connections load
// under -race.
//
// core.Options.Parallelism bounds the worker budget per invocation
// (default GOMAXPROCS, 1 forces serial); core.Unary/Binary build the
// invocation's context from the options, and the effective count is
// recorded in core.Stats.Workers alongside the context's fan-out
// counters. The SQL
// layer builds one context per statement, so concurrent statements with
// different budgets never share a knob; its expression-keyed equi-joins
// materialize typed key columns and route through rel.JoinBuild (no
// per-row string keys).
package repro
