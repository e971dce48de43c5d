package sql

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/store"
)

// DB is an in-memory database: a catalog of named relations plus the
// execution entry points. It is safe for concurrent readers; DDL/DML
// statements take the write lock.
//
// Every statement runs under its own execution context and — when the
// configured options name a tenant or set a memory budget — draws its
// buffers from a per-statement accounted arena charging that tenant.
// Statements are admitted against the database's governor before they
// run, so a global cap queues excess concurrent queries instead of
// letting them overcommit memory.
type DB struct {
	mu sync.RWMutex
	// writeMu serializes writers (CREATE, INSERT, DROP) from their read
	// of the table through its checkpoint, so concurrent INSERTs neither
	// lose rows nor share a checkpoint temp file. Readers never take it.
	writeMu  sync.Mutex
	tables   map[string]*rel.Relation
	rmaOpts  *core.Options
	gov      *exec.Governor
	noStream bool
	lastPipe []exec.StageStats
	stmtOpts map[*exec.Ctx]*core.Options
	cache    planCache

	// Out-of-core execution (SetSpill): when enabled, every statement
	// context carries a spill manager staging under spillDir, and a
	// statement that still exceeds its memory budget after the serial
	// retry is retried once more with spilling forced.
	spillOn  bool
	spillDir string
	spillTh  int64
	// Cumulative spill traffic across statements (the per-statement
	// managers are torn down with their contexts, so the database keeps
	// the running totals for Metrics and the differential tests).
	spillBytes  atomic.Int64
	spillParts  atomic.Int64
	spillEvents atomic.Int64

	// Persistent tables (SetDataDir): names created with PERSIST are
	// checkpointed to segment files in dataDir and reloaded by
	// LoadPersisted after a restart. stored keeps one open segment
	// reader per persisted table for zone-map pruning at scan time.
	dataDir   string
	persisted map[string]bool
	stored    map[string]*store.Reader
}

// NewDB returns an empty database bound to the process-default
// governor, with the plan cache enabled.
func NewDB() *DB {
	db := &DB{
		tables:    make(map[string]*rel.Relation),
		gov:       exec.DefaultGovernor(),
		stmtOpts:  make(map[*exec.Ctx]*core.Options),
		persisted: make(map[string]bool),
		stored:    make(map[string]*store.Reader),
	}
	db.cache.init(defaultPlanCacheCap)
	return db
}

// SetRMAOptions sets the default execution options (policy, sort mode,
// tenant, memory budget, stats) used by RMA table functions and the
// statement pipeline; nil restores the defaults. Statements executed
// through ExecWith carry their own options instead. Changing the
// defaults invalidates the plan cache: RMA policy can change what a
// table function returns.
func (db *DB) SetRMAOptions(opts *core.Options) {
	db.mu.Lock()
	db.rmaOpts = opts
	db.mu.Unlock()
	db.cache.invalidate()
}

// SetGovernor installs the governor statements are admitted against and
// tenants are resolved through; nil restores the process default.
func (db *DB) SetGovernor(g *exec.Governor) {
	db.mu.Lock()
	if g == nil {
		g = exec.DefaultGovernor()
	}
	db.gov = g
	db.mu.Unlock()
	db.cache.invalidate()
}

// SetStreaming toggles the morsel-driven streaming SELECT pipeline
// (enabled by default). Disabling it routes every SELECT through the
// materializing path; results are bitwise-identical either way, so the
// switch exists for comparison and diagnosis, not correctness. The
// toggle invalidates the plan cache — cached stream plans belong to the
// mode they were planned under.
func (db *DB) SetStreaming(on bool) {
	db.mu.Lock()
	db.noStream = !on
	db.mu.Unlock()
	db.cache.invalidate()
}

// SetSpill enables out-of-core statement execution: every statement
// context carries a spill manager staging under dir (empty means the OS
// temp dir), and an operator whose estimated in-memory footprint
// exceeds threshold bytes takes its disk-backed path (threshold 0
// derives half the statement tenant's budget at decision time).
// Spilling never changes results — every spill path is bitwise
// identical to its in-memory twin — so the switch only trades memory
// for disk traffic. A negative threshold disables spilling again.
func (db *DB) SetSpill(dir string, threshold int64) {
	db.mu.Lock()
	db.spillOn = threshold >= 0
	db.spillDir = dir
	db.spillTh = threshold
	db.mu.Unlock()
}

// spillConfig snapshots the spill configuration.
func (db *DB) spillConfig() (dir string, threshold int64, on bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.spillDir, db.spillTh, db.spillOn
}

// SetPlanCache toggles the normalized-statement plan cache (enabled by
// default); disabling it drops the cached entries. The switch exists
// for comparison — the differential tests and the load generator run
// both ways — and as an escape hatch.
func (db *DB) SetPlanCache(on bool) {
	db.cache.setEnabled(on)
}

func (db *DB) streamingEnabled() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return !db.noStream
}

// PipelineStats returns the per-stage morsel counters of the most
// recently completed streamed SELECT (nil when none has streamed yet).
// For a script with nested or multiple SELECTs, the outermost statement
// executed last wins.
func (db *DB) PipelineStats() []exec.StageStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]exec.StageStats(nil), db.lastPipe...)
}

func (db *DB) storePipelineStats(s []exec.StageStats) {
	db.mu.Lock()
	db.lastPipe = s
	db.mu.Unlock()
}

// Metrics is the database's observable state: the governor's admission
// and per-tenant memory books (embedded, so existing field access keeps
// working) plus the plan cache counters.
type Metrics struct {
	exec.GovernorMetrics
	PlanCache PlanCacheStats
	Spill     exec.SpillStats
}

// Metrics snapshots the governor the database runs under — admission
// state plus per-tenant live/peak bytes and pool counters — and the
// plan cache's hit/miss/invalidation counters.
func (db *DB) Metrics() Metrics {
	db.mu.RLock()
	g := db.governorLocked()
	db.mu.RUnlock()
	return Metrics{
		GovernorMetrics: g.Metrics(),
		PlanCache:       db.cache.stats(),
		Spill:           db.SpillStats(),
	}
}

// SpillStats returns the cumulative out-of-core traffic of every
// statement executed so far: bytes staged to disk, partitions created,
// and individual spill events. Zero until SetSpill enables spilling and
// some operator actually crosses its threshold.
func (db *DB) SpillStats() exec.SpillStats {
	return exec.SpillStats{
		SpilledBytes: db.spillBytes.Load(),
		Partitions:   db.spillParts.Load(),
		Events:       db.spillEvents.Load(),
	}
}

// governorLocked resolves the governor statements run under: an explicit
// Options.Governor wins over the database's own, so a caller that
// configures one through SetRMAOptions gets a single set of books — the
// statement pipeline, the RMA table functions, admission, and Metrics
// all land on the same governor. Callers hold db.mu (either mode).
func (db *DB) governorLocked() *exec.Governor {
	if db.rmaOpts != nil && db.rmaOpts.Governor != nil {
		return db.rmaOpts.Governor
	}
	return db.gov
}

// Register stores a relation under a name, replacing any previous one.
func (db *DB) Register(name string, r *rel.Relation) {
	db.mu.Lock()
	db.tables[name] = r.WithName(name)
	db.mu.Unlock()
	db.cache.invalidate()
}

// Table returns the named relation.
func (db *DB) Table(name string) (*rel.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sql: no such table %q", name)
	}
	return r, nil
}

// Tables lists the catalog in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Exec parses and executes a script and returns the result of the last
// SELECT (nil if the script contains none) under the database's default
// options. See ExecWith.
func (db *DB) Exec(src string) (*rel.Relation, error) {
	return db.ExecWith(src, nil)
}

// ExecWith is Exec with per-call execution options: a concurrent server
// maps each request to its tenant's options without touching the
// database-wide defaults (nil opts uses those defaults). Every
// statement runs under its own execution context (see stmtCtx), so
// concurrent statements with different parallelism budgets or tenants
// never share a worker knob or an arena. A statement that exceeds its
// memory budget at the configured parallelism is retried once serially
// (the serial plans need less scratch and every operator is
// deterministic across worker budgets); if the retry fails too, the
// typed error — matching exec.ErrMemoryBudget — is returned.
//
// Single-statement SELECTs over plain tables and joins are served
// through the plan cache: a repeat of the same normalized statement
// text skips parsing and planning entirely.
func (db *DB) ExecWith(src string, opts *core.Options) (*rel.Relation, error) {
	if opts == nil {
		db.mu.RLock()
		opts = db.rmaOpts
		db.mu.RUnlock()
	}
	key, normOK := normalizeStmt(src)
	if normOK {
		if e := db.cache.get(key); e != nil {
			return db.execCached(e, opts)
		}
	}
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if normOK && len(stmts) == 1 {
		if sel, ok := stmts[0].(*SelectStmt); ok && cacheableSelect(sel) {
			if e := db.cache.put(key, sel); e != nil {
				return db.execCached(e, opts)
			}
		}
	}
	var last *rel.Relation
	for _, s := range stmts {
		res, err := db.runStmt(s, opts, 0, false)
		if err != nil && errors.Is(err, exec.ErrMemoryBudget) && workersOf(opts) > 1 {
			res, err = db.runStmt(s, opts, 1, false)
		}
		if err != nil && errors.Is(err, exec.ErrMemoryBudget) {
			if _, _, on := db.spillConfig(); on {
				// Last rung: serial with spilling forced, shedding every
				// spillable structure to disk.
				res, err = db.runStmt(s, opts, 1, true)
			}
		}
		if err != nil {
			return nil, err
		}
		if res != nil {
			last = res
		}
	}
	return last, nil
}

// execCached executes a cache-served SELECT with the same
// serial-then-spill memory-budget retry ladder as the parse path.
func (db *DB) execCached(e *planEntry, opts *core.Options) (*rel.Relation, error) {
	res, err := db.runCached(e, opts, 0, false)
	if err != nil && errors.Is(err, exec.ErrMemoryBudget) && workersOf(opts) > 1 {
		res, err = db.runCached(e, opts, 1, false)
	}
	if err != nil && errors.Is(err, exec.ErrMemoryBudget) {
		if _, _, on := db.spillConfig(); on {
			res, err = db.runCached(e, opts, 1, true)
		}
	}
	return res, err
}

// runCached runs one execution of a cached statement: the entry's
// stream plan when streaming is on and the planner took the statement
// (planned lazily on the entry's first streamed execution, shared and
// read-only afterwards), the materializing executor otherwise.
func (db *DB) runCached(e *planEntry, opts *core.Options, forceSerial int, forceSpill bool) (res *rel.Relation, err error) {
	c, finish := db.stmtCtx(opts, forceSerial, forceSpill)
	defer finish()
	defer exec.CatchBudget(&err)
	if db.streamingEnabled() && !c.Spill().IsForced() {
		if plan := e.planFor(db, c); plan != nil {
			return db.execPlanned(c, e.sel, plan)
		}
	}
	return db.execSelectMaterialized(c, e.sel)
}

// runStmt admits one statement against the governor, executes it under
// a fresh per-statement context, and tears the context down: the
// statement's arena charges are released and the admission reservation
// is handed back whether the statement succeeded or not. forceSerial
// overrides the configured parallelism for the memory-budget retry.
func (db *DB) runStmt(s Statement, opts *core.Options, forceSerial int, forceSpill bool) (res *rel.Relation, err error) {
	c, finish := db.stmtCtx(opts, forceSerial, forceSpill)
	defer finish()
	defer exec.CatchBudget(&err)
	return db.run(c, s)
}

// workersOf returns the resolved per-statement parallelism of a set of
// options: the configured budget, or the process default when dynamic.
// The serial budget retry keys off this — a statement that already ran
// with one worker would fail identically on a rerun.
func workersOf(opts *core.Options) int {
	if opts != nil && opts.Parallelism > 0 {
		return opts.Parallelism
	}
	return exec.DefaultWorkers()
}

// stmtCtx builds one statement's execution context from its options:
// the Parallelism budget scopes to this statement only (zero follows
// the process default; forceSerial > 0 overrides it), and a
// tenant/memory-budget configuration routes the statement's arena
// traffic through a per-statement accounted arena charging the tenant.
// The statement is admitted against the governor before the context is
// handed out — its declared budget reserves room under the global cap —
// and the returned finish func must be called when the statement ends:
// it closes the arena (releasing the statement's outstanding charges)
// and returns the admission reservation.
//
// The relational operators of the SELECT pipeline run under this
// context; RMA table functions build their own context from the same
// options inside core.Unary/Binary, charging the same tenant — the
// context-to-options registration here is how evalRMA finds the
// statement's options without consulting the database-wide defaults.
func (db *DB) stmtCtx(opts *core.Options, forceSerial int, forceSpill bool) (*exec.Ctx, func()) {
	gov := db.governorFor(opts)
	var workers int
	var budget int64
	var arena *exec.Arena
	if opts != nil {
		workers = opts.Parallelism
		budget = opts.MemoryBudget
		arena = gov.ArenaFor(opts.Tenant, budget)
	}
	if forceSerial > 0 {
		workers = forceSerial
	}
	release := gov.Admit(budget)
	c := exec.NewCtx(workers, arena, nil)
	var sp *exec.Spill
	if dir, th, on := db.spillConfig(); on {
		sp = exec.NewSpill(dir, th)
		if forceSpill {
			sp = sp.Forced()
		}
		c = c.WithSpill(sp)
	}
	db.mu.Lock()
	db.stmtOpts[c] = opts
	db.mu.Unlock()
	return c, func() {
		db.mu.Lock()
		delete(db.stmtOpts, c)
		db.mu.Unlock()
		if st := sp.Stats(); st.Events > 0 {
			db.spillBytes.Add(st.SpilledBytes)
			db.spillParts.Add(st.Partitions)
			db.spillEvents.Add(st.Events)
		}
		sp.Cleanup()
		arena.Close()
		release()
	}
}

// governorFor resolves the governor a statement runs under: an explicit
// Options.Governor wins over the database's own, so a caller that
// configures one gets a single set of books — the statement pipeline,
// the RMA table functions, admission, and Metrics all land on the same
// governor.
func (db *DB) governorFor(opts *core.Options) *exec.Governor {
	if opts != nil && opts.Governor != nil {
		return opts.Governor
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gov
}

// stmtOptsFor returns the options the statement owning ctx was launched
// with, falling back to the database-wide defaults for contexts this DB
// did not create.
func (db *DB) stmtOptsFor(c *exec.Ctx) *core.Options {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if o, ok := db.stmtOpts[c]; ok {
		return o
	}
	return db.rmaOpts
}

// Query executes a single SELECT statement.
func (db *DB) Query(src string) (*rel.Relation, error) {
	return db.QueryWith(src, nil)
}

// QueryWith is Query with per-call execution options (see ExecWith).
func (db *DB) QueryWith(src string, opts *core.Options) (*rel.Relation, error) {
	res, err := db.ExecWith(src, opts)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("sql: statement returned no result")
	}
	return res, nil
}

// Stmt is a prepared statement: Prepare validates the script once and
// warms the plan cache for cacheable SELECTs; executions go through the
// same normalized-text cache as ExecWith, so a Stmt holds no plan state
// of its own to invalidate.
type Stmt struct {
	db  *DB
	src string
}

// Prepare parses and validates a script and returns a reusable handle.
func (db *DB) Prepare(src string) (*Stmt, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 1 {
		if sel, ok := stmts[0].(*SelectStmt); ok && cacheableSelect(sel) {
			if key, ok := normalizeStmt(src); ok {
				db.cache.put(key, sel)
			}
		}
	}
	return &Stmt{db: db, src: src}, nil
}

// Exec executes the prepared statement under the database defaults.
func (s *Stmt) Exec() (*rel.Relation, error) { return s.db.ExecWith(s.src, nil) }

// ExecWith executes the prepared statement under per-call options.
func (s *Stmt) ExecWith(opts *core.Options) (*rel.Relation, error) {
	return s.db.ExecWith(s.src, opts)
}

func (db *DB) run(c *exec.Ctx, s Statement) (*rel.Relation, error) {
	switch x := s.(type) {
	case *SelectStmt:
		src, err := db.execSelect(c, x)
		if err != nil {
			return nil, err
		}
		return src, nil
	case *CreateStmt:
		return nil, db.runCreate(x)
	case *InsertStmt:
		return nil, db.runInsert(c, x)
	case *DropStmt:
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
		db.mu.Lock()
		if _, ok := db.tables[x.Table]; !ok {
			db.mu.Unlock()
			return nil, fmt.Errorf("sql: no such table %q", x.Table)
		}
		delete(db.tables, x.Table)
		var dropFile string
		if db.persisted[x.Table] {
			delete(db.persisted, x.Table)
			if rd := db.stored[x.Table]; rd != nil {
				rd.Close()
				delete(db.stored, x.Table)
			}
			dropFile = db.segPathLocked(x.Table)
		}
		db.mu.Unlock()
		if dropFile != "" {
			os.Remove(dropFile)
		}
		db.cache.invalidate()
		return nil, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", s)
}

func (db *DB) runCreate(x *CreateStmt) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.Lock()
	if _, ok := db.tables[x.Name]; ok {
		db.mu.Unlock()
		return fmt.Errorf("sql: table %q already exists", x.Name)
	}
	if x.Persist && db.dataDir == "" {
		db.mu.Unlock()
		return fmt.Errorf("sql: CREATE TABLE %s PERSIST without a data directory (SetDataDir)", x.Name)
	}
	schema := make(rel.Schema, len(x.Columns))
	for k, c := range x.Columns {
		schema[k] = rel.Attr{Name: c.Name, Type: c.Type}
	}
	db.tables[x.Name] = rel.Empty(x.Name, schema)
	if x.Persist {
		db.persisted[x.Name] = true
	}
	db.mu.Unlock()
	db.cache.invalidate()
	if x.Persist {
		return db.checkpoint(x.Name)
	}
	return nil
}

func (db *DB) runInsert(c *exec.Ctx, x *InsertStmt) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	tbl, err := db.Table(x.Table)
	if err != nil {
		return err
	}
	var rows *rel.Relation
	if x.Select != nil {
		rows, err = db.execSelect(c, x.Select)
		if err != nil {
			return err
		}
		if rows.NumCols() != tbl.NumCols() {
			return fmt.Errorf("sql: INSERT SELECT arity %d into table of arity %d", rows.NumCols(), tbl.NumCols())
		}
		// Align names/types with the target table for the union.
		rows = &rel.Relation{Name: tbl.Name, Schema: tbl.Schema, Cols: coerceCols(rows, tbl.Schema)}
	} else {
		b := rel.NewBuilder(x.Table, tbl.Schema)
		for _, rowExprs := range x.Rows {
			if len(rowExprs) != tbl.NumCols() {
				return fmt.Errorf("sql: INSERT arity %d into table of arity %d", len(rowExprs), tbl.NumCols())
			}
			vals := make([]bat.Value, len(rowExprs))
			for k, e := range rowExprs {
				c, err := compileExpr(e, nil)
				if err != nil {
					return err
				}
				vals[k] = c.fn(0)
			}
			if err := b.Add(vals...); err != nil {
				return err
			}
		}
		rows = b.Relation()
	}
	merged, err := rel.Union(tbl, rows)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.tables[x.Table] = merged.WithName(x.Table)
	persist := db.persisted[x.Table]
	db.mu.Unlock()
	db.cache.invalidate()
	if persist {
		return db.checkpoint(x.Table)
	}
	return nil
}

// coerceCols adapts int columns to float where the target schema demands
// it (the single coercion the dialect supports).
func coerceCols(r *rel.Relation, target rel.Schema) []*bat.BAT {
	cols := make([]*bat.BAT, len(r.Cols))
	for k, c := range r.Cols {
		if c.Type() == bat.Int && target[k].Type == bat.Float {
			f, _ := c.Floats()
			cols[k] = bat.FromFloats(f)
			continue
		}
		cols[k] = c
	}
	return cols
}

// --- FROM clause ----------------------------------------------------------

func (db *DB) buildFrom(c *exec.Ctx, te TableExpr) (*source, error) {
	switch x := te.(type) {
	case *TableRef:
		r, err := db.Table(x.Name)
		if err != nil {
			return nil, err
		}
		qual := x.Alias
		if qual == "" {
			qual = x.Name
		}
		src := newSource(r, qual)
		src.stored = db.storedReader(x.Name)
		return src, nil
	case *SubqueryRef:
		r, err := db.execSelect(c, x.Select)
		if err != nil {
			return nil, err
		}
		return newSource(r, x.Alias), nil
	case *RMARef:
		return db.buildRMA(c, x)
	case *JoinExpr:
		return db.buildJoin(c, x)
	}
	return nil, fmt.Errorf("sql: unsupported table expression %T", te)
}

func (db *DB) buildRMA(c *exec.Ctx, x *RMARef) (*source, error) {
	res, err := db.evalRMA(c, x)
	if err != nil {
		return nil, err
	}
	return newSource(res, x.Alias), nil
}

// relationOf evaluates an RMA argument relation with its original
// attribute names intact (BY clauses reference them).
func (db *DB) relationOf(c *exec.Ctx, te TableExpr) (*rel.Relation, error) {
	switch x := te.(type) {
	case *TableRef:
		return db.Table(x.Name)
	case *SubqueryRef:
		return db.execSelect(c, x.Select)
	case *RMARef:
		return db.evalRMA(c, x)
	}
	return nil, fmt.Errorf("sql: unsupported RMA argument %T", te)
}

func (db *DB) evalRMA(c *exec.Ctx, x *RMARef) (*rel.Relation, error) {
	op, err := core.ParseOp(x.Op)
	if err != nil {
		return nil, err
	}
	args := make([]*rel.Relation, len(x.Args))
	for k, a := range x.Args {
		r, err := db.relationOf(c, a.Rel)
		if err != nil {
			return nil, err
		}
		args[k] = r
	}
	opts := db.stmtOptsFor(c)
	gov := db.governorFor(opts)
	// RMA table functions build their own per-invocation context inside
	// core; route them through the database's governor so their tenant
	// accounting lands in the same books as the statement pipeline, and
	// pin them to the statement's resolved worker budget so a
	// forced-serial budget retry does not re-attempt the op in parallel
	// (core would just repeat the failed parallel plan plus its own
	// internal serial retry).
	if opts != nil {
		o := *opts
		if o.Governor == nil {
			o.Governor = gov
		}
		o.Parallelism = c.Workers()
		opts = &o
	}
	if op.Binary() {
		if len(args) != 2 {
			return nil, fmt.Errorf("sql: %s takes two relations", strings.ToUpper(x.Op))
		}
		return core.Binary(op, args[0], x.Args[0].By, args[1], x.Args[1].By, opts)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("sql: %s takes one relation", strings.ToUpper(x.Op))
	}
	return core.Unary(op, args[0], x.Args[0].By, opts)
}

func (db *DB) buildJoin(c *exec.Ctx, x *JoinExpr) (*source, error) {
	left, err := db.buildFrom(c, x.Left)
	if err != nil {
		return nil, err
	}
	right, err := db.buildFrom(c, x.Right)
	if err != nil {
		return nil, err
	}
	switch x.Kind {
	case JoinCross:
		return crossSources(c, left, right)
	default:
		return joinSources(c, left, right, x.On, x.Kind)
	}
}

// combineSchemas concatenates two sources' schemas with fresh internal
// column names.
func combineSchemas(left, right *source, cols []*bat.BAT) (*source, error) {
	schema := make(rel.Schema, 0, len(left.syms)+len(right.syms))
	syms := make([]sym, 0, cap(schema))
	for k, a := range left.rel.Schema {
		schema = append(schema, rel.Attr{Name: internalName(len(schema)), Type: a.Type})
		syms = append(syms, left.syms[k])
	}
	for k, a := range right.rel.Schema {
		schema = append(schema, rel.Attr{Name: internalName(len(schema)), Type: a.Type})
		syms = append(syms, right.syms[k])
	}
	r, err := rel.New("", schema, cols)
	if err != nil {
		return nil, err
	}
	return &source{rel: r, syms: syms}, nil
}

func crossSources(c *exec.Ctx, left, right *source) (*source, error) {
	nl, nr := left.rel.NumRows(), right.rel.NumRows()
	li := make([]int, 0, nl*nr)
	ri := make([]int, 0, nl*nr)
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			li = append(li, i)
			ri = append(ri, j)
		}
	}
	return gatherPairs(c, left, right, li, ri)
}

func gatherPairs(c *exec.Ctx, left, right *source, li, ri []int) (*source, error) {
	cols := make([]*bat.BAT, 0, len(left.rel.Cols)+len(right.rel.Cols))
	for _, col := range left.rel.Cols {
		cols = append(cols, col.Gather(c, li))
	}
	for _, col := range right.rel.Cols {
		cols = append(cols, gatherPadded(c, col, ri))
	}
	return combineSchemas(left, right, cols)
}

// gatherPadded gathers col by idx, emitting the zero value where idx < 0
// (left-join non-matches).
func gatherPadded(c *exec.Ctx, col *bat.BAT, idx []int) *bat.BAT {
	pad := false
	for _, j := range idx {
		if j < 0 {
			pad = true
			break
		}
	}
	if !pad {
		return col.Gather(c, idx)
	}
	out := bat.NewEmptyVector(col.Type(), len(idx))
	for _, j := range idx {
		if j < 0 {
			switch col.Type() {
			case bat.Float:
				out.Append(bat.FloatValue(0))
			case bat.Int:
				out.Append(bat.IntValue(0))
			default:
				out.Append(bat.StringValue(""))
			}
			continue
		}
		out.Append(col.Get(j))
	}
	return bat.FromVector(out)
}

// extractEqui splits an ON expression into equi-join key pairs (left expr,
// right expr) plus a residual predicate evaluated after the join.
func extractEqui(on Expr, left, right *source) (lk, rk []Expr, residual []Expr) {
	conjuncts := flattenAnd(on)
	for _, c := range conjuncts {
		b, ok := c.(*BinaryExpr)
		if ok && b.Op == "=" {
			lSide := sideOf(b.L, left, right)
			rSide := sideOf(b.R, left, right)
			if lSide == 1 && rSide == 2 {
				lk = append(lk, b.L)
				rk = append(rk, b.R)
				continue
			}
			if lSide == 2 && rSide == 1 {
				lk = append(lk, b.R)
				rk = append(rk, b.L)
				continue
			}
		}
		residual = append(residual, c)
	}
	return lk, rk, residual
}

func flattenAnd(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Expr{e}
}

// sideOf reports which source an expression's columns resolve against:
// 1 = left only, 2 = right only, 0 = mixed/none/unresolvable.
func sideOf(e Expr, left, right *source) int {
	cols := collectCols(e, nil)
	if len(cols) == 0 {
		return 0
	}
	side := 0
	for _, c := range cols {
		_, lerr := left.resolve(c.Qualifier, c.Name)
		_, rerr := right.resolve(c.Qualifier, c.Name)
		var s int
		switch {
		case lerr == nil && rerr != nil:
			s = 1
		case lerr != nil && rerr == nil:
			s = 2
		default:
			return 0
		}
		if side == 0 {
			side = s
		} else if side != s {
			return 0
		}
	}
	return side
}

func collectCols(e Expr, acc []*ColRef) []*ColRef {
	switch x := e.(type) {
	case *ColRef:
		return append(acc, x)
	case *UnaryExpr:
		return collectCols(x.E, acc)
	case *BinaryExpr:
		return collectCols(x.R, collectCols(x.L, acc))
	case *FuncCall:
		for _, a := range x.Args {
			acc = collectCols(a, acc)
		}
	case *InExpr:
		acc = collectCols(x.E, acc)
		for _, a := range x.List {
			acc = collectCols(a, acc)
		}
	case *BetweenExpr:
		acc = collectCols(x.Hi, collectCols(x.Lo, collectCols(x.E, acc)))
	case *LikeExpr:
		acc = collectCols(x.E, acc)
	}
	return acc
}

func joinSources(c *exec.Ctx, left, right *source, on Expr, kind JoinKind) (*source, error) {
	lk, rk, residual := extractEqui(on, left, right)
	if len(lk) == 0 {
		if kind == JoinLeft {
			return nil, fmt.Errorf("sql: LEFT JOIN requires an equi-join condition")
		}
		// Nested-loop fallback: cross then filter on the full ON clause.
		crossed, err := crossSources(c, left, right)
		if err != nil {
			return nil, err
		}
		return filterSource(c, crossed, on)
	}
	// Hash join: build on the right, probe from the left. The key
	// expressions are materialized into typed columns once and joined
	// through rel's 64-bit row hashes — no per-row string keys.
	lkeys, err := keyCols(left, lk)
	if err != nil {
		return nil, err
	}
	rkeys, err := keyCols(right, rk)
	if err != nil {
		return nil, err
	}
	var joined *source
	if c.ShouldSpill(rel.JoinSpillEst(left.rel.NumRows(), right.rel.NumRows())) {
		// Out-of-core: the pair arrays — the join's dominant transient —
		// are staged to disk and the result columns filled block-wise
		// from the pair stream. Bitwise-identical to the in-memory path.
		sp, err := rel.EquiJoinPairsSpilled(c, lkeys, rkeys, kind == JoinLeft)
		if err != nil {
			return nil, err
		}
		cols, err := sp.Fill(c, left.rel.Cols, right.rel.Cols)
		sp.Close()
		if err != nil {
			return nil, err
		}
		if joined, err = combineSchemas(left, right, cols); err != nil {
			return nil, err
		}
	} else {
		li, ri, err := rel.EquiJoinPairs(c, lkeys, rkeys, kind == JoinLeft)
		if err != nil {
			return nil, err
		}
		joined, err = gatherPairs(c, left, right, li, ri)
		bat.FreeInts(li)
		bat.FreeInts(ri)
		if err != nil {
			return nil, err
		}
	}
	for _, res := range residual {
		if joined, err = filterSource(c, joined, res); err != nil {
			return nil, err
		}
	}
	return joined, nil
}

// keyCols materializes join-key expressions into typed columns for the
// hash join. Cross-type numeric keys (an int expression against a float
// one) hash and compare through canonical float bits inside rel, so no
// coercion is needed here.
func keyCols(s *source, exprs []Expr) ([]*bat.BAT, error) {
	n := s.rel.NumRows()
	cols := make([]*bat.BAT, len(exprs))
	for k, e := range exprs {
		c, err := compileExpr(e, s)
		if err != nil {
			return nil, err
		}
		cols[k] = materialize(c, n)
	}
	return cols, nil
}

func filterSource(c *exec.Ctx, s *source, pred Expr) (*source, error) {
	comp, err := compileExpr(pred, s)
	if err != nil {
		return nil, err
	}
	filtered := s.rel.Select(c, func(i int) bool { return truthy(comp.fn(i)) })
	return &source{rel: filtered, syms: s.syms}, nil
}

// --- SELECT pipeline -------------------------------------------------------

// execSelect routes a SELECT through the streaming morsel pipeline when
// the planner can take it, falling back to the materializing pipeline
// otherwise (and whenever streaming is disabled). Both paths produce
// bitwise-identical results; the streaming path just peaks at
// max-per-stage memory instead of sum-of-intermediates.
func (db *DB) execSelect(c *exec.Ctx, sel *SelectStmt) (*rel.Relation, error) {
	// A forced-spill retry runs materialized on purpose: the
	// materializing operators (HashJoin, GroupBy, SortStable) are the
	// ones with disk-backed twins, while the streaming join build has
	// none.
	if db.streamingEnabled() && !c.Spill().IsForced() {
		res, err := db.execSelectStreaming(c, sel)
		if !errors.Is(err, errNeedMaterialize) {
			return res, err
		}
	}
	return db.execSelectMaterialized(c, sel)
}

func (db *DB) execSelectMaterialized(c *exec.Ctx, sel *SelectStmt) (*rel.Relation, error) {
	src, err := db.buildFrom(c, sel.From)
	if err != nil {
		return nil, err
	}
	if sel.Where != nil {
		if src, err = filterSource(c, src, sel.Where); err != nil {
			return nil, err
		}
	}

	items := sel.Items
	// Expand stars against the current symbols.
	var expanded []SelectItem
	for _, it := range items {
		if !it.Star {
			expanded = append(expanded, it)
			continue
		}
		for _, sy := range src.syms {
			expanded = append(expanded, SelectItem{
				Expr: &ColRef{Qualifier: sy.qual, Name: sy.name},
				As:   sy.name,
			})
		}
	}
	items = expanded

	// Aggregation.
	aggs := findAggregates(items, sel.Having)
	if len(aggs) > 0 || len(sel.GroupBy) > 0 {
		if src, err = groupSource(c, src, sel.GroupBy, aggs); err != nil {
			return nil, err
		}
		rewrites := make(map[string]Expr)
		for k, g := range sel.GroupBy {
			rewrites[keyOf(g)] = &ColRef{Qualifier: grpQual, Name: fmt.Sprintf("g%d", k)}
		}
		for k, a := range aggs {
			rewrites[keyOf(a)] = &ColRef{Qualifier: grpQual, Name: fmt.Sprintf("agg%d", k)}
		}
		for k := range items {
			items[k].Expr = rewrite(items[k].Expr, rewrites)
		}
		if sel.Having != nil {
			having := rewrite(sel.Having, rewrites)
			if src, err = filterSource(c, src, having); err != nil {
				return nil, err
			}
		}
	} else if sel.Having != nil {
		return nil, fmt.Errorf("sql: HAVING without aggregation")
	}

	return finishSelect(c, sel, items, src)
}

// projectMeta resolves the projection: compiled evaluators over the
// given source plus the output schema and symbols, with the duplicate
// name disambiguation the dialect applies. Both pipelines (and the
// streaming planner's dry run) funnel through it, so output naming and
// typing can never diverge between them.
func projectMeta(items []SelectItem, src *source) (rel.Schema, []sym, []*compiled, error) {
	outSchema := make(rel.Schema, len(items))
	outSyms := make([]sym, len(items))
	comps := make([]*compiled, len(items))
	seen := map[string]int{}
	for k, it := range items {
		comp, err := compileExpr(it.Expr, src)
		if err != nil {
			return nil, nil, nil, err
		}
		name := it.As
		if name == "" {
			if cr, ok := it.Expr.(*ColRef); ok {
				name = cr.Name
			} else {
				name = fmt.Sprintf("col%d", k+1)
			}
		}
		if prev, dup := seen[name]; dup {
			// Disambiguate duplicate output names with the qualifier.
			if cr, ok := items[prev].Expr.(*ColRef); ok && cr.Qualifier != "" && outSchema[prev].Name == name {
				outSchema[prev].Name = cr.Qualifier + "." + name
			}
			if cr, ok := it.Expr.(*ColRef); ok && cr.Qualifier != "" {
				name = cr.Qualifier + "." + name
			} else {
				name = fmt.Sprintf("%s_%d", name, k+1)
			}
		}
		seen[name] = k
		outSchema[k] = rel.Attr{Name: name, Type: comp.typ}
		outSyms[k] = sym{name: name}
		comps[k] = comp
	}
	return outSchema, outSyms, comps, nil
}

// finishSelect runs the tail of the SELECT pipeline — projection,
// DISTINCT, ORDER BY, LIMIT — over a materialized source. The streaming
// aggregation path funnels through it too (its grouped relation is
// materialized by the time grouping completes), so the tail semantics
// cannot diverge between pipelines.
func finishSelect(c *exec.Ctx, sel *SelectStmt, items []SelectItem, src *source) (*rel.Relation, error) {
	outSchema, outSyms, comps, err := projectMeta(items, src)
	if err != nil {
		return nil, err
	}
	n := src.rel.NumRows()
	outCols := make([]*bat.BAT, len(items))
	for k := range comps {
		outCols[k] = materialize(comps[k], n)
	}
	out, err := rel.New("", outSchema, outCols)
	if err != nil {
		return nil, err
	}
	return finishOutput(c, sel, out, outSyms, src)
}

// finishOutput applies DISTINCT, ORDER BY and LIMIT to the projected
// output. src, when non-nil, is the pre-projection source ORDER BY may
// fall back to for sort keys that were not selected; the streaming
// projection path passes nil (its planner already proved the sort keys
// compile against the output).
func finishOutput(c *exec.Ctx, sel *SelectStmt, out *rel.Relation, outSyms []sym, src *source) (*rel.Relation, error) {
	if sel.Distinct {
		out = out.Distinct(c)
	}

	if len(sel.OrderBy) > 0 {
		outSrc := &source{rel: out, syms: outSyms}
		comps := make([]*compiled, len(sel.OrderBy))
		for k, ob := range sel.OrderBy {
			comp, err := compileExpr(ob.Expr, outSrc)
			if err != nil && src != nil && !sel.Distinct && src.rel.NumRows() == out.NumRows() {
				// Fall back to the pre-projection source: ORDER BY may
				// reference input columns that were not selected.
				comp, err = compileExpr(ob.Expr, src)
			}
			if err != nil {
				return nil, err
			}
			comps[k] = comp
		}
		// Compiled comparators only read at fn(i) time, so the parallel
		// (and, under pressure, disk-merging) stable sort is safe here.
		idx := bat.SortStable(c, out.NumRows(), func(a, b int) bool {
			for k, comp := range comps {
				va, vb := comp.fn(a), comp.fn(b)
				if va.Equal(vb) {
					continue
				}
				if sel.OrderBy[k].Desc {
					return vb.Less(va)
				}
				return va.Less(vb)
			}
			return false
		})
		out = out.Gather(c, idx)
		bat.FreeInts(idx)
	}

	if sel.Limit >= 0 {
		out = out.Limit(c, sel.Limit)
	}
	return out, nil
}

// grpQual is the reserved qualifier for grouped columns.
const grpQual = "#grp"

// findAggregates walks the select items and HAVING clause collecting
// aggregate calls in a deterministic order (deduplicated structurally).
func findAggregates(items []SelectItem, having Expr) []*FuncCall {
	var out []*FuncCall
	seen := map[string]bool{}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *FuncCall:
			if _, ok := aggFuncs[x.Name]; ok {
				k := keyOf(x)
				if !seen[k] {
					seen[k] = true
					out = append(out, x)
				}
				return // no nested aggregates
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *UnaryExpr:
			walk(x.E)
		case *BinaryExpr:
			walk(x.L)
			walk(x.R)
		}
	}
	for _, it := range items {
		if it.Expr != nil {
			walk(it.Expr)
		}
	}
	if having != nil {
		walk(having)
	}
	return out
}

// groupSource materializes group keys and aggregate inputs, runs the
// grouping operator, and exposes the result under the #grp qualifier.
func groupSource(c *exec.Ctx, src *source, groupBy []Expr, aggs []*FuncCall) (*source, error) {
	n := src.rel.NumRows()
	schema := rel.Schema{}
	cols := []*bat.BAT{}
	var keyNames []string
	for k, g := range groupBy {
		comp, err := compileExpr(g, src)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("g%d", k)
		schema = append(schema, rel.Attr{Name: name, Type: comp.typ})
		cols = append(cols, materialize(comp, n))
		keyNames = append(keyNames, name)
	}
	specs := make([]rel.AggSpec, len(aggs))
	for k, a := range aggs {
		fn := aggFuncs[a.Name]
		spec := rel.AggSpec{Func: fn, As: fmt.Sprintf("agg%d", k)}
		if !a.Star {
			if len(a.Args) != 1 {
				return nil, fmt.Errorf("sql: %s takes one argument", a.Name)
			}
			comp, err := compileExpr(a.Args[0], src)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("a%d", k)
			schema = append(schema, rel.Attr{Name: name, Type: comp.typ})
			cols = append(cols, materialize(comp, n))
			spec.Attr = name
		} else if fn != rel.Count {
			return nil, fmt.Errorf("sql: %s(*) not supported", a.Name)
		}
		specs[k] = spec
	}
	if len(cols) == 0 {
		// Pure COUNT(*) with no grouping materializes no columns; keep a
		// dummy column so the row count survives into the grouping.
		schema = rel.Schema{{Name: "#dummy", Type: bat.Int}}
		cols = []*bat.BAT{bat.FromInts(make([]int64, n))}
	}
	tmp, err := rel.New("", schema, cols)
	if err != nil {
		return nil, err
	}
	grouped, err := rel.GroupBy(c, tmp, keyNames, specs)
	if err != nil {
		return nil, err
	}
	// Global aggregation over an empty input yields one row of zeros
	// (COUNT(*) = 0), matching SQL semantics.
	if len(keyNames) == 0 && grouped.NumRows() == 0 {
		grouped = zeroAggRow(grouped)
	}
	return newSource(grouped, grpQual), nil
}

// zeroAggRow is the SQL empty-global-aggregation result: a single row of
// zero values (COUNT(*) = 0) in the grouped relation's schema.
func zeroAggRow(grouped *rel.Relation) *rel.Relation {
	b := rel.NewBuilder("", grouped.Schema)
	vals := make([]bat.Value, len(grouped.Schema))
	for k, a := range grouped.Schema {
		switch a.Type {
		case bat.Int:
			vals[k] = bat.IntValue(0)
		case bat.Float:
			vals[k] = bat.FloatValue(0)
		default:
			vals[k] = bat.StringValue("")
		}
	}
	b.MustAdd(vals...)
	return b.Relation()
}

// rewrite replaces sub-expressions whose structural key appears in the map.
func rewrite(e Expr, m map[string]Expr) Expr {
	if e == nil {
		return nil
	}
	if r, ok := m[keyOf(e)]; ok {
		return r
	}
	switch x := e.(type) {
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, E: rewrite(x.E, m)}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: rewrite(x.L, m), R: rewrite(x.R, m)}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for k, a := range x.Args {
			args[k] = rewrite(a, m)
		}
		return &FuncCall{Name: x.Name, Star: x.Star, Args: args}
	case *InExpr:
		list := make([]Expr, len(x.List))
		for k, a := range x.List {
			list[k] = rewrite(a, m)
		}
		return &InExpr{E: rewrite(x.E, m), List: list, Not: x.Not}
	case *BetweenExpr:
		return &BetweenExpr{E: rewrite(x.E, m), Lo: rewrite(x.Lo, m), Hi: rewrite(x.Hi, m), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{E: rewrite(x.E, m), Pattern: x.Pattern, Not: x.Not}
	}
	return e
}
