package sql

import (
	"context"
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
// Statements are admitted against their options' governor before they
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
	lastPipe []exec.StageStats
	cache    planCache

	// Out-of-core execution (SetSpill): when enabled, every statement
	// context carries a spill manager staging under spillDir.
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

// NewDB returns an empty database with the plan cache enabled.
// Statements run under the process-default governor until the options
// name another (SetRMAOptions, ExecContext).
func NewDB() *DB {
	db := &DB{
		tables:    make(map[string]*rel.Relation),
		persisted: make(map[string]bool),
		stored:    make(map[string]*store.Reader),
	}
	db.cache.init(defaultPlanCacheCap)
	return db
}

// SetRMAOptions sets the default execution options (policy, sort mode,
// tenant, memory budget, governor, stats) used by RMA table functions
// and the statement pipeline; nil restores the defaults. A statement
// is admitted against, and charges its tenant on, the options'
// Governor, or exec.DefaultGovernor() when that is nil. Statements
// executed through ExecContext carry their own options instead.
// Changing the defaults invalidates the plan cache: RMA policy can
// change what a table function returns.
func (db *DB) SetRMAOptions(opts *core.Options) {
	db.mu.Lock()
	db.rmaOpts = opts
	db.mu.Unlock()
	db.cache.invalidate()
}

// SetSpill enables out-of-core statement execution: every statement
// context carries a spill manager staging under dir (empty means the OS
// temp dir), and a grouped aggregation — the one spilling operator —
// whose group table holds more than threshold bytes takes its
// disk-backed path (threshold 0 derives half the statement tenant's
// budget at decision time). Spilling never changes results — the
// spilled aggregation is bitwise identical to its in-memory twin — so
// the switch only trades memory for disk traffic. Sorts, joins and RMA
// table functions run in memory. A negative threshold disables
// spilling again.
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
// for comparison — the differential tests run both ways — and as an
// escape hatch.
func (db *DB) SetPlanCache(on bool) {
	db.cache.setEnabled(on)
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
	opts := db.rmaOpts
	db.mu.RUnlock()
	return Metrics{
		GovernorMetrics: opts.GovernorOrDefault().Metrics(),
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

// Register stores a relation under a name, replacing any previous one.
// It is the one way columns the catalog did not build enter it, and
// the catalog holds dense columns only: a zero-suppressed tail
// (bat.Sparse, the RMA kernels' compressed format) is densified here,
// once, so every relational operator reads one column representation.
func (db *DB) Register(name string, r *rel.Relation) {
	cols := append([]*bat.BAT(nil), r.Cols...)
	for k, col := range cols {
		if col.IsSparse() {
			cols[k] = bat.FromVector(col.Vector())
		}
	}
	db.mu.Lock()
	db.tables[name] = &rel.Relation{Name: name, Schema: r.Schema, Cols: cols}
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
// options. See ExecContext.
func (db *DB) Exec(src string) (*rel.Relation, error) {
	return db.ExecWith(src, nil)
}

// ExecWith is ExecContext without a cancellation signal.
func (db *DB) ExecWith(src string, opts *core.Options) (*rel.Relation, error) {
	return db.ExecContext(context.Background(), src, opts)
}

// ExecContext is Exec with per-call execution options: a concurrent server
// maps each request to its tenant's options without touching the
// database-wide defaults (nil opts uses those defaults). Every
// statement runs under its own execution context (see stmtCtx), so
// concurrent statements with different parallelism budgets or tenants
// never share a worker knob or an arena. Each statement is admitted,
// planned and executed once: an operator whose parallel-only scratch
// does not fit the memory budget runs its serial body in place, and a
// statement that exceeds the budget anyway returns the typed error —
// matching exec.ErrMemoryBudget.
//
// Single-statement SELECTs over plain tables and joins are served
// through the plan cache: a repeat of the same normalized statement
// text skips parsing and planning entirely.
//
// A statement that waits for admission gives up when ctx is done and
// the script returns ctx.Err(); ctx is not consulted once a statement
// runs.
func (db *DB) ExecContext(ctx context.Context, src string, opts *core.Options) (*rel.Relation, error) {
	if opts == nil {
		db.mu.RLock()
		opts = db.rmaOpts
		db.mu.RUnlock()
	}
	key, normOK := normalizeStmt(src)
	if normOK {
		if e := db.cache.get(key); e != nil {
			return db.execCached(ctx, e, opts)
		}
	}
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if normOK && len(stmts) == 1 {
		if sel, ok := stmts[0].(*SelectStmt); ok && cacheableSelect(sel) {
			if e := db.cache.put(key, sel); e != nil {
				return db.execCached(ctx, e, opts)
			}
		}
	}
	var last *rel.Relation
	for _, s := range stmts {
		res, err := db.runStmt(ctx, s, opts)
		if err != nil {
			return nil, err
		}
		if res != nil {
			last = res
		}
	}
	return last, nil
}

// execCached runs one execution of a cached statement through the
// entry's stream plan (planned lazily on the entry's first execution,
// shared and read-only afterwards).
func (db *DB) execCached(ctx context.Context, e *planEntry, opts *core.Options) (res *rel.Relation, err error) {
	c, finish, err := db.stmtCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer finish()
	defer exec.CatchBudget(&err)
	plan, err := e.planFor(db, c, opts)
	if err != nil {
		return nil, err
	}
	return db.execPlanned(c, e.sel, plan)
}

// runStmt admits one statement against the governor, executes it under
// a fresh per-statement context, and tears the context down: the
// statement's arena charges are released and the admission reservation
// is handed back whether the statement succeeded or not.
func (db *DB) runStmt(ctx context.Context, s Statement, opts *core.Options) (res *rel.Relation, err error) {
	c, finish, err := db.stmtCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer finish()
	defer exec.CatchBudget(&err)
	return db.run(c, opts, s)
}

// stmtCtx builds one statement's execution context from its options:
// the Parallelism budget scopes to this statement only (zero follows
// the process default), and a
// tenant/memory-budget configuration routes the statement's arena
// traffic through a per-statement accounted arena charging the tenant.
// The statement is admitted against the options' governor before the
// context is handed out — its declared budget reserves room under the
// global cap — and the returned finish func must be called when the
// statement ends: it closes the arena (releasing the statement's
// outstanding charges) and returns the admission reservation. When ctx
// is done before the statement is admitted, stmtCtx closes the arena
// and returns ctx.Err().
//
// The relational operators of the SELECT pipeline run under this
// context; RMA table functions build their own context from the same
// options inside core.Unary/Binary, charging the same tenant (the
// statement's options reach evalRMA as a parameter).
func (db *DB) stmtCtx(ctx context.Context, opts *core.Options) (*exec.Ctx, func(), error) {
	gov := opts.GovernorOrDefault()
	var workers int
	var budget int64
	var arena *exec.Arena
	if opts != nil {
		workers = opts.Parallelism
		budget = opts.MemoryBudget
		arena = gov.ArenaFor(opts.Tenant, budget)
	}
	release, err := gov.Admit(ctx, budget)
	if err != nil {
		arena.Close()
		return nil, nil, err
	}
	c := exec.NewCtx(workers, arena, nil)
	var sp *exec.Spill
	if dir, th, on := db.spillConfig(); on {
		sp = exec.NewSpill(dir, th)
		c = c.WithSpill(sp)
	}
	return c, func() {
		if st := sp.Stats(); st.Events > 0 {
			db.spillBytes.Add(st.SpilledBytes)
			db.spillParts.Add(st.Partitions)
			db.spillEvents.Add(st.Events)
		}
		sp.Cleanup()
		arena.Close()
		release()
	}, nil
}

// Query executes a single SELECT statement.
func (db *DB) Query(src string) (*rel.Relation, error) {
	return db.QueryWith(src, nil)
}

// QueryWith is Query with per-call execution options (see ExecContext).
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

func (db *DB) run(c *exec.Ctx, opts *core.Options, s Statement) (*rel.Relation, error) {
	switch x := s.(type) {
	case *SelectStmt:
		src, err := db.execSelect(c, opts, x)
		if err != nil {
			return nil, err
		}
		return src, nil
	case *CreateStmt:
		return nil, db.runCreate(x)
	case *InsertStmt:
		return nil, db.runInsert(c, opts, x)
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

func (db *DB) runInsert(c *exec.Ctx, opts *core.Options, x *InsertStmt) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	tbl, err := db.Table(x.Table)
	if err != nil {
		return err
	}
	var rows *rel.Relation
	if x.Select != nil {
		rows, err = db.execSelect(c, opts, x.Select)
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
			vals, err := evalRow(c, rowExprs)
			if err != nil {
				return err
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

// evalRow evaluates the column-free expressions of one VALUES row.
func evalRow(c *exec.Ctx, exprs []Expr) ([]bat.Value, error) {
	f := &frame{c: c, n: 1}
	defer f.release()
	vals := make([]bat.Value, len(exprs))
	for k, e := range exprs {
		p, err := compileExpr(e, nil)
		if err != nil {
			return nil, err
		}
		v, err := p.val(f, nil)
		if err != nil {
			return nil, err
		}
		vals[k] = v.Get(0)
		f.free(v)
	}
	return vals, nil
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

func (db *DB) buildFrom(c *exec.Ctx, opts *core.Options, te TableExpr) (*source, error) {
	var alias string
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
		alias = x.Alias
	case *RMARef:
		alias = x.Alias
	default:
		return nil, fmt.Errorf("sql: unsupported table expression %T", te)
	}
	r, err := db.relationOf(c, opts, te)
	if err != nil {
		return nil, err
	}
	return newSource(r, alias), nil
}

// relationOf evaluates an RMA argument relation with its original
// attribute names intact (BY clauses reference them).
func (db *DB) relationOf(c *exec.Ctx, opts *core.Options, te TableExpr) (*rel.Relation, error) {
	switch x := te.(type) {
	case *TableRef:
		return db.Table(x.Name)
	case *SubqueryRef:
		return db.execSelect(c, opts, x.Select)
	case *RMARef:
		return db.evalRMA(c, opts, x)
	}
	return nil, fmt.Errorf("sql: unsupported RMA argument %T", te)
}

func (db *DB) evalRMA(c *exec.Ctx, opts *core.Options, x *RMARef) (*rel.Relation, error) {
	op, err := core.ParseOp(x.Op)
	if err != nil {
		return nil, err
	}
	args := make([]*rel.Relation, len(x.Args))
	for k, a := range x.Args {
		r, err := db.relationOf(c, opts, a.Rel)
		if err != nil {
			return nil, err
		}
		args[k] = r
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

// filterRel keeps the rows of r on which every predicate is truthy,
// gathered into arena-drawn columns.
func filterRel(c *exec.Ctx, r *rel.Relation, preds []*compiled) (*rel.Relation, error) {
	f := relFrame(c, r)
	defer f.release()
	rows, err := f.filter(preds)
	if err != nil {
		return nil, err
	}
	out := r.Gather(c, rows)
	f.freeRows(rows)
	return out, nil
}

// --- SELECT pipeline -------------------------------------------------------

// execSelect plans a SELECT and runs it through the streaming morsel
// pipeline. A planning error is the statement's error.
func (db *DB) execSelect(c *exec.Ctx, opts *core.Options, sel *SelectStmt) (*rel.Relation, error) {
	plan, err := db.planStream(c, opts, sel)
	if err != nil {
		return nil, err
	}
	return db.execPlanned(c, sel, plan)
}

// projectMeta compiles the projection over the given source and
// resolves the output schema and symbols, with the duplicate name
// disambiguation the dialect applies. The streaming and the grouped
// projection both funnel through it, so output naming and typing can
// never diverge between them.
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
			// A grouped column's name is internal: an unaliased grouped
			// item is named like any other expression.
			if cr, ok := it.Expr.(*ColRef); ok && cr.Qualifier != grpQual {
				name = cr.Name
			} else {
				name = fmt.Sprintf("col%d", k+1)
			}
		}
		if prev, dup := seen[name]; dup {
			// Disambiguate duplicate output names with the qualifier.
			if q := userQual(items[prev].Expr); q != "" && outSchema[prev].Name == name {
				outSchema[prev].Name = q + "." + name
			}
			if q := userQual(it.Expr); q != "" {
				name = q + "." + name
			} else {
				// The position's suffix, or the first free one after it.
				for s, base := k+1, name; ; s++ {
					name = fmt.Sprintf("%s_%d", base, s)
					if _, taken := seen[name]; !taken {
						break
					}
				}
			}
		}
		seen[name] = k
		outSchema[k] = rel.Attr{Name: name, Type: comp.typ}
		outSyms[k] = sym{name: name}
		comps[k] = comp
	}
	return outSchema, outSyms, comps, nil
}

// userQual is the qualifier of a column reference as written in the
// query. The reserved grouped-source qualifier names no input, so a
// grouped item has none and projectMeta disambiguates it positionally.
func userQual(e Expr) string {
	if cr, ok := e.(*ColRef); ok && cr.Qualifier != grpQual {
		return cr.Qualifier
	}
	return ""
}

// finishOutput applies DISTINCT, ORDER BY and LIMIT to the projected
// output. owned marks the columns of out that are the statement's own
// arena columns (nil: none); each step that replaces the output hands
// those back, and its own result columns are owned in turn. in, when
// non-nil, binds the pre-projection rows the ORDER BY keys marked input
// are evaluated over (row for row the output's, since such keys exist
// only without DISTINCT). A bounded ORDER BY ... LIMIT k (topK) gathers
// only the k rows bat.TopKeys selects; any other ORDER BY sorts and
// gathers every row before the LIMIT.
func finishOutput(c *exec.Ctx, sel *SelectStmt, out *rel.Relation, owned []bool, order []orderKey, in *frame) (*rel.Relation, error) {
	replace := func(next *rel.Relation) {
		for k, col := range out.Cols {
			if k < len(owned) && owned[k] {
				bat.Release(c, col)
			}
		}
		out, owned = next, make([]bool, len(next.Cols))
		for k := range owned {
			owned[k] = true
		}
	}
	if sel.Distinct {
		// Output names are unique (rel.New): every column is a key.
		grouped, err := rel.GroupBy(c, out, out.Schema.Names(), nil)
		if err != nil {
			return nil, err
		}
		replace(grouped)
	}
	if len(order) > 0 {
		k := -1
		if topK(sel) {
			k = sel.Limit
		}
		idx, err := orderIndex(c, out, order, in, k)
		if err != nil {
			return nil, err
		}
		replace(out.Gather(c, idx))
		c.Arena().FreeInts(idx)
	}
	if sel.Limit >= 0 && out.NumRows() > sel.Limit {
		replace(out.Limit(c, sel.Limit))
	}
	return out, nil
}

// topK reports whether a statement is a bounded ORDER BY ... LIMIT k:
// k at most bat.MorselSize rows, which bat.TopKeys selects without
// sorting the rest. A larger k sorts every row.
func topK(sel *SelectStmt) bool {
	return len(sel.OrderBy) > 0 && sel.Limit >= 0 && sel.Limit <= bat.MorselSize
}

// orderIndex evaluates every ORDER BY key once over out (in for keys
// marked input) and returns the stable sort permutation of out's rows
// under them (bat.SortKeys), or its first k rows (bat.TopKeys) when k
// is not negative. Floats order by bat.CompareFloat, so NaN sorts last
// ascending and first descending.
func orderIndex(c *exec.Ctx, out *rel.Relation, order []orderKey, in *frame, k int) ([]int, error) {
	of := relFrame(c, out)
	defer of.release()
	keys, err := orderKeys(order, of, in)
	if err != nil {
		return nil, err
	}
	defer freeOrderKeys(order, keys, of, in)
	if k >= 0 {
		return bat.TopKeys(c, keys, orderDesc(order), k), nil
	}
	return bat.SortKeys(c, keys, orderDesc(order)), nil
}

// orderKeys evaluates every ORDER BY key, a key marked input over in and
// any other over out. On an error it hands back what it evaluated.
func orderKeys(order []orderKey, out, in *frame) ([]*bat.Vector, error) {
	keys := make([]*bat.Vector, 0, len(order))
	for _, ok := range order {
		v, err := ok.prog.val(ok.frame(out, in), nil)
		if err != nil {
			freeOrderKeys(order, keys, out, in)
			return nil, err
		}
		keys = append(keys, v)
	}
	return keys, nil
}

// freeOrderKeys hands back the keys orderKeys evaluated.
func freeOrderKeys(order []orderKey, keys []*bat.Vector, out, in *frame) {
	for k, v := range keys {
		order[k].frame(out, in).free(v)
	}
}

// frame picks the frame the key evaluates over.
func (ok orderKey) frame(out, in *frame) *frame {
	if ok.input {
		return in
	}
	return out
}

// orderDesc returns the keys' descending flags.
func orderDesc(order []orderKey) []bool {
	desc := make([]bool, len(order))
	for k, ok := range order {
		desc[k] = ok.desc
	}
	return desc
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

// groupedItems rewrites a grouped SELECT's items and HAVING onto the
// grouped source: each GROUP BY expression becomes its #grp.g<k> key
// column and each aggregate call its #grp.agg<k> column. It returns
// rewritten copies, so a cached plan's items are never mutated. An
// unaliased item that is a bare group-key column is aliased to the
// column's own name, so projectMeta names it as an ungrouped SELECT would.
func groupedItems(items []SelectItem, groupBy []Expr, aggs []*FuncCall, having Expr) ([]SelectItem, Expr) {
	rewrites := make(map[string]Expr, len(groupBy)+len(aggs))
	for k, g := range groupBy {
		rewrites[keyOf(g)] = &ColRef{Qualifier: grpQual, Name: fmt.Sprintf("g%d", k)}
	}
	for k, a := range aggs {
		rewrites[keyOf(a)] = &ColRef{Qualifier: grpQual, Name: fmt.Sprintf("agg%d", k)}
	}
	out := make([]SelectItem, len(items))
	for k, it := range items {
		if cr, ok := it.Expr.(*ColRef); ok && it.As == "" {
			if _, isKey := rewrites[keyOf(cr)]; isKey {
				it.As = cr.Name
			}
		}
		it.Expr = rewrite(it.Expr, rewrites)
		out[k] = it
	}
	return out, rewrite(having, rewrites)
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
