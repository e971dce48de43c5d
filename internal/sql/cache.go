package sql

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
)

// This file is the plan cache. A serving workload is almost entirely
// repeated statement shapes, so DB keeps the parsed AST — and, once the
// statement first runs, its stream plan — keyed by the normalized
// statement text; ExecContext fills it on a statement's first run. A hit skips lexing, parsing,
// planning, pushdown, pruning, and expression compilation: the plan's
// column-at-a-time programs are compiled once and are immutable, which
// is what keeps a shared plan safe under concurrent executions.
//
// Caching is restricted to single-statement SELECTs whose FROM tree is
// plain table references and joins: derived tables and RMA table
// functions materialize results into the plan at planning time, so a
// cached plan for them could silently pin stale data or a stale RMA
// policy. The cache is invalidated wholesale on every catalog change
// (CREATE/INSERT/DROP/Register) and on every execution-option change
// (SetRMAOptions): plans hold references
// to the catalog relations that existed at plan time, so any event that
// could change what a statement reads — or how — drops every entry.

// defaultPlanCacheCap bounds the number of cached statements; the LRU
// entry is evicted beyond it. Plans are small (an AST plus pruned
// symbol tables — the relations they reference are catalog-owned), so
// the bound exists to keep pathological generated-statement workloads
// from growing the map without limit, not to manage memory pressure.
const defaultPlanCacheCap = 256

// PlanCacheStats is the plan cache's observable state, surfaced through
// DB.Metrics.
type PlanCacheStats struct {
	Hits          int64 // statements served from a cached entry
	Misses        int64 // cacheable statements that had to parse (and were inserted)
	Invalidations int64 // wholesale invalidation events (DDL/DML, mode changes)
	Entries       int   // entries currently cached
}

// planEntry is one cached statement: the parsed SELECT plus, after its
// first successful planning, its stream plan.
type planEntry struct {
	key string
	sel *SelectStmt

	mu   sync.Mutex
	plan *selectPlan
}

// planFor returns the entry's stream plan, planning it on first use. A
// failed plan is not memoized: the error goes to the caller and the
// next execution plans again.
func (e *planEntry) planFor(db *DB, c *exec.Ctx, opts *core.Options) (*selectPlan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plan == nil {
		plan, err := db.planStream(c, opts, e.sel)
		if err != nil {
			return nil, err
		}
		e.plan = plan
	}
	return e.plan, nil
}

// planCache is a bounded LRU of planEntry keyed by normalized statement
// text.
type planCache struct {
	mu      sync.Mutex
	off     bool
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *planEntry

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

func (pc *planCache) init(capacity int) {
	pc.cap = capacity
	pc.entries = make(map[string]*list.Element)
	pc.lru = list.New()
}

// get returns the entry under key, promoting it to most recently used;
// nil when absent or the cache is off. Found entries count as hits.
func (pc *planCache) get(key string) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.off {
		return nil
	}
	el, ok := pc.entries[key]
	if !ok {
		return nil
	}
	pc.lru.MoveToFront(el)
	pc.hits.Add(1)
	return el.Value.(*planEntry)
}

// put inserts a parsed cacheable SELECT under key and counts the miss,
// evicting the least recently used entry beyond capacity. When another
// statement raced the insert, the existing entry wins. Returns nil when
// the cache is off.
func (pc *planCache) put(key string, sel *SelectStmt) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.off || pc.cap <= 0 {
		return nil
	}
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		return el.Value.(*planEntry)
	}
	pc.misses.Add(1)
	e := &planEntry{key: key, sel: sel}
	pc.entries[key] = pc.lru.PushFront(e)
	for len(pc.entries) > pc.cap {
		last := pc.lru.Back()
		pc.lru.Remove(last)
		delete(pc.entries, last.Value.(*planEntry).key)
	}
	return e
}

// invalidate drops every entry and counts one invalidation event.
func (pc *planCache) invalidate() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.invalidations.Add(1)
	clear(pc.entries)
	pc.lru.Init()
}

// setEnabled toggles the cache; disabling drops the entries (without
// counting an invalidation — the books track catalog/mode events, not
// configuration).
func (pc *planCache) setEnabled(on bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.off = !on
	if !on {
		clear(pc.entries)
		pc.lru.Init()
	}
}

func (pc *planCache) stats() PlanCacheStats {
	pc.mu.Lock()
	n := len(pc.entries)
	pc.mu.Unlock()
	return PlanCacheStats{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Invalidations: pc.invalidations.Load(),
		Entries:       n,
	}
}

// normalizeStmt re-lexes a statement into its canonical text: one space
// between tokens, keywords upper-cased by the lexer, identifiers always
// quoted (so an identifier can never collide with a keyword), strings
// re-escaped. Two statements differing only in whitespace, comments, or
// keyword case share a cache entry; anything the lexer rejects is not
// cacheable and reports its error through the ordinary parse path.
func normalizeStmt(src string) (string, bool) {
	toks, err := lex(src)
	if err != nil || len(toks) == 0 {
		return "", false
	}
	var b strings.Builder
	b.Grow(len(src) + len(toks)*3)
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokIdent:
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(t.text, `"`, `""`))
			b.WriteByte('"')
		case tokString:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, `'`, `''`))
			b.WriteByte('\'')
		default:
			b.WriteString(t.text)
		}
	}
	return b.String(), true
}

// cacheableSelect reports whether a parsed SELECT may be cached: its
// FROM tree must consist of plain table references and joins only.
// Derived tables and RMA table functions are executed — not referenced —
// at planning time, so caching them would freeze their results and, for
// RMA, the policy options they ran under.
func cacheableSelect(sel *SelectStmt) bool {
	return sel.From != nil && cacheableFrom(sel.From)
}

func cacheableFrom(te TableExpr) bool {
	switch x := te.(type) {
	case *TableRef:
		return true
	case *JoinExpr:
		return cacheableFrom(x.Left) && cacheableFrom(x.Right)
	}
	return false
}
