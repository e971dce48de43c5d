package sql

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/store"
)

// This file implements durable tables: CREATE TABLE ... PERSIST
// checkpoints the table to a column-segment file under the database's
// data directory on every change (CREATE, INSERT), and LoadPersisted
// restores the checkpointed tables after a restart — bitwise identical,
// floats round-tripping through their exact bit patterns. The open
// segment readers double as the zone-map source for scan-time segment
// pruning.

// SetDataDir configures the directory persisted tables checkpoint to,
// creating it if needed. An empty dir disables persistence again.
func (db *DB) SetDataDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("sql: data dir: %w", err)
		}
	}
	db.mu.Lock()
	db.dataDir = dir
	db.mu.Unlock()
	return nil
}

// segPathLocked returns the checkpoint path for a table; callers hold
// db.mu. Table names come from the identifier lexer, so they contain no
// path separators.
func (db *DB) segPathLocked(name string) string {
	return filepath.Join(db.dataDir, name+".seg")
}

// storedReader returns the open segment reader backing a persisted
// table, or nil.
func (db *DB) storedReader(name string) *store.Reader {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.stored[name]
}

// Close releases the segment readers of persisted tables. The in-memory
// catalog stays usable; persisted tables simply lose zone-map pruning.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for name, rd := range db.stored {
		if err := rd.Close(); err != nil && first == nil {
			first = err
		}
		delete(db.stored, name)
	}
	return first
}

// checkpoint writes the current snapshot of a persisted table to its
// segment file (atomically: temp file + rename) and refreshes the open
// reader so scans prune against the new zone maps.
func (db *DB) checkpoint(name string) error {
	db.mu.RLock()
	dir := db.dataDir
	r := db.tables[name]
	db.mu.RUnlock()
	if dir == "" {
		return fmt.Errorf("sql: checkpoint %q without a data directory", name)
	}
	if r == nil {
		return fmt.Errorf("sql: no such table %q", name)
	}
	path := filepath.Join(dir, name+".seg")
	tmp := path + ".tmp"

	specs := make([]store.ColSpec, len(r.Schema))
	data := make([]store.ColData, len(r.Cols))
	for j, a := range r.Schema {
		specs[j] = store.ColSpec{Name: a.Name, Kind: kindOfType(a.Type)}
		v := r.Cols[j].Vector()
		switch v.Type() {
		case bat.Float:
			data[j] = store.ColData{F: v.Floats()}
		case bat.Int:
			data[j] = store.ColData{I: v.Ints()}
		default:
			data[j] = store.ColData{S: v.Strings()}
		}
	}

	w, err := store.Create(tmp, name, specs)
	if err != nil {
		return err
	}
	if r.NumRows() > 0 {
		if err := w.Append(r.NumRows(), data); err != nil {
			w.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}

	rd, err := store.Open(path)
	if err != nil {
		return fmt.Errorf("sql: reopen checkpoint %q: %w", name, err)
	}
	db.mu.Lock()
	if old := db.stored[name]; old != nil {
		old.Close()
	}
	db.stored[name] = rd
	db.mu.Unlock()
	return nil
}

// LoadPersisted restores every checkpointed table found in the data
// directory into the catalog, marking each persisted. Returns the
// loaded table names in directory order. The load runs under the
// database's configured RMA options: segment reads are charged to the
// tenant arena, and a memory-budget overrun surfaces as an error
// matching exec.ErrMemoryBudget instead of unwinding the caller.
func (db *DB) LoadPersisted() (loaded []string, err error) {
	db.mu.RLock()
	dir := db.dataDir
	opts := db.rmaOpts
	db.mu.RUnlock()
	if dir == "" {
		return nil, fmt.Errorf("sql: LoadPersisted without a data directory")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sql: data dir: %w", err)
	}
	c, finish, err := db.stmtCtx(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	defer finish()
	defer exec.CatchBudget(&err)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		r, rd, err := loadSegTable(c, filepath.Join(dir, e.Name()))
		if err != nil {
			return loaded, err
		}
		db.mu.Lock()
		db.tables[r.Name] = r
		db.persisted[r.Name] = true
		if old := db.stored[r.Name]; old != nil {
			old.Close()
		}
		db.stored[r.Name] = rd
		db.mu.Unlock()
		loaded = append(loaded, r.Name)
	}
	db.cache.invalidate()
	return loaded, nil
}

// loadSegTable reads a whole segment file into an in-memory relation
// and returns it with the (still open) reader. Segment reads draw from
// c's arena, so a governed load charges the tenant.
func loadSegTable(c *exec.Ctx, path string) (*rel.Relation, *store.Reader, error) {
	rd, err := store.Open(path)
	if err != nil {
		return nil, nil, err
	}
	specs := rd.Specs()
	n := int(rd.Rows())
	schema := make(rel.Schema, len(specs))
	cols := make([]*bat.BAT, len(specs))
	for j, sp := range specs {
		schema[j] = rel.Attr{Name: sp.Name, Type: typeOfKind(sp.Kind)}
		var fs []float64
		var is []int64
		var ss []string
		switch sp.Kind {
		case store.KFloat:
			fs = make([]float64, 0, n)
		case store.KInt:
			is = make([]int64, 0, n)
		default:
			ss = make([]string, 0, n)
		}
		for s := 0; s < rd.NumSegs(); s++ {
			d, err := rd.ReadSeg(c, j, s)
			if err != nil {
				rd.Close()
				return nil, nil, err
			}
			fs = append(fs, d.F...)
			is = append(is, d.I...)
			ss = append(ss, d.S...)
			store.ReleaseColData(c, d)
		}
		switch sp.Kind {
		case store.KFloat:
			cols[j] = bat.FromFloats(fs)
		case store.KInt:
			cols[j] = bat.FromInts(is)
		default:
			cols[j] = bat.FromStrings(ss)
		}
	}
	r, err := rel.New(rd.Name(), schema, cols)
	if err != nil {
		rd.Close()
		return nil, nil, err
	}
	return r, rd, nil
}

func kindOfType(t bat.Type) store.ColKind {
	switch t {
	case bat.Float:
		return store.KFloat
	case bat.Int:
		return store.KInt
	}
	return store.KString
}

func typeOfKind(k store.ColKind) bat.Type {
	switch k {
	case store.KFloat:
		return bat.Float
	case store.KInt:
		return bat.Int
	}
	return bat.String
}
