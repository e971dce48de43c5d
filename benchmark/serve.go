package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/gen"
	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/sql"
)

// serveMix drives a real rmaserver subprocess over a loopback socket. The
// server restores fact, dim and wide from segment files the benchmark
// wrote with the store's writer; two API keys map to two tenants; each of
// the two closed-loop connections sends its next statement when the
// previous reply has been read completely and verified. One operation is
// one statement of a seeded mix (gen.Mix). Statements take about a
// millisecond, so wire decode, parse/plan/cache, admission and JSON encode
// are a real share; the INSERTs invalidate the plan cache and re-checkpoint
// a segment file under read traffic.
type serveMix struct {
	opts *core.Options
	dir  string

	cmd    *osexec.Cmd
	url    string
	conns  []*conn
	mixes  [][]gen.Statement
	expect map[string]*rel.Relation // reference answer of every distinct query

	twin              *sql.DB // in-process database over the same data
	fact, dim, wide   *rel.Relation
	replayEvents      *gen.Table // the events table of the replayed INSERTs
	base              serverVars // server counters at the end of set-up
	storedPerUserByte float64

	pollStop chan struct{}
	pollDone chan struct{}
	queued   int // highest admission queue length the poller saw
}

// request is what the client records of one served statement.
type request struct {
	took    time.Duration // send to reply fully read
	elapsed time.Duration // the reply's elapsed_us: execution inside the server
	refused bool          // 429 or 503
}

// conn is one closed-loop connection with its own API key.
type conn struct {
	client   *http.Client
	key      string
	requests []request
	// acknowledged INSERTs, for the audit
	ackRows int64
	ackSum  float64
}

const eventsDDL = "CREATE TABLE events (id INT, k INT, val DOUBLE) PERSIST;"

var serverOnce struct {
	sync.Once
	path string
	err  error
}

// serverBinary builds cmd/rmaserver into the checkout's .bench_build once
// per process and returns its path.
func serverBinary(root string) (string, error) {
	serverOnce.Do(func() {
		abs, err := filepath.Abs(filepath.Join(root, ".bench_build", "rmaserver"))
		if err != nil {
			serverOnce.err = err
			return
		}
		cmd := osexec.Command("go", "build", "-o", abs, "./cmd/rmaserver")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			serverOnce.err = fmt.Errorf("go build ./cmd/rmaserver: %v\n%s", err, out)
			return
		}
		serverOnce.path = abs
	})
	return serverOnce.path, serverOnce.err
}

func (w *serveMix) setup(e *env) error {
	w.opts, w.dir = engineOptions(e.par), e.dir
	bin, err := serverBinary(e.root)
	if err != nil {
		return err
	}
	fact := gen.Fact(e.sz.serveFact, e.sz.serveDim, 64, e.seed)
	dim := gen.Dim(e.sz.serveDim, e.seed+1)
	wide := gen.Wide(e.sz.wideRows, e.sz.wideCols, e.seed+2)
	e.track(fact, dim, wide)

	data := filepath.Join(e.dir, "data")
	twinData := filepath.Join(e.dir, "twin")
	for _, d := range []string{data, twinData} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	var stored, raw int64
	err = e.timed("store.write", func() error {
		for _, t := range []*gen.Table{fact, dim, wide} {
			n, err := writeSegment(filepath.Join(data, t.Name+".seg"), t)
			if err != nil {
				return err
			}
			stored, raw = stored+n, raw+t.RawBytes()
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.storedPerUserByte = float64(stored) / float64(raw)

	// The server's start-up is its load of the segment files.
	if err := e.timed("store.load", func() error { return w.start(bin, data) }); err != nil {
		return err
	}
	w.conns = nil
	for _, key := range []string{"bench-a", "bench-b"} {
		w.conns = append(w.conns, &conn{key: key,
			client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}})
	}
	if _, _, err := w.conns[0].query(w.url, eventsDDL, w.opts.Parallelism); err != nil {
		return fmt.Errorf("create events: %w", err)
	}

	// The in-process twin: same relations, same options, its own events.
	w.fact, w.dim, w.wide = toRelation(fact), toRelation(dim), toRelation(wide)
	w.twin = sql.NewDB()
	w.twin.SetRMAOptions(w.opts)
	if err := w.twin.SetDataDir(twinData); err != nil {
		return err
	}
	w.twin.Register("fact", w.fact)
	w.twin.Register("dim", w.dim)
	w.twin.Register("wide", w.wide)
	if _, err := w.twin.Exec(eventsDDL); err != nil {
		return err
	}
	w.replayEvents = &gen.Table{Name: "events", Cols: []gen.Col{{Name: "id", I: []int64{}}, {Name: "k", I: []int64{}}, {Name: "val", F: []float64{}}}}

	w.mixes, w.expect = nil, map[string]*rel.Relation{}
	for c := range w.conns {
		mix := gen.Mix(e.sz.serveStmts, c, e.sz.serveDim, e.seed)
		w.mixes = append(w.mixes, mix)
		for _, st := range mix {
			if st.Kind == gen.KindInsert || w.expect[st.SQL] != nil {
				continue
			}
			if w.expect[st.SQL], err = w.twin.ExecWith(st.SQL, w.opts); err != nil {
				return fmt.Errorf("reference for %q: %w", st.SQL, err)
			}
		}
	}
	if w.base, err = w.vars(); err != nil {
		return err
	}
	if e.trace {
		w.pollStop, w.pollDone = make(chan struct{}), make(chan struct{})
		go w.poll()
	}
	return nil
}

// start launches the server on a free loopback port and waits until it
// answers /healthz.
func (w *serveMix) start(bin, data string) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	logFile, err := os.Create(filepath.Join(w.dir, "server.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	w.cmd = osexec.Command(bin, "-addr", addr, "-keys", "bench-a=tenant-a:256,bench-b=tenant-b:256", "-data", data)
	w.cmd.Stdout, w.cmd.Stderr = logFile, logFile
	if err := w.cmd.Start(); err != nil {
		return err
	}
	w.url = "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(w.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.stop()
	return fmt.Errorf("rmaserver did not come up on %s; see %s", addr, logFile.Name())
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if it has not after ten seconds.
func (w *serveMix) stop() error {
	if w.cmd == nil {
		return nil
	}
	w.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		w.cmd.Process.Kill()
		err = fmt.Errorf("rmaserver ignored SIGTERM, killed: %v", <-done)
	}
	w.cmd = nil
	return err
}

func (w *serveMix) clients() int { return len(w.conns) }
func (w *serveMix) warmup() int  { return 100 }
func (w *serveMix) tuples() int  { return w.fact.NumRows() }

func (w *serveMix) close() error {
	if w.pollStop != nil {
		close(w.pollStop)
		<-w.pollDone
		w.pollStop = nil
	}
	for _, c := range w.conns {
		c.client.CloseIdleConnections()
	}
	err := w.stop()
	if w.twin != nil {
		if cerr := w.twin.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// wireResult is the /query reply.
type wireResult struct {
	Batches []struct {
		Rows int               `json:"rows"`
		Cols []json.RawMessage `json:"cols"`
	} `json:"batches"`
	Rows      int   `json:"rows"`
	OK        bool  `json:"ok"`
	ElapsedUs int64 `json:"elapsed_us"`
	Error     *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// query sends one statement and reads the whole reply. It returns the
// decoded reply and the time from send to the last byte read.
func (c *conn) query(url, stmt string, workers int) (*wireResult, time.Duration, error) {
	body, err := json.Marshal(map[string]any{"sql": stmt, "workers": workers})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-API-Key", c.key)
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	var res wireResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, 0, fmt.Errorf("reply is not JSON: %v", err)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		c.requests = append(c.requests, request{took: took, refused: true})
	}
	if res.Error != nil {
		return nil, 0, fmt.Errorf("HTTP %d %s: %s", resp.StatusCode, res.Error.Code, res.Error.Message)
	}
	return &res, took, nil
}

func (w *serveMix) op(client, i int) (time.Duration, error) {
	c := w.conns[client]
	st := w.mixes[client][i%len(w.mixes[client])]
	res, took, err := c.query(w.url, st.SQL, w.opts.Parallelism)
	if err != nil {
		return 0, err
	}
	c.requests = append(c.requests, request{took: took, elapsed: time.Duration(res.ElapsedUs) * time.Microsecond})
	if st.Kind == gen.KindInsert {
		if !res.OK {
			return 0, fmt.Errorf("INSERT not acknowledged")
		}
		for _, ev := range st.Events {
			c.ackRows++
			c.ackSum += ev.Val
		}
		return took, nil
	}
	return took, sameAnswer(res, w.expect[st.SQL])
}

// sameAnswer compares a served result with the in-process reference, every
// cell exactly: both ran the same engine at the same worker budget, and
// the JSON encoding of a float64 round-trips.
func sameAnswer(res *wireResult, want *rel.Relation) error {
	if res.Rows != want.NumRows() {
		return fmt.Errorf("%d rows served, reference has %d", res.Rows, want.NumRows())
	}
	row := 0
	for _, b := range res.Batches {
		if len(b.Cols) != want.NumCols() {
			return fmt.Errorf("%d columns served, reference has %d", len(b.Cols), want.NumCols())
		}
		for k, raw := range b.Cols {
			vec := want.Cols[k].Vector()
			var same bool
			switch vec.Type() {
			case bat.Float:
				var got []*float64 // NaN and Inf are served as null
				if err := json.Unmarshal(raw, &got); err != nil {
					return err
				}
				ref := vec.Floats()[row : row+b.Rows]
				same = len(got) == len(ref)
				for i := 0; same && i < len(ref); i++ {
					if got[i] == nil {
						same = math.IsNaN(ref[i]) || math.IsInf(ref[i], 0)
					} else {
						same = math.Float64bits(*got[i]) == math.Float64bits(ref[i])
					}
				}
			case bat.Int:
				var got []int64
				if err := json.Unmarshal(raw, &got); err != nil {
					return err
				}
				same = slices.Equal(got, vec.Ints()[row:row+b.Rows])
			default:
				var got []string
				if err := json.Unmarshal(raw, &got); err != nil {
					return err
				}
				same = slices.Equal(got, vec.Strings()[row:row+b.Rows])
			}
			if !same {
				return fmt.Errorf("column %s differs from the reference in rows %d..%d", want.Schema[k].Name, row, row+b.Rows)
			}
		}
		row += b.Rows
	}
	if row != want.NumRows() {
		return fmt.Errorf("batches hold %d rows, reference has %d", row, want.NumRows())
	}
	return nil
}

// audit reads events back: every acknowledged row must be there.
func (w *serveMix) audit() error {
	var rows int64
	var sum float64
	for _, c := range w.conns {
		rows += c.ackRows
		sum += c.ackSum
	}
	res, _, err := w.conns[0].query(w.url, "SELECT COUNT(*) AS n, SUM(val) AS sv FROM events;", w.opts.Parallelism)
	if err != nil {
		return err
	}
	var n []int64
	var sv []float64
	if len(res.Batches) != 1 || len(res.Batches[0].Cols) != 2 {
		return fmt.Errorf("unexpected shape of the events summary")
	}
	if err := json.Unmarshal(res.Batches[0].Cols[0], &n); err != nil {
		return err
	}
	if err := json.Unmarshal(res.Batches[0].Cols[1], &sv); err != nil {
		return err
	}
	if n[0] != rows || !near(sv[0], sum, sum) {
		return fmt.Errorf("events holds (%d rows, sum %v), acknowledged (%d, %v)", n[0], sv[0], rows, sum)
	}
	return nil
}

// sqlOp runs connection 0's statement i on the in-process twin.
func (w *serveMix) sqlOp(i int) (time.Duration, error) {
	st := w.mixes[0][i%len(w.mixes[0])]
	t0 := time.Now()
	_, err := w.twin.ExecWith(st.SQL, w.opts)
	return time.Since(t0), err
}

// replay performs connection 0's statement i as direct layer calls.
func (w *serveMix) replay(tr *tracer, i int) error {
	st := w.mixes[0][i%len(w.mixes[0])]
	c, done := replayCtx(w.opts)
	defer done()
	op := tr.beginOp()
	var out *rel.Relation
	var err error
	switch st.Kind {
	case gen.KindScan:
		out, err = w.replayScan(tr, c, st.Arg)
	case gen.KindPipe:
		out, err = w.replayPipe(tr, c, st.Arg)
	case gen.KindTopK:
		out, err = w.replayTopK(tr, c, int64(st.Arg))
	case gen.KindRMA:
		out, err = rmaCall(tr, "core.cpd", w.opts, func(o *core.Options) (*rel.Relation, error) {
			return core.Cpd(w.wide, []string{"id"}, w.wide.WithName("wide2"), []string{"id"}, o)
		})
		if err == nil && st.Arg == 1 {
			cpd := out
			out, err = rmaCall(tr, "core.inv", w.opts, func(o *core.Options) (*rel.Relation, error) {
				return core.Inv(cpd, []string{"C"}, o)
			})
		}
	case gen.KindInsert:
		s := tr.begin("store.checkpoint")
		ev := w.replayEvents
		for _, e := range st.Events {
			ev.Cols[0].I = append(ev.Cols[0].I, e.ID)
			ev.Cols[1].I = append(ev.Cols[1].I, e.K)
			ev.Cols[2].F = append(ev.Cols[2].F, e.Val)
		}
		_, err = writeSegment(filepath.Join(w.dir, "replay-events.seg"), ev)
		tr.end(s, kv{"rows_in", int64(ev.Rows())})
	}
	if err != nil {
		return err
	}
	tr.end(op)
	if want := w.expect[st.SQL]; want != nil && out.NumRows() != want.NumRows() {
		return fmt.Errorf("replay of %q gives %d rows, reference has %d", st.SQL, out.NumRows(), want.NumRows())
	}
	return nil
}

// replayScan filters morsel by morsel and stops at the LIMIT, as the
// streaming scan does.
func (w *serveMix) replayScan(tr *tracer, c *exec.Ctx, above float64) (*rel.Relation, error) {
	s := tr.begin("rel.select")
	pairs, err := w.fact.Project("id", "val")
	if err != nil {
		return nil, err
	}
	out := rel.Empty("scan", pairs.Schema)
	read := 0
	for lo := 0; lo < pairs.NumRows() && out.NumRows() < 100; lo += bat.MorselSize {
		hi := min(lo+bat.MorselSize, pairs.NumRows())
		morsel := rel.MustNew("morsel", pairs.Schema, []*bat.BAT{
			bat.FromVector(pairs.Cols[0].Vector().View(lo, hi)), bat.FromVector(pairs.Cols[1].Vector().View(lo, hi))})
		pred, err := morsel.FloatPred("val", func(v float64) bool { return v > above })
		if err != nil {
			return nil, err
		}
		if out, err = rel.Union(out, morsel.Select(c, pred)); err != nil {
			return nil, err
		}
		read = hi
	}
	out = out.Limit(c, 100)
	tr.end(s, kv{"rows_in", int64(read)}, kv{"rows_out", int64(out.NumRows())})
	return out, nil
}

func (w *serveMix) replayPipe(tr *tracer, c *exec.Ctx, above float64) (*rel.Relation, error) {
	s := tr.begin("rel.select")
	pred, err := w.fact.FloatPred("val", func(v float64) bool { return v > above })
	if err != nil {
		return nil, err
	}
	kept := w.fact.Select(c, pred)
	tr.end(s, kv{"rows_in", int64(w.fact.NumRows())}, kv{"rows_out", int64(kept.NumRows())})

	joined, err := joinCall(tr, c, kept, w.dim.WithName("d"), []string{"k"}, []string{"k"}, false)
	if err != nil {
		return nil, err
	}

	s = tr.begin("rel.group")
	groups, err := rel.GroupBy(c, joined, []string{"label"},
		[]rel.AggSpec{{Func: rel.Sum, Attr: "val", As: "sv"}, {Func: rel.Count, As: "n"}})
	if err != nil {
		return nil, err
	}
	tr.end(s, kv{"rows_in", int64(joined.NumRows())}, kv{"rows_out", int64(groups.NumRows())})

	s = tr.begin("rel.sort")
	sorted, err := groups.Sort(c, rel.OrderSpec{Attr: "label"})
	tr.end(s)
	return sorted, err
}

func (w *serveMix) replayTopK(tr *tracer, c *exec.Ctx, grp int64) (*rel.Relation, error) {
	s := tr.begin("rel.select")
	g, err := intsOf(w.fact, "grp")
	if err != nil {
		return nil, err
	}
	kept := w.fact.Select(c, func(i int) bool { return g[i] == grp })
	tr.end(s, kv{"rows_in", int64(w.fact.NumRows())}, kv{"rows_out", int64(kept.NumRows())})

	s = tr.begin("rel.sort")
	sorted, err := kept.Sort(c, rel.OrderSpec{Attr: "val", Desc: true})
	if err != nil {
		return nil, err
	}
	top := sorted.Limit(c, 10)
	tr.end(s, kv{"rows_in", int64(kept.NumRows())}, kv{"rows_out", int64(top.NumRows())})
	return top, nil
}

// serverVars is what the benchmark reads of the server's /metrics and
// /debug/vars.
type serverVars struct {
	Memory struct {
		Queued    int
		Tenants   []exec.TenantStats
		PlanCache sql.PlanCacheStats
		Spill     exec.SpillStats
	} `json:"memory"`
	Memstats struct {
		Mallocs    uint64
		TotalAlloc uint64
	} `json:"memstats"`
}

func (w *serveMix) vars() (serverVars, error) {
	var v serverVars
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get(w.url + path)
		if err != nil {
			return v, err
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return v, fmt.Errorf("%s: %w", path, err)
		}
	}
	return v, nil
}

// poll samples the admission queue length every 50 ms (traced runs only).
func (w *serveMix) poll() {
	defer close(w.pollDone)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.pollStop:
			return
		case <-tick.C:
			if v, err := w.vars(); err == nil && v.Memory.Queued > w.queued {
				w.queued = v.Memory.Queued
			}
		}
	}
}

// probe derives the server's per-layer metrics from what the clients
// recorded and from the server's own counters since the end of set-up.
func (w *serveMix) probe(m map[string]float64) error {
	var all []time.Duration
	var wire, execT time.Duration
	var refused int
	for _, c := range w.conns {
		for _, r := range c.requests {
			if r.refused {
				refused++
				continue
			}
			all = append(all, r.took)
			wire += r.took - r.elapsed
			execT += r.elapsed
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no served statement recorded")
	}
	n := float64(len(all))
	m["rmaserver.wire_ms"] = ms(wire) / n
	m["rmaserver.exec_ms"] = ms(execT) / n
	m["rmaserver.p99_ms"] = quantile(all, 0.99)
	m["rmaserver.refused"] = float64(refused)

	now, err := w.vars()
	if err != nil {
		return err
	}
	pc, pc0 := now.Memory.PlanCache, w.base.Memory.PlanCache
	if looked := (pc.Hits - pc0.Hits) + (pc.Misses - pc0.Misses); looked > 0 {
		m["sql.plan_cache_hit_rate"] = float64(pc.Hits-pc0.Hits) / float64(looked)
	}
	var peak, hits, misses int64
	for _, t := range now.Memory.Tenants {
		if t.PeakBytes > peak {
			peak = t.PeakBytes
		}
		hits += t.Total().PoolHits
		misses += t.Total().PoolMisses
	}
	m["exec.peak_bytes"] = float64(peak)
	if hits+misses > 0 {
		m["exec.pool_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	m["exec.admit_queued"] = float64(w.queued)
	m["exec.spilled_bytes"] = float64(now.Memory.Spill.SpilledBytes) / n
	m["exec.spill_events"] = float64(now.Memory.Spill.Events) / n
	m["go.allocs_per_op"] = float64(now.Memstats.Mallocs-w.base.Memstats.Mallocs) / n
	m["go.alloc_mib_per_op"] = float64(now.Memstats.TotalAlloc-w.base.Memstats.TotalAlloc) / n / (1 << 20)
	m["store.bytes_per_user_byte"] = w.storedPerUserByte
	if rss, err := peakRSSMiB(w.cmd.Process.Pid); err == nil {
		m["proc.peak_rss_mib"] = rss
	}
	return nil
}

// peakRSSMiB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(f[1], 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
