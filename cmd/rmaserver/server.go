package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/sql"
)

// TenantKey maps one API key to its accounting principal: the tenant
// name every statement authenticated by the key charges, and the
// per-statement memory budget in bytes (0 = accounted but uncapped).
type TenantKey struct {
	Tenant string
	Budget int64
}

// Server is the concurrent wire-protocol front end over a sql.DB. Each
// request authenticates by API key, executes under its tenant's budget
// through the server's governor (admission, per-tenant arenas, typed
// budget errors), and streams its result set back in column batches. A
// request whose client goes away while its statement waits for
// admission leaves the queue. The zero draining state serves;
// BeginDrain flips the server to rejecting new statements while
// in-flight ones finish.
type Server struct {
	db   *sql.DB
	gov  *exec.Governor
	keys map[string]TenantKey
	mux  *http.ServeMux

	draining atomic.Bool
	inflight sync.WaitGroup

	mu  sync.Mutex
	lat map[string]*latHist
}

// NewServer builds the HTTP front end. The DB arrives fully configured
// (catalog, spill, persistence, and gov in its RMA options, so its
// Metrics read gov's books); every request runs under gov, and keys
// maps API keys to tenants.
func NewServer(db *sql.DB, gov *exec.Governor, keys map[string]TenantKey) *Server {
	s := &Server{db: db, gov: gov, keys: keys, lat: make(map[string]*latHist)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain stops admitting new statements: every subsequent /query
// answers 503 "draining" while statements already in flight run to
// completion (their per-statement arenas close on the normal path).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain begins draining (idempotently) and blocks until every in-flight
// statement has finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queryRequest is the /query body.
type queryRequest struct {
	SQL string `json:"sql"`
	// Workers optionally bounds the statement's worker budget
	// (0 = the process default).
	Workers int `json:"workers"`
}

// apiError is the typed error envelope every failure returns.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Budget arithmetic, present only when Code is "memory_budget".
	Tenant    string `json:"tenant,omitempty"`
	Requested int64  `json:"requested,omitempty"`
	Live      int64  `json:"live,omitempty"`
	Budget    int64  `json:"budget,omitempty"`
}

func writeError(w http.ResponseWriter, status int, e apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{"error": e})
}

// errorFor classifies an execution error into its HTTP status and typed
// envelope: budget overruns are 429 with the byte arithmetic attached,
// everything else is a 400 statement error.
func errorFor(err error) (int, apiError) {
	var be *exec.MemoryBudgetError
	if errors.As(err, &be) {
		return http.StatusTooManyRequests, apiError{
			Code:      "memory_budget",
			Message:   be.Error(),
			Tenant:    be.Tenant,
			Requested: be.Requested,
			Live:      be.Live,
			Budget:    be.Budget,
		}
	}
	if errors.Is(err, exec.ErrMemoryBudget) {
		return http.StatusTooManyRequests, apiError{Code: "memory_budget", Message: err.Error()}
	}
	return http.StatusBadRequest, apiError{Code: "statement_error", Message: err.Error()}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, apiError{Code: "method_not_allowed", Message: "POST a JSON body to /query"})
		return
	}
	key, ok := s.keys[r.Header.Get("X-API-Key")]
	if !ok {
		writeError(w, http.StatusUnauthorized, apiError{Code: "unauthorized", Message: "unknown API key"})
		return
	}
	// Count the request in-flight before checking the drain flag: a
	// drain that begins after this point waits for us; one that began
	// before is answered with a fast 503.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, apiError{Code: "draining", Message: "server is draining; retry against another instance"})
		return
	}

	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Code: "bad_request", Message: "body must be JSON {\"sql\": \"...\"}: " + err.Error()})
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, apiError{Code: "bad_request", Message: "empty sql"})
		return
	}

	opts := &core.Options{
		Tenant:       key.Tenant,
		MemoryBudget: key.Budget,
		Parallelism:  req.Workers,
		Governor:     s.gov,
	}
	start := time.Now()
	res, err := s.db.ExecContext(r.Context(), req.SQL, opts)
	s.histFor(key.Tenant).observe(time.Since(start))
	if err != nil {
		status, e := errorFor(err)
		writeError(w, status, e)
		return
	}
	writeResult(w, res, time.Since(start))
}

// writeResult streams the relation as JSON in column batches: a header
// with the schema, then one batch object per morsel-sized row slice,
// flushed as written so large results reach the client incrementally.
func writeResult(w http.ResponseWriter, res *rel.Relation, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	if res == nil { // DDL/DML statements produce no relation
		fmt.Fprintf(w, "{\"ok\":true,\"elapsed_us\":%d}\n", elapsed.Microseconds())
		return
	}
	fl, _ := w.(http.Flusher)
	fmt.Fprint(w, "{\"columns\":[")
	for k, a := range res.Schema {
		if k > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "{\"name\":%q,\"type\":%q}", a.Name, a.Type.String())
	}
	fmt.Fprint(w, "],\"batches\":[")
	n := res.NumRows()
	enc := json.NewEncoder(w)
	for lo := 0; lo < n; lo += bat.MorselSize {
		hi := lo + bat.MorselSize
		if hi > n {
			hi = n
		}
		if lo > 0 {
			fmt.Fprint(w, ",")
		}
		if err := encodeBatch(enc, w, res, lo, hi); err != nil {
			// The header is already on the wire; all we can do is cut the
			// stream so the client sees invalid JSON instead of silent
			// truncation.
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
	fmt.Fprintf(w, "],\"rows\":%d,\"elapsed_us\":%d}\n", n, elapsed.Microseconds())
	if fl != nil {
		fl.Flush()
	}
}

// encodeBatch writes one column batch {"rows":n,"cols":[[...],...]}.
// Float cells that JSON cannot represent (NaN, ±Inf) are encoded as
// null rather than aborting the stream.
func encodeBatch(enc *json.Encoder, w http.ResponseWriter, res *rel.Relation, lo, hi int) error {
	fmt.Fprintf(w, "{\"rows\":%d,\"cols\":[", hi-lo)
	for k, col := range res.Cols {
		if k > 0 {
			fmt.Fprint(w, ",")
		}
		vec := col.Vector()
		switch vec.Type() {
		case bat.Float:
			seg := vec.Floats()[lo:hi]
			fmt.Fprint(w, "[")
			for i, f := range seg {
				if i > 0 {
					fmt.Fprint(w, ",")
				}
				if math.IsNaN(f) || math.IsInf(f, 0) {
					fmt.Fprint(w, "null")
				} else {
					b, _ := json.Marshal(f)
					w.Write(b)
				}
			}
			fmt.Fprint(w, "]")
		case bat.Int:
			if err := enc.Encode(vec.Ints()[lo:hi]); err != nil {
				return err
			}
		case bat.String:
			if err := enc.Encode(vec.Strings()[lo:hi]); err != nil {
				return err
			}
		}
	}
	fmt.Fprint(w, "]}")
	return nil
}

// metricsResponse is the /metrics body: the same surface the CLIs
// publish through expvar as "rma.memory" (governor admission state,
// per-tenant byte accounting, plan-cache counters) plus the server's
// per-tenant statement latency quantiles.
type metricsResponse struct {
	Memory  sql.Metrics             `json:"memory"`
	Latency map[string]latencyStats `json:"latency"`
}

type latencyStats struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{Memory: s.db.Metrics(), Latency: make(map[string]latencyStats)}
	s.mu.Lock()
	tenants := make(map[string]*latHist, len(s.lat))
	for name, h := range s.lat {
		tenants[name] = h
	}
	s.mu.Unlock()
	for name, h := range tenants {
		resp.Latency[name] = latencyStats{Count: h.total(), P50Ms: h.quantile(0.50), P99Ms: h.quantile(0.99)}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, apiError{Code: "draining", Message: "draining"})
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) histFor(tenant string) *latHist {
	if tenant == "" {
		tenant = exec.DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.lat[tenant]
	if !ok {
		h = &latHist{}
		s.lat[tenant] = h
	}
	return h
}

// latHist is a lock-free log-scale latency histogram: bucket k counts
// statements whose latency in microseconds has bit length k, so bucket
// upper bounds run 1µs, 2µs, 4µs, ... 2^40µs (≈12.7 days). Quantiles
// report the upper bound of the bucket holding the requested rank — at
// most 2× the true value, plenty for a p50/p99 load dashboard. The
// last bucket is open-ended (it also absorbs anything ≥ 2^40µs), so
// ranks landing there report the largest latency actually observed
// instead of the bucket bound, which would under-report.
type latHist struct {
	buckets [41]atomic.Int64
	maxUs   atomic.Int64 // largest observation, for the open last bucket
}

func (h *latHist) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	for {
		old := h.maxUs.Load()
		if us <= old || h.maxUs.CompareAndSwap(old, us) {
			break
		}
	}
	b := bits.Len64(uint64(us))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
}

func (h *latHist) total() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// quantile returns the q-quantile in milliseconds (0 when empty).
func (h *latHist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == len(h.buckets)-1 {
				// The open-ended last bucket has no meaningful upper
				// bound; report the observed maximum.
				return float64(h.maxUs.Load()) / 1e3
			}
			// Upper bound of bucket i is 2^i - 1 microseconds.
			return float64(uint64(1)<<uint(i)-1) / 1e3
		}
	}
	return float64(h.maxUs.Load()) / 1e3
}
