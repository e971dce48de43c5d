// Command rmaserver is a concurrent HTTP/JSON front end over the RMA
// SQL engine. Clients authenticate with an API key that maps to a
// governed tenant; every statement is admitted through the governor
// (FIFO under the global byte cap and concurrency limit), charges the
// tenant's per-statement arena, and streams its result back in
// column batches.
//
//	$ go run ./cmd/rmaserver -addr :8080 -keys 'alpha=t1:64,beta=t2:64' -demo
//	$ curl -s -X POST -H 'X-API-Key: alpha' \
//	    -d '{"sql":"SELECT * FROM rating;"}' localhost:8080/query
//
// Endpoints:
//
//	POST /query    {"sql": "...", "workers": n}  — execute one script
//	GET  /metrics  governor + plan-cache + per-tenant latency p50/p99
//	GET  /healthz  200 while serving, 503 once draining
//	GET  /debug/vars  expvar, including "rma.memory"
//
// Errors are typed JSON: a tenant over its memory budget gets HTTP 429
// with code "memory_budget" and the byte arithmetic; statement errors
// are 400 "statement_error". On SIGINT/SIGTERM the server drains:
// it stops accepting statements (503 "draining"), lets in-flight ones
// finish (closing their arenas on the normal path), then exits.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sql"
)

const demoScript = `
CREATE TABLE users (Usr VARCHAR(20), State VARCHAR(2), YoB INT);
INSERT INTO users VALUES ('Ann','CA',1980), ('Tom','FL',1965), ('Jan','CA',1970);
CREATE TABLE film (Title VARCHAR(20), RelY INT, Director VARCHAR(20));
INSERT INTO film VALUES ('Heat',1995,'Lee'), ('Balto',1995,'Lee'), ('Net',1995,'Smith');
CREATE TABLE rating (Usr VARCHAR(20), Balto DOUBLE, Heat DOUBLE, Net DOUBLE);
INSERT INTO rating VALUES ('Ann',2.0,1.5,0.5), ('Tom',0.0,0.0,1.5), ('Jan',1.0,4.0,1.0);
`

// parseKeys parses -keys: comma-separated key=tenant:budgetMiB entries
// (budget 0 = accounted but uncapped).
func parseKeys(spec string) (map[string]TenantKey, error) {
	keys := make(map[string]TenantKey)
	if spec == "" {
		return keys, nil
	}
	for _, ent := range strings.Split(spec, ",") {
		kv := strings.SplitN(ent, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("bad -keys entry %q, want key=tenant:budgetMiB", ent)
		}
		tb := strings.SplitN(kv[1], ":", 2)
		tk := TenantKey{Tenant: tb[0]}
		if tk.Tenant == "" {
			return nil, fmt.Errorf("bad -keys entry %q: empty tenant", ent)
		}
		if len(tb) == 2 {
			mib, err := strconv.Atoi(tb[1])
			if err != nil || mib < 0 {
				return nil, fmt.Errorf("bad -keys entry %q: budget must be a MiB count", ent)
			}
			tk.Budget = int64(mib) << 20
		}
		keys[kv[0]] = tk
	}
	return keys, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	keySpec := flag.String("keys", "dev=default:0", "API keys: key=tenant:budgetMiB[,key=tenant:budgetMiB...]")
	globalCap := flag.Int("cap", 0, "global admission cap on the sum of declared budgets, MiB (0 = unlimited)")
	maxQueries := flag.Int("maxqueries", 0, "max concurrently running statements (0 = unlimited)")
	demo := flag.Bool("demo", false, "preload the paper's example database")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful-drain timeout on SIGINT/SIGTERM")
	dataDir := flag.String("data", "", "data directory for CREATE TABLE ... PERSIST (empty = persistence off); checkpointed tables are restored on startup")
	spillDir := flag.String("spill", "", "scratch directory for out-of-core execution (empty = spilling off)")
	spillMiB := flag.Int("spillmib", 0, "operator in-memory footprint in MiB above which it spills (0 = half the statement tenant's budget)")
	flag.Parse()

	keys, err := parseKeys(*keySpec)
	if err != nil {
		log.Fatal(err)
	}
	if len(keys) == 0 {
		log.Fatal("no API keys configured; pass -keys")
	}

	db := sql.NewDB()
	gov := exec.NewGovernor(int64(*globalCap)<<20, *maxQueries)
	db.SetRMAOptions(&core.Options{Governor: gov})
	if *spillDir != "" {
		db.SetSpill(*spillDir, int64(*spillMiB)<<20)
		log.Printf("out-of-core execution enabled: staging under %s", *spillDir)
	}
	if *dataDir != "" {
		if err := db.SetDataDir(*dataDir); err != nil {
			log.Fatal(err)
		}
		loaded, err := db.LoadPersisted()
		if err != nil {
			log.Fatal(err)
		}
		if len(loaded) > 0 {
			log.Printf("restored %d persisted table(s) from %s: %s", len(loaded), *dataDir, strings.Join(loaded, ", "))
		}
	}
	if *demo {
		if _, err := db.Exec(demoScript); err != nil {
			log.Fatal(err)
		}
		log.Print("demo database loaded: users, film, rating")
	}
	expvar.Publish("rma.memory", expvar.Func(func() any { return db.Metrics() }))

	srv := NewServer(db, gov, keys)
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.Handle("/debug/vars", expvar.Handler())
	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Print("draining: refusing new statements, finishing in-flight")
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("drain: %v (shutting down anyway)", err)
		}
		httpSrv.Shutdown(ctx)
	}()

	log.Printf("rmaserver listening on %s (%d keys, cap=%dMiB, maxqueries=%d)",
		*addr, len(keys), *globalCap, *maxQueries)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
	log.Print("rmaserver stopped")
}
