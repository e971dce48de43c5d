// Command rmacli is an interactive SQL shell for the RMA engine. It
// accepts the SQL dialect of internal/sql, including the paper's matrix
// operations as table functions in FROM:
//
//	$ go run ./cmd/rmacli
//	rma> CREATE TABLE r (T VARCHAR(3), H DOUBLE, W DOUBLE);
//	rma> INSERT INTO r VALUES ('5am',1,3), ('8am',8,5);
//	rma> SELECT * FROM TRA(r BY T);
//
// Statements may span lines and end with ';'. With -demo the shell starts
// with the paper's example database (users, film, rating) loaded.
// Meta commands: \d lists tables, \policy bat|mkl|auto switches the
// execution policy, \workers n bounds the per-statement worker budget
// (0 restores the default), \mem n caps the per-tenant live arena
// memory at n MiB (0 removes the cap), \tenant name switches the
// accounting principal, \stats prints the per-tenant memory metrics
// plus the last SELECT's per-stage pipeline counters, \q quits.
//
// The per-tenant metrics are also published through expvar under
// "rma.memory" for scraping when the process exposes /debug/vars.
package main

import (
	"bufio"
	"expvar"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/rma"
)

// shellOpts is the shell's current execution configuration. Every
// statement the shell runs gets its own execution context built from
// these options, so a \workers change applies from the next statement on
// and never races statements already in flight.
var shellOpts core.Options

// applyOpts pushes the current options to the database (nil when
// everything is at its default, restoring auto behavior).
func applyOpts(db *rma.DB) {
	if shellOpts == (core.Options{}) {
		db.SetRMAOptions(nil)
		return
	}
	o := shellOpts
	db.SetRMAOptions(&o)
}

const demoScript = `
CREATE TABLE users (Usr VARCHAR(20), State VARCHAR(2), YoB INT);
INSERT INTO users VALUES ('Ann','CA',1980), ('Tom','FL',1965), ('Jan','CA',1970);
CREATE TABLE film (Title VARCHAR(20), RelY INT, Director VARCHAR(20));
INSERT INTO film VALUES ('Heat',1995,'Lee'), ('Balto',1995,'Lee'), ('Net',1995,'Smith');
CREATE TABLE rating (Usr VARCHAR(20), Balto DOUBLE, Heat DOUBLE, Net DOUBLE);
INSERT INTO rating VALUES ('Ann',2.0,1.5,0.5), ('Tom',0.0,0.0,1.5), ('Jan',1.0,4.0,1.0);
`

func main() {
	demo := flag.Bool("demo", false, "preload the paper's example database")
	maxRows := flag.Int("rows", 50, "maximum rows to print per result")
	flag.Parse()

	db := rma.NewDB()
	expvar.Publish("rma.memory", expvar.Func(func() any { return db.Metrics() }))
	if *demo {
		db.MustExec(demoScript)
		fmt.Println("demo database loaded: users, film, rating")
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("rma> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if meta(db, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			run(db, buf.String(), *maxRows)
			buf.Reset()
		}
		prompt()
	}
	if buf.Len() > 0 {
		run(db, buf.String(), *maxRows)
	}
}

// meta handles backslash commands; it reports whether the shell should
// exit.
func meta(db *rma.DB, cmd string) bool {
	switch {
	case cmd == `\q`:
		return true
	case cmd == `\d`:
		for _, t := range db.Tables() {
			fmt.Println(t)
		}
	case strings.HasPrefix(cmd, `\policy`):
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, `\policy`))
		switch arg {
		case "bat":
			shellOpts.Policy = core.PolicyBAT
		case "mkl", "dense":
			shellOpts.Policy = core.PolicyDense
		case "auto", "":
			shellOpts.Policy = core.PolicyAuto
		default:
			fmt.Println("usage: \\policy bat|mkl|auto")
			return false
		}
		applyOpts(db)
		fmt.Println("policy set")
	case strings.HasPrefix(cmd, `\workers`):
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, `\workers`))
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			fmt.Println("usage: \\workers n  (0 restores the default budget)")
			return false
		}
		shellOpts.Parallelism = n
		applyOpts(db)
		if n == 0 {
			fmt.Println("worker budget restored to the process default")
		} else {
			fmt.Printf("worker budget set to %d (per statement)\n", n)
		}
	case strings.HasPrefix(cmd, `\mem`):
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, `\mem`))
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			fmt.Println("usage: \\mem n  (cap live arena memory at n MiB per tenant; 0 removes the cap)")
			return false
		}
		shellOpts.MemoryBudget = int64(n) << 20
		// Push the cap onto the tenant directly: Governor.Tenant treats a
		// zero budget as "leave the existing cap alone", so removing a
		// previously-set cap needs the explicit SetBudget(0).
		exec.DefaultGovernor().Tenant(tenantName(), 0).SetBudget(shellOpts.MemoryBudget)
		applyOpts(db)
		if n == 0 {
			fmt.Printf("memory budget removed (tenant %q)\n", tenantName())
		} else {
			fmt.Printf("memory budget set to %d MiB (tenant %q; operators fall back to serial scratch, statements over budget fail typed)\n",
				n, tenantName())
		}
	case strings.HasPrefix(cmd, `\tenant`):
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, `\tenant`))
		if arg == "" {
			fmt.Printf("tenant is %q\n", tenantName())
			return false
		}
		shellOpts.Tenant = arg
		applyOpts(db)
		fmt.Printf("tenant set to %q\n", arg)
	case cmd == `\stats`:
		printStats(db)
	default:
		fmt.Println(`commands: \d (tables), \policy bat|mkl|auto, \workers n, \mem n, \tenant name, \stats, \q (quit)`)
	}
	return false
}

// tenantName mirrors the governed-invocation default: an explicit
// tenant, or exec.DefaultTenant once a budget is set.
func tenantName() string {
	if shellOpts.Tenant != "" {
		return shellOpts.Tenant
	}
	return exec.DefaultTenant
}

// printStats renders the governor metrics: admission state plus one row
// per tenant with live/peak bytes and the pool hit rate.
func printStats(db *rma.DB) {
	m := db.Metrics()
	fmt.Printf("admission: running=%d queued=%d reserved=%s cap=%s admitted=%d\n",
		m.Running, m.Queued, mib(m.ReservedBytes), mib(m.GlobalCapBytes), m.Admitted)
	if len(m.Tenants) == 0 {
		fmt.Println("tenants: none (set \\mem or \\tenant to start accounting)")
		return
	}
	fmt.Println("tenants:")
	for _, tn := range m.Tenants {
		tot := tn.Total()
		fmt.Printf("  %-12s budget=%-8s live=%-8s peak=%-8s pool-hit=%4.0f%%  allocs=%d frees=%d\n",
			tn.Tenant, mib(tn.BudgetBytes), mib(tn.LiveBytes), mib(tn.PeakBytes),
			100*tn.HitRate(), tot.Allocs, tot.Frees)
	}
	if pipe := db.PipelineStats(); len(pipe) > 0 {
		fmt.Println("last streamed statement:")
		for _, st := range pipe {
			fmt.Printf("  %-12s batches=%-6d rows=%-10d peak=%s\n",
				st.Name, st.Batches, st.Rows, mib(st.PeakBytes))
		}
	}
}

// mib renders a byte count human-readably.
func mib(b int64) string {
	switch {
	case b == 0:
		return "0"
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	}
}

func run(db *rma.DB, src string, maxRows int) {
	res, err := db.Exec(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	if res == nil {
		fmt.Println("ok")
		return
	}
	fmt.Print(res.Head(maxRows))
	fmt.Printf("(%d rows)\n", res.NumRows())
}
