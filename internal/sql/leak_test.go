package sql

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// TestLimitEarlyStopNoArenaLeak audits the streaming LIMIT path for
// strandable tenant bytes. An early-stopped LIMIT closes the pipeline
// before the source drains, so anything an operator materialized at
// open — in particular the build side a pushed-down filter gathered
// into arena buffers — must be handed back in close, not left for the
// arena teardown to settle silently.
//
// The invariant checked per element domain: after the statement, the
// tenant's allocs minus frees equals exactly the buffers retained by
// the result relation (one per result column of that domain), and no
// live bytes remain. Before the fix the filtered build side of
// the join (equi or cross) was never freed, leaving one stranded buffer
// per build-side column (u: +1 int64 +1 string; s: +1 float +1 int64
// +1 string) for the whole statement lifetime.
func TestLimitEarlyStopNoArenaLeak(t *testing.T) {
	db := streamDB(t, 1<<15)
	gov := exec.NewGovernor(0, 0)

	cases := []struct {
		name, query           string
		floats, int64s, strse int64 // result-retained buffers per domain
	}{
		{
			// A cross join with a pushed-down filter on u (uid BIGINT,
			// utag VARCHAR): both filtered columns leaked before the fix.
			name:   "cross-filtered",
			query:  "SELECT t.id, u.utag FROM t CROSS JOIN u WHERE u.utag = 'a' AND t.id % 7 = 0 LIMIT 50",
			int64s: 1, strse: 1,
		},
		{
			// joinStream with a pushed-down filter on s (k BIGINT,
			// bonus DOUBLE, label VARCHAR): all three leaked.
			name:   "join-filtered",
			query:  "SELECT t.id, t.val, s.bonus FROM t JOIN s ON t.grp = s.k WHERE s.bonus > 2 LIMIT 10",
			floats: 2, int64s: 1,
		},
		{
			// No pushed-down build filter: the already-clean shape stays
			// clean (guards against the fix double-freeing shared cols).
			name:   "left-join-unfiltered",
			query:  "SELECT t.id, s.label FROM t LEFT JOIN s ON t.grp = s.k LIMIT 25",
			int64s: 1, strse: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tenant := "leak-" + tc.name // fresh principal per case: clean counters
			res, err := db.QueryWith(tc.query, &core.Options{Tenant: tenant, Governor: gov})
			if err != nil {
				t.Fatalf("%s: %v", tc.query, err)
			}
			if res.NumRows() == 0 {
				t.Fatalf("%s: empty result, probe is vacuous", tc.query)
			}
			st := gov.Tenant(tenant, 0).Stats()
			if st.LiveBytes != 0 {
				t.Errorf("%d live bytes after statement, want 0", st.LiveBytes)
			}
			for _, d := range []struct {
				domain string
				ds     exec.DomainStats
				want   int64
			}{
				{"floats", st.Floats, tc.floats},
				{"ints", st.Ints, 0},
				{"int64s", st.Int64s, tc.int64s},
				{"strings", st.Strings, tc.strse},
			} {
				if got := d.ds.Allocs - d.ds.Frees; got != d.want {
					t.Errorf("%s: %d buffers outstanding (allocs %d, frees %d), want %d retained by the result",
						d.domain, got, d.ds.Allocs, d.ds.Frees, d.want)
				}
			}
		})
	}
}
