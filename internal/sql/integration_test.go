package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// opsDB builds a database with relations shaped for every operation:
// sq (3x3 SPD matrix), tall (5x2), vec (5x1 right-hand side).
func opsDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.Exec(`
CREATE TABLE sq (K INT, b0 DOUBLE, b1 DOUBLE, b2 DOUBLE);
INSERT INTO sq VALUES (0, 4, 1, 0), (1, 1, 5, 2), (2, 0, 2, 6);
CREATE TABLE tall (K INT, x DOUBLE, y DOUBLE);
INSERT INTO tall VALUES (0,1,2), (1,3,4), (2,5,6), (3,7,9), (4,2,1);
CREATE TABLE tall2 (K2 INT, x DOUBLE, y DOUBLE);
INSERT INTO tall2 VALUES (0,10,20), (1,30,40), (2,50,60), (3,70,90), (4,20,10);
CREATE TABLE vec (K3 INT, b DOUBLE);
INSERT INTO vec VALUES (0,5), (1,11), (2,17), (3,25), (4,4);
`); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEveryOperationThroughSQL exercises all nineteen relational matrix
// operations end to end through the SQL layer, checking result schemas
// and row counts against the shape types of paper Table 1.
func TestEveryOperationThroughSQL(t *testing.T) {
	db := opsDB(t)
	cases := []struct {
		query    string
		wantCols string
		wantRows int
	}{
		{`SELECT * FROM ADD(tall BY K, tall2 BY K2)`, "K,K2,x,y", 5},
		{`SELECT * FROM SUB(tall2 BY K2, tall BY K)`, "K2,K,x,y", 5},
		{`SELECT * FROM EMU(tall BY K, tall2 BY K2)`, "K,K2,x,y", 5},
		{`SELECT * FROM MMU(tall BY K, (SELECT K2, x FROM tall2 WHERE K2 < 2) BY K2)`, "K,x", 5},
		{`SELECT * FROM OPD(tall BY K, (SELECT K2, x, y FROM tall2 WHERE K2 < 3) BY K2)`, "K,0,1,2", 5},
		{`SELECT * FROM CPD(tall BY K, tall2 BY K2)`, "C,x,y", 2},
		{`SELECT * FROM SOL(tall BY K, vec BY K3)`, "C,b", 2},
		{`SELECT * FROM TRA(tall BY K)`, "C,0,1,2,3,4", 2},
		{`SELECT * FROM INV(sq BY K)`, "K,b0,b1,b2", 3},
		{`SELECT * FROM EVC(sq BY K)`, "K,b0,b1,b2", 3},
		{`SELECT * FROM EVL(sq BY K)`, "K,evl", 3},
		{`SELECT * FROM QQR(tall BY K)`, "K,x,y", 5},
		{`SELECT * FROM RQR(tall BY K)`, "C,x,y", 2},
		{`SELECT * FROM DSV(tall BY K)`, "C,x,y", 2},
		{`SELECT * FROM USV(tall BY K)`, "K,0,1,2,3,4", 5},
		{`SELECT * FROM VSV(tall BY K)`, "C,x,y", 2},
		{`SELECT * FROM DET(sq BY K)`, "C,det", 1},
		{`SELECT * FROM RNK(tall BY K)`, "C,rnk", 1},
		{`SELECT * FROM CHF(sq BY K)`, "K,b0,b1,b2", 3},
	}
	if len(cases) != len(core.Ops) {
		t.Fatalf("covering %d of %d operations", len(cases), len(core.Ops))
	}
	for _, c := range cases {
		res, err := db.Query(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := strings.Join(res.Schema.Names(), ","); got != c.wantCols {
			t.Errorf("%s: schema %s, want %s", c.query, got, c.wantCols)
		}
		if res.NumRows() != c.wantRows {
			t.Errorf("%s: %d rows, want %d", c.query, res.NumRows(), c.wantRows)
		}
	}
}

// TestElementwiseOfEmptyTablesThroughSQL holds ADD of two empty tables
// to the empty relation of shape (r*,c*): both order schemas, then the
// application schema.
func TestElementwiseOfEmptyTablesThroughSQL(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec(`
CREATE TABLE e1 (k INT, x DOUBLE, y DOUBLE);
CREATE TABLE e2 (k2 INT, x DOUBLE, y DOUBLE);
`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT * FROM ADD(e1 BY k, e2 BY k2)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Schema.Names(), ","); got != "k,k2,x,y" || res.NumRows() != 0 {
		t.Errorf("%d rows of %s, want 0 rows of k,k2,x,y", res.NumRows(), got)
	}
}

// TestOLSThroughSQL runs the regression composition of §8.6(1) entirely
// in SQL: beta = MMU(INV(CPD(A,A)), CPD(A,V)).
func TestOLSThroughSQL(t *testing.T) {
	db := NewDB()
	var sb strings.Builder
	sb.WriteString(`CREATE TABLE A (i INT, b0 DOUBLE, b1 DOUBLE);
CREATE TABLE V (i2 INT, y DOUBLE);
`)
	for i := 0; i < 20; i++ {
		x := float64(i) * 0.5
		fmt.Fprintf(&sb, "INSERT INTO A VALUES (%d, 1, %g);\n", i, x)
		fmt.Fprintf(&sb, "INSERT INTO V VALUES (%d, %g);\n", i, 4+3*x)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`
SELECT * FROM MMU(
    INV(CPD(A BY i, (SELECT i AS i3, b0, b1 FROM A) BY i3) BY C) BY C,
    CPD(A BY i, V BY i2) BY C)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("beta rows = %d", res.NumRows())
	}
	var intercept, slope float64
	for i := 0; i < 2; i++ {
		switch res.Value(i, 0).S {
		case "b0":
			intercept = res.Value(i, 1).F
		case "b1":
			slope = res.Value(i, 1).F
		}
	}
	if math.Abs(intercept-4) > 1e-8 || math.Abs(slope-3) > 1e-8 {
		t.Errorf("beta = (%v, %v), want (4, 3)", intercept, slope)
	}
}

// TestFailureInjection drives malformed inputs through the full stack and
// checks that errors surface as errors, never panics.
func TestFailureInjection(t *testing.T) {
	db := opsDB(t)
	bad := []string{
		// Non-key order schema.
		`SELECT * FROM INV((SELECT 1 AS K, b0, b1, b2 FROM sq) BY K)`,
		// Non-square inversion.
		`SELECT * FROM INV(tall BY K)`,
		// Non-numeric application attribute.
		`SELECT * FROM QQR((SELECT K, 'x' AS s, x FROM tall) BY K)`,
		// Row mismatch for add.
		`SELECT * FROM ADD(tall BY K, (SELECT K2, x, y FROM tall2 WHERE K2 < 2) BY K2)`,
		// mmu inner dimension mismatch.
		`SELECT * FROM MMU(tall BY K, tall2 BY K2)`,
		// sol with two right-hand columns.
		`SELECT * FROM SOL(tall BY K, tall2 BY K2)`,
		// usv needs |U| = 1.
		`SELECT * FROM USV(tall BY K, x)`,
		// Cholesky of a non-SPD matrix.
		`SELECT * FROM CHF((SELECT K, b0, b1, b2 FROM INV(sq BY K)) BY K)`,
	}
	for _, q := range bad[:7] {
		if _, err := db.Query(q); err == nil {
			t.Errorf("no error for %s", q)
		}
	}
	// The last one may legitimately succeed (inverse of SPD is SPD), so
	// instead check a directly non-SPD input.
	if _, err := db.Query(`
SELECT * FROM CHF((SELECT K, b0, b1, 0-b2 AS b2 FROM sq) BY K)`); err == nil {
		t.Error("Cholesky of asymmetric matrix accepted")
	}
}

// TestPolicyMatrixThroughSQL checks both execution policies give the same
// SQL-visible answer.
func TestPolicyMatrixThroughSQL(t *testing.T) {
	db := opsDB(t)
	get := func() []float64 {
		res, err := db.Query(`SELECT b0, b1, b2 FROM INV(sq BY K) ORDER BY b0`)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < res.NumRows(); i++ {
			for k := 0; k < res.NumCols(); k++ {
				out = append(out, res.Value(i, k).F)
			}
		}
		return out
	}
	db.SetRMAOptions(&core.Options{Policy: core.PolicyDense})
	dense := get()
	db.SetRMAOptions(&core.Options{Policy: core.PolicyBAT})
	batv := get()
	for i := range dense {
		if math.Abs(dense[i]-batv[i]) > 1e-10 {
			t.Fatalf("policy mismatch at %d: %v vs %v", i, dense[i], batv[i])
		}
	}
}
