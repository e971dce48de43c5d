package sql

import (
	"strings"
	"testing"
)

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`SELECT x, 'it''s', 1.5e-2 FROM t -- comment
WHERE a <> b AND c >= 3;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "it's") {
		t.Errorf("escaped string not lexed: %q", joined)
	}
	if !strings.Contains(joined, "1.5e-2") {
		t.Errorf("scientific literal not lexed: %q", joined)
	}
	if strings.Contains(joined, "comment") {
		t.Errorf("comment not stripped: %q", joined)
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex(`SELECT 'unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex(`SELECT "unterminated`); err == nil {
		t.Error("unterminated quoted identifier accepted")
	}
	if _, err := lex(`SELECT @`); err == nil {
		t.Error("bad character accepted")
	}
}

func TestParsePrecedence(t *testing.T) {
	stmts, err := Parse(`SELECT a + b * c FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmts[0].(*SelectStmt)
	add, ok := sel.Items[0].Expr.(*BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top operator = %v", sel.Items[0].Expr)
	}
	mul, ok := add.R.(*BinaryExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("* does not bind tighter than +: %v", add.R)
	}
	// AND binds tighter than OR; NOT tighter than AND.
	stmts, err = Parse(`SELECT * FROM t WHERE NOT a OR b AND c`)
	if err != nil {
		t.Fatal(err)
	}
	where := stmts[0].(*SelectStmt).Where.(*BinaryExpr)
	if where.Op != "OR" {
		t.Fatalf("top = %s, want OR", where.Op)
	}
	if _, ok := where.L.(*UnaryExpr); !ok {
		t.Error("NOT not parsed on the left of OR")
	}
	if and, ok := where.R.(*BinaryExpr); !ok || and.Op != "AND" {
		t.Error("AND not nested under OR")
	}
}

func TestParseParenthesesAndUnary(t *testing.T) {
	stmts, err := Parse(`SELECT (a + b) * -c FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	mul := stmts[0].(*SelectStmt).Items[0].Expr.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("top = %s", mul.Op)
	}
	if add, ok := mul.L.(*BinaryExpr); !ok || add.Op != "+" {
		t.Error("parenthesized + not on the left")
	}
	if neg, ok := mul.R.(*UnaryExpr); !ok || neg.Op != "-" {
		t.Error("unary minus not parsed")
	}
}

func TestParseJoinTree(t *testing.T) {
	stmts, err := Parse(`SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.w CROSS JOIN d`)
	if err != nil {
		t.Fatal(err)
	}
	top := stmts[0].(*SelectStmt).From.(*JoinExpr)
	if top.Kind != JoinCross {
		t.Fatalf("outermost = %v, want cross", top.Kind)
	}
	left := top.Left.(*JoinExpr)
	if left.Kind != JoinLeft {
		t.Fatalf("middle = %v, want left", left.Kind)
	}
	inner := left.Left.(*JoinExpr)
	if inner.Kind != JoinInner || inner.On == nil {
		t.Fatalf("innermost = %v", inner.Kind)
	}
}

func TestParseRMATableFunction(t *testing.T) {
	stmts, err := Parse(`SELECT * FROM MMU(w4 BY C, w3 BY a, b) AS w5`)
	if err != nil {
		t.Fatal(err)
	}
	ref := stmts[0].(*SelectStmt).From.(*RMARef)
	if ref.Op != "mmu" || ref.Alias != "w5" || len(ref.Args) != 2 {
		t.Fatalf("ref = %+v", ref)
	}
	if got := strings.Join(ref.Args[1].By, ","); got != "a,b" {
		t.Errorf("second BY = %s", got)
	}
	// Nested calls parse into nested refs.
	stmts, err = Parse(`SELECT * FROM TRA(TRA(w BY T) BY C)`)
	if err != nil {
		t.Fatal(err)
	}
	outer := stmts[0].(*SelectStmt).From.(*RMARef)
	if _, ok := outer.Args[0].Rel.(*RMARef); !ok {
		t.Fatalf("inner arg = %T", outer.Args[0].Rel)
	}
}

func TestParseMultiStatementScript(t *testing.T) {
	stmts, err := Parse(`
CREATE TABLE t (x DOUBLE);
INSERT INTO t VALUES (1), (2);
SELECT * FROM t;
DROP TABLE t;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	if _, ok := stmts[0].(*CreateStmt); !ok {
		t.Error("first not CREATE")
	}
	ins := stmts[1].(*InsertStmt)
	if len(ins.Rows) != 2 {
		t.Errorf("insert rows = %d", len(ins.Rows))
	}
	if _, ok := stmts[3].(*DropStmt); !ok {
		t.Error("last not DROP")
	}
}

// parseErrorInputs are statements Parse must reject with an error. A
// "(" in FROM must open a SELECT (the derived-table inputs).
var parseErrorInputs = []string{
	`SELECT FROM t`,
	`SELECT * FROM`,
	`SELECT * FROM t WHERE`,
	`SELECT * FROM t GROUP`,
	`SELECT * FROM t ORDER x`,
	`SELECT * FROM t LIMIT x`,
	`CREATE TABLE`,
	`CREATE TABLE t (x NOTATYPE)`,
	`INSERT INTO t VALUES 1`,
	`DROP t`,
	`SELECT * FROM (SELECT * FROM t`,
	`SELECT * FROM (`,
	`SELECT a FROM t JOIN (`,
	`SELECT * FROM (t x) AS s`,
	`SELECT * FROM INV(t)`,
	`SELECT a. FROM t`,
	`SELECT COUNT( FROM t`,
	`garbage`,
}

func TestParseErrors(t *testing.T) {
	for _, q := range parseErrorInputs {
		if _, err := Parse(q); err == nil {
			t.Errorf("no parse error for %q", q)
		}
	}
}

func TestParseTypeNames(t *testing.T) {
	stmts, err := Parse(`CREATE TABLE t (a DOUBLE, b REAL, c INT, d BIGINT, e VARCHAR(10), f TEXT, g DATE)`)
	if err != nil {
		t.Fatal(err)
	}
	cs := stmts[0].(*CreateStmt)
	if len(cs.Columns) != 7 {
		t.Fatalf("columns = %d", len(cs.Columns))
	}
}

func TestKeyOfStability(t *testing.T) {
	a, _ := Parse(`SELECT SUM(x + 1) FROM t`)
	b, _ := Parse(`SELECT SUM(x + 1) FROM t`)
	ka := keyOf(a[0].(*SelectStmt).Items[0].Expr)
	kb := keyOf(b[0].(*SelectStmt).Items[0].Expr)
	if ka != kb {
		t.Errorf("structural keys differ: %q vs %q", ka, kb)
	}
	c, _ := Parse(`SELECT SUM(x + 2) FROM t`)
	if keyOf(c[0].(*SelectStmt).Items[0].Expr) == ka {
		t.Error("different expressions share a key")
	}
}

// FuzzParse holds Parse to its contract on arbitrary input: an error or
// statements, never a panic.
func FuzzParse(f *testing.F) {
	for _, q := range parseErrorInputs {
		f.Add(q)
	}
	for _, q := range []string{
		`SELECT a + b * c FROM t`,
		`SELECT * FROM t WHERE NOT a OR b AND c`,
		`SELECT (a + b) * -c FROM t`,
		`SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.w CROSS JOIN d`,
		`SELECT * FROM MMU(w4 BY C, w3 BY a, b) AS w5`,
		`SELECT * FROM TRA(TRA(w BY T) BY C)`,
		"CREATE TABLE t (x DOUBLE);\nINSERT INTO t VALUES (1), (2);\nSELECT * FROM t;\nDROP TABLE t;",
		`CREATE TABLE t (a DOUBLE, b REAL, c INT, d BIGINT, e VARCHAR(10), f TEXT, g DATE) PERSIST`,
		`INSERT INTO t SELECT k, v, s FROM src`,
		`SELECT * FROM MMU(tall BY K, (SELECT K2, x FROM tall2 WHERE K2 < 2) BY K2)`,
		`SELECT * FROM USV(tall BY K, x)`,
		`SELECT DISTINCT s, COUNT(*) AS n FROM t GROUP BY s HAVING n > 1 ORDER BY n DESC, s LIMIT 3`,
		`SELECT * FROM t WHERE k BETWEEN 1 AND 5 AND s = 'it''s'`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
	})
}
