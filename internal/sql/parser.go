package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bat"
	"repro/internal/core"
)

type parser struct {
	toks []token
	pos  int
}

// Parse parses a semicolon-separated script.
func Parse(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for !p.at(tokEOF, "") {
		if p.accept(tokSymbol, ";") {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.accept(tokSymbol, ";") && !p.at(tokEOF, "") {
			return nil, p.errf("expected ';' or end of input")
		}
	}
	return stmts, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return token{}, p.errf("expected %q", text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	what := t.text
	if t.kind == tokEOF {
		what = "end of input"
	}
	return fmt.Errorf("sql: %s at position %d (near %q)", fmt.Sprintf(format, args...), t.pos, what)
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.selectStmt()
	case p.at(tokKeyword, "CREATE"):
		return p.createStmt()
	case p.at(tokKeyword, "INSERT"):
		return p.insertStmt()
	case p.at(tokKeyword, "DROP"):
		return p.dropStmt()
	}
	return nil, p.errf("expected statement")
}

func (p *parser) ident() (string, error) {
	if p.cur().kind == tokIdent {
		t := p.cur()
		p.pos++
		return t.text, nil
	}
	return "", p.errf("expected identifier")
}

// --- DDL / DML ----------------------------------------------------------

func (p *parser) createStmt() (Statement, error) {
	p.pos++ // CREATE
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		tn, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct, err := parseType(tn)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		// Optional length, e.g. VARCHAR(20).
		if p.accept(tokSymbol, "(") {
			if p.cur().kind != tokNumber {
				return nil, p.errf("expected length")
			}
			p.pos++
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		cols = append(cols, ColumnDef{Name: cn, Type: ct})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	persist := p.accept(tokKeyword, "PERSIST")
	return &CreateStmt{Name: name, Columns: cols, Persist: persist}, nil
}

func parseType(name string) (bat.Type, error) {
	switch strings.ToUpper(name) {
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return bat.Float, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "DATE", "TIMESTAMP":
		return bat.Int, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING", "CLOB":
		return bat.String, nil
	}
	return 0, fmt.Errorf("unknown type %q", name)
}

func (p *parser) insertStmt() (Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.at(tokKeyword, "SELECT") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &InsertStmt{Table: name, Select: sel.(*SelectStmt)}, nil
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return &InsertStmt{Table: name, Rows: rows}, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.pos++ // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Table: name}, nil
}

// --- SELECT -------------------------------------------------------------

func (p *parser) selectStmt() (Statement, error) {
	// A derived table reaches here on '(' alone, so SELECT is checked.
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.accept(tokKeyword, "DISTINCT")
	for {
		if p.accept(tokSymbol, "*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.As = a
			} else if p.cur().kind == tokIdent {
				item.As = p.cur().text
				p.pos++
			}
			sel.Items = append(sel.Items, item)
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.tableExpr()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.accept(tokKeyword, "WHERE") {
		if sel.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		if sel.Having, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		if p.cur().kind != tokNumber {
			return nil, p.errf("expected LIMIT count")
		}
		n, err := strconv.Atoi(p.cur().text)
		if err != nil {
			return nil, p.errf("bad LIMIT: %v", err)
		}
		sel.Limit = n
		p.pos++
	}
	return sel, nil
}

// tableExpr parses a FROM clause: primary references chained with joins
// and commas (comma = cross join).
func (p *parser) tableExpr() (TableExpr, error) {
	left, err := p.tablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, ","):
			right, err := p.tablePrimary()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Kind: JoinCross, Left: left, Right: right}
		case p.accept(tokKeyword, "CROSS"):
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			right, err := p.tablePrimary()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Kind: JoinCross, Left: left, Right: right}
		case p.at(tokKeyword, "JOIN") || p.at(tokKeyword, "INNER") || p.at(tokKeyword, "LEFT"):
			kind := JoinInner
			if p.accept(tokKeyword, "LEFT") {
				kind = JoinLeft
			} else {
				p.accept(tokKeyword, "INNER")
			}
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			right, err := p.tablePrimary()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.expr()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Kind: kind, Left: left, Right: right, On: on}
		default:
			return left, nil
		}
	}
}

func (p *parser) tablePrimary() (TableExpr, error) {
	// Derived table.
	if p.accept(tokSymbol, "(") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		alias := p.optionalAlias()
		return &SubqueryRef{Select: sel.(*SelectStmt), Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// RMA table function: a known operation name followed by '('.
	if p.at(tokSymbol, "(") {
		opName := strings.ToLower(name)
		if _, err := core.ParseOp(opName); err != nil {
			return nil, p.errf("unknown table function %q", name)
		}
		p.pos++ // (
		ref := &RMARef{Op: opName}
		for {
			arg, err := p.rmaArg()
			if err != nil {
				return nil, err
			}
			ref.Args = append(ref.Args, *arg)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ref.Alias = p.optionalAlias()
		return ref, nil
	}
	return &TableRef{Name: name, Alias: p.optionalAlias()}, nil
}

// rmaArg parses `relation BY a, b, ...` where relation is a table name, a
// parenthesized subquery, or a nested RMA table function.
func (p *parser) rmaArg() (*RMAArg, error) {
	te, err := p.tablePrimary()
	if err != nil {
		return nil, err
	}
	arg := &RMAArg{Rel: te}
	if _, err := p.expect(tokKeyword, "BY"); err != nil {
		return nil, err
	}
	for {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		arg.By = append(arg.By, a)
		// BY lists end at ',' followed by another argument or at ')'.
		// A comma here is ambiguous: it separates either BY attributes or
		// RMA arguments; the next argument wins when what follows the
		// comma starts a relation (ident BY, ident '(', or '(').
		if p.at(tokSymbol, ",") && p.pos+2 < len(p.toks) {
			n1, n2 := p.toks[p.pos+1], p.toks[p.pos+2]
			nextIsArg := (n1.kind == tokIdent && n2.kind == tokKeyword && n2.text == "BY") ||
				(n1.kind == tokIdent && n2.kind == tokSymbol && n2.text == "(") ||
				(n1.kind == tokSymbol && n1.text == "(")
			if nextIsArg {
				return arg, nil
			}
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		return arg, nil
	}
}

func (p *parser) optionalAlias() string {
	if p.accept(tokKeyword, "AS") {
		if p.cur().kind == tokIdent {
			a := p.cur().text
			p.pos++
			return a
		}
		return ""
	}
	if p.cur().kind == tokIdent {
		a := p.cur().text
		p.pos++
		return a
	}
	return ""
}

// --- Expressions ---------------------------------------------------------

// expr parses with precedence: OR < AND < NOT < comparison < additive <
// multiplicative < unary < primary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]bool{"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokSymbol && cmpOps[p.cur().text] {
		op := p.cur().text
		if op == "!=" {
			op = "<>"
		}
		p.pos++
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: l, R: r}, nil
	}
	// Postfix predicates: [NOT] IN / BETWEEN / LIKE.
	negated := false
	if p.at(tokKeyword, "NOT") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "BETWEEN" || p.toks[p.pos+1].text == "LIKE") {
		p.pos++
		negated = true
	}
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: negated}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: negated}, nil
	case p.accept(tokKeyword, "LIKE"):
		if p.cur().kind != tokString {
			return nil, p.errf("LIKE expects a string pattern")
		}
		pat := p.cur().text
		p.pos++
		return &LikeExpr{E: l, Pattern: pat, Not: negated}, nil
	}
	if negated {
		return nil, p.errf("expected IN, BETWEEN or LIKE after NOT")
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.cur().text
		p.pos++
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/" || p.cur().text == "%") {
		op := p.cur().text
		p.pos++
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	p.accept(tokSymbol, "+")
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if !strings.ContainsAny(t.text, ".eE") {
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return &NumberLit{IsInt: true, Int: n}, nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number: %v", err)
		}
		return &NumberLit{Float: f}, nil
	case tokString:
		p.pos++
		return &StringLit{Val: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		name := t.text
		p.pos++
		// Function call.
		if p.accept(tokSymbol, "(") {
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.accept(tokSymbol, "*") {
				fc.Star = true
			} else if !p.at(tokSymbol, ")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if p.accept(tokSymbol, ",") {
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column.
		if p.accept(tokSymbol, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Qualifier: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	}
	return nil, p.errf("expected expression")
}
