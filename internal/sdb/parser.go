package sdb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	stmt, _, err := parse(input)
	return stmt, err
}

// parse is Parse that also returns how many bind arguments the statement
// needs: the "?" placeholders the parser numbered, in order.
func parse(input string) (Statement, int, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, 0, p.errorf("trailing input %q", p.peek().text)
	}
	return stmt, p.nparams, nil
}

type parser struct {
	toks    []token
	pos     int
	nparams int // count of "?" placeholders seen, in parse order
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, when
// non-empty).
func (p *parser) at(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a matching token or fails.
func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, p.errorf("expected %s, found %q", describe(kind, text), p.peek().text)
}

func describe(kind tokKind, text string) string {
	if text != "" {
		return fmt.Sprintf("%q", text)
	}
	switch kind {
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	default:
		return "token"
	}
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sdb: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// ErrUnsupported is the parse error of SQL that sdb recognizes but does
// not run: the statements DELETE and UPDATE, the clauses GROUP BY,
// ORDER BY, LIMIT and OFFSET, and a * as a call argument. The catalog
// is append-only, and the paper's queries are SELECT … FROM … WHERE
// with joins and UDFs. The error names what was refused.
var ErrUnsupported = errors.New("sdb: not supported")

// unsupported refuses what, found at the current token.
func (p *parser) unsupported(what string) error {
	return fmt.Errorf("%w: %s (offset %d)", ErrUnsupported, what, p.peek().pos)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.accept(tokKeyword, "EXPLAIN"):
		analyze := p.accept(tokKeyword, "ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner, Analyze: analyze}, nil
	case p.accept(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.accept(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.accept(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DELETE"), p.at(tokKeyword, "UPDATE"):
		return nil, p.unsupported(p.peek().text)
	default:
		return nil, p.errorf("expected a statement, found %q", p.peek().text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	s := &SelectStmt{}
	for {
		if p.accept(tokSymbol, "*") {
			s.Exprs = append(s.Exprs, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Exprs = append(s.Exprs, SelectItem{Expr: e})
		}
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: name.text, Alias: name.text}
		if p.at(tokIdent, "") { // optional alias (no AS keyword)
			ref.Alias = p.next().text
		}
		s.From = append(s.From, ref)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	for _, kw := range []string{"GROUP", "ORDER", "LIMIT", "OFFSET"} {
		if p.at(tokKeyword, kw) {
			return nil, p.unsupported(kw)
		}
	}
	return s, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name.text}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

// columnTypes maps SQL type names to Types. These are contextual
// keywords: valid identifiers elsewhere.
var columnTypes = map[string]Type{
	"INT": TInt, "INTEGER": TInt, "BIGINT": TInt,
	"FLOAT": TFloat, "DOUBLE": TFloat, "REAL": TFloat,
	"STRING": TString, "VARCHAR": TString, "TEXT": TString, "CHAR": TString,
	"BOOL": TBool, "BOOLEAN": TBool,
	"LONG": TLong,
}

func (p *parser) parseCreate() (*CreateTableStmt, error) {
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	ct := &CreateTableStmt{Name: name.text}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		tname, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typ, ok := columnTypes[strings.ToUpper(tname.text)]
		if !ok {
			return nil, p.errorf("unknown column type %q", tname.text)
		}
		// Swallow an optional length suffix like VARCHAR(30).
		if p.accept(tokSymbol, "(") {
			if _, err := p.expect(tokNumber, ""); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		ct.Columns = append(ct.Columns, Column{Name: col.text, Type: typ})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

// Expression grammar (precedence climbing).

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "+"):
			op = "+"
		case p.accept(tokSymbol, "-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		case p.accept(tokSymbol, "%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Literal{Val: Int(i)}, nil
	case t.kind == tokString:
		p.next()
		return &Literal{Val: Str(t.text)}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return &Literal{Val: Bool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return &Literal{Val: Bool(false)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return &Literal{Val: Null()}, nil
	case t.kind == tokSymbol && t.text == "?":
		p.next()
		ph := &Placeholder{Idx: p.nparams}
		p.nparams++
		return ph, nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.next()
		// Function call?
		if p.accept(tokSymbol, "(") {
			call := &FuncCall{Name: t.text}
			if !p.accept(tokSymbol, ")") {
				for {
					if p.at(tokSymbol, "*") {
						return nil, p.unsupported("* as a call argument")
					}
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(tokSymbol, ",") {
						break
					}
				}
				if _, err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified column?
		if p.accept(tokSymbol, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qualifier: t.text, Name: col.text}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	default:
		return nil, p.errorf("unexpected token %q in expression", t.text)
	}
}
