package sdb

// AST node definitions for the SQL subset.

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is SELECT exprs FROM tables [WHERE cond]
// [GROUP BY exprs] [ORDER BY items] [LIMIT n] [OFFSET m].
type SelectStmt struct {
	Exprs   []SelectItem
	From    []TableRef
	Where   Expr // nil when absent
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
	Offset  int // 0 when absent
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectItem is one select-list entry; Star means "*".
type SelectItem struct {
	Star bool
	Expr Expr
}

// TableRef is "table [alias]".
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (tuple), ...
type InsertStmt struct {
	Table   string
	Columns []string // empty means all, in schema order
	Rows    [][]Expr // constant expressions
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []Column
}

// DeleteStmt is DELETE FROM table [WHERE cond].
type DeleteStmt struct {
	Table string
	Where Expr
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE cond].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr clause.
type Assignment struct {
	Column string
	Expr   Expr
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}

// Expr is any expression node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct {
	Val Value
}

// ColumnRef is a possibly qualified column reference: [Qualifier.]Name.
type ColumnRef struct {
	Qualifier string // alias or table name; "" if unqualified
	Name      string

	// Bound when the statement is compiled: the tuple slot (join
	// position) of the row the column lives in and its index in that
	// row. Evaluation reads rows[slot][col] and never sees the names.
	slot, col int
}

// BinaryExpr is a binary operation. Op is one of
// = <> < > <= >= + - * / % AND OR.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// FuncCall invokes a user-defined SQL function or a built-in aggregate
// (COUNT, SUM, AVG, MIN, MAX).
type FuncCall struct {
	Name string
	Args []Expr

	// Bound when the statement is compiled: udf is the registered
	// function (nil when none has this name — the call then fails when,
	// and only when, it is evaluated); agg is one plus the call's
	// position in the plan's aggregate list, zero for an ordinary call;
	// site is the call's index among the plan's call sites, the slot of
	// an execution's SiteStates that is its own.
	udf  *UDF
	agg  int
	site int
}

// StarExpr is the "*" inside COUNT(*).
type StarExpr struct{}

// Placeholder is a "?" bind parameter. Idx is the zero-based ordinal in
// parse order; the value is supplied at execution time via the args of
// Exec/Query, which keeps user strings out of the SQL text entirely.
type Placeholder struct {
	Idx int
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncCall) expr()    {}
func (*StarExpr) expr()    {}
func (*Placeholder) expr() {}
