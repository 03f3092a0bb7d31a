package sdb

import (
	"fmt"
	"sort"
	"strings"
)

// The logical planner. A SELECT is normalized into a plan tree of
// scans, filters, and joins; aggregation, sort, limit, and projection
// ride on top of the tree in that fixed order. The planner splits the
// WHERE clause into AND-conjuncts and pushes each one down to the
// lowest operator whose table aliases cover it — a cheap spatial
// predicate (say, CONTAINS over two runlists) filters rows before any
// long-field EXTRACT_DATA in the select list runs, which is the
// paper's central early-filtering lesson.

// planNode is one node of the scan/filter/join tree.
type planNode interface{ plan() }

// scanNode reads every row of one bound FROM entry into its tuple slot.
type scanNode struct {
	src  source
	slot int
}

// filterNode drops rows failing its predicates, evaluated in order.
// pushed marks filters that sit below the top of the join tree — they
// see only a proper subset of the FROM tables.
type filterNode struct {
	child  planNode
	preds  []Expr
	pushed bool
}

// joinNode combines a left (already joined) subtree with one new
// table. When key expressions are present the executor uses a hash
// join on them; otherwise it falls back to a nested loop.
type joinNode struct {
	left, right planNode
	slot        int    // the right table's tuple slot; the left subtree fills the slots below it
	leftKeys    []Expr // evaluated against the left subtree's aliases
	rightKeys   []Expr // evaluated against the right table, parallel to leftKeys
}

func (*scanNode) plan()   {}
func (*filterNode) plan() {}
func (*joinNode) plan()   {}

// selectPlan is the compiled form of a SELECT: the operator tree plus
// everything the physical layers above it need. Once planSelect returns
// it — and the statement's AST, whose column references and calls it
// bound — is read-only, so any number of executions may share it.
type selectPlan struct {
	stmt       *SelectStmt
	ordered    []source // join order = tuple slot order; Star expansion follows this
	tree       planNode
	aggCalls   []*FuncCall
	aggregated bool
	columns    []string
	pushdown   bool
	sites      int // FuncCall.site runs from 0 to sites-1
}

// planSelect resolves, validates, and plans a SELECT statement.
func (db *DB) planSelect(s *SelectStmt) (*selectPlan, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("sdb: SELECT without FROM")
	}
	sources := make([]source, 0, len(s.From))
	byAlias := make(map[string]*Table)
	for _, ref := range s.From {
		t, err := db.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(ref.Alias)
		if _, dup := byAlias[key]; dup {
			return nil, fmt.Errorf("sdb: duplicate table alias %q", ref.Alias)
		}
		byAlias[key] = t
		sources = append(sources, source{alias: ref.Alias, table: t})
	}

	// Capture display labels before resolution rewrites qualifiers.
	labels := make([]string, len(s.Exprs))
	for i, item := range s.Exprs {
		if !item.Star {
			labels[i] = exprLabel(item.Expr)
		}
	}

	// Resolve unqualified column references so conjunct alias sets are
	// exact, then split the WHERE into conjuncts.
	resolve := func(x Expr) error { return resolveColumns(x, sources2map(sources)) }
	for _, item := range s.Exprs {
		if !item.Star {
			if err := resolve(item.Expr); err != nil {
				return nil, err
			}
		}
	}
	var conjuncts []conjunct
	if s.Where != nil {
		if err := resolve(s.Where); err != nil {
			return nil, err
		}
		var aggCheck []*FuncCall
		if err := collectAggregates(s.Where, &aggCheck, false); err != nil {
			return nil, err
		}
		if len(aggCheck) > 0 {
			return nil, fmt.Errorf("sdb: aggregates are not allowed in WHERE")
		}
		for _, c := range splitConjuncts(s.Where) {
			conjuncts = append(conjuncts, conjunct{expr: c, aliases: exprAliases(c)})
		}
	}
	for _, g := range s.GroupBy {
		if err := resolve(g); err != nil {
			return nil, err
		}
	}
	for _, oi := range s.OrderBy {
		if err := resolve(oi.Expr); err != nil {
			return nil, err
		}
	}

	// Detect aggregation and collect the aggregate calls to accumulate.
	var aggCalls []*FuncCall
	for _, item := range s.Exprs {
		if !item.Star {
			if err := collectAggregates(item.Expr, &aggCalls, false); err != nil {
				return nil, err
			}
		}
	}
	for _, oi := range s.OrderBy {
		if err := collectAggregates(oi.Expr, &aggCalls, false); err != nil {
			return nil, err
		}
	}
	aggregated := len(aggCalls) > 0 || len(s.GroupBy) > 0

	plan := &selectPlan{
		stmt:       s,
		aggCalls:   aggCalls,
		aggregated: aggregated,
		pushdown:   !db.noPushdown,
	}

	if plan.pushdown {
		// Join order: greedy — start from the FROM order but always
		// prefer the table that binds the most not-yet-applied conjuncts
		// next (single-table filters first, then join-connected tables).
		// This is a poor man's version of Starburst's join enumeration,
		// enough to avoid pathological cross products on the paper's
		// queries.
		order := planOrder(sources2aliases(sources), conjuncts)
		for _, a := range order {
			for _, src := range sources {
				if strings.EqualFold(src.alias, a) {
					plan.ordered = append(plan.ordered, src)
				}
			}
		}
		plan.tree = db.buildTree(plan.ordered, conjuncts)
	} else {
		// Pushdown disabled: join in FROM order with plain nested loops
		// and evaluate the entire WHERE, in written order, on top — the
		// naive strategy the planner benchmark compares against.
		plan.ordered = append(plan.ordered, sources...)
		var node planNode = &scanNode{src: plan.ordered[0]}
		for i, src := range plan.ordered[1:] {
			node = &joinNode{left: node, right: &scanNode{src: src, slot: i + 1}, slot: i + 1}
		}
		if len(conjuncts) > 0 {
			preds := make([]Expr, len(conjuncts))
			for i, c := range conjuncts {
				preds[i] = c.expr
			}
			node = &filterNode{child: node, preds: preds}
		}
		plan.tree = node
	}

	// Result columns.
	for i, item := range s.Exprs {
		if item.Star {
			for _, src := range plan.ordered {
				for _, col := range src.table.Columns {
					plan.columns = append(plan.columns, src.alias+"."+col.Name)
				}
			}
		} else {
			plan.columns = append(plan.columns, labels[i])
		}
	}

	if aggregated {
		for _, item := range s.Exprs {
			if item.Star {
				return nil, fmt.Errorf("sdb: SELECT * cannot be combined with aggregates or GROUP BY")
			}
		}
	}

	// Bind every expression to the tuple layout the join order fixed.
	for _, item := range s.Exprs {
		if !item.Star {
			db.bindExpr(item.Expr, plan.ordered, aggCalls, &plan.sites)
		}
	}
	db.bindExpr(s.Where, plan.ordered, aggCalls, &plan.sites)
	for _, g := range s.GroupBy {
		db.bindExpr(g, plan.ordered, aggCalls, &plan.sites)
	}
	for _, oi := range s.OrderBy {
		db.bindExpr(oi.Expr, plan.ordered, aggCalls, &plan.sites)
	}
	return plan, nil
}

// bindExpr binds x, whose column references resolveColumns has already
// qualified and validated, for evaluation against tuples laid out as
// ordered (slot i holds ordered[i]'s row): every ColumnRef gets its
// (slot, column) pair, every FuncCall its registered UDF, the next of
// the *sites call sites numbered so far and, if it is one of the plan's
// accumulated aggregate calls, its position among them.
func (db *DB) bindExpr(x Expr, ordered []source, aggCalls []*FuncCall, sites *int) {
	walkExpr(x, func(e Expr) {
		switch n := e.(type) {
		case *ColumnRef:
			for slot, src := range ordered {
				if strings.EqualFold(src.alias, n.Qualifier) {
					n.slot, n.col = slot, src.table.ColumnIndex(n.Name)
					return
				}
			}
		case *FuncCall:
			n.udf, _ = db.lookupUDF(n.Name)
			n.site = *sites
			*sites++
			n.agg = 0
			for i, c := range aggCalls {
				if c == n {
					n.agg = i + 1
				}
			}
		}
	})
}

// bindRowExpr resolves and binds a DML expression that sees one row of
// t at a time (in slot 0), or no row at all when t is nil.
func (db *DB) bindRowExpr(x Expr, t *Table) error {
	var sources []source
	if t != nil {
		sources = []source{{alias: t.Name, table: t}}
	}
	if err := resolveColumns(x, sources2map(sources)); err != nil {
		return err
	}
	var sites int // no execution runs DML, so no SiteState is kept for them
	db.bindExpr(x, sources, nil, &sites)
	return nil
}

// buildTree assembles the left-deep scan/filter/join tree for the given
// join order, assigning each conjunct to the lowest node whose aliases
// cover it.
func (db *DB) buildTree(ordered []source, conjuncts []conjunct) planNode {
	multi := len(ordered) > 1

	// Assign each conjunct to the earliest level where it is fully
	// bound (alias-free conjuncts run at level 0).
	levelConj := make([][]conjunct, len(ordered))
	for _, c := range conjuncts {
		level := 0
		remaining := len(c.aliases)
		for li, src := range ordered {
			if c.aliases[strings.ToLower(src.alias)] {
				remaining--
				if remaining == 0 {
					level = li
					break
				}
			}
		}
		levelConj[level] = append(levelConj[level], c)
	}

	var node planNode = &scanNode{src: ordered[0]}
	if len(levelConj[0]) > 0 {
		node = &filterNode{
			child:  node,
			preds:  db.orderPreds(levelConj[0]),
			pushed: multi,
		}
	}
	bound := map[string]bool{strings.ToLower(ordered[0].alias): true}
	for li := 1; li < len(ordered); li++ {
		cur := strings.ToLower(ordered[li].alias)
		var inner, residual []conjunct
		var leftKeys, rightKeys []Expr
		for _, c := range levelConj[li] {
			if subsetOf(c.aliases, map[string]bool{cur: true}) {
				inner = append(inner, c)
				continue
			}
			if l, r, ok := hashKeyPair(c.expr, bound, cur); ok {
				leftKeys = append(leftKeys, l)
				rightKeys = append(rightKeys, r)
				continue
			}
			residual = append(residual, c)
		}
		var right planNode = &scanNode{src: ordered[li], slot: li}
		if len(inner) > 0 {
			right = &filterNode{child: right, preds: db.orderPreds(inner), pushed: true}
		}
		node = &joinNode{left: node, right: right, slot: li, leftKeys: leftKeys, rightKeys: rightKeys}
		if len(residual) > 0 {
			node = &filterNode{
				child:  node,
				preds:  db.orderPreds(residual),
				pushed: li < len(ordered)-1,
			}
		}
		bound[cur] = true
	}
	return node
}

// hashKeyPair recognizes an equality conjunct usable as a hash-join
// key at a join whose left side binds `bound` and whose right side
// binds the single alias `cur`. It returns the (left, right) key
// expressions in join orientation.
func hashKeyPair(x Expr, bound map[string]bool, cur string) (Expr, Expr, bool) {
	b, ok := x.(*BinaryExpr)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	curOnly := map[string]bool{cur: true}
	la, ra := exprAliases(b.Left), exprAliases(b.Right)
	if len(la) > 0 && subsetOf(la, bound) && len(ra) > 0 && subsetOf(ra, curOnly) {
		return b.Left, b.Right, true
	}
	if len(ra) > 0 && subsetOf(ra, bound) && len(la) > 0 && subsetOf(la, curOnly) {
		return b.Right, b.Left, true
	}
	return nil, nil, false
}

func subsetOf(set, of map[string]bool) bool {
	for k := range set {
		if !of[k] {
			return false
		}
	}
	return true
}

// orderPreds sorts a filter's conjuncts cheapest-first (stable) using
// the UDF cost hints, so an inexpensive spatial test like CONTAINS
// runs before a costly EXTRACT_DATA-class function on the same node.
func (db *DB) orderPreds(conjuncts []conjunct) []Expr {
	preds := make([]Expr, len(conjuncts))
	for i, c := range conjuncts {
		preds[i] = c.expr
	}
	sort.SliceStable(preds, func(a, b int) bool {
		return db.exprCost(preds[a]) < db.exprCost(preds[b])
	})
	return preds
}

// exprCost estimates evaluation cost from UDF cost hints: each
// function call costs 1 plus its registered Cost; columns, literals,
// and operators are free.
func (db *DB) exprCost(x Expr) int {
	cost := 0
	walkExpr(x, func(e Expr) {
		if fc, ok := e.(*FuncCall); ok {
			cost++
			if u, found := db.lookupUDF(fc.Name); found {
				cost += u.Cost
			}
		}
	})
	return cost
}

// walkExpr calls f on x and every sub-expression, pre-order.
func walkExpr(x Expr, f func(Expr)) {
	if x == nil {
		return
	}
	f(x)
	switch n := x.(type) {
	case *BinaryExpr:
		walkExpr(n.Left, f)
		walkExpr(n.Right, f)
	case *UnaryExpr:
		walkExpr(n.X, f)
	case *FuncCall:
		for _, a := range n.Args {
			walkExpr(a, f)
		}
	}
}

// countPlaceholders returns how many bind arguments a statement needs
// (the highest placeholder ordinal plus one).
func countPlaceholders(stmt Statement) int {
	max := -1
	note := func(x Expr) {
		walkExpr(x, func(e Expr) {
			if p, ok := e.(*Placeholder); ok && p.Idx > max {
				max = p.Idx
			}
		})
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		for _, item := range s.Exprs {
			if !item.Star {
				note(item.Expr)
			}
		}
		note(s.Where)
		for _, g := range s.GroupBy {
			note(g)
		}
		for _, oi := range s.OrderBy {
			note(oi.Expr)
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, x := range row {
				note(x)
			}
		}
	case *DeleteStmt:
		note(s.Where)
	case *UpdateStmt:
		for _, a := range s.Set {
			note(a.Expr)
		}
		note(s.Where)
	case *ExplainStmt:
		return countPlaceholders(s.Stmt)
	}
	return max + 1
}
