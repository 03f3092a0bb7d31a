// Fixture for the opproto analyzer; package name sdb puts it in the
// analyzer's scope.
package sdb

type tuple []int

type operator interface {
	open() error
	next() (tuple, bool, error)
	close()
}

type opStats struct{ rowsIn, rowsOut int64 }

type goodOp struct {
	child operator
	st    opStats
}

func (o *goodOp) open() error { return o.child.open() }
func (o *goodOp) next() (tuple, bool, error) {
	t, ok, err := o.child.next()
	if ok {
		o.st.rowsIn++
		o.st.rowsOut++
	}
	return t, ok, err
}
func (o *goodOp) close() { o.child.close() }

type leakyOp struct {
	child operator
	st    opStats
}

func (o *leakyOp) open() error { // want "leakyOp.open does not open child"
	return nil
}

func (o *leakyOp) next() (tuple, bool, error) { // want "leakyOp.next never updates rowsOut"
	return o.child.next()
}

func (o *leakyOp) close() {} // want "leakyOp.close does not close child"

type eagerOp struct {
	left, right operator
	st          opStats
}

func (o *eagerOp) open() error { // want "eagerOp.open pulls child .left. with next before opening it"
	if _, _, err := o.left.next(); err != nil {
		return err
	}
	if err := o.left.open(); err != nil {
		return err
	}
	return o.right.open()
}

func (o *eagerOp) next() (tuple, bool, error) {
	t, ok, err := o.left.next()
	o.st.rowsOut++
	return t, ok, err
}

func (o *eagerOp) close() {
	o.left.close()
	o.right.close()
}

// leafOp has no children: only the counter rule applies.
type leafOp struct {
	st  opStats
	pos int
}

func (o *leafOp) open() error { o.pos = 0; return nil }
func (o *leafOp) next() (tuple, bool, error) {
	o.pos++
	o.st.rowsOut++
	return tuple{o.pos}, true, nil
}
func (o *leafOp) close() {}

// reuseOp hands out one buffer on every next, the way the slot-resolved
// executor's scans and joins do (a tuple is valid until the producing
// operator's next next): filling a field-held buffer in place is still
// a row flowing, and the protocol rules apply unchanged.
type reuseOp struct {
	left, right operator
	st          opStats
	buf         tuple
}

func (o *reuseOp) open() error {
	if err := o.left.open(); err != nil {
		return err
	}
	return o.right.open()
}

func (o *reuseOp) next() (tuple, bool, error) {
	t, ok, err := o.left.next()
	if err != nil || !ok {
		return nil, false, err
	}
	o.st.rowsIn++
	copy(o.buf, t)
	o.st.rowsOut++
	return o.buf, true, nil
}

func (o *reuseOp) close() {
	o.left.close()
	o.right.close()
}

// silentReuseOp fills its reused buffer but never counts the row, and
// forgets the child it only drains lazily.
type silentReuseOp struct {
	left, right operator
	st          opStats
	buf         tuple
}

func (o *silentReuseOp) open() error { // want "silentReuseOp.open does not open child .right."
	return o.left.open()
}

func (o *silentReuseOp) next() (tuple, bool, error) { // want "silentReuseOp.next never updates rowsOut"
	t, ok, err := o.left.next()
	if err != nil || !ok {
		return nil, false, err
	}
	o.st.rowsIn++
	copy(o.buf, t)
	return o.buf, true, nil
}

func (o *silentReuseOp) close() { // want "silentReuseOp.close does not close child .right."
	o.left.close()
}

// notAnOperator has open/next/close lookalikes with the wrong shapes;
// the analyzer must not claim it.
type notAnOperator struct {
	child operator
}

func (n *notAnOperator) open(name string) error { _ = name; return nil }
func (n *notAnOperator) next() (tuple, error)   { return nil, nil }
func (n *notAnOperator) close() error           { return nil }
