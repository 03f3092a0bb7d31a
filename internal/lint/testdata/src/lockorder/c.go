package lockorder

import "sync"

// The free list of a prepared statement's idle operator trees (sdb's
// compiled.idle), reduced to its locking. The mutex is a leaf: take and
// release hold it to pop and push, nothing more, so run may execute a
// tree that itself executes the statement — a UDF querying through the
// same *Stmt — without ever finding the lock taken.
type plan struct {
	mu   sync.Mutex
	idle []*tree // guarded by mu
}

type tree struct{ n int }

func (p *plan) take() *tree {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle) - 1; n >= 0 {
		x := p.idle[n]
		p.idle = p.idle[:n]
		return x
	}
	return &tree{}
}

func (p *plan) release(x *tree) {
	p.mu.Lock()
	p.idle = append(p.idle, x)
	p.mu.Unlock()
}

// exec stands for open/next/close: an expression of the tree may run
// the statement again, on a tree of its own.
func (p *plan) exec(x *tree) int {
	y := p.take()
	y.n++
	p.release(y)
	return x.n
}

// run is the discipline sdb follows: no lock is held while the tree
// runs.
func (p *plan) run() int {
	x := p.take()
	n := p.exec(x)
	p.release(x)
	return n
}

// heldAcrossRun is what the free-list lock must never become: a tree
// executed under it deadlocks the moment it needs a tree.
func (p *plan) heldAcrossRun() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	x := p.idle[0]
	return p.exec(x) // want "sync mutexes are not reentrant"
}
