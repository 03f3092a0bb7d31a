package closer

// --- positives -------------------------------------------------------

// The resource reaches the end of the function alive.
func LeakEnd() {
	r, err := Open() // want "may reach the end of the function without being closed"
	if err != nil {
		return
	}
	use(r)
}

// The result is never even bound.
func Discard() {
	OpenRaw() // want "result of OpenRaw discarded"
}

// One return path closes, the other forgets.
func LeakReturn(cond bool) error {
	r, err := Open()
	if err != nil {
		return err
	}
	if cond {
		return nil // want "is not closed on this return path"
	}
	return r.Close()
}

// A branch-only release does not cover the fallthrough path.
func LeakIface(b bool) {
	c := Dial() // want "closer.Closer from Dial may reach the end of the function"
	if b {
		c.Close()
	}
}

// Stored into a struct none of whose methods closes the field: the
// seeded ClusterSystem-shaped bug, reported at the store.
func Sunk() *Sink {
	r, err := Open()
	if err != nil {
		return nil
	}
	s := &Sink{r: r} // want "stored in Sink.r, but no Sink method closes that field"
	return s
}

// --- negatives -------------------------------------------------------

// Deferred close covers every path.
func CleanDefer() {
	r, err := Open()
	if err != nil {
		return
	}
	defer r.Close()
	use(r)
}

// Explicit close on the single exit path; the err-return path never
// holds a live resource (the err != nil refinement).
func CleanExplicit() error {
	r, err := Open()
	if err != nil {
		return err
	}
	use(r)
	return r.Close()
}

// Ownership transfer: returned to the caller.
func Transfer() (*Res, error) { return Open() }

// Ownership transfer: stored into a struct whose own Close releases it.
func NewHolder() (*Holder, error) {
	r, err := Open()
	if err != nil {
		return nil, err
	}
	return &Holder{r: r}, nil
}

// Ownership transfer: stored into the field whose Close is promoted.
func NewEmbedder() *Embedder {
	r := OpenRaw()
	return &Embedder{Res: r}
}

// Ownership transfer: captured by a closure.
func ClosureCapture() {
	r, err := Open()
	if err != nil {
		return
	}
	go func() { r.Close() }()
}

// --- suppression -----------------------------------------------------

func Suppressed() {
	//lint:ignore closer fixture exercises the suppression path
	r, _ := Open()
	use(r)
}
