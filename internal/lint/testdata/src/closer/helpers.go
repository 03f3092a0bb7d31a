package closer

// Res is the fixture's resource: a module type with a Close method, so
// *Res satisfies the analyzer's resource test.
type Res struct{ closed bool }

func (r *Res) Close() error { r.closed = true; return nil }

// Open is the canonical acquisition: (*Res, error).
func Open() (*Res, error) { return &Res{}, nil }

// OpenRaw acquires without an error result.
func OpenRaw() *Res { return &Res{} }

// use only reads its argument, so callers keep ownership.
func use(r *Res) { _ = r.closed }

// Closer is a named interface with a release verb; values of it are
// resources too (the transport.Transport shape).
type Closer interface{ Close() error }

// Dial acquires through the interface.
func Dial() Closer { return &Res{} }

// Holder releases its field in its own Close: storing a Res here is an
// ownership transfer.
type Holder struct{ r *Res }

func (h *Holder) Close() error { return h.r.Close() }

// Sink has methods but none of them closes r: storing a Res here leaks
// it with its owner.
type Sink struct{ r *Res }

func (s *Sink) Get() *Res { return s.r }

// Embedder's Close is its embedded Res's, promoted.
type Embedder struct{ *Res }
