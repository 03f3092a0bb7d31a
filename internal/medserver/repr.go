package medserver

import (
	"fmt"
	"slices"
	"strings"
)

// The stored layout. Every atlas structure and every band is stored
// once, as a k³-tree, so structure probes — CONTAINS, point membership —
// run on the compressed bytes, and the population fold walks them
// (rencode.StoredFold, which takes no other form: DESIGN.md §53). In
// every corpus the repo loads the k³-tree is the smaller form for every
// band but the empty and one- or two-run ones, where it is a byte or two
// larger (DESIGN.md §13), so there is nothing to choose per band. A
// band's one long field has one intensityBand row per label of
// bandLabels, each with its handle: a band spec that names no Encoding
// reads the k3-tree row, and h-naive is a synonym for it, kept only
// because the repo benchmark's population sweep asks for that label by
// name. Table 4's rows — Hilbert and Z naive, octant — are the
// experiments' to store. Storage names its own codec: Config.Method is
// the wire's. The stored bytes are self-describing (rencode header), so
// no catalog column records them.

// bandLabels are the labels a band spec may name, each one an
// intensityBand row the loader stores per band over the band's one field.
var bandLabels = []string{EncHilbertNaive, EncK3Tree}

// resolveBandEncoding fills a band spec's empty Encoding with the
// default label, EncK3Tree, and reports whether it did. Any label but
// bandLabels — a typo, or a row only an experiment stored — is refused:
// the server answers from no other row.
func (s *Server) resolveBandEncoding(spec *QuerySpec) (defaulted bool, err error) {
	if spec.Encoding == "" {
		spec.Encoding = EncK3Tree
		return true, nil
	}
	if !slices.Contains(bandLabels, spec.Encoding) {
		return false, fmt.Errorf("qbism: band encoding %q is not stored (have %s)",
			spec.Encoding, strings.Join(bandLabels, ", "))
	}
	return false, nil
}
