package medserver

import (
	"fmt"
	"slices"
	"strings"

	"qbism/internal/region"
	"qbism/internal/rencode"
)

// The stored layout. Every band is stored as an h-naive row and a
// k³-tree row, whatever the Config; a band spec that names no Encoding
// reads the k³-tree row. In every corpus the repo loads the k³-tree row
// is the smaller one for every band but the empty and one- or two-run
// ones, where it is a byte or two larger (DESIGN.md §13), so there is
// nothing to choose per band. The h-naive row is kept because Table 4
// and the repo benchmark's population sweep ask for it by name; no
// degraded path reads it (bandSlowPath reads the VOLUME and the
// structure). Table 4's other rows are the experiments' to store.

// bandLabels are the rows the loader stores per band, in order, and the
// labels a band spec may name; bandMethods are their codecs.
var (
	bandLabels  = []string{EncHilbertNaive, EncK3Tree}
	bandMethods = []rencode.Method{rencode.Naive, rencode.K3Tree}
)

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

// structureK3Slack is how many times the naive run list's size a
// structure's k³-tree may be and still be the stored form.
const structureK3Slack = 1.5

// encodeStructure encodes an atlas structure REGION as a k³-tree unless
// that is more than structureK3Slack times the naive run list's size, in
// which case it keeps the run list. Structure probes — CONTAINS, point
// membership — then run on the compressed bytes. Storage names its own
// codecs: Config.Method is the wire's. The stored bytes are
// self-describing (rencode header), so no catalog column records the
// choice.
func encodeStructure(r *region.Region) ([]byte, error) {
	base, err := rencode.Encode(rencode.Naive, r)
	if err != nil {
		return nil, err
	}
	sizeK3, err := rencode.EncodedSize(rencode.K3Tree, r)
	if err != nil {
		return nil, err
	}
	if float64(sizeK3) <= structureK3Slack*float64(len(base)) {
		return rencode.Encode(rencode.K3Tree, r)
	}
	return base, nil
}
