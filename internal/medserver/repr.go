package medserver

import (
	"fmt"

	"qbism/internal/region"
	"qbism/internal/rencode"
)

// Default representation (Config.Rencode). Every band is always
// stored as h-naive runs — degradation paths and explicit-encoding
// queries depend on that row — and, in auto mode, additionally as a
// k³-tree. Which of the stored rows a band query with no explicit
// Encoding reads is a function of the mode alone (BandEncoding): in
// every corpus the repo loads the k³-tree row is the smaller one for
// every band but the empty and one- or two-run ones, where it is a byte
// or two larger (DESIGN.md §13), so there is nothing to choose per
// band. Replica nodes and the unsharded control share a mode, so they
// resolve identically.

// Rencode modes beyond a forced rencode method name.
const (
	// RencodeAuto stores runs and k³-tree rows per band; band queries
	// default to the k³-tree row.
	RencodeAuto = "auto"
	// RencodeRuns reproduces the seed: run-list codecs only.
	RencodeRuns = "runs"
)

// validateRencode rejects unknown Config.Rencode values early, at
// Server construction, rather than at first band load.
func validateRencode(mode string) error {
	if mode == RencodeAuto || mode == RencodeRuns {
		return nil
	}
	if _, ok := rencode.MethodByName(mode); ok {
		return nil
	}
	return fmt.Errorf("qbism: unknown Rencode mode %q (want %q, %q, or a rencode method name)",
		mode, RencodeAuto, RencodeRuns)
}

// BandEncoding is the encoding label a band query with no explicit
// Encoding reads, and the row prepareBand stores beside h-naive.
func (s *Server) BandEncoding() string {
	switch mode := s.Cfg.Rencode; mode {
	case RencodeAuto:
		return EncK3Tree
	case RencodeRuns:
		return EncHilbertNaive
	default:
		return mode // a forced method's rows carry its own name
	}
}

// structureK3Slack is how many times the naive run list's size a
// structure's k³-tree may be and still be the stored form in auto mode —
// the acceptance bound the BENCH tables track.
const structureK3Slack = 1.5

// encodeStructure encodes an atlas structure REGION per the Rencode
// mode: auto keeps the k³-tree unless it is more than structureK3Slack
// times the naive run list's size (structure probes — CONTAINS, point
// membership — then run on the compressed bytes), runs keeps the naive
// run list, a method name forces that method. Storage names its own
// codecs: Config.Method is the wire's. The stored bytes are
// self-describing (rencode header), so no catalog column records the
// choice.
func (s *Server) encodeStructure(r *region.Region) ([]byte, error) {
	switch mode := s.Cfg.Rencode; mode {
	case RencodeRuns:
		return rencode.Encode(rencode.Naive, r)
	case RencodeAuto:
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
	default:
		m, _ := rencode.MethodByName(mode) // validated in New
		return rencode.Encode(m, r)
	}
}
