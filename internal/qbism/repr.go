package qbism

import (
	"fmt"
	"sort"

	"qbism/internal/costmodel"
	"qbism/internal/region"
	"qbism/internal/rencode"
)

// Per-REGION representation selection (Config.Rencode). Every band is
// always stored at least as h-naive runs — degradation paths and
// explicit-encoding queries depend on that row — and, in auto mode,
// additionally as a k³-tree. What the planner chooses is which of the
// stored rows a band query with no explicit Encoding resolves to: the
// costmodel.ReprPolicy pick from the two encoded sizes and the probe
// fraction. The pick is a pure function of the band's content (and,
// after AdaptBandRepr, of the observed workload), so replica nodes and
// the unsharded control resolve identically — the cluster's
// byte-identity contract extends to representation choice.

// Rencode modes beyond a forced rencode method name.
const (
	// RencodeAuto stores runs and k³-tree rows per band and lets the
	// policy pick the default representation per REGION.
	RencodeAuto = "auto"
	// RencodeRuns reproduces the seed: run-list codecs only.
	RencodeRuns = "runs"
)

// bandKey identifies one stored intensity band.
type bandKey struct {
	study  int
	lo, hi int
}

// validateRencode rejects unknown Config.Rencode values early, at
// System construction, rather than at first band load.
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

// bandEncoding resolves the encoding label a band query with no
// explicit Encoding uses: the recorded planner pick, or the seed
// default when none was recorded (runs mode, or an unknown band).
func (s *System) bandEncoding(study, lo, hi int) string {
	s.reprMu.RLock()
	defer s.reprMu.RUnlock()
	if enc, ok := s.bandRepr[bandKey{study, lo, hi}]; ok {
		return enc
	}
	return EncHilbertNaive
}

func (s *System) setBandRepr(study, lo, hi int, enc string) {
	s.reprMu.Lock()
	s.bandRepr[bandKey{study, lo, hi}] = enc
	s.reprMu.Unlock()
}

// pickBandRepr runs the representation policy for one band: the
// encoded sizes of its runs row and its k³-tree row against the probe
// fraction. Pure — same sizes and fraction always yield the same label.
func pickBandRepr(sizeRuns, sizeK3 int, probeFrac float64) string {
	if costmodel.DefaultReprPolicy().Pick(sizeRuns, sizeK3, probeFrac) == costmodel.ReprK3 {
		return EncK3Tree
	}
	return EncHilbertNaive
}

// encodeStructure encodes an atlas structure REGION per the Rencode
// mode: auto keeps whichever of Cfg.Method and the k³-tree is smaller
// (structure probes — CONTAINS, point membership — then run on the
// compressed bytes), runs keeps Cfg.Method, a method name forces that
// method. The stored bytes are self-describing (rencode header), so no
// catalog column records the choice.
func (s *System) encodeStructure(r *region.Region) ([]byte, error) {
	switch mode := s.Cfg.Rencode; mode {
	case RencodeRuns:
		return rencode.Encode(s.Cfg.Method, r)
	case RencodeAuto:
		base, err := rencode.Encode(s.Cfg.Method, r)
		if err != nil {
			return nil, err
		}
		sizeK3, err := rencode.EncodedSize(rencode.K3Tree, r)
		if err != nil {
			return nil, err
		}
		if costmodel.DefaultReprPolicy().Pick(len(base), sizeK3,
			costmodel.DefaultReprPolicy().ProbeCutoff) == costmodel.ReprK3 {
			return rencode.Encode(rencode.K3Tree, r)
		}
		return base, nil
	default:
		m, _ := rencode.MethodByName(mode) // validated in New
		return rencode.Encode(m, r)
	}
}

// BandReprCounts reports how many stored bands currently resolve to
// each encoding label — the planner's representation census, surfaced
// by the CLI and the perfbench report.
func (s *System) BandReprCounts() map[string]int {
	out := make(map[string]int)
	s.reprMu.RLock()
	defer s.reprMu.RUnlock()
	for _, enc := range s.bandRepr {
		out[enc]++
	}
	return out
}

// AdaptBandRepr re-runs the representation pick for every loaded band
// using the probe fraction the system actually observed — the
// qbism_region_probe_total / qbism_region_decode_total counters the
// spatial UDFs maintain — instead of the load-time prior. It returns
// how many bands' default representation changed. Only auto mode
// adapts; runs and forced modes are pinned by construction. Both rows
// are already stored, so adaptation only rewrites the resolution map —
// no data movement, and in-flight queries see either the old or the
// new pick, both of which answer byte-identically.
func (s *System) AdaptBandRepr() (int, error) {
	if s.Cfg.Rencode != RencodeAuto {
		return 0, nil
	}
	frac := costmodel.DefaultReprPolicy().ProbeCutoff
	probes := s.Metrics.Counter(metricRegionProbes).Value()
	decodes := s.Metrics.Counter(metricRegionDecodes).Value()
	if total := probes + decodes; total > 0 {
		frac = float64(probes) / float64(total)
	}
	// Studies iterate in sorted order so the changed count and the
	// map-write order are reproducible run to run.
	studies := make([]int, 0, len(s.BandRegions))
	for id := range s.BandRegions {
		studies = append(studies, id)
	}
	sort.Ints(studies)
	changed := 0
	for _, studyID := range studies {
		for _, b := range s.BandRegions[studyID] {
			sizeRuns, err := rencode.EncodedSize(rencode.Naive, b.Region)
			if err != nil {
				return changed, err
			}
			sizeK3, err := rencode.EncodedSize(rencode.K3Tree, b.Region)
			if err != nil {
				return changed, err
			}
			enc := pickBandRepr(sizeRuns, sizeK3, frac)
			if s.bandEncoding(studyID, int(b.Lo), int(b.Hi)) != enc {
				s.setBandRepr(studyID, int(b.Lo), int(b.Hi), enc)
				changed++
			}
		}
	}
	return changed, nil
}
