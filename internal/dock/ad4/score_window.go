package ad4

import (
	"repro/internal/chem"
	"repro/internal/dock"
)

// winSlack widens the window dead-pair threshold so floating-point
// rounding of the anchor-distance test can never contradict the
// real-arithmetic triangle-inequality argument; 1e-2 Å dwarfs every
// rounding term at Å-scale coordinates.
const winSlack = 1e-2

// windowIntraLive returns the window's live intramolecular pairs as
// indices into s.intraTbl: a pair is dead when its anchor separation
// exceeds intraCutoff + 2·bound — each atom of a WindowValid pose moves
// at most bound from its anchor position, so the pair distance shrinks
// by at most 2·bound and a dead pair stays beyond the cutoff for every
// valid pose, contributing nothing. Live pairs keep table order, so
// skipping the dead ones cannot change a valid pose's accumulation
// sequence. Cached on the batch per window. AD4's intermolecular term
// is a grid read and needs no window treatment; the intramolecular
// pair walk is what the window shares.
func (s *Scorer) windowIntraLive(b *dock.Batch, anchor []chem.Vec3, bound float64) []int32 {
	if live, ok := b.WindowPairs(s); ok {
		return live
	}
	lp := b.WindowPairScratch(s)
	thr := intraCutoff + 2*bound + winSlack
	thr2 := thr * thr
	for k := range s.intraTbl {
		pr := &s.intraTbl[k]
		if anchor[pr.i].Dist2(anchor[pr.j]) <= thr2 {
			*lp = append(*lp, int32(k))
		}
	}
	return *lp
}
