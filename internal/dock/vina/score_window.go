package vina

import (
	"repro/internal/chem"
	"repro/internal/dock"
)

// winSlack widens the window classification thresholds (gather reach is
// widened inside GatherShared itself) so floating-point rounding of the
// anchor-distance tests can never contradict the real-arithmetic
// triangle-inequality argument; 1e-2 Å dwarfs every rounding term at
// Å-scale coordinates.
const winSlack = 1e-2

// windowGather returns the window's shared candidate CSR — for each
// ligand atom, every packed receptor atom within cutoff+bound of the
// atom's anchor position — building and caching it on the batch on
// first use. The CSR depends only on the anchor and the bound, so one
// build serves a whole window.
func (s *Scorer) windowGather(b *dock.Batch, anchor []chem.Vec3, bound float64) (cands []dock.PackedAtom, offs []int32) {
	if cands, offs, ok := b.WindowGather(s); ok {
		return cands, offs
	}
	stride := b.Stride()
	pc, of := b.WindowGatherScratch(s, stride+1)
	reach := cutoff + bound
	of[0] = 0
	for i := 0; i < stride; i++ {
		if !s.ligIsH[i] {
			s.packed.GatherShared(anchor[i], reach, pc)
		}
		of[i+1] = int32(len(*pc))
	}
	return *pc, of
}

// windowIntraLive returns the window's live intramolecular pairs as
// indices into s.intraTbl: a pair is dead when its anchor separation
// exceeds cutoff + 2·bound (each atom moves at most bound, so the pair
// distance shrinks by at most 2·bound — a dead pair stays beyond the
// cutoff for every valid pose and contributes nothing). Live pairs keep
// table order, so skipping the dead ones cannot change any valid pose's
// accumulation sequence. Cached on the batch per window.
func (s *Scorer) windowIntraLive(b *dock.Batch, anchor []chem.Vec3, bound float64) []int32 {
	if live, ok := b.WindowPairs(s); ok {
		return live
	}
	lp := b.WindowPairScratch(s)
	thr := cutoff + 2*bound + winSlack
	thr2 := thr * thr
	for k := range s.intraTbl {
		pr := &s.intraTbl[k]
		if anchor[pr.i].Dist2(anchor[pr.j]) <= thr2 {
			*lp = append(*lp, int32(k))
		}
	}
	return *lp
}
