package vina

import (
	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
)

// ScoreBatch scores every pose of the batch, writing the affinity of
// slot p into out[p]. Results are bit-identical to calling Score on
// each pose's coordinates: per pose, every pair term is accumulated in
// exactly the sequential order (ligand atoms ascending, CSR spans in
// span order; intramolecular pairs in table order), so the float64
// rounding sequence is unchanged — only the loop nest is inverted.
//
// The speed comes from layout, not from skipping work. The outer loop
// walks ligand atoms, so one atom's radial-table row and its touched
// table segments stay hot across every pose of the batch instead of
// being evicted once per pose. The receptor side runs each
// (atom, pose) query in two branch-free passes over the scorer's
// PackedNeighbors: gather the in-cutoff hits — heavy atoms only,
// position and table column packed in span order, whole cells dropped
// early by their prune spheres, no mispredicted branch on the ~75% of
// candidates beyond the cutoff — then evaluate the radial tables over
// the compact hit list, adding terms in exactly the sequential order.
//
// Safe for concurrent use: the scorer is read-only here, all mutable
// state lives in the caller-owned batch and out.
//
//unit:out=kcal/mol
//exact:bit-identical to per-pose Score
func (s *Scorer) ScoreBatch(b *dock.Batch, out []float64) {
	n := b.Len()
	if n == 0 {
		return
	}
	out = out[:n]
	xs, ys, zs := b.SoA()
	stride := b.Stride()
	inter := b.Scratch(n)
	hits := b.Hits(len(s.packed.Atoms()))
	const cut2 = cutoff * cutoff

	for i := 0; i < stride; i++ {
		if s.ligIsH[i] {
			continue
		}
		row := s.interNodes[i]
		for p := 0; p < n; p++ {
			a := p*stride + i
			m := s.packed.Gather(chem.V(xs[a], ys[a], zs[a]), cut2, hits)
			acc := inter[p]
			for k := 0; k < m; k++ {
				h := &hits[k]
				va := row[h.Cls]
				x := tables.Coord2(h.R2)
				ix := int(x)
				if ix >= tables.NNodes-1 {
					acc += va[tables.NNodes-1]
					continue
				}
				v := va[ix]
				acc += v + (x-float64(ix))*(va[ix+1]-v)
			}
			inter[p] = acc
		}
	}

	// Intramolecular terms: pair-major, poses inner, accumulated into
	// out in table order (identical per-pose addition sequence).
	for p := range out {
		out[p] = 0
	}
	for _, pr := range s.intraTbl {
		i, j := int(pr.i), int(pr.j)
		va := pr.nodes
		for p := 0; p < n; p++ {
			base := p * stride
			pi := chem.V(xs[base+i], ys[base+i], zs[base+i])
			pj := chem.V(xs[base+j], ys[base+j], zs[base+j])
			if r2 := pi.Dist2(pj); r2 <= cut2 {
				x := tables.Coord2(r2)
				ix := int(x)
				if ix >= tables.NNodes-1 {
					out[p] += va[tables.NNodes-1]
					continue
				}
				v := va[ix]
				out[p] += v + (x-float64(ix))*(va[ix+1]-v)
			}
		}
	}

	for p := 0; p < n; p++ {
		out[p] = inter[p]/s.rotFactor + intraWeight*(out[p]-s.intraRef)
	}
}
