package ad4

import (
	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
)

// ScoreBatch scores every pose of the batch, writing the free energy
// of slot p into out[p]. Results are bit-identical to calling Score on
// each pose's coordinates: per pose every term is accumulated in
// exactly the sequential order — atoms ascending with the vdW,
// electrostatic and desolvation reads in that order, intramolecular
// pairs in table order, then inter + weightIntra·intra + torsTerm —
// so the float64 rounding sequence is unchanged and only the loop
// nest is inverted.
//
// The speed comes from locality: the outer loop walks ligand atoms,
// so one atom's resolved map lattices (the per-call map-key hash of
// the scalar path is precomputed away in NewScorer) and the grid
// region under the batch's poses stay hot across the whole batch,
// and the pre-scaled charge weights replace the per-term multiply
// chain. The intramolecular loop is pair-major for the same reason:
// one pair's radial-table segment serves every pose.
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

	for i := 0; i < stride; i++ {
		s.Maps.InterAccum(s.affFld[i], xs[i:], ys[i:], zs[i:], stride,
			weightVdw, s.wq[i], s.wdq[i], inter)
	}

	// Intramolecular terms: pair-major, poses inner, accumulated into
	// out in table order with the r ≥ 0.5 Å clamp applied in r² space
	// exactly as the scalar path does.
	for p := range out {
		out[p] = 0
	}
	const cut2 = intraCutoff * intraCutoff
	for _, pr := range s.intraTbl {
		i, j := int(pr.i), int(pr.j)
		va := pr.nodes
		qq := pr.qq
		for p := 0; p < n; p++ {
			base := p * stride
			pi := chem.V(xs[base+i], ys[base+i], zs[base+i])
			pj := chem.V(xs[base+j], ys[base+j], zs[base+j])
			r2 := pi.Dist2(pj)
			if r2 > cut2 {
				continue
			}
			if r2 < tables.RMin2 {
				r2 = tables.RMin2
			}
			x := tables.Coord2(r2)
			ix := int(x)
			tv := va[tables.NNodes-1]
			if ix < tables.NNodes-1 {
				v := va[ix]
				tv = v + (x-float64(ix))*(va[ix+1]-v)
			}
			out[p] += tv + qq/r2
		}
	}

	for p := 0; p < n; p++ {
		out[p] = inter[p] + weightIntra*out[p] + s.torsTerm
	}
}
