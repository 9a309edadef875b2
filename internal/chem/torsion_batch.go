package chem

import "fmt"

// Placement is the chem-level view of a docking pose: the rigid-body
// transform plus one angle per rotatable bond. It exists so the batched
// kinematics kernel can live next to the torsion tree without importing
// the dock package; dock.Batch stages appended poses as Placements and
// materializes them lane-wise in one ApplyTorsionsBatch call.
type Placement struct {
	Orientation Quat
	Translation Vec3
	Angles      []float64 // radians, one per rotatable bond
}

// KinScratch is the reusable per-owner scratch of ApplyTorsionsBatch:
// the flattened torsion replay schedule (each torsion's effect-set
// pre-filtered of its axis atom, concatenated in tree order) and the
// base conformation staged as SoA component lanes so a pose
// initializes with three memmoves instead of a per-atom scatter.
// Preparing it is O(atoms + moved) once per (tree, base) pair; warm
// calls allocate nothing.
//
// A KinScratch is single-owner scratch, like dock.Workspace.
type KinScratch struct {
	tree    *TorsionTree
	basePtr *Vec3 // identity of the base conformation the lanes mirror
	// Replay schedule: torsion k rotates lane indices
	// moved[moff[k]:moff[k+1]] about its axis frame. Built once per
	// tree, replayed across every pose of every batch.
	moved []int32
	moff  []int32
	// Base conformation as component lanes.
	bx, by, bz []float64
	ready      bool
}

func (ks *KinScratch) prepare(t *TorsionTree, base []Vec3) {
	var bp *Vec3
	if len(base) > 0 {
		bp = &base[0]
	}
	if ks.ready && ks.tree == t && ks.basePtr == bp && len(ks.bx) == len(base) {
		return
	}
	ks.tree = t
	ks.basePtr = bp
	ks.moved = ks.moved[:0]
	if cap(ks.moff) < len(t.Torsions)+1 {
		ks.moff = make([]int32, 0, len(t.Torsions)+1)
	}
	ks.moff = ks.moff[:0]
	ks.moff = append(ks.moff, 0)
	for _, tor := range t.Torsions {
		for _, idx := range tor.Moved {
			if idx == tor.Axis2 {
				continue // axis atom does not move
			}
			ks.moved = append(ks.moved, int32(idx))
		}
		ks.moff = append(ks.moff, int32(len(ks.moved)))
	}
	ks.bx = append(ks.bx[:0], make([]float64, len(base))...)
	ks.by = append(ks.by[:0], make([]float64, len(base))...)
	ks.bz = append(ks.bz[:0], make([]float64, len(base))...)
	for i, v := range base {
		ks.bx[i], ks.by[i], ks.bz[i] = v.X, v.Y, v.Z
	}
	ks.ready = true
}

// ApplyTorsionsBatch materializes a batch of poses straight into SoA
// component lanes: for each pose it applies the torsion rotations to
// the base conformation, re-centres, and applies the rigid-body
// transform, storing atom i of pose p at xs[p*len(base)+i] (ys, zs
// alike). The floating-point operation sequence per pose replicates
// dock.Ligand.CoordsInto exactly — same torsion skip rule, same
// rotation op order, same sequential centroid — so the lane values are
// bit-identical (0-ULP) to the per-pose AoS path.
//
// Compared to staging each pose through an AoS buffer and copying, the
// batch kernel works in the output lanes directly: each pose starts as
// three memmoves of the base lanes, then the flattened torsion
// schedule is replayed torsion-outer/pose-inner — the per-torsion
// index list and axis frame load once and stream across the whole
// batch instead of being re-walked per pose — and the re-centre +
// rotate + translate pass runs in-lane.
//
// Each lane must have length len(poses)*len(base). len(base) must
// match the conformation the tree was built for, and the base contents
// must not change between calls that reuse the same scratch (the
// mobile-only reset assumes the immobile entries it cached stay
// valid); dock ligands' base conformations are immutable, so this
// holds by construction there.
//
//exact:bit-identical to the per-pose CoordsInto path
func (t *TorsionTree) ApplyTorsionsBatch(ks *KinScratch, base []Vec3, poses []Placement, xs, ys, zs []float64) {
	stride := len(base)
	if want := len(poses) * stride; len(xs) != want || len(ys) != want || len(zs) != want {
		panic(fmt.Sprintf("chem: ApplyTorsionsBatch lanes %d/%d/%d for %d poses of %d atoms",
			len(xs), len(ys), len(zs), len(poses), stride))
	}
	if len(t.Torsions) == 0 {
		// CoordsInto skips the re-centre when the ligand is rigid:
		// the transform applies to the base conformation directly.
		for p := range poses {
			pl := &poses[p]
			if len(pl.Angles) != 0 {
				panic(fmt.Sprintf("chem: %d torsion angles for %d torsions", len(pl.Angles), len(t.Torsions)))
			}
			q := pl.Orientation.Normalize()
			tr := pl.Translation
			at := p * stride
			for i, v := range base {
				w := q.Rotate(v).Add(tr)
				xs[at+i], ys[at+i], zs[at+i] = w.X, w.Y, w.Z
			}
		}
		return
	}
	ks.prepare(t, base)
	n := len(poses)
	for p := range poses {
		if len(poses[p].Angles) != len(t.Torsions) {
			panic(fmt.Sprintf("chem: %d torsion angles for %d torsions", len(poses[p].Angles), len(t.Torsions)))
		}
	}
	// Stage 1: every pose's lanes start as the base conformation —
	// three memmoves per pose, no per-atom scatter.
	for p := 0; p < n; p++ {
		at := p * stride
		copy(xs[at:at+stride], ks.bx)
		copy(ys[at:at+stride], ks.by)
		copy(zs[at:at+stride], ks.bz)
	}
	// Stage 2: replay the torsion schedule torsion-outer/pose-inner.
	// Poses are mutually independent, and within one pose the torsions
	// still apply in ascending tree order, so the per-pose sequence of
	// floating-point operations — axis frame load, AxisAngleQuat, the
	// rotate-about-b expression — is exactly the per-pose path's, and
	// the lane values stay bit-identical to it. The loop inversion is
	// pure scheduling: the torsion's index list stays L1-hot across the
	// batch instead of the whole schedule cycling through per pose.
	for k := range t.Torsions {
		tor := &t.Torsions[k]
		a1, a2 := tor.Axis1, tor.Axis2
		mlist := ks.moved[ks.moff[k]:ks.moff[k+1]]
		for p := 0; p < n; p++ {
			ang := poses[p].Angles[k]
			if ang == 0 {
				continue
			}
			at := p * stride
			a := V(xs[at+a1], ys[at+a1], zs[at+a1])
			b := V(xs[at+a2], ys[at+a2], zs[at+a2])
			q := AxisAngleQuat(b.Sub(a), ang)
			for _, idx := range mlist {
				j := at + int(idx)
				w := q.Rotate(V(xs[j], ys[j], zs[j]).Sub(b)).Add(b)
				xs[j], ys[j], zs[j] = w.X, w.Y, w.Z
			}
		}
	}
	// Stage 3: per pose, sequential centroid (replicating
	// chem.Centroid's op order) then the rigid-body transform in-lane.
	for p := range poses {
		pl := &poses[p]
		at := p * stride
		var c Vec3
		for i := 0; i < stride; i++ {
			c = c.Add(V(xs[at+i], ys[at+i], zs[at+i]))
		}
		c = c.Scale(1 / float64(stride))
		q := pl.Orientation.Normalize()
		tr := pl.Translation
		for i := 0; i < stride; i++ {
			j := at + i
			w := q.Rotate(V(xs[j], ys[j], zs[j]).Sub(c)).Add(tr)
			xs[j], ys[j], zs[j] = w.X, w.Y, w.Z
		}
	}
}
