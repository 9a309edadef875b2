package dock

import (
	"math"

	"repro/internal/chem"
)

// Incumbent-anchored window screening (DESIGN.md "Incumbent-anchored
// gather and window screening").
//
// A search window is a set of small perturbations of one incumbent
// pose. Instead of running the neighbor gather once per (atom, pose),
// the engines gather ONCE per atom at the window's anchor with the
// cutoff inflated by a displacement bound D, then rescore every pose of
// the window against that shared candidate set. Correctness never
// depends on how D was estimated: a pose participates in the shared
// path only if WindowValid confirms — on its actual materialized
// coordinates — that every atom sits within D of its anchor position;
// by the triangle inequality the inflated set is then a superset of the
// pose's true in-cutoff neighbor set, and filtering it with the exact
// r² ≤ cutoff² test reproduces the per-pose gather hit sequence bit for
// bit. Poses that escape the bound fall back to the exact per-pose
// gather, so a loose or even wrong D only costs speed, never accuracy.

// SetWindow starts a window anchored at the given pose: the anchor
// coordinates are materialized and cached, and the per-pose validity
// and engine gather caches are invalidated. Returns the anchor's atom
// radius — the largest distance of any atom from the anchor centroid
// (its Translation) — which is the rotation lever arm of
// chem.DisplacementBound.
//
// The window survives Reset/Append refills (searches stream one window
// through the batch in chunks); call ClearWindow to end it.
func (b *Batch) SetWindow(anchor Pose) float64 {
	b.win.pose.Set(anchor)
	b.win.anchor = b.lig.CoordsInto(b.win.pose, b.win.anchor)
	b.win.set = true
	b.win.stamp++
	b.win.bound, b.win.bound2 = 0, 0
	b.win.validN = 0
	var max2 float64
	t := anchor.Translation
	for _, v := range b.win.anchor {
		d := v.Sub(t)
		if d2 := d.Norm2(); d2 > max2 {
			max2 = d2
		}
	}
	return math.Sqrt(max2)
}

// SetWindowBound sets the window's displacement bound D (Å): the
// engines gather at reach = cutoff + D and WindowValid admits a pose to
// the shared path only when every atom's actual displacement from the
// anchor is ≤ D. A non-positive bound deactivates the window path
// (Window reports ok=false) without discarding the anchor.
//
//unit: d=Å
func (b *Batch) SetWindowBound(d float64) {
	b.win.bound = d
	b.win.bound2 = d * d
	b.win.validN = 0
	b.win.stamp++
}

// ClearWindow ends the window; subsequent scoring runs the per-pose
// path.
func (b *Batch) ClearWindow() {
	b.win.set = false
	b.win.stamp++
}

// Window returns the materialized anchor coordinates and displacement
// bound of the active window, or ok=false when no window with a
// positive bound is set. The slice is owned by the batch and valid
// until the next SetWindow.
func (b *Batch) Window() (anchor []chem.Vec3, bound float64, ok bool) {
	if !b.win.set || b.win.bound <= 0 {
		return nil, 0, false
	}
	return b.win.anchor, b.win.bound, true
}

// WindowValid reports, per pose, whether every atom of the pose lies
// within the window bound of its anchor position — the admission test
// of the shared-gather path, computed on the ACTUAL materialized
// coordinates so the superset guarantee is unconditional. Entries are
// computed lazily as poses are appended and cached until Reset. The
// returned slice is owned by the batch, length Len().
func (b *Batch) WindowValid() []bool {
	b.materialize()
	n := b.n
	for len(b.win.valid) < n {
		b.win.valid = append(b.win.valid, false)
	}
	b.win.valid = b.win.valid[:n]
	stride := b.stride
	anchor := b.win.anchor
	bound2 := b.win.bound2
	for p := b.win.validN; p < n; p++ {
		at := p * stride
		ok := true
		for i := 0; i < stride; i++ {
			a := anchor[i]
			dx := b.xs[at+i] - a.X
			dy := b.ys[at+i] - a.Y
			dz := b.zs[at+i] - a.Z
			if dx*dx+dy*dy+dz*dz > bound2 {
				ok = false
				break
			}
		}
		b.win.valid[p] = ok
	}
	b.win.validN = n
	return b.win.valid
}

// WindowGather returns the shared candidate CSR an engine built for the
// current window — cands split per ligand atom by offs (len Stride()+1)
// — or ok=false when the cache belongs to another owner or an older
// window. Owner identity keeps two engines from silently consuming
// each other's candidate layout.
func (b *Batch) WindowGather(owner any) (cands []PackedAtom, offs []int32, ok bool) {
	if !b.win.set || b.win.gatherOwner != owner || b.win.gatherStamp != b.win.stamp {
		return nil, nil, false
	}
	return b.win.cands, b.win.offs, true
}

// WindowGatherScratch claims the shared-gather cache for owner and the
// current window, returning the candidate buffer (reset to length zero;
// append via PackedNeighbors.GatherShared) and the offset slice sized
// nOffs (contents unspecified). Storage is reused across windows, so a
// warm search allocates nothing here.
func (b *Batch) WindowGatherScratch(owner any, nOffs int) (cands *[]PackedAtom, offs []int32) {
	b.win.gatherOwner = owner
	b.win.gatherStamp = b.win.stamp
	b.win.cands = b.win.cands[:0]
	if cap(b.win.offs) < nOffs {
		b.win.offs = make([]int32, nOffs)
	}
	b.win.offs = b.win.offs[:nOffs]
	return &b.win.cands, b.win.offs
}

// WindowPairs returns the live intramolecular pair index list an engine
// classified for the current window, or ok=false when absent. Same
// ownership discipline as WindowGather; the indices point into the
// owner's own pair table.
func (b *Batch) WindowPairs(owner any) ([]int32, bool) {
	if !b.win.set || b.win.pairOwner != owner || b.win.pairStamp != b.win.stamp {
		return nil, false
	}
	return b.win.pairs, true
}

// WindowPairScratch claims the live-pair cache for owner and the
// current window, returning the index buffer reset to length zero.
func (b *Batch) WindowPairScratch(owner any) *[]int32 {
	b.win.pairOwner = owner
	b.win.pairStamp = b.win.stamp
	b.win.pairs = b.win.pairs[:0]
	return &b.win.pairs
}

// FilterSpan collects into hits every candidate of the shared-gather
// span within cut2 of the query point, preserving span order, and
// returns the count. It is the windowed counterpart of
// PackedNeighbors.Gather's candidate walk — the same squared-distance
// expression, the same exact r² ≤ cut² test, the same branch-free
// unconditional-store/conditional-advance idiom — so for a pose whose
// true neighbors are all present in the span (which WindowValid plus
// the inflated-reach gather guarantee), the emitted hit sequence is bit
// for bit the one Gather emits. hits follows the Batch.Hits contract
// (power-of-two length ≥ len(sp)).
//
//unit: cut2=Å2
func FilterSpan(sp []PackedAtom, px, py, pz, cut2 float64, hits []Hit) int {
	mask := len(hits) - 1
	m := 0
	j := 0
	for ; j+1 < len(sp); j += 2 {
		ra := &sp[j]
		rb := &sp[j+1]
		dx0 := ra.X - px
		dy0 := ra.Y - py
		dz0 := ra.Z - pz
		r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
		h := &hits[m&mask]
		h.R2 = r20
		h.Cls = ra.Cls
		hit := 0
		if r20 <= cut2 {
			hit = 1
		}
		m += hit
		dx1 := rb.X - px
		dy1 := rb.Y - py
		dz1 := rb.Z - pz
		r21 := dx1*dx1 + dy1*dy1 + dz1*dz1
		h = &hits[m&mask]
		h.R2 = r21
		h.Cls = rb.Cls
		hit = 0
		if r21 <= cut2 {
			hit = 1
		}
		m += hit
	}
	if j < len(sp) {
		ra := &sp[j]
		dx := ra.X - px
		dy := ra.Y - py
		dz := ra.Z - pz
		r2 := dx*dx + dy*dy + dz*dz
		h := &hits[m&mask]
		h.R2 = r2
		h.Cls = ra.Cls
		hit := 0
		if r2 <= cut2 {
			hit = 1
		}
		m += hit
	}
	return m
}
