package dock

import "repro/internal/chem"

// Workspace is the per-worker scratch state of a conformational
// search: one reusable coordinate buffer plus a small free-list of
// scratch poses with ligand-sized torsion storage. Every candidate
// evaluation — materialize coordinates, score, keep or discard —
// runs with zero heap allocations once the workspace is warm, which
// is what lets the search pools of the Vina and AD4 engines spin
// thousands of evaluations per chain without pressuring the GC.
//
// A Workspace is NOT safe for concurrent use; each search worker owns
// its own. The coordinate slice returned by Coords aliases the
// workspace buffer and is overwritten by the next Coords call.
type Workspace struct {
	lig    *Ligand
	coords []chem.Vec3
	free   []*Pose
}

// NewWorkspace builds a workspace sized for the ligand's atom and
// torsion counts.
func NewWorkspace(lig *Ligand) *Workspace {
	return &Workspace{
		lig:    lig,
		coords: make([]chem.Vec3, 0, lig.Mol.NumAtoms()),
		free:   make([]*Pose, 0, 8),
	}
}

// Ligand returns the conformational model the workspace serves.
func (w *Workspace) Ligand() *Ligand { return w.lig }

// Coords materializes the pose into the workspace buffer and returns
// it. The slice is reused: it is only valid until the next Coords
// call on this workspace.
func (w *Workspace) Coords(p Pose) []chem.Vec3 {
	w.coords = w.lig.CoordsInto(p, w.coords)
	return w.coords
}

// Get hands out a scratch pose with ligand-sized torsion capacity,
// recycled through Put. Steady-state Get/Put cycles allocate nothing.
func (w *Workspace) Get() *Pose {
	if n := len(w.free); n > 0 {
		p := w.free[n-1]
		w.free = w.free[:n-1]
		return p
	}
	return &Pose{Torsions: make([]float64, 0, w.lig.NumTorsions())}
}

// Put returns a scratch pose to the free list.
func (w *Workspace) Put(p *Pose) { w.free = append(w.free, p) }
