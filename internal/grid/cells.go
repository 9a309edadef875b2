package grid

import (
	"math"

	"repro/internal/chem"
)

// cellList bins receptor atoms into cubic cells of edge = cutoff so a
// neighbourhood query only visits the 27 surrounding cells. This keeps
// map generation O(points × local atoms) instead of O(points × atoms).
// Atom indices are stored in a flat CSR layout (one []int32 plus
// per-cell offsets) so a query walks contiguous memory instead of
// chasing per-bucket slice headers.
type cellList struct {
	cell     float64
	min, max chem.Vec3 // atom bounding box, for the cutoff-expanded guard
	dims     [3]int
	start    []int32 // CSR offsets, len = #cells + 1
	idx      []int32 // atom indices grouped by cell
	atoms    []chem.Vec3
}

//unit:cutoff=Å
func buildCellList(m *chem.Molecule, cutoff float64) *cellList {
	pts := m.Positions()
	min, max := chem.BoundingBox(pts)
	cl := &cellList{cell: cutoff, min: min, max: max, atoms: pts}
	span := max.Sub(min)
	cl.dims[0] = int(span.X/cutoff) + 1
	cl.dims[1] = int(span.Y/cutoff) + 1
	cl.dims[2] = int(span.Z/cutoff) + 1
	ncells := cl.dims[0] * cl.dims[1] * cl.dims[2]
	cl.start = make([]int32, ncells+1)
	for _, p := range pts {
		cl.start[cl.bucketIndex(p)+1]++
	}
	for c := 0; c < ncells; c++ {
		cl.start[c+1] += cl.start[c]
	}
	cl.idx = make([]int32, len(pts))
	cursor := make([]int32, ncells)
	copy(cursor, cl.start[:ncells])
	for i, p := range pts {
		b := cl.bucketIndex(p)
		cl.idx[cursor[b]] = int32(i)
		cursor[b]++
	}
	return cl
}

func (cl *cellList) coords(p chem.Vec3) (int, int, int) {
	cx := int(math.Floor((p.X - cl.min.X) / cl.cell))
	cy := int(math.Floor((p.Y - cl.min.Y) / cl.cell))
	cz := int(math.Floor((p.Z - cl.min.Z) / cl.cell))
	return cx, cy, cz
}

func (cl *cellList) bucketIndex(p chem.Vec3) int {
	cx, cy, cz := cl.coords(p)
	return cl.clampIndex(cx, cy, cz)
}

func (cl *cellList) clampIndex(cx, cy, cz int) int {
	if cx < 0 {
		cx = 0
	} else if cx >= cl.dims[0] {
		cx = cl.dims[0] - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= cl.dims[1] {
		cy = cl.dims[1] - 1
	}
	if cz < 0 {
		cz = 0
	} else if cz >= cl.dims[2] {
		cz = cl.dims[2] - 1
	}
	return (cz*cl.dims[1]+cy)*cl.dims[0] + cx
}

// spans writes the CSR [start, end) ranges of the (≤27) cells around p
// into out and returns how many are non-empty. The early-out is the
// cutoff-expanded atom bounding box: any point beyond it cannot have a
// neighbour within the cutoff (distance filtering happens in the
// caller). Callers iterate cl.idx[span[0]:span[1]] directly, keeping
// the per-atom hot loop free of function calls.
func (cl *cellList) spans(p chem.Vec3, out *[27][2]int32) int {
	if p.X < cl.min.X-cl.cell || p.X > cl.max.X+cl.cell ||
		p.Y < cl.min.Y-cl.cell || p.Y > cl.max.Y+cl.cell ||
		p.Z < cl.min.Z-cl.cell || p.Z > cl.max.Z+cl.cell {
		return 0
	}
	cx, cy, cz := cl.coords(p)
	n := 0
	for dz := -1; dz <= 1; dz++ {
		z := cz + dz
		if z < 0 || z >= cl.dims[2] {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= cl.dims[1] {
				continue
			}
			row := (z*cl.dims[1] + y) * cl.dims[0]
			for dx := -1; dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= cl.dims[0] {
					continue
				}
				b := row + x
				if s, e := cl.start[b], cl.start[b+1]; s < e {
					out[n] = [2]int32{s, e}
					n++
				}
			}
		}
	}
	return n
}

// forNeighbors invokes fn with the index of every atom in the 27 cells
// around p (the span-free convenience used by the reference path and
// tests).
func (cl *cellList) forNeighbors(p chem.Vec3, fn func(atom int)) {
	var spans [27][2]int32
	n := cl.spans(p, &spans)
	for s := 0; s < n; s++ {
		for _, ai := range cl.idx[spans[s][0]:spans[s][1]] {
			fn(int(ai))
		}
	}
}
