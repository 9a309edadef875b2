package chem

import (
	"math"
	"math/rand"
	"testing"
)

// chainLike builds a heavy-atom chain with nAtoms carbons and a
// two-carbon branch, giving several genuinely rotatable bonds and a
// non-trivial rigid-unit structure.
func chainLike(nAtoms int) *Molecule {
	m := &Molecule{Name: "CHAIN"}
	for i := 0; i < nAtoms; i++ {
		// Zig-zag so axes are not collinear.
		m.Atoms = append(m.Atoms, Atom{Element: Carbon,
			Pos: V(1.5*float64(i), 0.4*float64(i%2), 0.1*float64(i%3))})
		if i > 0 {
			m.Bonds = append(m.Bonds, Bond{A: i - 1, B: i, Order: Single})
		}
	}
	// Branch off the middle atom.
	mid := nAtoms / 2
	b0 := len(m.Atoms)
	m.Atoms = append(m.Atoms,
		Atom{Element: Carbon, Pos: V(1.5*float64(mid), 1.8, 0.7)},
		Atom{Element: Carbon, Pos: V(1.5*float64(mid)+0.8, 3.0, 0.9)})
	m.Bonds = append(m.Bonds,
		Bond{A: mid, B: b0, Order: Single},
		Bond{A: b0, B: b0 + 1, Order: Single})
	return m
}

func randomPlacement(r *rand.Rand, nTors int) Placement {
	pl := Placement{
		Translation: V(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5),
		Orientation: RandomQuat(r.Float64(), r.Float64(), r.Float64()),
	}
	for i := 0; i < nTors; i++ {
		a := (r.Float64()*2 - 1) * math.Pi
		if r.Intn(5) == 0 {
			a = 0 // exercise the zero-angle skip
		}
		pl.Angles = append(pl.Angles, a)
	}
	return pl
}

// coordsReference replicates dock.Ligand.CoordsInto's exact operation
// sequence on a Placement: the AoS path the batched kernel must match
// to 0 ULP.
func coordsReference(tree *TorsionTree, base []Vec3, pl Placement) []Vec3 {
	var coords []Vec3
	if tree.NumTorsions() == 0 {
		coords = append(coords, base...)
	} else {
		coords = tree.ApplyTorsionsInto(nil, base, pl.Angles)
		c := Centroid(coords)
		for i := range coords {
			coords[i] = coords[i].Sub(c)
		}
	}
	q := pl.Orientation.Normalize()
	for i := range coords {
		coords[i] = q.Rotate(coords[i]).Add(pl.Translation)
	}
	return coords
}

// TestApplyTorsionsBatchMatchesAoS pins the 0-ULP contract of the
// batched kinematics kernel against the per-pose AoS sequence, across
// the batch sizes the engines use, with torsioned and rigid trees.
func TestApplyTorsionsBatchMatchesAoS(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	mols := []*Molecule{chainLike(9), chainLike(14), butaneLike()}
	trees := make([]*TorsionTree, 0, len(mols)+1)
	bases := make([][]Vec3, 0, len(mols)+1)
	for _, m := range mols {
		tree, err := BuildTorsionTree(m)
		if err != nil {
			t.Fatal(err)
		}
		if tree.NumTorsions() == 0 {
			t.Fatalf("molecule %s has no torsions; fixture too weak", m.Name)
		}
		trees = append(trees, tree)
		bases = append(bases, m.Positions())
	}
	// Rigid tree: the centroid re-centre is skipped in the reference.
	trees = append(trees, &TorsionTree{Root: 0})
	bases = append(bases, mols[0].Positions())

	for ti, tree := range trees {
		base := bases[ti]
		stride := len(base)
		var ks KinScratch
		for _, n := range []int{0, 1, 7, 64} {
			poses := make([]Placement, n)
			for i := range poses {
				poses[i] = randomPlacement(r, tree.NumTorsions())
			}
			xs := make([]float64, n*stride)
			ys := make([]float64, n*stride)
			zs := make([]float64, n*stride)
			tree.ApplyTorsionsBatch(&ks, base, poses, xs, ys, zs)
			for p, pl := range poses {
				want := coordsReference(tree, base, pl)
				for i, w := range want {
					at := p*stride + i
					if xs[at] != w.X || ys[at] != w.Y || zs[at] != w.Z {
						t.Fatalf("tree %d batch %d pose %d atom %d: (%v,%v,%v) != %v",
							ti, n, p, i, xs[at], ys[at], zs[at], w)
					}
				}
			}
		}
	}
}

// TestApplyTorsionsBatchScratchReuse pins that one KinScratch serves
// interleaved (tree, base) owners: prepare re-runs when the tree or
// conformation size changes and the results stay exact.
func TestApplyTorsionsBatchScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mA := chainLike(9)
	mB := chainLike(13)
	treeA, _ := BuildTorsionTree(mA)
	treeB, _ := BuildTorsionTree(mB)
	baseA, baseB := mA.Positions(), mB.Positions()
	var ks KinScratch
	for round := 0; round < 4; round++ {
		tree, base := treeA, baseA
		if round%2 == 1 {
			tree, base = treeB, baseB
		}
		poses := []Placement{randomPlacement(r, tree.NumTorsions())}
		xs := make([]float64, len(base))
		ys := make([]float64, len(base))
		zs := make([]float64, len(base))
		tree.ApplyTorsionsBatch(&ks, base, poses, xs, ys, zs)
		want := coordsReference(tree, base, poses[0])
		for i, w := range want {
			if xs[i] != w.X || ys[i] != w.Y || zs[i] != w.Z {
				t.Fatalf("round %d atom %d mismatch after scratch switch", round, i)
			}
		}
	}
}

// TestApplyTorsionsBatchWarmAllocs pins the zero-alloc contract of the
// warm kernel.
func TestApplyTorsionsBatchWarmAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := chainLike(12)
	tree, _ := BuildTorsionTree(m)
	base := m.Positions()
	const n = 16
	poses := make([]Placement, n)
	for i := range poses {
		poses[i] = randomPlacement(r, tree.NumTorsions())
	}
	xs := make([]float64, n*len(base))
	ys := make([]float64, n*len(base))
	zs := make([]float64, n*len(base))
	var ks KinScratch
	tree.ApplyTorsionsBatch(&ks, base, poses, xs, ys, zs) // warm
	allocs := testing.AllocsPerRun(50, func() {
		tree.ApplyTorsionsBatch(&ks, base, poses, xs, ys, zs)
	})
	if allocs != 0 {
		t.Fatalf("warm ApplyTorsionsBatch allocates %.1f/op, want 0", allocs)
	}
}

func TestApplyTorsionsBatchPanics(t *testing.T) {
	m := chainLike(9)
	tree, _ := BuildTorsionTree(m)
	base := m.Positions()
	var ks KinScratch
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	lane := make([]float64, len(base))
	mustPanic("angle count", func() {
		tree.ApplyTorsionsBatch(&ks, base, []Placement{{Orientation: QuatIdentity}}, lane, lane, lane)
	})
	good := Placement{Orientation: QuatIdentity, Angles: make([]float64, tree.NumTorsions())}
	mustPanic("lane length", func() {
		tree.ApplyTorsionsBatch(&ks, base, []Placement{good, good}, lane, lane, lane)
	})
}

func BenchmarkApplyTorsionsBatch16(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	m := chainLike(24)
	tree, _ := BuildTorsionTree(m)
	base := m.Positions()
	const n = 16
	poses := make([]Placement, n)
	for i := range poses {
		poses[i] = randomPlacement(r, tree.NumTorsions())
	}
	xs := make([]float64, n*len(base))
	ys := make([]float64, n*len(base))
	zs := make([]float64, n*len(base))
	var ks KinScratch
	tree.ApplyTorsionsBatch(&ks, base, poses, xs, ys, zs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ApplyTorsionsBatch(&ks, base, poses, xs, ys, zs)
	}
}
