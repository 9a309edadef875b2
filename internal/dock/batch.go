package dock

import (
	"fmt"

	"repro/internal/chem"
)

// Batch is a structure-of-arrays pose coordinate buffer: the
// materialized coordinates of up to capPoses candidate poses stored as
// three contiguous component slices (xs/ys/zs) with one ligand-sized
// stride per pose. Scoring a batch walks the receptor side of the loop
// nest once — each CSR neighbor span and each radial-table segment is
// loaded once per batch instead of once per pose — which is where
// batched scoring gets its cache locality (DESIGN.md §4 "Batched
// scoring and SoA layout").
//
// Append only stages the pose parameters; materialization into the
// component lanes is deferred to the first SoA/At call and runs as one
// chem.TorsionTree.ApplyTorsionsBatch kernel over the whole appended
// run of poses, so rigid fragments are reset once per pose instead of a
// per-pose AoS staging copy.
//
// A Batch is NOT safe for concurrent use; like Workspace, each caller
// owns its own. Appending beyond the high-water mark grows the
// storage; once warm, Reset/Append cycles allocate nothing.
type Batch struct {
	lig        *Ligand
	stride     int
	n          int              // poses appended
	mat        int              // poses materialized into the lanes
	poses      []chem.Placement // staged parameters, len == high-water mark
	kin        chem.KinScratch
	xs, ys, zs []float64
	acc        []float64 // scorer per-pose accumulator scratch
	hits       []Hit     // scorer hit gather scratch
}

// Hit is one in-cutoff candidate of a batched scoring query: its
// squared distance and its radial-table class, packed to 16 bytes so
// the gather loop's two stores land on one cache line slot and the
// evaluation loop's reload is a single indexed access.
type Hit struct {
	R2  float64
	Cls int32
	_   int32
}

// NewBatch builds a batch for the ligand with initial capacity for
// capPoses poses (it grows beyond that on demand).
func NewBatch(lig *Ligand, capPoses int) *Batch {
	if capPoses < 0 {
		capPoses = 0
	}
	stride := lig.Mol.NumAtoms()
	return &Batch{
		lig:    lig,
		stride: stride,
		poses:  make([]chem.Placement, 0, capPoses),
		xs:     make([]float64, 0, capPoses*stride),
		ys:     make([]float64, 0, capPoses*stride),
		zs:     make([]float64, 0, capPoses*stride),
	}
}

// Ligand returns the conformational model the batch serves.
func (b *Batch) Ligand() *Ligand { return b.lig }

// Len returns the number of poses currently in the batch.
func (b *Batch) Len() int { return b.n }

// Stride returns the per-pose atom stride: pose p's atom i lives at
// index p*Stride()+i of each component slice.
func (b *Batch) Stride() int { return b.stride }

// Reset empties the batch, keeping its storage.
func (b *Batch) Reset() { b.n, b.mat = 0, 0 }

// SoA returns the three component slices, each Len()*Stride() long,
// materializing any poses appended since the last call. They alias the
// batch storage and are overwritten by Reset/Append.
func (b *Batch) SoA() (xs, ys, zs []float64) {
	b.materialize()
	n := b.n * b.stride
	return b.xs[:n], b.ys[:n], b.zs[:n]
}

// At returns pose p's atom i coordinates (test and debugging helper;
// the scoring kernels read the component slices directly).
func (b *Batch) At(p, i int) chem.Vec3 {
	b.materialize()
	at := p*b.stride + i
	return chem.V(b.xs[at], b.ys[at], b.zs[at])
}

// Append stages the pose's parameters into the next batch slot and
// returns the slot index. Coordinates are materialized lazily, but the
// floating-point operation sequence of the batched kernel is exactly
// Ligand.CoordsInto's, so a batched score of slot p is bit-identical
// to scoring ws.Coords(pose) for the same pose. The pose is copied:
// later mutations of p or its torsion slice do not affect the slot.
func (b *Batch) Append(p Pose) int {
	if len(p.Torsions) != b.lig.NumTorsions() {
		panic(fmt.Sprintf("dock: pose has %d torsions, ligand %d", len(p.Torsions), b.lig.NumTorsions()))
	}
	slot := b.n
	if slot < len(b.poses) {
		pl := &b.poses[slot]
		pl.Orientation = p.Orientation
		pl.Translation = p.Translation
		pl.Angles = append(pl.Angles[:0], p.Torsions...)
	} else {
		b.poses = append(b.poses, chem.Placement{
			Orientation: p.Orientation,
			Translation: p.Translation,
			Angles:      append(make([]float64, 0, cap(p.Torsions)), p.Torsions...),
		})
	}
	b.n++
	return slot
}

// materialize runs the batched kinematics kernel over the poses staged
// since the last materialization, growing the component lanes as
// needed (already-materialized slots are preserved across growth).
func (b *Batch) materialize() {
	if b.mat == b.n {
		return
	}
	need := b.n * b.stride
	have := b.mat * b.stride
	if cap(b.xs) >= need {
		b.xs, b.ys, b.zs = b.xs[:need], b.ys[:need], b.zs[:need]
	} else {
		b.xs = append(b.xs[:have], make([]float64, need-have)...)
		b.ys = append(b.ys[:have], make([]float64, need-have)...)
		b.zs = append(b.zs[:have], make([]float64, need-have)...)
	}
	b.lig.Tree.ApplyTorsionsBatch(&b.kin, b.lig.base, b.poses[b.mat:b.n],
		b.xs[have:need:need], b.ys[have:need:need], b.zs[have:need:need])
	b.mat = b.n
}

// Scratch returns a zeroed float64 accumulator of length n, reused
// across calls. It is scorer scratch: ScoreBatch implementations use
// it for per-pose partial sums, so callers must not pass a slice that
// aliases it as the output buffer.
func (b *Batch) Scratch(n int) []float64 {
	if cap(b.acc) < n {
		b.acc = make([]float64, n)
	}
	b.acc = b.acc[:n]
	for i := range b.acc {
		b.acc[i] = 0
	}
	return b.acc
}

// Hits returns a gather buffer of power-of-two length ≥ n, reused
// across calls — scratch for scorers that collect the in-cutoff hits
// of one query with unconditional stores and a conditionally advanced
// cursor, then evaluate the radial tables over the compact hit list in
// order. The power-of-two length lets the store loop index with
// cursor&(len-1), which the compiler proves in-bounds, removing the
// bounds check from the hot store. Contents are not zeroed.
func (b *Batch) Hits(n int) []Hit {
	if cap(b.hits) < n {
		p2 := 1
		for p2 < n {
			p2 <<= 1
		}
		b.hits = make([]Hit, p2)
	}
	return b.hits[:cap(b.hits)]
}
