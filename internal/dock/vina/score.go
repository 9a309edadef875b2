// Package vina reproduces AutoDock Vina 1.1.2: the empirical scoring
// function of Trott & Olson (2010) and the iterated-local-search
// Monte Carlo optimizer, SciDock's activity 8b.
package vina

import (
	"fmt"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
)

// Vina scoring-function weights (Trott & Olson 2010, Table 1). The
// pairwise term weights live in internal/dock/tables (shared with the
// radial table builder); here are only the ones the scorer applies
// outside the pair function.
const (
	wRot        = +0.05846      // conformational entropy denominator weight
	cutoff      = tables.Cutoff // Å
	intraWeight = 0.3           // internal contribution to the reported affinity
)

// Scorer evaluates the Vina affinity of a ligand conformation against
// receptor atoms (Vina computes its own internal grids; scoring
// directly over a neighbour list is numerically equivalent at these
// scales).
//
// The production scoring path reads every pair interaction from the
// r²-indexed radial tables of internal/dock/tables — the neighbour
// list hands out squared distances and no sqrt or exp is taken per
// pair. ScoreAnalytic keeps the closed-form path as the golden
// reference for equivalence tests and benchmarks.
type Scorer struct {
	Receptor *chem.Molecule
	Lig      *dock.Ligand

	nl         *dock.NeighborList
	packed     *dock.PackedNeighbors // heavy receptor atoms in span order, for ScoreBatch
	recTypes   []chem.TypeParams
	ligTypes   []chem.TypeParams
	ligIsH     []bool
	recTblIdx  []int32                     // per receptor atom: column into interTbl rows, -1 for hydrogens
	interTbl   [][]*tables.Radial          // [ligand atom][receptor type index]; nil rows for ligand hydrogens
	interNodes [][]*[tables.NNodes]float64 // interTbl rows as node arrays, for ScoreBatch
	intraTbl   []intraPair                 // heavy-atom 1-4+ pairs with their tables
	rotFactor  float64
	intraRef   float64 // internal energy of the input conformation
}

// intraPair is one precomputed intramolecular interaction: the atom
// index pair, the radial table of its type pair, and the table's node
// array for the batched path.
type intraPair struct {
	i, j  int32
	tbl   *tables.Radial
	nodes *[tables.NNodes]float64
}

// NewScorer indexes the receptor and precomputes per-atom parameters
// and the radial tables for every (ligand type, receptor type) pair in
// play.
func NewScorer(receptor *chem.Molecule, lig *dock.Ligand) (*Scorer, error) {
	if receptor.NumAtoms() == 0 {
		return nil, fmt.Errorf("vina: receptor %q has no atoms", receptor.Name)
	}
	s := &Scorer{
		Receptor:  receptor,
		Lig:       lig,
		nl:        dock.NewNeighborList(receptor, cutoff),
		rotFactor: 1 + wRot*float64(lig.NumTorsions()),
	}
	// Dense index of receptor atom types so the inner loop can pick a
	// table with one slice lookup. Hydrogens are invisible to the Vina
	// function, so they get index -1 and no tables.
	var recTypeList []chem.AtomType
	recTypeIdx := make(map[chem.AtomType]int32)
	for i, a := range receptor.Atoms {
		t := a.Type
		if t == "" {
			t = chem.TypeForElement(a.Element)
		}
		if !t.Params().Supported {
			return nil, fmt.Errorf("vina: receptor %q atom %d type %s unsupported", receptor.Name, i, t)
		}
		s.recTypes = append(s.recTypes, t.Params())
		if t == chem.TypeH || t == chem.TypeHD {
			s.recTblIdx = append(s.recTblIdx, -1)
			continue
		}
		ti, ok := recTypeIdx[t]
		if !ok {
			ti = int32(len(recTypeList))
			recTypeIdx[t] = ti
			recTypeList = append(recTypeList, t)
		}
		s.recTblIdx = append(s.recTblIdx, ti)
	}
	// Pack the heavy receptor atoms (the only ones that ever score) in
	// span order for the batched path: position plus table column per
	// 32-byte slot, walked with streaming loads instead of the
	// index-CSR gather.
	s.packed = dock.NewPackedNeighbors(s.nl, func(aj int32) int32 { return s.recTblIdx[aj] })
	for i, a := range lig.Mol.Atoms {
		t := a.Type
		if t == "" {
			return nil, fmt.Errorf("vina: ligand %q atom %d untyped", lig.Mol.Name, i)
		}
		s.ligTypes = append(s.ligTypes, t.Params())
		s.ligIsH = append(s.ligIsH, !a.Element.IsHeavy())
		var row []*tables.Radial
		var nodes []*[tables.NNodes]float64
		if a.Element.IsHeavy() {
			row = make([]*tables.Radial, len(recTypeList))
			nodes = make([]*[tables.NNodes]float64, len(recTypeList))
			for ti, rt := range recTypeList {
				row[ti] = tables.Vina(t, rt)
				nodes[ti] = row[ti].Nodes()
			}
		}
		s.interTbl = append(s.interTbl, row)
		s.interNodes = append(s.interNodes, nodes)
	}
	for _, pr := range intraPairs14(lig.Mol) {
		i, j := pr[0], pr[1]
		if s.ligIsH[i] || s.ligIsH[j] {
			continue
		}
		tbl := tables.Vina(lig.Mol.Atoms[i].Type, lig.Mol.Atoms[j].Type)
		s.intraTbl = append(s.intraTbl, intraPair{
			i: int32(i), j: int32(j),
			tbl: tbl, nodes: tbl.Nodes(),
		})
	}
	// Vina reports affinities relative to the internal energy of the
	// unbound conformation, so a ligand floating free scores ~0.
	s.intraRef = s.intraEnergy(lig.Reference())
	return s, nil
}

// intraPairs14 lists ligand atom pairs four or more bonds apart
// (Vina's internal interaction set).
func intraPairs14(m *chem.Molecule) [][2]int {
	n := m.NumAtoms()
	adj := m.Adjacency()
	var pairs [][2]int
	dist := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] >= 4 {
				continue
			}
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for j := src + 1; j < n; j++ {
			if dist[j] < 0 || dist[j] >= 4 {
				pairs = append(pairs, [2]int{src, j})
			}
		}
	}
	return pairs
}

// Score implements dock.Scorer: the Vina affinity in kcal/mol,
// inter-molecular terms divided by the rotatable-bond factor plus a
// damped internal term. Hydrogens are invisible to the Vina function.
func (s *Scorer) Score(coords []chem.Vec3) float64 {
	return s.interEnergy(coords)/s.rotFactor + intraWeight*(s.intraEnergy(coords)-s.intraRef)
}

// ReportedFEB is the affinity Vina prints for a pose: the
// inter-molecular energy under the rotatable-bond compression, without
// the internal-energy delta used only to steer the optimizer.
func (s *Scorer) ReportedFEB(coords []chem.Vec3) float64 {
	return s.interEnergy(coords) / s.rotFactor
}

// interEnergy sums the pairwise ligand–receptor terms over the
// neighbour list, shared by Score and ReportedFEB. It iterates the
// CSR spans directly so the per-receptor-atom loop body is call-free:
// one squared distance, one table-index check, one interpolated read.
func (s *Scorer) interEnergy(coords []chem.Vec3) float64 {
	const cut2 = cutoff * cutoff
	idx := s.nl.Indices()
	pos := s.nl.Positions()
	var spans [27][2]int32
	var inter float64
	for i, p := range coords {
		if s.ligIsH[i] {
			continue
		}
		row := s.interTbl[i]
		ns := s.nl.Spans(p, &spans)
		for k := 0; k < ns; k++ {
			for _, aj := range idx[spans[k][0]:spans[k][1]] {
				r2 := pos[aj].Dist2(p)
				if r2 > cut2 {
					continue
				}
				if t := s.recTblIdx[aj]; t >= 0 {
					inter += row[t].At2(r2)
				}
			}
		}
	}
	return inter
}

func (s *Scorer) intraEnergy(coords []chem.Vec3) float64 {
	const cut2 = cutoff * cutoff
	var intra float64
	for _, pr := range s.intraTbl {
		if r2 := coords[pr.i].Dist2(coords[pr.j]); r2 <= cut2 {
			intra += pr.tbl.At2(r2)
		}
	}
	return intra
}

// ScoreAnalytic is Score evaluated from the closed-form pair potential
// (sqrt + exp per pair) instead of the radial tables: the golden
// reference for the table equivalence tests and the baseline the
// kernel benchmarks report speedups over. It shares intraRef with the
// table path — the reference offset cancels in the internal-energy
// delta, so any table-vs-analytic difference comes from the pair sums
// alone.
func (s *Scorer) ScoreAnalytic(coords []chem.Vec3) float64 {
	return s.interEnergyAnalytic(coords)/s.rotFactor +
		intraWeight*(s.intraEnergyAnalytic(coords)-s.intraRef)
}

func (s *Scorer) interEnergyAnalytic(coords []chem.Vec3) float64 {
	var inter float64
	for i, p := range coords {
		if s.ligIsH[i] {
			continue
		}
		lt := s.ligTypes[i]
		s.nl.ForNeighbors(p, func(j int, r float64) {
			rt := s.recTypes[j]
			if rt.Type == chem.TypeH || rt.Type == chem.TypeHD {
				return
			}
			inter += pairTerm(lt, rt, r)
		})
	}
	return inter
}

func (s *Scorer) intraEnergyAnalytic(coords []chem.Vec3) float64 {
	var intra float64
	for _, pr := range s.intraTbl {
		r := coords[pr.i].Dist(coords[pr.j])
		if r <= cutoff {
			intra += pairTerm(s.ligTypes[pr.i], s.ligTypes[pr.j], r)
		}
	}
	return intra
}

// pairTerm is the Vina pairwise function on the surface distance
// d = r − R_i − R_j; the analytic form lives in internal/dock/tables
// (the single source both this package and the table builder share).
//
//unit:r=Å result=kcal/mol
func pairTerm(a, b chem.TypeParams, r float64) float64 {
	return tables.VinaPair(a, b, r)
}

// ExactWorkingSetBytes returns the memory footprint of the distinct
// exact radial tables this scorer's hot loops walk — the
// intermolecular (ligand type × receptor type) tables plus the
// intramolecular pair tables, deduplicated exactly as the global table
// cache shares them. This is the number behind the L2-overflow
// workload axis in BENCH_kernels.json: on the reference pair it sits
// comfortably inside L2, on the large many-type pair it overflows it.
func (s *Scorer) ExactWorkingSetBytes() int {
	seen := make(map[*tables.Radial]bool)
	for _, row := range s.interTbl {
		for _, t := range row {
			seen[t] = true
		}
	}
	for _, pr := range s.intraTbl {
		seen[pr.tbl] = true
	}
	return len(seen) * tables.NNodes * 8
}
