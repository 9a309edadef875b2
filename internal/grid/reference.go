package grid

import (
	"math"

	"repro/internal/chem"
)

// GenerateReference is the serial analytic AutoGrid path: identical
// semantics to Generate, but every pair interaction is evaluated from
// the closed-form potentials (sqrt, exp and all) instead of the radial
// tables. It is the golden reference the equivalence tests pin the
// tables against, and the baseline the kernel benchmarks report
// speedups over. Production code should call Generate.
func GenerateReference(receptor *chem.Molecule, spec Spec, types []chem.AtomType) (*Maps, error) {
	m, probeTypes, err := newMaps(receptor, spec, types)
	if err != nil {
		return nil, err
	}
	cells := buildCellList(receptor, interactionCutoff)
	probes := make([]chem.TypeParams, 0, len(probeTypes))
	probeSlices := make([][]float64, 0, len(probeTypes))
	for _, t := range probeTypes {
		probes = append(probes, t.Params())
		probeSlices = append(probeSlices, m.affinity[t])
	}

	origin := spec.Origin()
	idx := 0
	for k := 0; k < spec.NPts[2]; k++ {
		for j := 0; j < spec.NPts[1]; j++ {
			for i := 0; i < spec.NPts[0]; i++ {
				p := origin.Add(chem.V(
					float64(i)*spec.Spacing,
					float64(j)*spec.Spacing,
					float64(k)*spec.Spacing,
				))
				var elec, desolv float64
				affin := make([]float64, len(probes))
				cells.forNeighbors(p, func(ai int) {
					a := &receptor.Atoms[ai]
					r2 := a.Pos.Dist2(p)
					if r2 > interactionCutoff*interactionCutoff {
						return
					}
					r := math.Sqrt(r2)
					if r < 0.5 {
						r = 0.5 // AutoGrid's rmin clamp
					}
					elec += electrostaticTerm(a.Charge, r)
					desolv += desolvationTerm(a, r)
					ap := receptorAtomType(a).Params()
					for pi := range probes {
						affin[pi] += PairEnergySmoothed(probes[pi], ap, r, smoothRadius)
					}
				})
				m.elec[idx] = clamp(elec)
				m.desolv[idx] = clamp(desolv)
				for pi := range probes {
					probeSlices[pi][idx] = clamp(affin[pi])
				}
				idx++
			}
		}
	}
	return m, nil
}
