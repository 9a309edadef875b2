package grid

import (
	"bytes"
	"testing"

	"repro/internal/chem"
)

// FuzzParseMap feeds arbitrary bytes to the .map reader, seeded with
// WriteMap output for an affinity, an electrostatic and a desolvation
// map. No input may panic, and an accepted map must carry a valid
// lattice holding exactly one value per point.
func FuzzParseMap(f *testing.F) {
	spec := Spec{Center: chem.V(1.5, -2, 0.25), NPts: [3]int{3, 2, 2}, Spacing: 0.375}
	n := spec.NumPoints()
	vals := func(scale float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = scale * float64(i-n/2)
		}
		return out
	}
	m := &Maps{
		Spec: spec, Receptor: "1ABC",
		affinity: map[chem.AtomType][]float64{chem.TypeC: vals(0.5)},
		elec:     vals(-0.125),
		desolv:   vals(0.25),
	}
	for sel, which := range mapKinds {
		var buf bytes.Buffer
		if err := m.WriteMap(&buf, which); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(sel))
	}
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		which := mapKinds[int(sel)%len(mapKinds)]
		got, err := ParseMap(bytes.NewReader(data), which, "fuzz.map")
		if err != nil {
			return
		}
		if err := got.Spec.Validate(); err != nil {
			t.Fatalf("accepted map has invalid spec %+v: %v", got.Spec, err)
		}
		v, err := got.values(which)
		if err != nil {
			t.Fatalf("accepted map lacks %q: %v", which, err)
		}
		if len(v) != got.Spec.NumPoints() {
			t.Fatalf("accepted map has %d values for %d points", len(v), got.Spec.NumPoints())
		}
	})
}

// mapKinds are the map keys FuzzParseMap cycles through: an affinity
// type, electrostatics and desolvation.
var mapKinds = []string{string(chem.TypeC), "e", "d"}
