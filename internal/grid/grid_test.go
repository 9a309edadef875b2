package grid

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/prep"
)

func preparedReceptor(t testing.TB, code string) *chem.Molecule {
	t.Helper()
	rec, _ := data.GenerateReceptor(code)
	out, err := prep.PrepareReceptor(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func smallSpec(rec *chem.Molecule) Spec {
	min, max := chem.BoundingBox(rec.Positions())
	return Spec{Center: min.Lerp(max, 0.5), NPts: [3]int{12, 12, 12}, Spacing: 2.0}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{NPts: [3]int{2, 2, 2}, Spacing: 1}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (Spec{NPts: [3]int{1, 2, 2}, Spacing: 1}).Validate(); err == nil {
		t.Error("npts=1 accepted")
	}
	if err := (Spec{NPts: [3]int{2, 2, 2}, Spacing: 0}).Validate(); err == nil {
		t.Error("zero spacing accepted")
	}
}

func TestSpecOrigin(t *testing.T) {
	s := Spec{Center: chem.V(0, 0, 0), NPts: [3]int{11, 11, 11}, Spacing: 1}
	if got := s.Origin(); !vecClose(got, chem.V(-5, -5, -5), 1e-12) {
		t.Errorf("origin = %v", got)
	}
	if s.NumPoints() != 11*11*11 {
		t.Errorf("NumPoints = %d", s.NumPoints())
	}
}

func vecClose(a, b chem.Vec3, tol float64) bool { return a.Dist(b) <= tol }

func TestGenerateAndInterpolate(t *testing.T) {
	rec := preparedReceptor(t, "2HHN")
	spec := smallSpec(rec)
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC, chem.TypeOA, chem.TypeHD})
	if err != nil {
		t.Fatal(err)
	}
	if len(maps.Types()) != 3 {
		t.Errorf("types = %v", maps.Types())
	}
	// Lattice-point lookups equal stored values (interpolation exact
	// at nodes): probe the centre.
	c := spec.Center
	v, err := maps.AffinityAt(chem.TypeC, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("affinity at centre = %v", v)
	}
	if !maps.InBox(c) {
		t.Error("centre not in box")
	}
	// Outside the box: penalty.
	far := c.Add(chem.V(1e3, 0, 0))
	if maps.InBox(far) {
		t.Error("far point in box")
	}
	got, err := maps.AffinityAt(chem.TypeC, far)
	if err != nil || got != OutOfBoxPenalty {
		t.Errorf("out-of-box affinity = %v, %v", got, err)
	}
	if maps.ElectrostaticAt(far) != OutOfBoxPenalty {
		t.Error("out-of-box electrostatics not penalized")
	}
	// Missing map type errors.
	if _, err := maps.AffinityAt(chem.TypeZn, c); err == nil {
		t.Error("missing map accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	rec := preparedReceptor(t, "1AIM")
	if _, err := Generate(rec, Spec{}, nil); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Generate(&chem.Molecule{Name: "E"}, smallSpec(rec), nil); err == nil {
		t.Error("empty receptor accepted")
	}
	if _, err := Generate(rec, smallSpec(rec), []chem.AtomType{chem.TypeHg}); err == nil {
		t.Error("unsupported probe accepted")
	}
	hg := rec.Clone()
	hg.Atoms = append(hg.Atoms, chem.Atom{Name: "HG", Element: chem.Mercury, Type: chem.TypeHg})
	if _, err := Generate(hg, smallSpec(rec), []chem.AtomType{chem.TypeC}); err == nil {
		t.Error("Hg receptor accepted by autogrid")
	}
}

// Interpolation must be continuous: neighbouring queries give close
// values, and node queries match direct map values.
func TestInterpolationContinuity(t *testing.T) {
	rec := preparedReceptor(t, "1HUC")
	spec := smallSpec(rec)
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	o := spec.Origin()
	extent := float64(spec.NPts[0]-2) * spec.Spacing
	for i := 0; i < 200; i++ {
		p := o.Add(chem.V(r.Float64()*extent, r.Float64()*extent, r.Float64()*extent))
		v1, _ := maps.AffinityAt(chem.TypeC, p)
		v2, _ := maps.AffinityAt(chem.TypeC, p.Add(chem.V(1e-7, 0, 0)))
		if math.Abs(v1-v2) > 1 {
			t.Fatalf("discontinuity at %v: %v vs %v", p, v1, v2)
		}
	}
}

// The pocket centre of a receptor should be attractive (negative
// affinity) for a carbon probe: this is the physical sanity check that
// docking can find favourable poses at all.
func TestPocketIsAttractive(t *testing.T) {
	rec, info := data.GenerateReceptor("1S4V")
	prec, err := prep.PrepareReceptor(rec)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Center: chem.Vec3{}, NPts: [3]int{10, 10, 10}, Spacing: 1.0}
	maps, err := Generate(prec, spec, []chem.AtomType{chem.TypeC})
	if err != nil {
		t.Fatal(err)
	}
	v, err := maps.AffinityAt(chem.TypeC, chem.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	if v >= 0 {
		t.Errorf("pocket centre affinity = %v (pocket radius %.1f), want attractive", v, info.PocketR)
	}
}

func TestPairEnergyShape(t *testing.T) {
	c := chem.TypeC.Params()
	// Minimum at r = Rij, repulsive well inside, attractive outside.
	rij := c.Rii
	atMin := PairEnergy(c, c, rij)
	if !closeTo(atMin, -c.Epsii, 1e-9) {
		t.Errorf("well depth = %v, want %v", atMin, -c.Epsii)
	}
	if PairEnergy(c, c, rij*0.7) < 0 {
		t.Error("short range should be repulsive")
	}
	if e := PairEnergy(c, c, rij*1.5); e >= 0 || e < atMin {
		t.Errorf("long range energy = %v, want in (%v, 0)", e, atMin)
	}
	// H-bond pair deeper than dispersion pair.
	hd := chem.TypeHD.Params()
	oa := chem.TypeOA.Params()
	hbondMin := PairEnergy(hd, oa, (hd.Rii+oa.Rii)/2)
	plainMin := -math.Sqrt(hd.Epsii * oa.Epsii)
	if hbondMin >= plainMin {
		t.Errorf("hbond well %v not deeper than plain %v", hbondMin, plainMin)
	}
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMapFileRoundTrip(t *testing.T) {
	rec := preparedReceptor(t, "1PIP")
	// Exactly representable centre so the %.3f header round-trips.
	spec := Spec{Center: chem.V(0.5, -1.25, 2), NPts: [3]int{6, 6, 6}, Spacing: 2}
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := maps.WriteMap(&buf, "C"); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMap(bytes.NewReader(buf.Bytes()), "C", "t.map")
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.NPts != spec.NPts {
		t.Errorf("npts = %v", got.Spec.NPts)
	}
	if math.Abs(got.Spec.Spacing-spec.Spacing) > 1e-9 {
		t.Errorf("spacing = %v", got.Spec.Spacing)
	}
	// Values survive within write precision at a lattice node.
	p := spec.Origin()
	v1, _ := maps.AffinityAt(chem.TypeC, p)
	v2, _ := got.AffinityAt(chem.TypeC, p)
	// Out-of-precision clamped values still match within 0.01.
	if math.Abs(v1-v2) > 0.01 && math.Abs(v1-v2)/math.Abs(v1+1e-12) > 1e-3 {
		t.Errorf("value drift: %v vs %v", v1, v2)
	}
	// Electrostatic and desolvation map files round-trip too.
	buf.Reset()
	if err := maps.WriteMap(&buf, "e"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMap(bytes.NewReader(buf.Bytes()), "e", "t.e.map"); err != nil {
		t.Fatal(err)
	}
	// Unknown map name errors.
	if err := maps.WriteMap(&buf, "Zn"); err == nil {
		t.Error("unknown map written")
	}
}

func TestParseMapErrors(t *testing.T) {
	if _, err := ParseMap(bytes.NewReader([]byte("SPACING x\n")), "C", "t"); err == nil {
		t.Error("bad spacing accepted")
	}
	short := "SPACING 1\nNELEMENTS 2 2 2\nCENTER 0 0 0\n1.0\n"
	if _, err := ParseMap(bytes.NewReader([]byte(short)), "C", "t"); err == nil {
		t.Error("value-count mismatch accepted")
	}
	eight := strings.Repeat("0.0\n", 8)
	// Each lattice below has exactly as many points as values, so only
	// Spec validation can refuse it.
	for _, tc := range []struct{ name, input string }{
		{"negative NELEMENTS", "SPACING 0.5\nNELEMENTS -3 -3 1\nCENTER 0 0 0\n" + eight},
		{"zero SPACING", "SPACING 0\nNELEMENTS 1 1 1\nCENTER 0 0 0\n" + eight},
		{"negative SPACING", "SPACING -0.375\nNELEMENTS 1 1 1\nCENTER 0 0 0\n" + eight},
		{"NaN SPACING", "SPACING NaN\nNELEMENTS 1 1 1\nCENTER 0 0 0\n" + eight},
		// 2^32 × 2^32 × 2 points wrap int to 0, matching no values.
		{"overflowing NELEMENTS", "SPACING 1\nNELEMENTS 4294967295 4294967295 1\nCENTER 0 0 0\n"},
	} {
		if m, err := ParseMap(strings.NewReader(tc.input), "C", "t"); err == nil {
			t.Errorf("%s accepted: spec %+v", tc.name, m.Spec)
		}
	}
}

func TestWriteFLD(t *testing.T) {
	rec := preparedReceptor(t, "1PAD")
	spec := Spec{Center: rec.Centroid(), NPts: [3]int{4, 4, 4}, Spacing: 3}
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC, chem.TypeOA})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := maps.WriteFLD(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"ndim=3", "dim1=4", ".e.map", ".d.map"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("fld missing %q", want)
		}
	}
}

// TestTypesDeterministicOrder pins Types() to sorted order regardless
// of map insertion order. Types() feeds the .fld index WriteFLD emits
// and the per-type map filenames, so a regression here (ranging the
// affinity map directly) would make output files differ run to run.
func TestTypesDeterministicOrder(t *testing.T) {
	insertions := [][]chem.AtomType{
		{chem.TypeSA, chem.TypeC, chem.TypeOA, chem.TypeHD, chem.TypeNA, chem.TypeA},
		{chem.TypeA, chem.TypeNA, chem.TypeHD, chem.TypeOA, chem.TypeC, chem.TypeSA},
		{chem.TypeOA, chem.TypeSA, chem.TypeA, chem.TypeC, chem.TypeNA, chem.TypeHD},
	}
	want := []chem.AtomType{chem.TypeA, chem.TypeC, chem.TypeHD, chem.TypeNA, chem.TypeOA, chem.TypeSA}
	for _, order := range insertions {
		m := &Maps{affinity: map[chem.AtomType][]float64{}}
		for _, at := range order {
			m.affinity[at] = nil
		}
		// Repeat the call: Go randomizes map iteration per range, so a
		// single lucky draw must not pass the test.
		for i := 0; i < 50; i++ {
			got := m.Types()
			if len(got) != len(want) {
				t.Fatalf("Types() = %v, want %v", got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("iteration %d, insertion %v: Types() = %v, want %v", i, order, got, want)
				}
			}
		}
	}
}

func TestCellListCoversAllAtoms(t *testing.T) {
	rec := preparedReceptor(t, "9PAP")
	cl := buildCellList(rec, 8)
	// Querying at every atom position must at least see that atom.
	for i, a := range rec.Atoms {
		found := false
		cl.forNeighbors(a.Pos, func(j int) {
			if j == i {
				found = true
			}
		})
		if !found {
			t.Fatalf("atom %d not found by its own query", i)
		}
	}
	// Cell list must agree with brute force within the cutoff.
	q := rec.Centroid()
	brute := map[int]bool{}
	for i, a := range rec.Atoms {
		if a.Pos.Dist(q) <= 8 {
			brute[i] = true
		}
	}
	got := map[int]bool{}
	cl.forNeighbors(q, func(j int) {
		if rec.Atoms[j].Pos.Dist(q) <= 8 {
			got[j] = true
		}
	})
	if len(got) != len(brute) {
		t.Fatalf("cell list found %d atoms in cutoff, brute force %d", len(got), len(brute))
	}
}

// The table-backed Generate must agree with the serial analytic
// reference at every lattice node within the table error bound.
func TestGenerateMatchesReference(t *testing.T) {
	rec := preparedReceptor(t, "2HHN")
	spec := smallSpec(rec)
	types := []chem.AtomType{chem.TypeC, chem.TypeOA, chem.TypeHD, chem.TypeN}
	fast, err := Generate(rec, spec, types)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := GenerateReference(rec, spec, types)
	if err != nil {
		t.Fatal(err)
	}
	tol := func(want float64) float64 { return 1e-3 + 2e-4*math.Abs(want) }
	compare := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > tol(want[i]) {
				t.Fatalf("%s[%d]: table %v vs analytic %v (|Δ|=%v)", name, i, got[i], want[i], d)
			}
		}
	}
	compare("elec", fast.elec, ref.elec)
	compare("desolv", fast.desolv, ref.desolv)
	for _, ty := range types {
		compare(string(ty), fast.affinity[ty], ref.affinity[ty])
	}
}

// The z-slab decomposition is Spec-deterministic: the written map
// files must be byte-identical for every worker count.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	rec := preparedReceptor(t, "1HUC")
	spec := smallSpec(rec)
	types := []chem.AtomType{chem.TypeC, chem.TypeOA}
	mapBytes := func(m *Maps) []byte {
		var buf bytes.Buffer
		for _, name := range []string{"C", "OA", "e", "d"} {
			if err := m.WriteMap(&buf, name); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	base, err := GenerateWorkers(rec, spec, types, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mapBytes(base)
	for _, workers := range []int{2, 3, 8, 64} {
		m, err := GenerateWorkers(rec, spec, types, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mapBytes(m), want) {
			t.Fatalf("map files differ between 1 and %d workers", workers)
		}
	}
}

// The cutoff-expanded bounding-box guard must not lose neighbours for
// points just outside each box face, and must early-out just beyond
// the expanded box.
func TestCellListBoundaryFaces(t *testing.T) {
	rec := preparedReceptor(t, "1CSB")
	cl := buildCellList(rec, 8)
	min, max := chem.BoundingBox(rec.Positions())
	mid := min.Lerp(max, 0.5)
	const eps = 1e-6
	probes := []struct {
		name    string
		p       chem.Vec3
		outside bool // beyond the cutoff-expanded box: zero visits
	}{
		{"x-lo-in", chem.V(min.X-8+eps, mid.Y, mid.Z), false},
		{"x-hi-in", chem.V(max.X+8-eps, mid.Y, mid.Z), false},
		{"y-lo-in", chem.V(mid.X, min.Y-8+eps, mid.Z), false},
		{"y-hi-in", chem.V(mid.X, max.Y+8-eps, mid.Z), false},
		{"z-lo-in", chem.V(mid.X, mid.Y, min.Z-8+eps), false},
		{"z-hi-in", chem.V(mid.X, mid.Y, max.Z+8-eps), false},
		{"x-lo-out", chem.V(min.X-8-eps, mid.Y, mid.Z), true},
		{"x-hi-out", chem.V(max.X+8+eps, mid.Y, mid.Z), true},
		{"y-lo-out", chem.V(mid.X, min.Y-8-eps, mid.Z), true},
		{"y-hi-out", chem.V(mid.X, max.Y+8+eps, mid.Z), true},
		{"z-lo-out", chem.V(mid.X, mid.Y, min.Z-8-eps), true},
		{"z-hi-out", chem.V(mid.X, mid.Y, max.Z+8+eps), true},
	}
	for _, tc := range probes {
		visited := 0
		cl.forNeighbors(tc.p, func(int) { visited++ })
		if tc.outside && visited != 0 {
			t.Errorf("%s: visited %d atoms beyond the expanded box", tc.name, visited)
		}
		// Cross-check against brute force within the cutoff.
		brute := 0
		for _, a := range rec.Atoms {
			if a.Pos.Dist(tc.p) <= 8 {
				brute++
			}
		}
		inCutoff := 0
		cl.forNeighbors(tc.p, func(j int) {
			if rec.Atoms[j].Pos.Dist(tc.p) <= 8 {
				inCutoff++
			}
		})
		if inCutoff != brute {
			t.Errorf("%s: cell list found %d atoms within cutoff, brute force %d", tc.name, inCutoff, brute)
		}
	}
}

func benchSpec(rec *chem.Molecule) (Spec, []chem.AtomType) {
	return Spec{Center: rec.Centroid(), NPts: [3]int{24, 24, 24}, Spacing: 1.0},
		[]chem.AtomType{chem.TypeC, chem.TypeN, chem.TypeOA, chem.TypeHD}
}

func BenchmarkGenerateMaps(b *testing.B) {
	rec := preparedReceptor(b, "2HHN")
	spec, types := benchSpec(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(rec, spec, types); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateMapsSerial(b *testing.B) {
	rec := preparedReceptor(b, "2HHN")
	spec, types := benchSpec(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWorkers(rec, spec, types, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateMapsReference(b *testing.B) {
	rec := preparedReceptor(b, "2HHN")
	spec, types := benchSpec(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateReference(rec, spec, types); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPairEnergySmoothed(t *testing.T) {
	c := chem.TypeC.Params()
	rij := c.Rii
	// Inside the window around the minimum: flat at the well depth.
	for _, r := range []float64{rij - 0.2, rij, rij + 0.2} {
		if got := PairEnergySmoothed(c, c, r, 0.5); !closeTo(got, -c.Epsii, 1e-9) {
			t.Errorf("smoothed(%v) = %v, want %v", r, got, -c.Epsii)
		}
	}
	// Outside the window: shifted toward the minimum by smooth/2.
	r := rij + 1.0
	if got, want := PairEnergySmoothed(c, c, r, 0.5), PairEnergy(c, c, r-0.25); !closeTo(got, want, 1e-12) {
		t.Errorf("right side smoothed = %v, want %v", got, want)
	}
	r = rij - 1.0
	if got, want := PairEnergySmoothed(c, c, r, 0.5), PairEnergy(c, c, r+0.25); !closeTo(got, want, 1e-12) {
		t.Errorf("left side smoothed = %v, want %v", got, want)
	}
	// Smoothing never raises the energy.
	for r := 2.0; r < 8; r += 0.1 {
		if PairEnergySmoothed(c, c, r, 0.5) > PairEnergy(c, c, r)+1e-12 {
			t.Fatalf("smoothing raised energy at r=%v", r)
		}
	}
	// Zero smooth is the raw potential.
	if PairEnergySmoothed(c, c, 3.3, 0) != PairEnergy(c, c, 3.3) {
		t.Error("zero smooth changed potential")
	}
}

func TestMehlerSolmajerDielectric(t *testing.T) {
	// Near contact: low dielectric (screened vacuum-like).
	if e := dielectric(1.0); e < 1 || e > 10 {
		t.Errorf("ε(1Å) = %v, want small", e)
	}
	// Long range: approaches bulk water (~78).
	if e := dielectric(50); e < 60 || e > 79 {
		t.Errorf("ε(50Å) = %v, want near 78", e)
	}
	// Monotone increasing.
	prev := 0.0
	for r := 0.5; r < 30; r += 0.5 {
		e := dielectric(r)
		if e < prev {
			t.Fatalf("dielectric not monotone at r=%v", r)
		}
		prev = e
	}
}

// TestFieldMatchesAccessors pins that a resolved Field and the per-call
// Maps accessors interpolate bit-identically, inside and outside the
// box, and that resolving a type without a map errors.
func TestFieldMatchesAccessors(t *testing.T) {
	rec := preparedReceptor(t, "2HHN")
	spec := smallSpec(rec)
	m, err := GenerateWorkers(rec, spec, []chem.AtomType{chem.TypeC, chem.TypeOA}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fC, err := m.AffinityField(chem.TypeC)
	if err != nil {
		t.Fatal(err)
	}
	fe, fd := m.ElectrostaticField(), m.DesolvationField()
	r := rand.New(rand.NewSource(31))
	span := chem.V(
		float64(spec.NPts[0]-1)*spec.Spacing,
		float64(spec.NPts[1]-1)*spec.Spacing,
		float64(spec.NPts[2]-1)*spec.Spacing,
	)
	for i := 0; i < 500; i++ {
		// Mostly inside the box, sometimes outside (penalty path).
		p := spec.Origin().Add(chem.V(
			(r.Float64()*1.2-0.1)*span.X,
			(r.Float64()*1.2-0.1)*span.Y,
			(r.Float64()*1.2-0.1)*span.Z,
		))
		aff, err := m.AffinityAt(chem.TypeC, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fC.At(p); got != aff {
			t.Fatalf("AffinityField.At %v != AffinityAt %v", got, aff)
		}
		if got := fe.At(p); got != m.ElectrostaticAt(p) {
			t.Fatal("ElectrostaticField.At diverges")
		}
		if got := fd.At(p); got != m.DesolvationAt(p) {
			t.Fatal("DesolvationField.At diverges")
		}
	}
	if _, err := m.AffinityField(chem.TypeZn); err == nil {
		t.Fatal("AffinityField for missing type must error")
	}
}
