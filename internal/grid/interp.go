package grid

import (
	"fmt"
	"math"

	"repro/internal/chem"
)

// InBox reports whether p lies inside the grid volume.
func (m *Maps) InBox(p chem.Vec3) bool {
	o := m.Spec.Origin()
	d := p.Sub(o)
	return d.X >= 0 && d.Y >= 0 && d.Z >= 0 &&
		d.X <= float64(m.Spec.NPts[0]-1)*m.Spec.Spacing &&
		d.Y <= float64(m.Spec.NPts[1]-1)*m.Spec.Spacing &&
		d.Z <= float64(m.Spec.NPts[2]-1)*m.Spec.Spacing
}

// Field is one resolved map lattice: the map-name lookup done once,
// so a hot loop — the batched AD4 scorer interpolates every ligand
// atom against three fields per pose — pays only the trilinear gather
// per call instead of a per-call map-key hash. The zero Field is
// invalid; obtain one from AffinityField / ElectrostaticField /
// DesolvationField.
type Field struct {
	m  *Maps
	sl []float64
}

// At returns the trilinearly interpolated value at p, or
// OutOfBoxPenalty outside the grid; Field.At and the Maps per-call
// accessors are bit-equal.
func (f Field) At(p chem.Vec3) float64 {
	return f.m.interpolate(f.sl, p)
}

// AffinityField resolves the probe type's affinity lattice. Requesting
// a type without a map returns an error (a workflow wiring bug).
func (m *Maps) AffinityField(t chem.AtomType) (Field, error) {
	sl, ok := m.affinity[t]
	if !ok {
		return Field{}, fmt.Errorf("grid: no %s map for receptor %s", t, m.Receptor)
	}
	return Field{m: m, sl: sl}, nil
}

// ElectrostaticField resolves the electrostatic lattice.
func (m *Maps) ElectrostaticField() Field {
	return Field{m: m, sl: m.elec}
}

// DesolvationField resolves the desolvation lattice.
func (m *Maps) DesolvationField() Field {
	return Field{m: m, sl: m.desolv}
}

// AffinityAt returns the trilinearly interpolated affinity of the
// probe type at p, or OutOfBoxPenalty outside the grid. Requesting a
// type without a map returns an error (a workflow wiring bug).
func (m *Maps) AffinityAt(t chem.AtomType, p chem.Vec3) (float64, error) {
	f, err := m.AffinityField(t)
	if err != nil {
		return 0, err
	}
	return f.At(p), nil
}

// ElectrostaticAt returns the interpolated electrostatic potential
// (per unit charge) at p.
func (m *Maps) ElectrostaticAt(p chem.Vec3) float64 {
	return m.ElectrostaticField().At(p)
}

// DesolvationAt returns the interpolated desolvation energy at p.
func (m *Maps) DesolvationAt(p chem.Vec3) float64 {
	return m.DesolvationField().At(p)
}

// InterAccum accumulates one ligand atom's three weighted
// intermolecular terms across a batch of poses:
//
//	acc[p] += wv·affinity(pt) + wq·electrostatic(pt) + wdq·desolvation(pt)
//
// where pt is (xs[p·stride], ys[p·stride], zs[p·stride]) — the caller
// passes component slices pre-offset to the atom. Each term triple is
// evaluated exactly as InterTerms (one shared trilinear stencil,
// Field.At's lerp chain per lattice), and the three weighted products
// are added to acc[p] in the vdW/electrostatic/desolvation order of
// the scalar scorer, so accumulation is bit-identical to it. Hoisting
// the grid geometry out of the pose loop is the point: the per-pose
// body is stencil arithmetic and lattice loads only.
func (m *Maps) InterAccum(aff Field, xs, ys, zs []float64, stride int, wv, wq, wdq float64, acc []float64) {
	affSl, elecSl, desolvSl := aff.sl, m.elec, m.desolv
	o := m.Spec.Origin()
	sp := m.Spec.Spacing
	nx, ny, nz := m.Spec.NPts[0], m.Spec.NPts[1], m.Spec.NPts[2]
	mx, my, mz := float64(nx-1), float64(ny-1), float64(nz-1)
	dy, dz := nx, nx*ny
	for p := range acc {
		a := p * stride
		fx := (xs[a] - o.X) / sp
		fy := (ys[a] - o.Y) / sp
		fz := (zs[a] - o.Z) / sp
		if fx < 0 || fy < 0 || fz < 0 || fx > mx || fy > my || fz > mz {
			s := acc[p]
			s += wv * OutOfBoxPenalty
			s += wq * OutOfBoxPenalty
			s += wdq * OutOfBoxPenalty
			acc[p] = s
			continue
		}
		ix := int(math.Floor(fx))
		iy := int(math.Floor(fy))
		iz := int(math.Floor(fz))
		if ix >= nx-1 {
			ix = nx - 2
		}
		if iy >= ny-1 {
			iy = ny - 2
		}
		if iz >= nz-1 {
			iz = nz - 2
		}
		tx := fx - float64(ix)
		ty := fy - float64(iy)
		tz := fz - float64(iz)
		// The lerp chain per lattice is interpolate's exactly: corner
		// index arithmetic and operation order match the at() closure
		// form, so each term is bit-identical to Field.At. Written out
		// per lattice (a shared helper at this size is beyond the
		// inlining budget and a call per lattice costs more than the
		// duplication).
		i00 := (iz*ny+iy)*nx + ix
		i10 := i00 + dy
		i01 := i00 + dz
		i11 := i01 + dy
		ux, uy, uz := 1-tx, 1-ty, 1-tz
		s := acc[p]
		{
			c00 := affSl[i00]*ux + affSl[i00+1]*tx
			c10 := affSl[i10]*ux + affSl[i10+1]*tx
			c01 := affSl[i01]*ux + affSl[i01+1]*tx
			c11 := affSl[i11]*ux + affSl[i11+1]*tx
			s += wv * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		{
			c00 := elecSl[i00]*ux + elecSl[i00+1]*tx
			c10 := elecSl[i10]*ux + elecSl[i10+1]*tx
			c01 := elecSl[i01]*ux + elecSl[i01+1]*tx
			c11 := elecSl[i11]*ux + elecSl[i11+1]*tx
			s += wq * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		{
			c00 := desolvSl[i00]*ux + desolvSl[i00+1]*tx
			c10 := desolvSl[i10]*ux + desolvSl[i10+1]*tx
			c01 := desolvSl[i01]*ux + desolvSl[i01+1]*tx
			c11 := desolvSl[i11]*ux + desolvSl[i11+1]*tx
			s += wdq * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		acc[p] = s
	}
}

// interpolate performs trilinear interpolation on one map slice.
func (m *Maps) interpolate(sl []float64, p chem.Vec3) float64 {
	o := m.Spec.Origin()
	fx := (p.X - o.X) / m.Spec.Spacing
	fy := (p.Y - o.Y) / m.Spec.Spacing
	fz := (p.Z - o.Z) / m.Spec.Spacing
	nx, ny, nz := m.Spec.NPts[0], m.Spec.NPts[1], m.Spec.NPts[2]
	if fx < 0 || fy < 0 || fz < 0 ||
		fx > float64(nx-1) || fy > float64(ny-1) || fz > float64(nz-1) {
		return OutOfBoxPenalty
	}
	ix := int(math.Floor(fx))
	iy := int(math.Floor(fy))
	iz := int(math.Floor(fz))
	if ix >= nx-1 {
		ix = nx - 2
	}
	if iy >= ny-1 {
		iy = ny - 2
	}
	if iz >= nz-1 {
		iz = nz - 2
	}
	tx := fx - float64(ix)
	ty := fy - float64(iy)
	tz := fz - float64(iz)
	at := func(i, j, k int) float64 {
		return sl[(k*ny+j)*nx+i]
	}
	c00 := at(ix, iy, iz)*(1-tx) + at(ix+1, iy, iz)*tx
	c10 := at(ix, iy+1, iz)*(1-tx) + at(ix+1, iy+1, iz)*tx
	c01 := at(ix, iy, iz+1)*(1-tx) + at(ix+1, iy, iz+1)*tx
	c11 := at(ix, iy+1, iz+1)*(1-tx) + at(ix+1, iy+1, iz+1)*tx
	c0 := c00*(1-ty) + c10*ty
	c1 := c01*(1-ty) + c11*ty
	return c0*(1-tz) + c1*tz
}
