package tables

import (
	"math"

	"repro/internal/chem"
)

// SmoothRadius is AutoGrid's default potential smoothing (the GPF
// "smooth 0.5" keyword): the pairwise potential at r is replaced by
// its minimum over |r'-r| ≤ smooth/2, flattening the well bottom so
// small coordinate errors in crystal structures are not punished.
const SmoothRadius = 0.5

// Coulomb is the electrostatic conversion constant in kcal·Å/(mol·e²).
const Coulomb = 332.06

// DesolvSigma is the gaussian width (Å) of the AD4 desolvation term.
const DesolvSigma = 3.6

// Vina scoring-function weights (Trott & Olson 2010, Table 1).
const (
	VinaWGauss1    = -0.035579
	VinaWGauss2    = -0.005156
	VinaWRepulsion = +0.840245
	VinaWHydrophob = -0.035069
	VinaWHBond     = -0.587439
)

// PairEnergy is the AD4 pairwise dispersion/repulsion potential
// between a probe (ligand) type and a receptor type at distance r:
// a 12-6 Lennard-Jones for ordinary pairs and a directional-averaged
// 12-10 well for hydrogen-bonding pairs.
//
//unit:r=Å result=kcal/mol
func PairEnergy(probe, rec chem.TypeParams, r float64) float64 {
	rij := (probe.Rii + rec.Rii) / 2
	eps := math.Sqrt(probe.Epsii * rec.Epsii)
	hbond := (probe.HBond == 1 && rec.HBond >= 2) || (probe.HBond >= 2 && rec.HBond == 1)
	q := rij / r
	if hbond {
		// AD4's 12-10 hydrogen-bond well, ~5× deeper than dispersion:
		// E = ε_hb (5 (rij/r)^12 − 6 (rij/r)^10).
		eps *= 5
		q2 := q * q
		q10 := q2 * q2 * q2 * q2 * q2
		return eps * (5*q10*q2 - 6*q10)
	}
	// Ordinary 12-6 Lennard-Jones: E = ε ((rij/r)^12 − 2 (rij/r)^6).
	q6 := q * q * q
	q6 *= q6
	return eps * (q6*q6 - 2*q6)
}

// PairEnergySmoothed applies AutoGrid's potential smoothing to
// PairEnergy: the value at r is the minimum of the raw potential over
// the window |r'-r| ≤ smooth/2. Both potentials used here decrease
// monotonically to their single minimum at rmin and increase beyond,
// so the windowed minimum is analytic:
//
//	r window contains rmin → E(rmin)
//	window left of rmin    → E(r + smooth/2)
//	window right of rmin   → E(r - smooth/2)
//
//unit:r=Å smooth=Å result=kcal/mol
func PairEnergySmoothed(probe, rec chem.TypeParams, r, smooth float64) float64 {
	if smooth <= 0 {
		return PairEnergy(probe, rec, r)
	}
	half := smooth / 2
	rij := (probe.Rii + rec.Rii) / 2
	// The 12-6 minimum sits at rij; the 12-10 at rij as well (both
	// are parameterized so the well bottom is at the radius sum).
	switch {
	case r+half < rij:
		return PairEnergy(probe, rec, r+half)
	case r-half > rij:
		return PairEnergy(probe, rec, r-half)
	default:
		return PairEnergy(probe, rec, rij)
	}
}

// Dielectric is the sigmoidal distance-dependent dielectric of
// Mehler & Solmajer (1991), the function AutoGrid applies:
//
//	ε(r) = A + B / (1 + k·exp(−λBr))
//
// with A = −8.5525, B = ε₀ − A = 86.9525, k = 7.7839 and
// λ = 0.003627. ε rises from ~1 at contact toward bulk water's ~78.
//
//unit:r=Å result=dimensionless
func Dielectric(r float64) float64 {
	const (
		a      = -8.5525
		bCoef  = 78.4 - a
		k      = 7.7839
		lambda = 0.003627
	)
	e := a + bCoef/(1+k*math.Exp(-lambda*bCoef*r))
	if e < 1 {
		e = 1
	}
	return e
}

// ElecScale is the Coulomb interaction of a unit probe charge with a
// unit receptor charge at distance r under the Mehler–Solmajer
// dielectric. Multiply by the receptor charge (and the probe charge,
// when not unit) to get the energy.
//
//unit:r=Å
func ElecScale(r float64) float64 {
	return Coulomb / (Dielectric(r) * r)
}

// DesolvWeight is the gaussian radial weight of the AD4 desolvation
// term, including the 0.1 calibration factor; multiply by
// DesolvCoeff of the receptor atom.
//
//unit:r=Å
func DesolvWeight(r float64) float64 {
	return 0.1 * math.Exp(-r*r/(2*DesolvSigma*DesolvSigma))
}

// DesolvCoeff is the per-atom prefactor of the AD4 desolvation term:
// volume × solvation parameter plus a charge-dependent component.
func DesolvCoeff(p chem.TypeParams, charge float64) float64 {
	return p.SolPar*p.SolVol + 0.01097*math.Abs(charge)*p.SolVol
}

// VinaPair is the Vina pairwise scoring function on the surface
// distance d = r − R_i − R_j: two gaussians, a quadratic repulsion,
// and the hydrophobic and H-bond ramps.
//
//unit:r=Å result=kcal/mol
func VinaPair(a, b chem.TypeParams, r float64) float64 {
	d := r - (a.Rii/2 + b.Rii/2)
	e := VinaWGauss1 * gauss(d, 0, 0.5)
	e += VinaWGauss2 * gauss(d, 3.0, 2.0)
	if d < 0 {
		e += VinaWRepulsion * d * d
	}
	if a.Hydroph && b.Hydroph {
		e += VinaWHydrophob * ramp(d, 0.5, 1.5)
	}
	if VinaHBondPair(a, b) {
		e += VinaWHBond * ramp(d, -0.7, 0)
	}
	return e
}

func gauss(d, off, width float64) float64 {
	x := (d - off) / width
	return math.Exp(-x * x)
}

// ramp is 1 below lo, 0 above hi, linear between.
func ramp(d, lo, hi float64) float64 {
	if d <= lo {
		return 1
	}
	if d >= hi {
		return 0
	}
	return (hi - d) / (hi - lo)
}

// VinaHBondPair reports whether the types form a donor/acceptor pair.
// Vina's heavy-atom convention: a donor is a heavy atom that carries a
// polar hydrogen; our preparation marks N (with H) and S as donors via
// the type table, so we treat N/OA/SA acceptors vs N donors.
func VinaHBondPair(a, b chem.TypeParams) bool {
	donor := func(p chem.TypeParams) bool {
		return p.Type == chem.TypeN || p.Type == chem.TypeS // H-bearing by typing rules
	}
	acceptor := func(p chem.TypeParams) bool { return p.HBond >= 2 }
	return (donor(a) && acceptor(b)) || (donor(b) && acceptor(a))
}
