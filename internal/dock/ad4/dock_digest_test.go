package ad4

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dock"
	"repro/internal/prep"
)

// resultDigest hashes, per run in order, the FEB bits, the RMSD bits
// and every pose coordinate bit for bit, so two results share a digest
// only when they are the same bytes.
func resultDigest(res *dock.Result) string {
	var buf []byte
	put := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	for _, run := range res.Runs {
		p := run.Pose
		put(run.FEB)
		put(run.RMSD)
		put(p.Translation.X)
		put(p.Translation.Y)
		put(p.Translation.Z)
		put(p.Orientation.W)
		put(p.Orientation.X)
		put(p.Orientation.Y)
		put(p.Orientation.Z)
		for _, t := range p.Torsions {
			put(t)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestDockDigest pins the Lamarckian GA bit for bit: every run's
// FEB, RMSD and pose for a fixed seed hash to the digest recorded when
// the search was last allowed to change.
func TestDockDigest(t *testing.T) {
	maps, lig, box := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	params := prep.DefaultDPF("l", "f", 77)
	params.Runs, params.PopSize, params.Gens, params.Evals = 3, 14, 5, 2500
	eng := &Engine{Params: params, Box: box, Workers: 1}
	res, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	const want = "bf3dd6e6c04b12d03503272caeb27d467c067ccddc0c23fc7886dfbc4438d0d0"
	if got := resultDigest(res); got != want {
		t.Fatalf("Dock digest %s, want %s (%d runs, best FEB %v)", got, want, len(res.Runs), res.Runs[0].FEB)
	}
}
