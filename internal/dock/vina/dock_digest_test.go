package vina

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dock"
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

// TestDockDigest pins the Monte-Carlo search bit for bit: every run's
// FEB, RMSD and pose for a fixed seed hash to the digest recorded when
// the search was last allowed to change.
func TestDockDigest(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(19)
	cfg.Exhaustiveness = 4
	eng := &Engine{Config: cfg, StepsPerRestart: 6, Workers: 1}
	res, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	const want = "cbd8472be0d534ecf17047c1c9422e141b697e7db2fb75f0bbea98f3eb8cf99b"
	if got := resultDigest(res); got != want {
		t.Fatalf("Dock digest %s, want %s (%d runs, best FEB %v)", got, want, len(res.Runs), res.Runs[0].FEB)
	}
}
