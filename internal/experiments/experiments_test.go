package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsQuick(t *testing.T) {
	s := &Suite{Quick: true}
	out, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TABLE 1", "TABLE 2", "TABLE 3",
		"FIGURE 5", "FIGURE 6", "FIGURE 7", "FIGURE 8", "FIGURE 9",
		"FIGURE 10", "FIGURE 11",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in combined output", want)
		}
	}
	if !strings.Contains(out, "m3.xlarge") || !strings.Contains(out, "m3.2xlarge") {
		t.Error("Table 1 lacks the instance types")
	}
	if !strings.Contains(out, "2HHN") {
		t.Error("Table 2 lacks receptor codes")
	}
	if !strings.Contains(out, "improvement@32") {
		t.Error("Figure 7 lacks the improvement metric")
	}
	if !strings.Contains(out, ".dlg") {
		t.Error("Figure 11 lacks dlg files")
	}
}

func TestByName(t *testing.T) {
	s := &Suite{Quick: true}
	if _, err := s.ByName("t1"); err != nil {
		t.Errorf("t1: %v", err)
	}
	if _, err := s.ByName("F8"); err != nil {
		t.Errorf("case-insensitive dispatch: %v", err)
	}
	if _, err := s.ByName("f99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSweepMemoized(t *testing.T) {
	s := &Suite{Quick: true}
	a1, _, err := s.sweep()
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := s.sweep()
	if err != nil {
		t.Fatal(err)
	}
	if &a1.Points[0] != &a2.Points[0] {
		t.Error("sweep recomputed instead of memoized")
	}
}

func TestKernelsQuick(t *testing.T) {
	s := &Suite{Quick: true}
	rep, err := s.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	sweepNames := func(prefix string) []string {
		return []string{
			prefix + "_score_per_pose", prefix + "_score_batch1", prefix + "_score_batch8",
			prefix + "_score_batch16", prefix + "_score_batch50", prefix + "_score_batch150",
		}
	}
	want := []string{
		"grid_generate_reference", "grid_generate_tables_1w", "grid_generate_tables_allcores",
		"vina_score_analytic", "vina_score_tables",
		"ad4_score_analytic", "ad4_score_tables",
	}
	want = append(want, sweepNames("vina")...)
	want = append(want, sweepNames("ad4")...)
	want = append(want, sweepNames("large_vina")...)
	want = append(want, sweepNames("large_ad4")...)
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, b := range rep.Benchmarks {
		if b.Name != want[i] {
			t.Errorf("benchmark %d = %q, want %q", i, b.Name, want[i])
		}
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v", b.Name, b.NsPerOp)
		}
		table := strings.Contains(b.Name, "tables")
		if table && b.Speedup <= 0 {
			t.Errorf("%s: missing speedup", b.Name)
		}
		if !table && b.Speedup != 0 {
			t.Errorf("%s: baseline has speedup %v", b.Name, b.Speedup)
		}
		if b.Workload != "reference" && b.Workload != "large" {
			t.Errorf("%s: workload tag %q", b.Name, b.Workload)
		}
		if strings.HasPrefix(b.Name, "large_") != (b.Workload == "large") {
			t.Errorf("%s: workload tag %q does not match name", b.Name, b.Workload)
		}
		switch {
		case strings.Contains(b.Name, "_batch"):
			if b.BatchSize <= 0 || b.NsPerPose <= 0 || b.SpeedupVsPerPose <= 0 {
				t.Errorf("%s: incomplete batch cell %+v", b.Name, b)
			}
			if b.MedianNsPerPose < b.NsPerPose {
				t.Errorf("%s: median ns/pose %v below min-round ns/pose %v",
					b.Name, b.MedianNsPerPose, b.NsPerPose)
			}
		case strings.Contains(b.Name, "per_pose"):
			if b.NsPerPose <= 0 || b.BatchSize != 0 || b.SpeedupVsPerPose != 0 {
				t.Errorf("%s: bad per-pose baseline %+v", b.Name, b)
			}
		default:
			if b.BatchSize != 0 || b.NsPerPose != 0 || b.SpeedupVsPerPose != 0 {
				t.Errorf("%s: non-sweep row carries batch fields %+v", b.Name, b)
			}
		}
	}
	if len(rep.Workloads) != 2 || rep.Workloads[0].Name != "reference" || rep.Workloads[1].Name != "large" {
		t.Fatalf("workload metadata = %+v, want reference + large", rep.Workloads)
	}
	for _, w := range rep.Workloads {
		if w.ReceptorAtoms <= 0 || w.LigandAtoms <= 0 || w.AD4TypeCount <= 0 || w.Torsions < 0 ||
			w.VinaExactTableBytes <= 0 || w.AD4ExactTableBytes <= 0 {
			t.Errorf("workload %s: incomplete metadata %+v", w.Name, w)
		}
	}
	lw := rep.Workloads[1]
	if lw.LigandAtoms < 120 || lw.AD4TypeCount < 14 || lw.Torsions < 12 {
		t.Errorf("large workload shape %+v misses the L2-overflow contract (>=120 atoms, >=14 types, >=12 torsions)", lw)
	}
	if lw.VinaExactTableBytes <= rep.Workloads[0].VinaExactTableBytes {
		t.Errorf("large vina exact working set (%d B) not larger than reference (%d B)",
			lw.VinaExactTableBytes, rep.Workloads[0].VinaExactTableBytes)
	}
	if rep.Note == "" {
		t.Error("report note (measurement caveat) missing")
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ns_per_op", "allocs_per_op", "speedup_vs_analytic",
		"gomaxprocs", "batch_size", "ns_per_pose", "speedup_vs_per_pose", "note",
		"median_ns_per_pose", "workloads", "vina_exact_table_bytes",
		"ad4_exact_table_bytes", "ad4_type_count"} {
		if !strings.Contains(string(js), key) {
			t.Errorf("JSON missing %q", key)
		}
	}
	if out, err := s.ByName("kernels"); err != nil || !strings.Contains(out, "KERNEL BENCHMARKS") {
		t.Errorf("ByName(kernels) = %q, %v", out, err)
	}
}

func TestCampaignsQuick(t *testing.T) {
	s := &Suite{Quick: true}
	rep, err := s.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("got %d entries, want 2 (solo and concurrent)", len(rep.Entries))
	}
	solo, four := rep.Entries[0], rep.Entries[1]
	if solo.Concurrency != 1 || four.Concurrency != 4 {
		t.Fatalf("concurrency levels = %d, %d, want 1, 4", solo.Concurrency, four.Concurrency)
	}
	for _, b := range rep.Entries {
		if len(b.Runs) != b.Concurrency {
			t.Errorf("level %d: %d runs", b.Concurrency, len(b.Runs))
		}
		if b.TotalWallSecs <= 0 || b.FairnessSpread < 1 {
			t.Errorf("level %d: wall %v, spread %v", b.Concurrency, b.TotalWallSecs, b.FairnessSpread)
		}
		for _, run := range b.Runs {
			if run.VirtualTET <= 0 || run.Activations <= 0 {
				t.Errorf("level %d seed %d: empty run %+v", b.Concurrency, run.Seed, run)
			}
		}
	}
	// Distinct seeds, so the concurrent campaigns are genuinely
	// different campaigns, not one campaign four times.
	seeds := map[int64]bool{}
	for _, run := range four.Runs {
		seeds[run.Seed] = true
	}
	if len(seeds) != 4 {
		t.Errorf("concurrent level reused seeds: %v", four.Runs)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fairness_spread", "total_wall_secs", "virtual_tet_secs", "pool_capacity"} {
		if !strings.Contains(string(js), key) {
			t.Errorf("JSON missing %q", key)
		}
	}
	if out, err := s.ByName("campaigns"); err != nil || !strings.Contains(out, "CAMPAIGN-SERVICE BENCHMARKS") {
		t.Errorf("ByName(campaigns) = %q, %v", out, err)
	}
}

func TestTable3IncludesConsensus(t *testing.T) {
	s := &Suite{Quick: true}
	out, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Spearman", "common pairs", "total FEB(-)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 output missing %q", want)
		}
	}
}
