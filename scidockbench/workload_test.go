package main

import (
	"reflect"
	"testing"

	"repro/internal/data"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
	}
}

// TestSeedsChangeInputs checks that the seed moves what the cost model
// keys on — the dataset codes or sizes and the schedule — not only
// Spec.Seed.
func TestSeedsChangeInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(codes(a), codes(b)) {
			t.Errorf("%s: seeds 1 and 2 chose the same dataset codes", w)
		}
		if w == wlServe && reflect.DeepEqual(a.Schedule, b.Schedule) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", w)
		}
	}
}

func codes(in *inputs) [][]string {
	var out [][]string
	for _, c := range in.Campaigns {
		out = append(out, append(append([]string(nil), c.Receptors...), c.Ligands...))
	}
	return out
}

// TestScreenInputsWellFormed checks each screen's campaigns: the size
// class its mode needs, no Hg receptor, no looping ligand, no code
// twice in a pass, and (Vina) every well-behaved ligand once.
func TestScreenInputsWellFormed(t *testing.T) {
	for _, tc := range []struct {
		workload string
		class    data.SizeClass
		allLigs  bool
	}{{wlVina, data.LargeReceptor, true}, {wlAD4, data.SmallReceptor, false}} {
		in, err := generate(tc.workload, 3)
		if err != nil {
			t.Fatal(err)
		}
		recs, ligs := map[string]int{}, map[string]int{}
		for _, c := range in.Campaigns {
			for _, r := range c.Receptors {
				m := data.ReceptorMeta(r)
				if m.Class != tc.class || m.ContainsHg {
					t.Errorf("%s: receptor %s has class %v, Hg %v", tc.workload, r, m.Class, m.ContainsHg)
				}
				recs[r]++
			}
			for _, l := range c.Ligands {
				if data.LigandMeta(l).Problematic {
					t.Errorf("%s: ligand %s loops", tc.workload, l)
				}
				ligs[l]++
			}
		}
		for code, n := range recs {
			if n > 1 {
				t.Errorf("%s: receptor %s drawn %d times", tc.workload, code, n)
			}
		}
		for code, n := range ligs {
			if n > 1 {
				t.Errorf("%s: ligand %s drawn %d times", tc.workload, code, n)
			}
		}
		if tc.allLigs {
			want := 0
			for _, l := range data.LigandCodes {
				if !data.LigandMeta(l).Problematic {
					want++
				}
			}
			if len(ligs) != want {
				t.Errorf("%s: %d distinct ligands per pass, want all %d", tc.workload, len(ligs), want)
			}
		}
	}
}

func TestServeScheduleShape(t *testing.T) {
	in, err := generate(wlServe, 5)
	if err != nil {
		t.Fatal(err)
	}
	perTenant := map[string]int{}
	for i, s := range in.Schedule {
		if i > 0 && s.Due < in.Schedule[i-1].Due {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if s.Input < 0 || s.Input >= len(in.Campaigns) || in.Campaigns[s.Input].Spec == nil {
			t.Fatalf("submission %d names input %d", i, s.Input)
		}
		perTenant[s.Tenant]++
	}
	if len(perTenant) != len(serveTenants) || perTenant[serveTenants[0]] != perTenant[serveTenants[1]] {
		t.Errorf("submissions per tenant %v, want equal counts for %v", perTenant, serveTenants)
	}
	if last := in.Schedule[len(in.Schedule)-1].Due; last < 60e9 {
		t.Errorf("schedule ends at %v, shorter than the longest window", last)
	}
}
