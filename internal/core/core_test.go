package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/prep"
	"repro/internal/prov"
	"repro/internal/sched"
)

func smokeConfig(t *testing.T, mode Mode, nr, nl int) Config {
	t.Helper()
	ds, err := data.Small(nr, nl)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mode: mode, Dataset: ds, Cores: 8, Effort: SmokeEffort(),
		Seed: 1, HgGuard: true, DisableFailures: false,
	}
}

func TestBuildWorkflowStructure(t *testing.T) {
	cfg := smokeConfig(t, ModeAD4, 2, 2)
	w, err := BuildWorkflow(cfg, prep.ProgramAD4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Activities) != 8 {
		t.Errorf("activities = %d, want 8 (Figure 1)", len(w.Activities))
	}
	tags := []string{}
	order, _ := w.TopoOrder()
	for _, a := range order {
		tags = append(tags, a.Tag)
	}
	want := []string{
		sched.TagBabel, sched.TagLigPrep, sched.TagRecPrep, sched.TagGPF,
		sched.TagAutoGrid, sched.TagFilter, sched.TagDockPrep, sched.TagDockAD4,
	}
	if strings.Join(tags, ",") != strings.Join(want, ",") {
		t.Errorf("chain = %v", tags)
	}
	wv, err := BuildWorkflow(cfg, prep.ProgramVina)
	if err != nil {
		t.Fatal(err)
	}
	last := wv.Activities[len(wv.Activities)-1]
	if last.Tag != sched.TagDockVina {
		t.Errorf("vina chain ends with %s", last.Tag)
	}
}

func TestRunSmokeCampaignAD4(t *testing.T) {
	camp, err := Run(smokeConfig(t, ModeAD4, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Reports) != 1 {
		t.Fatalf("reports = %d", len(camp.Reports))
	}
	rep := camp.Reports[0]
	if rep.Activations == 0 || rep.TET <= 0 {
		t.Errorf("report = %+v", rep)
	}
	// Provenance accumulated: 8 activities.
	if n := camp.Engine.DB.NumRows(prov.TableActivity); n != 8 {
		t.Errorf("hactivity rows = %d", n)
	}
	// Docking extractor rows exist for surviving pairs.
	res, err := camp.Engine.DB.Query("SELECT count(*) FROM ddocking")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) == 0 {
		t.Error("no docking rows extracted")
	}
	// DLG files on the shared FS, discoverable via Query 2.
	q2, err := camp.Engine.DB.Query(`SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir
FROM hworkflow w, hactivity a, hfile f
WHERE w.wkfid = a.wkfid AND a.actid = f.actid AND f.fname LIKE '%.dlg'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Rows) == 0 {
		t.Error("Query 2 found no .dlg files")
	}
	for _, row := range q2.Rows {
		if !strings.HasPrefix(row[4].(string), camp.Config.ExpDir) {
			t.Errorf("dlg dir = %v", row[4])
		}
	}
}

func TestRunVinaAndExtractorFields(t *testing.T) {
	camp, err := Run(smokeConfig(t, ModeVina, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Engine.DB.Query(
		"SELECT program, feb, rmsd, nruns FROM ddocking")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no docking rows")
	}
	for _, row := range res.Rows {
		if row[0].(string) != "vina" {
			t.Errorf("program = %v", row[0])
		}
		if math.IsNaN(row[1].(float64)) {
			t.Error("NaN feb")
		}
		if row[3].(int64) < 1 {
			t.Error("no runs recorded")
		}
	}
}

func TestAdaptiveModeRunsTwoWorkflows(t *testing.T) {
	// Pick receptors covering both size classes.
	small, large := "", ""
	for _, code := range data.ReceptorCodes {
		meta := data.ReceptorMeta(code)
		if meta.ContainsHg {
			continue
		}
		if meta.Class == data.SmallReceptor && small == "" {
			small = code
		}
		if meta.Class == data.LargeReceptor && large == "" {
			large = code
		}
		if small != "" && large != "" {
			break
		}
	}
	cfg := Config{
		Mode:    ModeAdaptive,
		Dataset: data.Dataset{Receptors: []string{small, large}, Ligands: []string{"042"}},
		Cores:   4, Effort: SmokeEffort(), HgGuard: true,
	}
	camp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Reports) != 2 {
		t.Fatalf("adaptive mode reports = %d, want 2 workflows", len(camp.Reports))
	}
	// Each program docked exactly its size class.
	res, err := camp.Engine.DB.Query("SELECT program, receptor FROM ddocking")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		rec := row[1].(string)
		wantProgram := "autodock4"
		if data.ReceptorMeta(rec).Class == data.LargeReceptor {
			wantProgram = "vina"
		}
		if row[0].(string) != wantProgram {
			t.Errorf("receptor %s docked by %v, want %s", rec, row[0], wantProgram)
		}
	}
	if camp.TET() <= camp.Reports[0].TET {
		t.Error("campaign TET should sum workflows")
	}
}

func TestHgGuardAbortsBeforeExecution(t *testing.T) {
	var hgCode string
	for _, code := range data.ReceptorCodes {
		if data.ReceptorMeta(code).ContainsHg {
			hgCode = code
			break
		}
	}
	if hgCode == "" {
		t.Fatal("no Hg receptor in dataset")
	}
	cfg := Config{
		Mode:    ModeAD4,
		Dataset: data.Dataset{Receptors: []string{hgCode}, Ligands: []string{"042"}},
		Cores:   2, Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
	}
	camp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Engine.DB.Query(
		"SELECT status, command FROM hactivation WHERE status = 'ABORTED'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][1].(string), "Hg present") {
		t.Errorf("guard rows: %v", res.Rows)
	}
	// With the guard the abort is instantaneous (no loop timeout).
	dur, err := camp.Engine.DB.Query(
		"SELECT extract('epoch' from (endtime - starttime)) FROM hactivation WHERE status = 'ABORTED'")
	if err != nil {
		t.Fatal(err)
	}
	if secs := dur.Rows[0][0].(float64); secs > 1 {
		t.Errorf("guarded abort took %v virtual seconds", secs)
	}

	// Without the guard, the same receptor loops and burns the
	// timeout budget.
	cfg.HgGuard = false
	camp2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur2, err := camp2.Engine.DB.Query(
		"SELECT extract('epoch' from (endtime - starttime)) FROM hactivation WHERE status = 'ABORTED'")
	if err != nil {
		t.Fatal(err)
	}
	if len(dur2.Rows) != 1 {
		t.Fatalf("unguarded aborted rows = %d", len(dur2.Rows))
	}
	if secs := dur2.Rows[0][0].(float64); secs < sched.LoopTimeout*0.4 {
		t.Errorf("unguarded loop charged only %v seconds", secs)
	}
}

func TestProblematicLigandLoops(t *testing.T) {
	var bad string
	for _, code := range data.LigandCodes {
		if data.LigandMeta(code).Problematic {
			bad = code
			break
		}
	}
	if bad == "" {
		t.Fatal("no problematic ligand")
	}
	rec := ""
	for _, code := range data.ReceptorCodes {
		if !data.ReceptorMeta(code).ContainsHg {
			rec = code
			break
		}
	}
	cfg := Config{
		Mode:    ModeAD4,
		Dataset: data.Dataset{Receptors: []string{rec}, Ligands: []string{bad}},
		Cores:   2, Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
	}
	camp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Reports[0].Aborted == 0 {
		t.Error("problematic ligand did not loop")
	}
	// Blacklisting it (steering) lets it dock.
	cfg.LigandBlacklist = map[string]bool{bad: true}
	camp2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := camp2.Engine.DB.Query("SELECT count(*) FROM ddocking")
	if res.Rows[0][0].(int64) != 1 {
		t.Error("blacklisted ligand did not dock")
	}
}

func TestTable3Analysis(t *testing.T) {
	camp, err := Run(smokeConfig(t, ModeAD4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table3(camp.Engine.DB, camp.Config.Dataset.Ligands)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Table 3 rows")
	}
	for _, r := range rows {
		if r.Program != "autodock4" {
			t.Errorf("unexpected program %s", r.Program)
		}
		if r.NegFEB > r.NDocked {
			t.Errorf("neg count %d exceeds docked %d", r.NegFEB, r.NDocked)
		}
		if r.NegFEB > 0 && r.AvgFEB >= 0 {
			t.Errorf("avg FEB of negatives is %v", r.AvgFEB)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "FEB(-)") {
		t.Errorf("format:\n%s", out)
	}
	top, err := TopInteractions(camp.Engine.DB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Error("no top interactions")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Cores: 0, Dataset: data.Full()}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := Run(Config{Cores: 2}); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := smokeConfig(t, ModeAD4, 1, 1)
	bad.Effort.GridNPts = 1
	if _, err := Run(bad); err == nil {
		t.Error("bad effort accepted")
	}
	if ModeAD4.String() != "ad4" || ModeVina.String() != "vina" || ModeAdaptive.String() != "adaptive" {
		t.Error("mode names")
	}
}

func TestLigandFrameOffsetProperties(t *testing.T) {
	seen := map[string]bool{}
	for _, code := range data.LigandCodes {
		off := ligandFrameOffset(code)
		mag := off.Norm()
		if mag < 47 || mag > 63 {
			t.Errorf("ligand %s frame offset %.1f Å outside 48-62", code, mag)
		}
		key := off.String()
		if seen[key] {
			t.Errorf("duplicate frame offset for %s", code)
		}
		seen[key] = true
		if ligandFrameOffset(code) != off {
			t.Errorf("offset not deterministic for %s", code)
		}
	}
}

func TestCalibrationMonotone(t *testing.T) {
	if calibrateAD4(-10) >= calibrateAD4(-5) {
		t.Error("AD4 calibration must preserve order")
	}
	if calibrateVina(-10) >= calibrateVina(-5) {
		t.Error("Vina calibration must preserve order")
	}
}

func TestTypesKeyCanonical(t *testing.T) {
	a := typesKey([]chem.AtomType{chem.TypeC, chem.TypeN, chem.TypeOA})
	b := typesKey([]chem.AtomType{chem.TypeOA, chem.TypeC, chem.TypeN})
	if a != b {
		t.Errorf("permuted type lists got different keys: %q vs %q", a, b)
	}
	c := typesKey([]chem.AtomType{chem.TypeC, chem.TypeC, chem.TypeN, chem.TypeOA, chem.TypeOA})
	if c != a {
		t.Errorf("duplicated type list got different key: %q vs %q", c, a)
	}
	if d := typesKey([]chem.AtomType{chem.TypeC, chem.TypeHD}); d == a {
		t.Error("distinct type sets must not collide")
	}
	if typesKey(nil) != "" {
		t.Errorf("empty list key = %q", typesKey(nil))
	}
}
