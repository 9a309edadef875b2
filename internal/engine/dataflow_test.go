package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/workflow"
)

// runEngine executes one workflow on a fresh engine and returns
// engine + report.
func runEngine(t *testing.T, opts Options, w *workflow.Workflow, n int) (*Engine, *Report) {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(w, inputRelation(n))
	if err != nil {
		t.Fatal(err)
	}
	return e, rep
}

// countsOf strips an ActivityStats list down to the schedule-invariant
// fields (timing depends on placement order).
func countsOf(per []ActivityStats) []ActivityStats {
	out := make([]ActivityStats, len(per))
	for i, s := range per {
		out[i] = ActivityStats{Tag: s.Tag, Activations: s.Activations,
			Failures: s.Failures, Aborted: s.Aborted}
	}
	return out
}

func sortedTuples(ts []workflow.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

// sortedRows runs a query and returns its rows as a sorted multiset
// of their printed form.
func sortedRows(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	res, err := e.DB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return rows
}

// provRows returns the hactivation rows as a sorted multiset of their
// placement-order-independent fields (taskids number placements).
func provRows(t *testing.T, e *Engine) []string {
	t.Helper()
	return sortedRows(t, e, "SELECT t.actid, t.status, t.failures, t.command FROM hactivation t")
}

// dockingRows returns the ddocking rows modulo taskid, sorted.
func dockingRows(t *testing.T, e *Engine) []string {
	t.Helper()
	return sortedRows(t, e, "SELECT d.receptor, d.ligand, d.program, d.feb, d.rmsd, d.nruns FROM ddocking d")
}

// digest is the hex SHA-256 of newline-joined rows.
func digest(rows []string) string {
	h := sha256.Sum256([]byte(strings.Join(rows, "\n")))
	return hex.EncodeToString(h[:])
}

// runGolden is a run's schedule-invariant result: per-activity counts,
// the sorted final relation, and the row count and digest of the
// sorted hactivation and ddocking rows. The pinned values were
// recorded from the stage-barrier executor this engine once also
// shipped; on these fixed inputs the dataflow runtime matched it row
// for row.
type runGolden struct {
	counts     []ActivityStats
	outputs    []string
	provN      int
	provSHA    string
	dockingN   int
	dockingSHA string
}

// goldenOf records a run's runGolden.
func goldenOf(t *testing.T, e *Engine, r *Report) runGolden {
	t.Helper()
	prov, dock := provRows(t, e), dockingRows(t, e)
	return runGolden{
		counts:     countsOf(r.PerActivity),
		outputs:    sortedTuples(r.Outputs),
		provN:      len(prov),
		provSHA:    digest(prov),
		dockingN:   len(dock),
		dockingSHA: digest(dock),
	}
}

func assertGolden(t *testing.T, e *Engine, r *Report, want runGolden) {
	t.Helper()
	got := goldenOf(t, e, r)
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Errorf("per-activity counts:\n got  %+v\n want %+v", got.counts, want.counts)
	}
	if !reflect.DeepEqual(got.outputs, want.outputs) {
		t.Errorf("final relation:\n got  %q\n want %q", got.outputs, want.outputs)
	}
	if got.provN != want.provN || got.provSHA != want.provSHA {
		t.Errorf("hactivation rows: %d rows sha256 %s, want %d rows sha256 %s",
			got.provN, got.provSHA, want.provN, want.provSHA)
	}
	if got.dockingN != want.dockingN || got.dockingSHA != want.dockingSHA {
		t.Errorf("ddocking rows: %d rows sha256 %s, want %d rows sha256 %s",
			got.dockingN, got.dockingSHA, want.dockingN, want.dockingSHA)
	}
}

// toyOutputs is the toy chain's final relation on 20 inputs: the
// dockfilter keeps even IDs.
var toyOutputs = []string{
	"ID=m0 MOL2=m0.mol2", "ID=m10 MOL2=m10.mol2", "ID=m12 MOL2=m12.mol2",
	"ID=m14 MOL2=m14.mol2", "ID=m16 MOL2=m16.mol2", "ID=m18 MOL2=m18.mol2",
	"ID=m2 MOL2=m2.mol2", "ID=m4 MOL2=m4.mol2", "ID=m6 MOL2=m6.mol2",
	"ID=m8 MOL2=m8.mol2",
}

// TestDataflowMatchesBarrierGolden pins the equivalence contract: for
// a fixed seed the runtime produces the final output relation,
// per-activity activation/failure/abort counts and provenance rows
// recorded from the stage-barrier executor — with failure injection
// off and on (injected attempts are deterministic per activation key,
// so recovered-failure counts are schedule-invariant).
func TestDataflowMatchesBarrierGolden(t *testing.T) {
	golden := map[bool]runGolden{
		false: {
			counts: []ActivityStats{
				{Tag: "babel", Activations: 20},
				{Tag: "configprep", Activations: 20},
				{Tag: "dockfilter", Activations: 20},
			},
			outputs:    toyOutputs,
			provN:      60,
			provSHA:    "ef7220ff1fde3bb18a3553494abb4e3001f23383429a192910d039ea69b5cd50",
			dockingSHA: digest(nil),
		},
		true: {
			counts: []ActivityStats{
				{Tag: "babel", Activations: 20, Failures: 3},
				{Tag: "configprep", Activations: 20, Failures: 2},
				{Tag: "dockfilter", Activations: 20, Failures: 2},
			},
			outputs:    toyOutputs,
			provN:      60,
			provSHA:    "f005ac3d0b8b64269c1208607c56458ff0d5e650f7dfd32c5df47589d058a4de",
			dockingSHA: digest(nil),
		},
	}
	for _, failures := range []bool{false, true} {
		opts := Options{Cores: 8, DisableFailures: !failures, Parallelism: 4}
		e, r := runEngine(t, opts, toyWorkflow(), 20)
		assertGolden(t, e, r, golden[failures])
	}
}

// faultyWorkflow exercises every failure path: steering aborts (rule
// on IDs ending in 4), looping activations (IDs ending in 1), genuine
// errors (ending in 2), fan-out contract violations (a Map emitting
// two tuples, ending in 3), plus docking extract rows downstream.
func faultyWorkflow() *workflow.Workflow {
	return &workflow.Workflow{
		Tag: "Faulty", Description: "failure paths", ExecTag: "faulty", ExpDir: "/exp/",
		Activities: []*workflow.Activity{
			{
				Tag: "src", Op: workflow.Map, Template: "./src %ID%",
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					switch {
					case strings.HasSuffix(in["ID"], "1"):
						return nil, ErrLoop
					case strings.HasSuffix(in["ID"], "2"):
						return nil, errors.New("segfault in src")
					case strings.HasSuffix(in["ID"], "3"):
						return &workflow.ActivationResult{
							Outputs: []workflow.Tuple{in, in}, // Map contract violation
						}, nil
					}
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in},
						Files: []workflow.OutputFile{{
							Name: in["ID"] + ".out", Dir: "/exp/src/",
							Content: []byte("out " + in["ID"]),
						}},
					}, nil
				},
			},
			{
				Tag: "dock", Op: workflow.Map, Template: "./dock %ID%", Depends: []string{"src"},
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in},
						Extract: map[string]string{
							"receptor": "R_" + in["ID"], "ligand": "L_" + in["ID"],
							"program": "toy", "feb": "-6.25", "rmsd": "1.5", "nruns": "10",
						},
					}, nil
				},
			},
		},
	}
}

// TestDataflowFailurePathsGolden pins ErrLoop, steering aborts,
// genuine errors and CheckFanOut violations to the provenance rows
// and stats recorded from the stage-barrier executor.
func TestDataflowFailurePathsGolden(t *testing.T) {
	abortTrailing4 := func(tag string, tu workflow.Tuple) (string, bool) {
		if tag == "src" && strings.HasSuffix(tu["ID"], "4") {
			return "blocklisted molecule", true
		}
		return "", false
	}
	opts := Options{Cores: 4, DisableFailures: true, Parallelism: 4,
		AbortRules: []AbortRule{abortTrailing4}}
	e, r := runEngine(t, opts, faultyWorkflow(), 30)
	assertGolden(t, e, r, runGolden{
		counts: []ActivityStats{
			{Tag: "src", Activations: 30, Aborted: 12},
			{Tag: "dock", Activations: 18},
		},
		outputs: []string{
			"ID=m0", "ID=m10", "ID=m15", "ID=m16", "ID=m17", "ID=m18",
			"ID=m19", "ID=m20", "ID=m25", "ID=m26", "ID=m27", "ID=m28",
			"ID=m29", "ID=m5", "ID=m6", "ID=m7", "ID=m8", "ID=m9",
		},
		provN:      48,
		provSHA:    "1bcae260df3c6cec6b07d7a01d09636505df9bd9f3fb7b5d3604a6694578aefb",
		dockingN:   18,
		dockingSHA: "41c3b2c31bbd536114fd7e184db47962984eabff1d0230405f3df7f7a6434a58",
	})

	// The workload is built to hit every path; make sure it did, per
	// status.
	res, err := e.DB.Query("SELECT t.status, count(*) FROM hactivation t GROUP BY t.status ORDER BY t.status")
	if err != nil {
		t.Fatal(err)
	}
	// 30 inputs: 3×ErrLoop(ABORTED) + 3×abort-rule(ABORTED),
	// 3×FAILED, the rest FINISHED (incl. 3 fan-out violations
	// which do finish but drop their tuples).
	want := "[[ABORTED 6] [FAILED 3] [FINISHED 39]]"
	if got := fmt.Sprint(res.Rows); got != want {
		t.Errorf("status histogram = %s, want %s", got, want)
	}
	if r.Aborted != 12 {
		// 3 loops + 3 rule aborts + 3 errors + 3 fan-out drops.
		t.Errorf("aborted = %d, want 12", r.Aborted)
	}
}

// reduceWorkflow groups tuples by a 3-way key and emits one summary
// tuple per group.
func reduceWorkflow() *workflow.Workflow {
	return &workflow.Workflow{
		Tag: "Red", Description: "reduce", ExecTag: "red", ExpDir: "/exp/",
		Activities: []*workflow.Activity{
			{
				Tag: "tagger", Op: workflow.Map, Template: "./tag %ID%",
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					g := fmt.Sprintf("g%d", len(in["ID"])%3)
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{"GROUP": g})},
					}, nil
				},
			},
			{
				Tag: "summarize", Op: workflow.Reduce, Template: "./sum %GROUP%",
				Depends: []string{"tagger"}, GroupKey: "GROUP",
				RunReduce: func(group []workflow.Tuple) (*workflow.ActivationResult, error) {
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{{
							"GROUP": group[0]["GROUP"],
							"N":     fmt.Sprintf("%d", len(group)),
						}},
					}, nil
				},
			},
		},
	}
}

// TestDataflowReduceMatchesBarrier checks the per-group barrier: the
// Reduce activity sees exactly the groups the stage-barrier executor
// built (recorded values).
func TestDataflowReduceMatchesBarrier(t *testing.T) {
	opts := Options{Cores: 4, DisableFailures: true, Parallelism: 4}
	e, r := runEngine(t, opts, reduceWorkflow(), 12)
	assertGolden(t, e, r, runGolden{
		counts: []ActivityStats{
			{Tag: "tagger", Activations: 12},
			{Tag: "summarize", Activations: 2},
		},
		outputs:    []string{"GROUP=g0 N=2", "GROUP=g2 N=10"},
		provN:      14,
		provSHA:    "255d2a98f884a563a96d5b56e8cabb8427d49fb87f4d5020648919ba2de065de",
		dockingSHA: digest(nil),
	})
}

// TestDataflowDeterministic runs the pipelined runtime twice with
// failure injection on (~10% per attempt) and a wide worker pool:
// virtual time, stats and provenance must be bit-identical even
// though wall-clock body completion order is not. Under check.sh this
// runs with -race, covering dispatcher/pool synchronization.
func TestDataflowDeterministic(t *testing.T) {
	run := func() (*Engine, *Report) {
		return runEngine(t, Options{Cores: 16, Parallelism: 8}, faultyWorkflow(), 40)
	}
	e1, r1 := run()
	e2, r2 := run()
	if r1.TET != r2.TET {
		t.Errorf("TET not deterministic: %v vs %v", r1.TET, r2.TET)
	}
	if !reflect.DeepEqual(r1.PerActivity, r2.PerActivity) {
		t.Errorf("per-activity stats not deterministic:\n%+v\n%+v", r1.PerActivity, r2.PerActivity)
	}
	if r1.Failures == 0 {
		t.Error("expected injected failures at the default ~10% rate")
	}
	q := "SELECT t.taskid, t.status, t.starttime, t.endtime, t.vmid, t.failures, t.command FROM hactivation t ORDER BY t.taskid"
	res1, err := e1.DB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.DB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(res1.Rows), fmt.Sprint(res2.Rows); got != want {
		t.Error("hactivation timeline not deterministic across runs")
	}
}

// barrierStragglerTET is the virtual TET the stage-barrier executor
// recorded on TestDataflowBeatsBarrierOnStragglers' workload.
const barrierStragglerTET = 1885.3308177130352

// TestDataflowBeatsBarrierOnStragglers reproduces the motivating
// scenario: a looping activation charges the 1800s loop timeout on
// one core; a stage barrier idles the whole fleet behind it, the
// dataflow runtime lets every other tuple stream past. It checks the
// TET against the barrier's recorded one, and the structural
// pipelining evidence — a downstream activation starts before the
// slowest upstream one ends, which a barrier forbids.
func TestDataflowBeatsBarrierOnStragglers(t *testing.T) {
	e, r := runEngine(t, Options{Cores: 8, Parallelism: 4}, faultyWorkflow(), 40)
	if r.TET >= barrierStragglerTET {
		t.Errorf("pipelined TET %.3f not faster than barrier %.3f despite stragglers", r.TET, barrierStragglerTET)
	}
	overlapQ := `SELECT count(*)
FROM hactivity a, hactivation t, hactivity a2, hactivation t2
WHERE a.actid = t.actid AND a2.actid = t2.actid
AND a.tag = 'dock' AND a2.tag = 'src'
AND extract ('epoch' from (t2.endtime-t.starttime)) > 0`
	res, err := e.DB.Query(overlapQ)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n == 0 {
		t.Error("no dock activation started before the last src activation ended")
	}
}

// TestParseFloatDefault pins the strict float parsing of extractor
// fields (Sscanf used to accept garbage-suffixed input).
func TestParseFloatDefault(t *testing.T) {
	def := -1.0
	cases := []struct {
		in   string
		want float64
	}{
		{"", def},
		{"abc", def},
		{"1.5abc", def}, // the Sscanf regression: partial parse
		{"1.5.6", def},
		{"1e", def},
		{"--2", def},
		{" 2.5", def}, // no whitespace tolerance
		{"0", 0},
		{"-6.25", -6.25},
		{"1.5", 1.5},
		{"2.5e3", 2500},
		{"2.5E-2", 0.025},
		{"1e4", 10000},
		{".5", 0.5},
	}
	for _, c := range cases {
		if got := parseFloatDefault(c.in, def); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("parseFloatDefault(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
