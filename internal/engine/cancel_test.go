package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/workflow"
)

// abortedRows counts hactivation rows carrying the campaign-cancelled
// abort marker and verifies every row reached a terminal status (no
// RUNNING rows may survive a cancelled run).
func abortedRows(t *testing.T, e *Engine) int {
	t.Helper()
	res, err := e.DB.Query("SELECT t.status, t.command FROM hactivation t")
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range res.Rows {
		status := fmt.Sprint(r[0])
		if status == "RUNNING" {
			t.Errorf("cancelled run left a RUNNING activation: %v", r)
		}
		if strings.Contains(fmt.Sprint(r[1]), "# aborted: "+cancelReason) {
			if status != "ABORTED" {
				t.Errorf("cancel marker on non-ABORTED row: %v", r)
			}
			cancelled++
		}
	}
	return cancelled
}

// TestRunContextPreCancelled pins the deterministic fast path: a
// context cancelled before Run places anything aborts every admitted
// activation.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := New(Options{Cores: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunContext(ctx, toyWorkflow(), inputRelation(6))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run returned nil report")
	}
	// The six source activations were admitted and must be accounted
	// for; downstream work never materialized.
	if rep.Aborted != 6 || rep.Activations != 6 {
		t.Errorf("activations/aborted = %d/%d, want 6/6", rep.Activations, rep.Aborted)
	}
	if got := abortedRows(t, e); got != 6 {
		t.Errorf("%d cancel-aborted prov rows, want 6", got)
	}
}

// TestRunContextCancelMidFlight cancels while bodies are blocked
// in-flight: the run must return ErrCancelled with a partial report,
// close the pending tail as ABORTED in provenance, and release every
// CPU token back to the campaign's account.
func TestRunContextCancelMidFlight(t *testing.T) {
	started := make(chan struct{}, 32)
	release := make(chan struct{})
	w := toyWorkflow()
	inner := w.Activities[0].Run
	w.Activities[0].Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		started <- struct{}{}
		<-release
		return inner(in)
	}

	pool := parallel.NewPool(4)
	acct := pool.NewAccount()
	defer acct.Close()
	e, err := New(Options{Cores: 4, Parallelism: 2, Tokens: acct})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started // at least one body is in flight
		cancel()
		close(release)
	}()
	rep, err := e.RunContext(ctx, w, inputRelation(8))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run returned nil report")
	}
	if rep.Aborted < 1 {
		t.Errorf("mid-flight cancel aborted %d activations, want ≥ 1", rep.Aborted)
	}
	if got := abortedRows(t, e); got < 1 {
		t.Errorf("%d cancel-aborted prov rows, want ≥ 1", got)
	}
	if held := acct.Held(); held != 0 {
		t.Errorf("campaign account still holds %d tokens after cancel", held)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Errorf("pool still has %d tokens out after cancel", inUse)
	}
}

// TestRunTokensAccountIdentical pins that routing the engine's
// fan-outs through a per-campaign token account leaves the run's
// observable results — report counts, outputs, provenance rows —
// identical to the raw global pool (virtual determinism is
// independent of worker counts).
func TestRunTokensAccountIdentical(t *testing.T) {
	pool := parallel.NewPool(2)
	acct := pool.NewAccount()
	defer acct.Close()
	base, baseRep := runEngine(t, Options{Cores: 4, Parallelism: 4}, toyWorkflow(), 12)
	withAcct, acctRep := runEngine(t, Options{Cores: 4, Parallelism: 4, Tokens: acct}, toyWorkflow(), 12)
	assertGolden(t, withAcct, acctRep, goldenOf(t, base, baseRep))
	if held := acct.Held(); held != 0 {
		t.Errorf("account holds %d tokens after run", held)
	}
}

// TestRunContextBackgroundUnchanged guards the refactor: Run is
// exactly RunContext(Background) and completes normally.
func TestRunContextBackgroundUnchanged(t *testing.T) {
	e, err := New(Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunContext(context.Background(), toyWorkflow(), inputRelation(10))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e2.Run(toyWorkflow(), inputRelation(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(provRows(t, e), provRows(t, e2)) {
		t.Error("RunContext(Background) and Run produced different provenance")
	}
	if rep.Activations != rep2.Activations || len(rep.Outputs) != len(rep2.Outputs) {
		t.Errorf("reports diverge: %+v vs %+v", rep, rep2)
	}
}
