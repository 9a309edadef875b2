package engine

import (
	"os"
	"testing"

	"repro/internal/prov"
)

// TestMain turns on the prov query cross-check: the engine tests'
// row-level goldens (recorded equivalence pins, failure injection,
// runtime steering queries) all read provenance through Query, so
// with the oracle on they also pin the indexed planner against the
// reference executor on live engine-shaped data.
func TestMain(m *testing.M) {
	prov.CrossCheck = true
	os.Exit(m.Run())
}
