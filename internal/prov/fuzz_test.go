package prov

import "testing"

// FuzzQuery feeds arbitrary SQL through Parse and then Query on a
// fresh PROV-Wf database, seeded with the paper's Figure 10 and 11
// queries. No input may panic; parse and execution errors are fine.
// Under the package's TestMain the planner is also cross-checked
// against the reference executor on every accepted query.
func FuzzQuery(f *testing.F) {
	for _, sql := range []string{
		figure10SQL,
		figure11SQL,
		"SELECT t.status, count(*) FROM hactivation t GROUP BY t.status ORDER BY t.status",
		"SELECT taskid FROM hactivation WHERE actid <= 2 AND taskid > 3 LIMIT 1",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		// Reject unparsable input before paying for a fresh database.
		if _, err := Parse(sql); err != nil {
			return
		}
		db, err := NewProvWfDB()
		if err != nil {
			t.Fatal(err)
		}
		if res, err := db.Query(sql); err == nil && res == nil {
			t.Fatal("Query returned neither a result nor an error")
		}
	})
}
