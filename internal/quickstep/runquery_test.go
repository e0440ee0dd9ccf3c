package quickstep

import (
	"strings"
	"testing"

	"recstep/internal/quickstep/plan"
)

// A one-arm INSERT … SELECT runs its arm on the calling goroutine at every
// worker count; a k-arm query starts one goroutine for each arm after the
// first.
func TestArmGoroutinesPerQuery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		db, err := Open(Options{Workers: workers, DisableIO: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ExecScript(`
			CREATE TABLE arc (x INT, y INT);
			CREATE TABLE out (x INT, y INT);
			INSERT INTO arc VALUES (1, 2), (2, 3), (3, 4);
		`); err != nil {
			t.Fatal(err)
		}
		one, err := db.Prepare("INSERT INTO out SELECT a.x, b.y FROM arc a, arc b WHERE a.y = b.x")
		if err != nil {
			t.Fatal(err)
		}
		three, err := db.Prepare("INSERT INTO out SELECT x, y FROM arc UNION ALL " +
			"SELECT a.x, b.y FROM arc a, arc b WHERE a.y = b.x UNION ALL SELECT y, x FROM arc")
		if err != nil {
			t.Fatal(err)
		}
		before := db.ArmGoroutines()
		for i := 0; i < 1000; i++ {
			if _, err := db.Exec(one); err != nil {
				t.Fatal(err)
			}
		}
		if got := db.ArmGoroutines() - before; got != 0 {
			t.Fatalf("workers=%d: 1000 one-arm queries started %d arm goroutines, want 0", workers, got)
		}
		before = db.ArmGoroutines()
		for i := 0; i < 10; i++ {
			if _, err := db.Exec(three); err != nil {
				t.Fatal(err)
			}
		}
		if got := db.ArmGoroutines() - before; got != 20 {
			t.Fatalf("workers=%d: 10 three-arm queries started %d arm goroutines, want 20", workers, got)
		}
		out, _ := db.Catalog().Get("out")
		if got, want := out.NumTuples(), 1000*2+10*(3+2+3); got != want {
			t.Fatalf("workers=%d: out holds %d rows, want %d", workers, got, want)
		}
		db.Close()
	}
}

// A panic raised in a query's arm — arm 0 on the calling goroutine or a later
// arm on its own — is contained as the query's error and the run's failure,
// and the result a sibling arm completed is released.
func TestArmPanicIsContained(t *testing.T) {
	for _, bad := range []int{0, 1} {
		db := openTest(t)
		if err := db.ExecScript(`
			CREATE TABLE arc (x INT, y INT);
			INSERT INTO arc VALUES (1, 2), (2, 3), (3, 4);
		`); err != nil {
			t.Fatal(err)
		}
		st, err := db.Prepare("SELECT a.x, b.y FROM arc a, arc b WHERE a.y = b.x")
		if err != nil {
			t.Fatal(err)
		}
		good, _ := QueryOf(st)
		// Two atoms but one offset: planning the branch indexes past Offsets.
		malformed := &plan.Branch{Tables: []string{"arc", "arc"}, Offsets: []int{0}, Arities: []int{2, 2}}
		branches := []*plan.Branch{good.Branches[0], good.Branches[0]}
		branches[bad] = malformed
		live := db.MemSnapshot().LiveTotal
		_, err = db.Exec(plan.SelectStmt{Query: &plan.Query{Branches: branches, OutCols: good.OutCols}})
		if err == nil || !strings.Contains(err.Error(), "query branch panic") {
			t.Fatalf("malformed arm %d: err = %v, want a contained branch panic", bad, err)
		}
		if db.Err() == nil {
			t.Fatalf("malformed arm %d: the panic was not recorded as the run's failure", bad)
		}
		if got := db.MemSnapshot().LiveTotal; got != live {
			t.Fatalf("malformed arm %d: %d live pooled bytes after the failed query, %d before", bad, got, live)
		}
	}
}
