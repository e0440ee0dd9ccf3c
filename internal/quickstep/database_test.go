package quickstep

import (
	"reflect"
	"sort"
	"testing"

	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/plan"
	"recstep/internal/quickstep/stats"
	"recstep/internal/quickstep/storage"
)

func openTest(t *testing.T) *Database {
	t.Helper()
	db, err := Open(Options{Workers: 2, DisableIO: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func sortedRows(r *storage.Relation) [][]int32 {
	var out [][]int32
	r.ForEach(func(tu []int32) { out = append(out, append([]int32(nil), tu...)) })
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		INSERT INTO arc VALUES (1, 2), (2, 3);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL("SELECT y, x FROM arc")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{2, 1}, {3, 2}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("result = %v, want %v", got, want)
	}
}

func TestJoinQueryMatchesExpected(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		CREATE TABLE tc_delta (x INT, y INT);
		INSERT INTO arc VALUES (2, 4), (3, 5);
		INSERT INTO tc_delta VALUES (1, 2), (1, 3);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL("SELECT t.x AS x, a.y AS y FROM tc_delta AS t, arc AS a WHERE t.y = a.x")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 4}, {1, 5}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE a (x INT, y INT);
		CREATE TABLE b (x INT, y INT);
		CREATE TABLE c (x INT, y INT);
		INSERT INTO a VALUES (1, 10);
		INSERT INTO b VALUES (10, 20), (10, 30);
		INSERT INTO c VALUES (20, 99);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL(`SELECT a.x AS x, c.y AS y FROM a, b, c
		WHERE a.y = b.x AND b.y = c.x`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 99}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("3-way join = %v, want %v", got, want)
	}
}

func TestUnionAllBagSemantics(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		INSERT INTO arc VALUES (1, 2);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL("SELECT x, y FROM arc UNION ALL SELECT x, y FROM arc")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTuples() != 2 {
		t.Fatalf("UNION ALL tuples = %d, want 2", res.NumTuples())
	}
}

func TestInsertSelectAppends(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		CREATE TABLE tc (x INT, y INT);
		INSERT INTO arc VALUES (1, 2), (2, 3);
		INSERT INTO tc SELECT x, y FROM arc;
		INSERT INTO tc SELECT x, y FROM arc;
	`); err != nil {
		t.Fatal(err)
	}
	tc, _ := db.Catalog().Get("tc")
	if tc.NumTuples() != 4 {
		t.Fatalf("tc tuples = %d, want 4 (bag append)", tc.NumTuples())
	}
}

func TestAggregationQuery(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE tc (x INT, y INT);
		INSERT INTO tc VALUES (1, 2), (1, 3), (2, 3);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL("SELECT x, COUNT(y) AS c FROM tc GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 2}, {2, 1}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("agg = %v, want %v", got, want)
	}
}

func TestAggregateSelectOrderReordering(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE tc (x INT, y INT);
		INSERT INTO tc VALUES (1, 5), (1, 7);
	`); err != nil {
		t.Fatal(err)
	}
	// Aggregate listed before the group column.
	res, err := db.ExecSQL("SELECT MIN(y) AS m, x FROM tc GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{5, 1}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("reordered agg = %v, want %v", got, want)
	}
}

func TestNotExistsQuery(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE node (x INT);
		CREATE TABLE tc (x INT, y INT);
		INSERT INTO node VALUES (1), (2);
		INSERT INTO tc VALUES (1, 2);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL(`SELECT n.x AS x, m.x AS y FROM node AS n, node AS m
		WHERE NOT EXISTS (SELECT * FROM tc AS t WHERE t.x = n.x AND t.y = m.x)`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 1}, {2, 1}, {2, 2}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("¬tc = %v, want %v", got, want)
	}
}

func TestSelfJoinWithInequality(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		INSERT INTO arc VALUES (1, 2), (1, 3);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL(`SELECT a.y AS x, b.y AS y FROM arc AS a, arc AS b
		WHERE a.x = b.x AND a.y <> b.y`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{2, 3}, {3, 2}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("sg base = %v, want %v", got, want)
	}
}

func TestDropTable(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`CREATE TABLE tmp (x INT); DROP TABLE tmp;`); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Catalog().Get("tmp"); ok {
		t.Fatal("table survived DROP")
	}
	if _, err := db.ExecSQL("DROP TABLE tmp"); err == nil {
		t.Fatal("dropping missing table should error")
	}
	if _, err := db.ExecSQL("DROP TABLE IF EXISTS tmp"); err != nil {
		t.Fatal(err)
	}
}

func TestErrorPaths(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`CREATE TABLE arc (x INT, y INT)`); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"CREATE TABLE arc (x INT)",          // duplicate
		"INSERT INTO missing VALUES (1)",    // unknown table
		"INSERT INTO arc VALUES (1)",        // arity mismatch
		"INSERT INTO arc SELECT x FROM arc", // arity mismatch via select
		"SELECT z FROM arc",                 // unknown column
	}
	for _, q := range bad {
		if _, err := db.ExecSQL(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestAnalyzeAndStats(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		INSERT INTO arc VALUES (1, 2), (2, 3);
	`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Analyze("arc", stats.ModeSelective)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTuples != 2 {
		t.Fatalf("NumTuples = %d, want 2", st.NumTuples)
	}
	// Mutation invalidates.
	if _, err := db.ExecSQL("INSERT INTO arc VALUES (5, 6)"); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Stats("arc")
	if !ok || got.Fresh {
		t.Fatal("stats should be stale after mutation")
	}
	if _, err := db.Analyze("missing", stats.ModeSelective); err == nil {
		t.Fatal("ANALYZE of missing table should error")
	}
}

func TestDedupAndDiffKernelCalls(t *testing.T) {
	db := openTest(t)
	raw := storage.NewRelation("raw", []string{"x", "y"})
	raw.Append([]int32{1, 1})
	raw.Append([]int32{1, 1})
	raw.Append([]int32{2, 2})
	deduped := db.Dedup(raw, 0, "rdelta")
	if deduped.NumTuples() != 2 {
		t.Fatalf("dedup tuples = %d, want 2", deduped.NumTuples())
	}
	full := storage.NewRelation("full", []string{"x", "y"})
	full.Append([]int32{1, 1})
	delta := db.Diff(deduped, full, exec.OPSD, "delta")
	if delta.NumTuples() != 1 {
		t.Fatalf("diff tuples = %d, want 1", delta.NumTuples())
	}
}

func TestInstallAndAppendTo(t *testing.T) {
	db := openTest(t)
	r := storage.NewRelation("tc", []string{"x", "y"})
	r.Append([]int32{1, 2})
	if err := db.Install(r); err != nil {
		t.Fatal(err)
	}
	d := storage.NewRelation("delta", []string{"x", "y"})
	d.Append([]int32{3, 4})
	if err := db.AppendTo("tc", d); err != nil {
		t.Fatal(err)
	}
	if got := db.Catalog().MustGet("tc").NumTuples(); got != 2 {
		t.Fatalf("tc tuples = %d, want 2", got)
	}
	if err := db.AppendTo("missing", d); err == nil {
		t.Fatal("append to missing table should error")
	}
}

func TestQueriesIssuedCounter(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`CREATE TABLE t (x INT); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if got := db.QueriesIssued(); got != 2 {
		t.Fatalf("QueriesIssued = %d, want 2", got)
	}
	// A statement that fails to parse, or to bind, was never issued.
	for _, bad := range []string{"INSERT INTO t VALUES (", "INSERT INTO t SELECT x FROM missing"} {
		if _, err := db.ExecSQL(bad); err == nil {
			t.Fatalf("%q: malformed statement accepted", bad)
		}
	}
	if got := db.QueriesIssued(); got != 2 {
		t.Fatalf("QueriesIssued = %d after malformed statements, want 2", got)
	}
	if got := db.prepared.Load(); got != 2 {
		t.Fatalf("statements prepared = %d, want 2", got)
	}
	// A bound statement runs as often as it is executed and binds once.
	st, err := db.Prepare("INSERT INTO t VALUES (2)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(st); err != nil {
			t.Fatal(err)
		}
	}
	if got, prep := db.QueriesIssued(), db.prepared.Load(); got != 5 || prep != 3 {
		t.Fatalf("QueriesIssued = %d, statements prepared = %d; want 5 and 3", got, prep)
	}
	if got := db.Catalog().MustGet("t").NumTuples(); got != 4 {
		t.Fatalf("t holds %d tuples, want 4", got)
	}
}

func TestEOSTIntegration(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Workers: 1, EOST: false, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		INSERT INTO arc VALUES (1, 2);
		INSERT INTO arc VALUES (2, 3);
	`); err != nil {
		t.Fatal(err)
	}
	if got := db.Txn().Commits(); got != 2 {
		t.Fatalf("non-EOST commits = %d, want 2", got)
	}

	db2, err := Open(Options{Workers: 1, EOST: true, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		INSERT INTO arc VALUES (1, 2);
		INSERT INTO arc VALUES (2, 3);
	`); err != nil {
		t.Fatal(err)
	}
	if got := db2.Txn().Commits(); got != 0 {
		t.Fatalf("EOST commits before fixpoint = %d, want 0", got)
	}
	if err := db2.FinalCommit(); err != nil {
		t.Fatal(err)
	}
	if got := db2.Txn().Commits(); got != 1 {
		t.Fatalf("EOST commits after FinalCommit = %d, want 1", got)
	}
}

func TestArithmeticInSelect(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE warc (x INT, y INT, d INT);
		INSERT INTO warc VALUES (1, 2, 10);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL("SELECT y, x + d AS v FROM warc")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{2, 11}}
	if got := sortedRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("arith = %v, want %v", got, want)
	}
}

func TestPlanJoinKeys(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		CREATE TABLE tc (x INT, y INT);
		CREATE TABLE tc_d (x INT, y INT)`); err != nil {
		t.Fatal(err)
	}
	bind := func(q string) (*plan.Query, error) {
		st, err := db.Prepare(q)
		if err != nil {
			return nil, err
		}
		return QueryOf(st)
	}
	// Linear-TC shape: the delta enters keyed on its column 1, arc on 0.
	query, err := bind("INSERT INTO tc SELECT t.x, a.y FROM tc_d AS t, arc AS a WHERE t.y = a.x")
	if err != nil {
		t.Fatal(err)
	}
	usage := PlanJoinKeys(query)
	if got := usage["tc_d"]; !reflect.DeepEqual(got, [][]int{{1}}) {
		t.Fatalf("tc_d keysets = %v, want [[1]]", got)
	}
	if got := usage["arc"]; !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Fatalf("arc keysets = %v, want [[0]]", got)
	}

	// Non-linear shape: the full relation enters keyed on column 0 in the
	// same statement; both usages must be reported, deduplicated.
	query, err = bind(
		"SELECT t.x, f.y FROM tc_d AS t, tc AS f WHERE t.y = f.x UNION ALL SELECT t.x, f.y FROM tc_d AS t, tc AS f WHERE t.y = f.x")
	if err != nil {
		t.Fatal(err)
	}
	usage = PlanJoinKeys(query)
	if got := usage["tc"]; !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Fatalf("tc keysets = %v, want [[0]] (deduplicated across branches)", got)
	}
	if got := usage["tc_d"]; !reflect.DeepEqual(got, [][]int{{1}}) {
		t.Fatalf("tc_d keysets = %v, want [[1]]", got)
	}

	if _, err := bind("DROP TABLE arc"); err == nil {
		t.Fatal("a non-query statement yielded a query to plan join keys for")
	}
}

func TestCarriedBuildPartsOverride(t *testing.T) {
	db, err := Open(Options{Workers: 4, DisableIO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`
		CREATE TABLE probe (x INT, y INT);
		CREATE TABLE build (x INT, y INT)`); err != nil {
		t.Fatal(err)
	}
	build, _ := db.Catalog().Get("build")
	probe, _ := db.Catalog().Get("probe")
	rows := make([]int32, 0, 4000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, int32(i), int32(i%97))
	}
	build.AppendRows(rows)
	probe.AppendRows(rows[:400])
	// The optimizer builds on the smaller side — probe here. Carry a
	// join-key partitioning on it, then join on exactly those keys: the
	// build must be served in place, no scatter.
	exec.PartitionRelationCarried(db.Pool(), probe, []int{0}, 32)
	before := db.CopySnapshot()
	if _, err := db.ExecSQL("SELECT p.y, b.y FROM probe AS p, build AS b WHERE p.x = b.x"); err != nil {
		t.Fatal(err)
	}
	d := db.CopySnapshot().Sub(before)
	if d.BuildScattersAvoided != 1 || d.BuildScatters != 0 {
		t.Fatalf("carried join build: avoided=%d scatters=%d, want 1/0", d.BuildScattersAvoided, d.BuildScatters)
	}
}

// A join builds on a relation SetInvariant named from its first use, however
// much larger it is than the other side, and keeps the table there: the next
// join probes it with the other side alone. An undeclared relation is never
// cached, and a mutation retires the table the relation held.
func TestInvariantRelationsCacheTheirBuild(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE d (x INT, y INT);
		CREATE TABLE e (x INT, y INT)`); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Catalog().Get("d")
	e, _ := db.Catalog().Get("e")
	rows := make([]int32, 0, 4000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, int32(i), int32(i+1))
	}
	e.AppendRows(rows)
	d.AppendRows([]int32{0, 5, 0, 7, 0, 2000})
	const join = "SELECT d.x, e.y FROM d, e WHERE d.y = e.x"
	run := func() (*storage.Relation, exec.CopySnapshot) {
		t.Helper()
		before := db.CopySnapshot()
		out, err := db.ExecSQL(join)
		if err != nil {
			t.Fatal(err)
		}
		return out, db.CopySnapshot().Sub(before)
	}
	cached := func() bool {
		_, ok := e.Attachment(exec.BuildCacheKey([]int{0}))
		return ok
	}

	for i := 0; i < 3; i++ {
		if _, c := run(); c.CachedBuildHits != 0 || cached() {
			t.Fatalf("join %d over an undeclared relation cached its build (%d hits)", i, c.CachedBuildHits)
		}
	}

	db.SetInvariant([]string{"e"})
	defer db.ClearInvariant()
	if _, c := run(); c.CachedBuildHits != 0 || !cached() || c.JoinProbeRows != 3 {
		t.Fatalf("first join over a declared relation: %d hits, cached %v, %d rows probed; want 0, true, 3 (d's)",
			c.CachedBuildHits, cached(), c.JoinProbeRows)
	}
	out, c := run()
	if c.CachedBuildHits != 1 || c.JoinProbeRows != 3 || out.NumTuples() != 2 {
		t.Fatalf("second join: %d hits, %d rows probed, %d rows out; want 1, 3, 2", c.CachedBuildHits, c.JoinProbeRows, out.NumTuples())
	}

	e.Append([]int32{2000, 2001})
	if cached() {
		t.Fatal("a mutation of the relation left its table in place")
	}
	out, c = run()
	if c.CachedBuildHits != 0 || out.NumTuples() != 3 {
		t.Fatalf("join after the mutation: %d hits, %d rows out; want a rebuild (0) and the new match (3)", c.CachedBuildHits, out.NumTuples())
	}
	if !cached() {
		t.Fatal("the rebuild after the mutation was not kept")
	}
}

// A zero-value Options runs the engine's own paths, not a scaffolding
// configuration: the planner routes a cyclic three-atom body to the leapfrog
// join and orders a two-atom chain greedily.
func TestZeroOptionsRunTheEnginePaths(t *testing.T) {
	db := openTest(t)
	if err := db.ExecScript(`
		CREATE TABLE arc (x INT, y INT);
		CREATE TABLE tri (x INT, y INT, z INT);
		CREATE TABLE path2 (x INT, y INT);
		INSERT INTO arc VALUES (1, 2), (2, 3), (1, 3), (3, 4);
		INSERT INTO tri SELECT a.x, a.y, b.y FROM arc AS a, arc AS b, arc AS c WHERE a.y = b.x AND b.y = c.y AND a.x = c.x;
		INSERT INTO path2 SELECT a.x, b.y FROM arc AS a, arc AS b WHERE a.y = b.x
	`); err != nil {
		t.Fatal(err)
	}
	tri, _ := db.Catalog().Get("tri")
	if got, want := sortedRows(tri), [][]int32{{1, 2, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("triangles = %v, want %v", got, want)
	}
	strategies := map[int]string{}
	for name, pc := range db.PlanChoices() {
		if prev, ok := strategies[len(pc.Tables)]; ok && prev != pc.Strategy {
			t.Fatalf("%s: %d-atom arms ran both %s and %s", name, len(pc.Tables), prev, pc.Strategy)
		}
		strategies[len(pc.Tables)] = pc.Strategy
	}
	if got := strategies[3]; got != "wcoj" {
		t.Fatalf("cyclic three-atom arm ran %q, want wcoj (plans %v)", got, db.PlanChoices())
	}
	if got := strategies[2]; got != "greedy" {
		t.Fatalf("two-atom arm ran %q, want greedy (plans %v)", got, db.PlanChoices())
	}
}
