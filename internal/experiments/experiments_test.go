package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Workers: 2, Quick: true}

func TestRunAllEnginesOnTC(t *testing.T) {
	w := TCWorkload(GnpSpec{Label: "G100", N: 100, P: 0.05})
	for _, e := range AllEngines() {
		r := Run(e, w, quick)
		if r.Err != nil {
			t.Fatalf("%s: %v", e, r.Err)
		}
		if r.Tuples == 0 || r.Time <= 0 {
			t.Fatalf("%s: empty result %+v", e, r)
		}
	}
}

func TestEnginesAgreeOnTuples(t *testing.T) {
	w := TCWorkload(GnpSpec{Label: "G80", N: 80, P: 0.05})
	var counts []int
	for _, e := range AllEngines() {
		r := Run(e, w, quick)
		if r.Err != nil {
			t.Fatalf("%s: %v", e, r.Err)
		}
		counts = append(counts, r.Tuples)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("tuple counts disagree: %v", counts)
		}
	}
}

func TestUnsupportedCombos(t *testing.T) {
	cc := RMATWorkload("cc", 1<<10)
	if r := Run(Native, cc, quick); !errors.Is(r.Err, ErrUnsupported) {
		t.Fatalf("native cc should be unsupported, got %+v", r)
	}
	if r := Run(Worklist, cc, quick); !errors.Is(r.Err, ErrUnsupported) {
		t.Fatalf("worklist cc should be unsupported, got %+v", r)
	}
	aa := AndersenWorkload(1, quick)
	if r := Run(Worklist, aa, quick); !errors.Is(r.Err, ErrUnsupported) {
		t.Fatalf("worklist aa should be unsupported, got %+v", r)
	}
}

func TestOOMBudget(t *testing.T) {
	cfg := quick
	cfg.MemBudgetBytes = 1 << 16 // 64 KiB: nothing quadratic fits
	w := TCWorkload(GnpSpec{Label: "G300", N: 300, P: 0.05})
	if r := Run(Naive, w, cfg); !errors.Is(r.Err, ErrOOM) {
		t.Fatalf("naive under tiny budget should OOM, got %+v", r)
	}
	// PBME fits comfortably where tuple engines do not.
	cfg.MemBudgetBytes = 1 << 20
	if r := Run(RecStep, w, cfg); r.Err != nil {
		t.Fatalf("PBME should fit 1MiB for n=300: %+v", r)
	}
	if r := Run(Native, w, cfg); !errors.Is(r.Err, ErrOOM) {
		t.Fatalf("native should exceed 1MiB budget, got %+v", r)
	}
}

func TestRunSampledCollectsMetrics(t *testing.T) {
	w := CSPAWorkload("httpd", quick)
	r := RunSampled(RecStep, w, quick)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.PeakHeap == 0 {
		t.Fatal("no memory sampled")
	}
	if r.AvgCPU <= 0 || r.AvgCPU > 1 {
		t.Fatalf("CPU utilisation %.3f outside (0, 1]", r.AvgCPU)
	}
}

func TestFig4SQLForms(t *testing.T) {
	unified, individual, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unified, "UNION ALL") {
		t.Fatalf("unified form missing UNION ALL: %s", unified)
	}
	if !strings.Contains(individual, "pointsTo_mtmp_0") {
		t.Fatalf("individual form missing part tables: %s", individual)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
		Notes:  []string{"n"},
	}
	s := tbl.String()
	for _, want := range []string{"T\n", "xxx", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestStaticTables(t *testing.T) {
	if len(Table1().Rows) != 9 {
		t.Fatal("Table 1 should have 9 aspects")
	}
	if len(Table3().Rows) != 8 {
		t.Fatal("Table 3 should have 8 programs")
	}
}

func TestQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figures are slow")
	}
	figs := map[string]func(Config) Table{
		"fig2": Fig2, "fig6": Fig6, "fig7": Fig7, "fig9": Fig9,
		"fig11": Fig11, "fig15": Fig15, "fig16": Fig16,
	}
	for name, fn := range figs {
		tbl := fn(quick)
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", name)
		}
		if name != "fig16" {
			continue
		}
		// Utilisation is a share of the machine: no row may exceed 100 %.
		for _, row := range tbl.Rows {
			util, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
			if err != nil || util < 0 || util > 100 {
				t.Errorf("fig16 %s/%s: utilisation %q outside [0, 100] %%", row[0], row[1], row[2])
			}
		}
	}
}

func TestAblationConfigsCount(t *testing.T) {
	cfgs := AblationConfigs(2)
	if len(cfgs) != 8 {
		t.Fatalf("ablation configs = %d, want 8 (Figure 2 bars)", len(cfgs))
	}
	if cfgs[0].Name != "RecStep" || cfgs[len(cfgs)-1].Name != "NO-OP" {
		t.Fatal("ablation order must start at RecStep and end at NO-OP")
	}
}

func TestBenchObsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("benchobs runs several fixpoints")
	}
	rep, err := BenchObs(quick)
	if err != nil {
		t.Fatal(err)
	}
	if rep.On.Tuples == 0 || rep.On.Tuples != rep.Off.Tuples {
		t.Fatalf("arms disagree or empty: %+v vs %+v", rep.On, rep.Off)
	}
	if len(rep.On.TrialNs) != rep.Trials || len(rep.Off.TrialNs) != rep.Trials {
		t.Fatalf("trial counts: %d/%d, want %d", len(rep.On.TrialNs), len(rep.Off.TrialNs), rep.Trials)
	}
	if len(rep.PhaseMs) == 0 {
		t.Error("instrumented arm collected no phase durations")
	}
	if rep.MetricLines == 0 {
		t.Error("registry exported no metrics")
	}
	tbl := BenchObsTable(rep)
	if !strings.Contains(tbl.String(), "obs-on") {
		t.Errorf("table rendering missing arms:\n%s", tbl.String())
	}
}
