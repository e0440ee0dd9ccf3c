package recstep

import (
	"reflect"
	"testing"

	"recstep/internal/core"
	"recstep/internal/experiments"
	"recstep/internal/graphs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// Every ablation configuration (UIE/OOF/DSD/EOST/Dedup toggles) must produce
// identical relation contents whether hash builds run radix-partitioned or
// through the single shared table of -partitions 1 — partitioning is a
// physical layout choice, never a semantic one.
func TestAblationConfigsPartitionedMatchesSerial(t *testing.T) {
	arc := graphs.GnP(120, 0.05, 11)
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": arc}

	run := func(opts core.Options) []int32 {
		t.Helper()
		if !opts.DisableIO {
			opts.SpillDir = t.TempDir()
		}
		res, err := core.New(opts).Run(prog, edbs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Relations["tc"].SortedRows()
	}

	for _, cfg := range experiments.AblationConfigs(4) {
		t.Run(cfg.Name, func(t *testing.T) {
			serial := cfg.Opts
			serial.Partitions = 1
			partitioned := cfg.Opts
			// Force partitioning even on this small workload so the radix
			// path actually executes.
			partitioned.Partitions = 16
			got, want := run(partitioned), run(serial)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partitioned tc (%d rows) diverges from serial (%d rows)", len(got)/2, len(want)/2)
			}
		})
	}
}

// The partitioning knob must also hold for programs exercising set
// difference with multi-column keys, negation (anti join) and aggregation.
func TestPartitionedMatchesSerialAcrossPrograms(t *testing.T) {
	arc := graphs.GnP(80, 0.05, 7)
	for _, name := range []string{"sg", "ntc", "gtc"} {
		t.Run(name, func(t *testing.T) {
			prog, err := programs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			edbs := map[string]*storage.Relation{"arc": arc}
			serial := core.DefaultOptions()
			serial.Partitions = 1
			partitioned := core.DefaultOptions()
			partitioned.Partitions = 16
			a, err := core.New(partitioned).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.New(serial).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			for rel, pr := range a.Relations {
				if !reflect.DeepEqual(pr.SortedRows(), b.Relations[rel].SortedRows()) {
					t.Fatalf("%s: partitioned %s diverges from serial", name, rel)
				}
			}
		})
	}
}
