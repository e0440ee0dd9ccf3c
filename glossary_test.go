package recstep

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/obs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// glossaryName matches one backticked family in a glossary row's first
// cell: the name, optionally followed by its documented label keys, as in
// `phase_seconds_total{phase=…}`.
var glossaryName = regexp.MustCompile("`([a-z_][a-z0-9_]*)(\\{[^}`]*\\})?`")

// sampleLabel matches one key="value" pair of an exposition sample; values
// are quoted and may hold commas or braces.
var sampleLabel = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// glossaryFamilies parses the "Metric glossary" section of
// docs/OBSERVABILITY.md into family name → documented label keys (nil for a
// family documented without labels). Names are normalised to the recstep_
// prefix the registry uses; the glossary writes them both ways.
func glossaryFamilies(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	in := false
	sc := bufio.NewScanner(bytes.NewReader(doc))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Metric glossary"
			continue
		}
		if !in || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range glossaryName.FindAllStringSubmatch(cells[1], -1) {
			name := "recstep_" + strings.TrimPrefix(m[1], "recstep_")
			var keys []string
			if m[2] != "" {
				for _, kv := range strings.Split(strings.Trim(m[2], "{}"), ",") {
					keys = append(keys, strings.TrimSpace(strings.SplitN(kv, "=", 2)[0]))
				}
				sort.Strings(keys)
			}
			out[name] = keys
		}
	}
	if len(out) == 0 {
		t.Fatal("no families parsed from the metric glossary")
	}
	return out
}

// registeredFamilies parses a Prometheus exposition into family name → the
// sorted label keys its samples carry (histogram buckets' le excluded) and
// whether any sample was emitted.
func registeredFamilies(t *testing.T, expo string) (keys map[string][]string, sampled map[string]bool) {
	t.Helper()
	types := make(map[string]string)
	keySets := make(map[string]map[string]bool)
	sampled = make(map[string]bool)
	for _, line := range strings.Split(expo, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			keySets[f[2]] = make(map[string]bool)
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
			if line[i] == '{' {
				labels = line[i+1 : strings.LastIndex(line, "}")]
			}
		}
		if _, ok := types[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
					name = base
					break
				}
			}
		}
		set, ok := keySets[name]
		if !ok {
			t.Fatalf("sample %q belongs to no TYPE-declared family", line)
		}
		sampled[name] = true
		for _, m := range sampleLabel.FindAllStringSubmatch(labels, -1) {
			if !(types[name] == "histogram" && m[1] == "le") {
				set[m[1]] = true
			}
		}
	}
	keys = make(map[string][]string, len(keySets))
	for name, set := range keySets {
		var ks []string
		for k := range set {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		keys[name] = ks
	}
	return keys, sampled
}

// Every family the engine registers is documented in the metric glossary
// and every documented family is registered, with the label keys the
// glossary shows. The registry is filled by a from-scratch CSPA run (the
// engine loop, copy accounting, memory and phase families) and one
// ApplyDelta on a resident TC (the incremental families), both under one
// Observer.
func TestMetricGlossaryMatchesRegistry(t *testing.T) {
	ob := obs.New()

	opts := core.DefaultOptions()
	opts.Workers = 2
	opts.Partitions = 16
	opts.Obs = ob
	if _, err := core.New(opts).Run(programs.MustParse(programs.CSPA), fuseTestEDBs("cspa")); err != nil {
		t.Fatal(err)
	}
	d, err := core.New(opts).RunIncremental(context.Background(), programs.MustParse(programs.TC),
		map[string]*storage.Relation{"arc": graphs.GnP(60, 0.05, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelta("arc", [][]int32{{0, 59}, {59, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ob.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Close(); err != nil {
		t.Fatal(err)
	}

	emitted, sampled := registeredFamilies(t, buf.String())
	documented := glossaryFamilies(t)
	for name := range emitted {
		if _, ok := documented[name]; ok || !strings.HasPrefix(name, "recstep_") {
			continue
		}
		t.Errorf("%s is registered but missing from the metric glossary", name)
	}
	for name, keys := range documented {
		got, ok := emitted[name]
		switch {
		case !ok:
			t.Errorf("%s is in the metric glossary but not registered", name)
		case keys == nil:
			if len(got) != 0 {
				t.Errorf("%s emits labels %v; the glossary documents none", name, got)
			}
		case !sampled[name]:
			t.Errorf("%s emitted no sample, so its documented labels %v are unchecked", name, keys)
		case strings.Join(got, ",") != strings.Join(keys, ","):
			t.Errorf("%s emits labels %v; the glossary documents %v", name, got, keys)
		}
	}
}
