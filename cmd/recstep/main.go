// Command recstep evaluates a Datalog program from a .datalog file, with
// EDB facts supplied as whitespace-separated integer files, and writes every
// IDB relation as a .tsv file — the end-to-end flow of Figure 1.
//
// Usage:
//
//	recstep -program tc.datalog -facts arc=arc.tsv -out results/ \
//	        [-workers N] [-naive] [-no-uie] [-oof selective|none|full] \
//	        [-dsd dynamic|opsd|tpsd] [-dedup gscht|lockmap|sort] [-no-eost] \
//	        [-partitions N] [-mem-budget BYTES] [-incremental script] \
//	        [-timeout 30s] [-metrics-addr :9090] [-trace out.json] [-obs=false] \
//	        [-cpuprofile FILE] [-memprofile FILE] [-v]
//
// SIGINT/SIGTERM (and -timeout) cancel the run context: the fixpoint aborts
// at the next iteration boundary, partial stats are printed, the -trace file
// is flushed, and the process exits non-zero.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"recstep/internal/core"
	"recstep/internal/datalog/ast"
	"recstep/internal/datalog/parser"
	"recstep/internal/obs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/stats"
	"recstep/internal/quickstep/storage"
	"recstep/internal/relio"
)

type factFlags map[string]string

func (f factFlags) String() string { return fmt.Sprint(map[string]string(f)) }

func (f factFlags) Set(v string) error {
	pred, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want pred=path, got %q", v)
	}
	f[pred] = path
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("recstep: ")

	var (
		programPath = flag.String("program", "", "path to the .datalog program (required)")
		outDir      = flag.String("out", "", "directory for IDB .tsv output (omit to only print counts)")
		workers     = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		naive       = flag.Bool("naive", false, "disable semi-naive evaluation")
		noUIE       = flag.Bool("no-uie", false, "disable unified IDB evaluation")
		oofMode     = flag.String("oof", "selective", "statistics mode: selective|none|full")
		dsdMode     = flag.String("dsd", "dynamic", "set-difference policy: dynamic (cost model per iteration, and a resident index on R once rescans repay it) | opsd | tpsd (the paper's per-iteration tables, forced)")
		dedup       = flag.String("dedup", "gscht", "dedup strategy: gscht|lockmap|sort")
		noEOST      = flag.Bool("no-eost", false, "commit after every query (spills to a temp dir)")
		partitions  = flag.Int("partitions", 0, "radix partition count for hash builds (0 = auto 1/16/64/256, 1 = off)")
		memBudget   = flag.Int64("mem-budget", 0, "live block-pool byte budget; cold partitions of full relations spill to temp files under pressure (0 = unlimited)")
		timeout     = flag.Duration("timeout", 0, "abort the run after this duration (0 = no deadline); partial stats are still printed")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /statusz and /debug/pprof on this address for the life of the process (e.g. :9090)")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON of the fixpoint (per-phase spans; open in Perfetto) to this file")
		enableObs   = flag.Bool("obs", true, "collect metrics and phase timers; false is the zero-instrumentation ablation")
		incremental = flag.String("incremental", "", "update-script path ('-' for stdin): after the initial fixpoint the database stays resident and each staged batch of '+pred v1 v2…' inserts / '-pred v1 v2…' deletes (flushed by an 'apply' line or EOF) is maintained incrementally via ApplyDelta")
		verbose     = flag.Bool("v", false, "log per-iteration deltas")
	)
	facts := factFlags{}
	flag.Var(facts, "facts", "EDB input as pred=path (repeatable)")
	flag.Parse()

	if *programPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}

	edbs := make(map[string]*storage.Relation)
	for pred, path := range facts {
		rel, err := relio.ReadTSVFile(path, pred)
		if err != nil {
			log.Fatalf("loading %s: %v", pred, err)
		}
		edbs[pred] = rel
		log.Printf("loaded %s: %d tuples", pred, rel.NumTuples())
	}

	opts := core.DefaultOptions()
	opts.Workers = *workers
	opts.Naive = *naive
	opts.UIE = !*noUIE
	switch *oofMode {
	case "selective":
		opts.OOF = stats.ModeSelective
	case "none":
		opts.OOF = stats.ModeNone
	case "full":
		opts.OOF = stats.ModeFull
	default:
		log.Fatalf("unknown -oof mode %q", *oofMode)
	}
	switch *dsdMode {
	case "dynamic":
		opts.DSD = core.DSDDynamic
	case "opsd":
		opts.DSD = core.DSDAlwaysOPSD
	case "tpsd":
		opts.DSD = core.DSDAlwaysTPSD
	default:
		log.Fatalf("unknown -dsd mode %q", *dsdMode)
	}
	switch *dedup {
	case "gscht":
		opts.Dedup = exec.DedupGSCHT
	case "lockmap":
		opts.Dedup = exec.DedupLockMap
	case "sort":
		opts.Dedup = exec.DedupSort
	default:
		log.Fatalf("unknown -dedup strategy %q", *dedup)
	}
	if *noEOST {
		opts.EOST = false
		opts.DisableIO = false
	}
	opts.Partitions = *partitions
	opts.MemBudgetBytes = *memBudget

	// One Observer outlives the Run so the HTTP listener keeps serving its
	// registry mid-fixpoint and after. -trace and -metrics-addr need the
	// collection machinery, so either overrides -obs=false.
	var ob *obs.Observer
	if *enableObs || *tracePath != "" || *metricsAddr != "" {
		ob = obs.New()
		if *tracePath != "" {
			ob.WithTracer(obs.DefaultMaxEvents)
		}
		opts.Obs = ob
	} else {
		opts.DisableObs = true
	}
	if *metricsAddr != "" {
		addr, err := obs.Serve(*metricsAddr, ob.Reg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving /metrics, /statusz and /debug/pprof on http://%s", addr)
	}

	if *verbose {
		opts.IterHook = func(ii core.IterInfo) {
			log.Printf("stratum %d iter %d %s: tmp=%d delta=%d (%s) deltaParts=%d armsSkipped=%d scattered=%d outputInPlace=%d adopted=%d flat=%d buildsInPlace=%d buildScatters=%d phases=[%s]",
				ii.Stratum, ii.Iteration, ii.Pred, ii.TmpTuples, ii.Delta, ii.Algo, ii.DeltaParts, ii.ArmsSkipped,
				ii.Copy.Scattered, ii.Copy.OutputInPlace, ii.Copy.Adopted, ii.Copy.FlatMats,
				ii.Copy.BuildScattersAvoided, ii.Copy.BuildScatters, phaseString(ii.Phase))
		}
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}

	// SIGINT/SIGTERM cancel the run context; the fixpoint aborts at its next
	// iteration boundary and the partial-stats/trace path below still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *incremental != "" {
		uerr := runIncremental(ctx, opts, prog, edbs, *incremental, *outDir, *verbose)
		if perr := stopProfiles(); perr != nil {
			log.Fatal(perr)
		}
		writeTrace(ob, *tracePath)
		if uerr != nil {
			log.Fatal(uerr)
		}
		return
	}

	res, err := core.New(opts).RunContext(ctx, prog, edbs)
	if perr := stopProfiles(); perr != nil {
		log.Fatal(perr)
	}
	if err != nil {
		// An aborted run still reports what it did: partial stats (with the
		// post-teardown memory reading — zero live bytes) and the trace
		// collected so far.
		if res != nil {
			log.Printf("aborted after %v (%d iterations, %d SQL queries)",
				res.Stats.Duration.Round(1e6), res.Stats.Iterations, res.Stats.Queries)
			log.Printf("memory at teardown: %d live pooled bytes (peak %d), %d spills / %d faults",
				res.Stats.Mem.LiveTotal, res.Stats.Mem.PeakLive, res.Stats.Mem.Spills, res.Stats.Mem.Faults)
		}
		writeTrace(ob, *tracePath)
		log.Fatal(err)
	}
	log.Printf("fixpoint in %v (%d iterations, %d SQL queries)",
		res.Stats.Duration.Round(1e6), res.Stats.Iterations, res.Stats.Queries)
	log.Printf("copies: %d tuples scattered, %d adopted without copy, %d flat materializations",
		res.Stats.TuplesScattered, res.Stats.TuplesAdopted, res.Stats.FlatMaterializations)
	log.Printf("join builds: %d served from carried partitions, %d routed from the relation's blocks",
		res.Stats.JoinBuildScattersAvoided, res.Stats.JoinBuildScatters)
	log.Printf("resident: set-difference index served %d passes (%d seeds), cached builds served %d joins; rows re-read: %d by set difference, %d by join probes",
		res.Stats.ResidentIndexHits, res.Stats.ResidentIndexReseeds, res.Stats.CachedBuildHits,
		res.Stats.SetDiffRowsScanned, res.Stats.JoinProbeRows)
	log.Printf("planner: %d empty-∆ arms skipped, peak join intermediate %d rows, wcoj rules %v",
		res.Stats.ArmsSkipped, res.Stats.PeakJoinIntermediate, res.Stats.WCOJRules)
	if *verbose {
		logSplits(res.Stats)
		hitShare := 0.0
		if res.Stats.JoinRowsExpanded > 0 {
			hitShare = float64(res.Stats.DupSuppressed) / float64(res.Stats.JoinRowsExpanded)
		}
		log.Printf("join output: %d rows expanded, %d dropped by the duplicate filter (hit share %.1f%%), %d reached tmp tables (%d kept as ∆); %d windows ran with the filter switched off; %d rows written in place without a scatter",
			res.Stats.JoinRowsExpanded, res.Stats.DupSuppressed, 100*hitShare, res.Stats.TmpTuples, res.Stats.DeltaTuples,
			res.Stats.DupFilterBypassed, res.Stats.OutputInPlace)
		log.Printf("carry: %s", res.Stats.CarryLine())
		log.Printf("fan-out: %s", res.Stats.FanOutLine())
		collapse := 0.0
		if res.Stats.AggGroupsOut > 0 {
			collapse = float64(res.Stats.AggRowsIn) / float64(res.Stats.AggGroupsOut)
		}
		log.Printf("aggregate: %d rows in, %d groups out (%.1f rows per group)",
			res.Stats.AggRowsIn, res.Stats.AggGroupsOut, collapse)
		rules := make([]string, 0, len(res.Stats.JoinOrdersByRule))
		for name := range res.Stats.JoinOrdersByRule {
			rules = append(rules, name)
		}
		sort.Strings(rules)
		for _, name := range rules {
			pc := res.Stats.JoinOrdersByRule[name]
			log.Printf("plan %s: %s order %v over %v (%d iterations)",
				name, pc.Strategy, pc.Order, pc.Tables, pc.Count)
		}
	}
	log.Printf("memory: peak pool %d bytes, %d/%d block allocs recycled, %d spills / %d faults",
		res.Stats.Mem.PeakLive, res.Stats.Mem.PoolHits, res.Stats.Mem.PoolHits+res.Stats.Mem.PoolMisses,
		res.Stats.Mem.Spills, res.Stats.Mem.Faults)
	if *verbose {
		log.Printf("memory: the peak was made of: %s", res.Stats.Mem.PeakComposition())
	}
	if *verbose {
		if len(res.Stats.PhaseDurations) > 0 {
			log.Printf("phases (worker-time, overlaps): [%s]", phaseMapString(res.Stats.PhaseDurations))
		}
		for i, d := range res.Stats.StratumDurations {
			log.Printf("stratum %d: %v", i, d.Round(1e5))
		}
	}
	writeTrace(ob, *tracePath)
	writeRelations(res, *outDir)
}

// logSplits prints one line per rule the analyzer split through an
// auxiliary predicate, e.g. "split: sg(x, y) :- arc(a, x), sg(a, b), arc(b,
// y). through sg_1_maux(x, b)".
func logSplits(st core.Stats) {
	for _, s := range st.Splits {
		log.Printf("split: %s", s)
	}
}

// writeTrace flushes the collected trace to path; no-op without -trace. Both
// the success and abort paths call it, so an interrupted run keeps the spans
// it collected.
func writeTrace(ob *obs.Observer, path string) {
	if path == "" {
		return
	}
	tr := ob.Tracer
	if err := tr.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	log.Printf("trace: %d events written to %s (%d dropped)", len(tr.Events()), path, tr.Dropped())
}

// phaseString formats a per-step phase snapshot as "build=1.2ms probe=800µs",
// in phase declaration order, omitting zero phases.
func phaseString(ph obs.PhaseSnapshot) string {
	var parts []string
	for _, p := range obs.Phases() {
		if d := ph[p]; d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", p, d.Round(1e4)))
		}
	}
	return strings.Join(parts, " ")
}

// phaseMapString formats Stats.PhaseDurations in phase declaration order.
func phaseMapString(m map[string]time.Duration) string {
	var parts []string
	for _, p := range obs.Phases() {
		if d, ok := m[p.String()]; ok {
			parts = append(parts, fmt.Sprintf("%s=%v", p, d.Round(1e5)))
		}
	}
	return strings.Join(parts, " ")
}

// runIncremental evaluates the initial fixpoint with a resident database,
// then replays an update script against it. Script grammar, one command per
// line ('#' starts a comment, blank lines are skipped):
//
//	+pred v1 v2 ...   stage an insertion into EDB pred
//	-pred v1 v2 ...   stage a deletion from EDB pred
//	apply             apply the staged batch incrementally
//
// EOF applies any still-staged rows. A batch touching several relations is
// applied as one ApplyDelta per relation in sorted name order (each a
// consistent update of its own). After the script finishes, the IDB relations
// are written exactly like a from-scratch run and the database is torn down
// with its zero-leak accounting printed.
func runIncremental(ctx context.Context, opts core.Options, prog *ast.Program, edbs map[string]*storage.Relation, scriptPath, outDir string, verbose bool) error {
	d, err := core.New(opts).RunIncremental(ctx, prog, edbs)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
	st := d.Stats()
	log.Printf("initial fixpoint in %v (%d iterations, %d SQL queries); database resident",
		st.Duration.Round(1e6), st.Iterations, st.Queries)
	if verbose {
		logSplits(st)
	}

	var in io.Reader = os.Stdin
	src := "<stdin>"
	if scriptPath != "-" {
		f, err := os.Open(scriptPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in, src = f, scriptPath
	}

	ins := map[string][][]int32{}
	del := map[string][][]int32{}
	applied := 0
	flush := func() error {
		rels := make([]string, 0, len(ins)+len(del))
		seen := map[string]bool{}
		for _, m := range []map[string][][]int32{ins, del} {
			for r := range m {
				if !seen[r] {
					seen[r] = true
					rels = append(rels, r)
				}
			}
		}
		sort.Strings(rels)
		for _, r := range rels {
			us, err := d.ApplyDeltaContext(ctx, r, ins[r], del[r])
			if err != nil {
				return fmt.Errorf("update %d (%s): %w", applied+1, r, err)
			}
			applied++
			log.Printf("update %d %s: +%d -%d tuples (strata recomputed: %d) in %v",
				applied, r, us.Inserted, us.Deleted, us.FallbackStrata, us.Duration.Round(1e4))
		}
		ins = map[string][][]int32{}
		del = map[string][][]int32{}
		return nil
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "apply" {
			if err := flush(); err != nil {
				return err
			}
			continue
		}
		op := line[0]
		if op != '+' && op != '-' {
			return fmt.Errorf("%s:%d: want '+pred v…', '-pred v…' or 'apply', got %q", src, lineNo, line)
		}
		fields := strings.Fields(line[1:])
		if len(fields) < 2 {
			return fmt.Errorf("%s:%d: want '%cpred v1 v2 …', got %q", src, lineNo, op, line)
		}
		row := make([]int32, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return fmt.Errorf("%s:%d: bad value %q: %v", src, lineNo, f, err)
			}
			row[i] = int32(v)
		}
		if op == '+' {
			ins[fields[0]] = append(ins[fields[0]], row)
		} else {
			del[fields[0]] = append(del[fields[0]], row)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading %s: %v", src, err)
	}
	if err := flush(); err != nil {
		return err
	}
	log.Printf("%d incremental updates applied", applied)

	names := d.IDBNames()
	sort.Strings(names)
	for _, name := range names {
		rel, ok := d.Relation(name)
		if !ok {
			continue
		}
		log.Printf("%s: %d tuples", name, rel.NumTuples())
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			if err := relio.WriteTSVFile(filepath.Join(outDir, name+".tsv"), rel); err != nil {
				return err
			}
		}
	}
	closed = true
	mem, err := d.Close()
	if err != nil {
		return err
	}
	log.Printf("memory at teardown: %d live pooled bytes (peak %d)", mem.LiveTotal, mem.PeakLive)
	return nil
}

func writeRelations(res *core.Result, outDir string) {
	for name, rel := range res.Relations {
		log.Printf("%s: %d tuples", name, rel.NumTuples())
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(outDir, name+".tsv")
			if err := relio.WriteTSVFile(path, rel); err != nil {
				log.Fatal(err)
			}
		}
	}
}
