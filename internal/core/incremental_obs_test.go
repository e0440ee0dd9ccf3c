package core

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"recstep/internal/obs"
	"recstep/internal/obs/obstest"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// A live /metrics endpoint is scraped concurrently with a stream of
// ApplyDelta calls — the serving path an operator sees when updates run
// against a resident database. Every scrape must be a well-formed exposition
// and the incremental counter families must appear once updates have run.
// The -race run doubles as the data-race check on the update counters.
func TestIncrementalMetricsConcurrentScrape(t *testing.T) {
	ob := obs.New()
	addr, err := obs.Serve("127.0.0.1:0", ob.Reg)
	if err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.Workers = 2
	opts.Obs = ob
	edges := randomEdges(40, 150, 5)
	d := openIncr(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	scrape := func() (string, error) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lastMid string
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := scrape()
				if err != nil {
					t.Errorf("concurrent scrape: %v", err)
					return
				}
				mu.Lock()
				lastMid = body
				mu.Unlock()
			}
		}()
	}

	extra := randomEdges(40, 400, 6)
	for i := 0; i < 15; i++ {
		var ins, del []pair
		switch i % 3 {
		case 0:
			ins = extra[i*2 : i*2+2]
		case 1:
			del = []pair{edges[i%len(edges)]}
		default:
			ins = extra[i*2 : i*2+1]
			del = []pair{edges[(2*i)%len(edges)]}
		}
		edges = editEdges(edges, ins, del)
		applyEdges(t, d, ins, del)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	mid := lastMid
	mu.Unlock()
	if mid != "" {
		obstest.CheckPrometheusText(t, mid)
	}

	final, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	obstest.CheckPrometheusText(t, final)
	obstest.RequireFamilies(t, final,
		"recstep_incremental_updates_total",
		"recstep_incremental_update_failures_total",
		"recstep_incremental_inserted_tuples_total",
		"recstep_incremental_deleted_tuples_total",
		"recstep_incremental_fallback_strata_total",
		"recstep_incremental_update_latency_us",
	)
	if !strings.Contains(final, "recstep_incremental_updates_total 15") {
		t.Fatalf("updates_total did not reach 15:\n%s", grepLine(final, "recstep_incremental_updates_total"))
	}
}

func grepLine(text, needle string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, needle) {
			return line
		}
	}
	return "(family absent)"
}
