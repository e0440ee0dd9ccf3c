package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapObjects is the runtime/metrics name of the bytes held by heap objects
// (live ones and dead ones not yet swept) — MemStats.HeapAlloc, read without
// stopping the world.
const heapObjects = "/memory/classes/heap/objects:bytes"

// sampleEvery is how often a running Sampler reads the heap.
const sampleEvery = 2 * time.Millisecond

// Sampler measures one run for the paper's resource figures: the peak heap
// (Figs. 3, 11 and 14) and the process's CPU utilisation (Fig. 16). It reads
// the heap every 2 ms between Start and Stop and the process's CPU time at
// both ends. The zero value is ready to use; a Sampler measures one run at a
// time.
type Sampler struct {
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
	wall time.Time
	cpu  time.Duration
	// peak is written by the polling goroutine and read once it has exited.
	peak uint64
}

// Usage is what a Sampler measured between Start and Stop.
type Usage struct {
	// PeakHeap is the largest heap reading, in bytes.
	PeakHeap uint64
	// Wall is the time from Start to Stop; CPU is the user + system CPU time
	// the whole process spent in it (0 where the OS has no getrusage).
	Wall, CPU time.Duration
}

// CPUUtil is CPU over Wall × runtime.NumCPU(): the share of the machine's
// cores the run kept busy, in [0, 1]. It is 0 for a run of no length.
func (u Usage) CPUUtil() float64 {
	if u.Wall <= 0 {
		return 0
	}
	// getrusage reports whole microseconds, so a run of a few of them can
	// read a hair over its wall time.
	return min(1, float64(u.CPU)/(float64(u.Wall)*float64(runtime.NumCPU())))
}

// Start begins sampling. Starting a running Sampler does nothing.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.peak = readHeap(newHeapSample())
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	s.wall, s.cpu = time.Now(), processCPU()
	go s.poll(s.stop, s.done)
}

func (s *Sampler) poll(stop, done chan struct{}) {
	defer close(done)
	sample := newHeapSample()
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.peak = max(s.peak, readHeap(sample))
		}
	}
}

// Stop ends sampling and returns the run's usage. A Sampler stopped without
// a Start reports the current heap and no time.
func (s *Sampler) Stop() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	heap := readHeap(newHeapSample())
	if s.stop == nil {
		return Usage{PeakHeap: heap}
	}
	cpu, wall := processCPU(), time.Now()
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
	return Usage{PeakHeap: max(s.peak, heap), Wall: wall.Sub(s.wall), CPU: cpu - s.cpu}
}

func newHeapSample() []metrics.Sample {
	return []metrics.Sample{{Name: heapObjects}}
}

func readHeap(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
