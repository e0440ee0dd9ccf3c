package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestSamplerStopWithoutStart(t *testing.T) {
	var s Sampler
	u := s.Stop()
	if u.PeakHeap == 0 {
		t.Fatal("Stop without Start read no heap")
	}
	if u.Wall != 0 || u.CPU != 0 || u.CPUUtil() != 0 {
		t.Fatalf("Stop without Start measured a run: %+v, utilisation %f", u, u.CPUUtil())
	}
}

func TestDoubleStartIsSafe(t *testing.T) {
	var s Sampler
	s.Start()
	s.Start() // no-op: one polling goroutine, one start time
	time.Sleep(5 * time.Millisecond)
	u := s.Stop()
	if u.Wall < 5*time.Millisecond || u.PeakHeap == 0 {
		t.Fatalf("double Start: %+v", u)
	}
	// The sampler is reusable once stopped, and stops once.
	s.Start()
	if u := s.Stop(); u.Wall <= 0 {
		t.Fatalf("restarted sampler measured no time: %+v", u)
	}
	if u := s.Stop(); u.Wall != 0 {
		t.Fatalf("second Stop measured a run: %+v", u)
	}
}

// Utilisation is the CPU time over the wall time the machine's cores had: 0
// for a run of no length, one core's worth for a run that kept one core busy.
func TestAvgCPUUtilEmpty(t *testing.T) {
	if (Usage{}).CPUUtil() != 0 {
		t.Fatal("a run of no length should read 0 utilisation")
	}
	if (Usage{CPU: time.Second}).CPUUtil() != 0 {
		t.Fatal("CPU time with no wall time should read 0 utilisation")
	}
	u := Usage{Wall: time.Second, CPU: time.Second}
	if got, want := u.CPUUtil(), 1/float64(runtime.NumCPU()); got != want {
		t.Fatalf("one busy core of %d: utilisation %f, want %f", runtime.NumCPU(), got, want)
	}
}

// An allocation held live for several polls and freed before Stop shows in
// the peak: the polls, not Stop's own reading, saw it.
func TestSamplerPeakCoversLiveAllocation(t *testing.T) {
	const size = 32 << 20
	runtime.GC()
	var s Sampler
	s.Start()
	buf := make([]byte, size)
	time.Sleep(10 * sampleEvery)
	runtime.KeepAlive(buf)
	runtime.GC()
	var after Sampler
	if now := after.Stop().PeakHeap; now >= size {
		t.Skipf("the heap still holds %d bytes after the release; the peak would not show the polls", now)
	}
	if u := s.Stop(); u.PeakHeap < size {
		t.Fatalf("peak heap %d bytes, below the %d-byte allocation held during sampling", u.PeakHeap, size)
	}
}
