//go:build unix

package obs

import (
	"testing"
	"time"
)

func TestCPUUtilBounds(t *testing.T) {
	var s Sampler
	s.Start()
	x := 0
	for deadline := time.Now().Add(30 * time.Millisecond); time.Now().Before(deadline); {
		x++
	}
	u := s.Stop()
	if x == 0 || u.CPU <= 0 {
		t.Fatalf("busy loop used no CPU: %+v", u)
	}
	if util := u.CPUUtil(); util <= 0 || util > 1 {
		t.Fatalf("utilisation %f of a busy loop outside (0, 1]", util)
	}
}
