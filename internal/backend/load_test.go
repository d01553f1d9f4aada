package backend

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestDeterministicConcurrentRunUnderLoad reruns TestDeterministicConcurrentRun
// at GOMAXPROCS ≥ 4 with a busy loop competing for the CPUs: a fleet admitted
// by a bare Run loop must get the same schedule however the host interleaves
// the admitting goroutine with the engine.
func TestDeterministicConcurrentRunUnderLoad(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() {
		}
	}()
	defer func() {
		quit.Store(true)
		<-done
	}()
	for i := 0; i < 20; i++ {
		TestDeterministicConcurrentRun(t)
	}
}
