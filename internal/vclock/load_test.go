package vclock

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// hostLoad raises GOMAXPROCS to at least 4 and starts a goroutine that spins
// until the returned function is called, so while a test runs the Go
// scheduler has idle threads to start goroutines on at once, and a
// competitor for the host's CPUs.
func hostLoad() (stop func()) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
	}
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() {
		}
	}()
	return func() {
		quit.Store(true)
		<-done
		runtime.GOMAXPROCS(prev)
	}
}

// TestDeterminismUnderLoad reruns the multi-vCPU determinism tests on a
// multi-threaded runtime with a busy loop competing for the CPUs. Schedules
// must not depend on when the host runs which goroutine: vCPUs registered by
// Go start only at Wait, on one scheduler.
func TestDeterminismUnderLoad(t *testing.T) {
	defer hostLoad()()
	t.Run("DeterministicMakespan", TestDeterministicMakespan)
	t.Run("HeapStressRunToRunDeterminism", TestHeapStressRunToRunDeterminism)
	t.Run("HeapMatchesLinearReference", TestHeapMatchesLinearReference)
	t.Run("LockStatsDeterministic", TestLockStatsDeterministic)
}
