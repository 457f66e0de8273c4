package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once whether there are fewer indices than
// workers, more, one, or none.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	p := New(3)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 4, 5, 64, 1000} {
		hits := make([]atomic.Int32, n)
		p.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

// Writes made before Run are visible inside fn and fn's writes are visible
// after Run, with no synchronization of the caller's own (-race checks it).
func TestRunOrdersCallerAndWorkerWrites(t *testing.T) {
	p := New(2)
	defer p.Close()
	in, out := make([]int, 50), make([]int, 50)
	fn := func(i int) { out[i] = in[i] * 2 }
	for round := 1; round <= 20; round++ {
		for i := range in {
			in[i] = round + i
		}
		p.Run(len(in), fn)
		for i := range out {
			if out[i] != 2*(round+i) {
				t.Fatalf("round %d: out[%d] = %d", round, i, out[i])
			}
		}
	}
}

// The workers really run concurrently with the caller: two indices that wait
// for each other both finish.
func TestRunIsConcurrent(t *testing.T) {
	p := New(1)
	defer p.Close()
	var arrived atomic.Int32
	done := make(chan struct{})
	go func() {
		p.Run(2, func(int) {
			arrived.Add(1)
			for arrived.Load() < 2 {
				runtime.Gosched()
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("two mutually waiting indices did not finish: they were run one after the other")
	}
}

func TestRunZeroAllocs(t *testing.T) {
	p := New(3)
	defer p.Close()
	var sink [8]int
	fn := func(i int) { sink[i]++ }
	if allocs := testing.AllocsPerRun(200, func() { p.Run(len(sink), fn) }); allocs != 0 {
		t.Errorf("Run with a prebound fn allocated %.1f/op, want 0", allocs)
	}
}

func TestCloseTwice(t *testing.T) {
	p := New(2)
	p.Run(3, func(int) {})
	p.Close()
	p.Close()
}

// A pool dropped without Close must not leak its workers, even though the
// last fn closed over the pool's owner.
func TestDroppedPoolReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		type owner struct {
			p    *Pool
			hits [4]int
		}
		o := &owner{p: New(3)}
		o.p.Run(len(o.hits), func(i int) { o.hits[i]++ })
	}()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("%d goroutines still alive after the pool was dropped (started with %d)", runtime.NumGoroutine(), base)
}
