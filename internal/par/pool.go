// Package par runs index-parallel loops on a persistent set of parked
// goroutines. Spawning goroutines per call would heap-allocate a closure per
// worker per call; a Pool's workers park on a channel and are woken by
// sending the pool pointer, which allocates nothing.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a set of parked workers. It is driven by one goroutine at a time.
type Pool struct {
	// wake carries the pool to each parked worker; closing it retires them.
	// Workers hold only this channel between runs, so a Pool whose owner is
	// dropped without Close becomes unreachable and its finalizer closes it.
	wake chan *Pool
	fn   func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
	once sync.Once
}

// New parks extra workers; Run's caller is one more.
func New(extra int) *Pool {
	p := &Pool{wake: make(chan *Pool, extra)}
	for i := 0; i < extra; i++ {
		go func(wake <-chan *Pool) {
			for p := range wake {
				p.drain()
				p.wg.Done()
			}
		}(p.wake)
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

// Run calls fn(0) … fn(n-1), each exactly once, on the caller and as many
// workers as there is work for, and returns when all have. The wake sends
// order the caller's earlier writes before every fn call, and the join
// orders every fn's writes before Run's return. Calls are handed out in
// index order but finish in any; fn must not call Run on the same pool.
func (p *Pool) Run(n int, fn func(int)) {
	p.fn, p.n = fn, int64(n)
	p.next.Store(0)
	helpers := max(min(n-1, cap(p.wake)), 0)
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.wake <- p
	}
	p.drain()
	p.wg.Wait()
	p.fn = nil // fn usually closes over the pool's owner; do not pin it
}

// drain claims and runs indices until none are left.
func (p *Pool) drain() {
	for i := p.next.Add(1) - 1; i < p.n; i = p.next.Add(1) - 1 {
		p.fn(int(i))
	}
}

// Close retires the workers. Idempotent; only call with no Run in flight.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.wake) })
}
