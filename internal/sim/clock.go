// Package sim is a discrete-event simulator of a distributed soft real-time
// system: nodes and links are proportional-share-scheduled resources, tasks
// release job sets in response to triggering events, and job precedence
// follows each task's subtask graph. It is the reproduction's substitute
// for the paper's RTSJ/Metronome/IBM-RTLinux prototype testbed (Section 6):
// the optimizer's share assignments are enacted on the simulated schedulers
// and the resulting end-to-end latencies are measured, including the
// model-error effects (scheduling lag, release desynchronization) that drive
// the paper's online error correction.
package sim

import (
	"container/heap"
	"fmt"
)

// event is a scheduled callback.
type event struct {
	atMs float64
	seq  int64
	fn   func()
}

// eventHeap orders events by time, then insertion order (determinism).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].atMs != h[j].atMs {
		return h[i].atMs < h[j].atMs
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event        { return h[0] }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// Clock is the simulation clock and event queue.
type Clock struct {
	nowMs float64
	seq   int64
	queue eventHeap
}

// NowMs returns the current simulation time.
func (c *Clock) NowMs() float64 { return c.nowMs }

// At schedules fn at absolute time atMs (>= now).
func (c *Clock) At(atMs float64, fn func()) {
	if atMs < c.nowMs {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", atMs, c.nowMs))
	}
	c.seq++
	c.queue.pushEvent(event{atMs: atMs, seq: c.seq, fn: fn})
}

// After schedules fn delayMs from now.
func (c *Clock) After(delayMs float64, fn func()) {
	c.At(c.nowMs+delayMs, fn)
}

// RunUntil processes events up to and including untilMs, then sets the clock
// to untilMs.
func (c *Clock) RunUntil(untilMs float64) {
	for c.queue.Len() > 0 && c.queue.peek().atMs <= untilMs {
		c.Step()
	}
	if untilMs > c.nowMs {
		c.nowMs = untilMs
	}
}

// Step processes the earliest queued event, advancing the clock to its time,
// and reports whether there was one.
func (c *Clock) Step() bool {
	if c.queue.Len() == 0 {
		return false
	}
	e := c.queue.popEvent()
	c.nowMs = e.atMs
	e.fn()
	return true
}
