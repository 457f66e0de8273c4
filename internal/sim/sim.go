package sim

import (
	"fmt"
	"math"
	"math/rand"

	"lla/internal/sched"
	"lla/internal/stats"
	"lla/internal/workload"
)

// SchedulerKind selects the resource servers' scheduling discipline.
type SchedulerKind int

const (
	// GPS is the idealized fluid proportional-share scheduler.
	GPS SchedulerKind = iota + 1
	// Quantum is the quantum-based weighted round-robin scheduler, which
	// exhibits realistic scheduling lag.
	Quantum
)

// Config parametrizes a simulation.
type Config struct {
	// Seed drives all stochastic elements (arrival processes, execution
	// jitter) deterministically.
	Seed int64
	// Scheduler selects the resource discipline (default Quantum, the
	// realistic one).
	Scheduler SchedulerKind
	// QuantumMs is the base quantum for the Quantum scheduler (default 5).
	QuantumMs float64
	// ExecJitterFrac in [0,1) makes actual job demand uniform in
	// [(1-frac)·WCET, WCET]; zero means every job takes its WCET.
	ExecJitterFrac float64
}

func (c Config) withDefaults() Config {
	if c.Scheduler == 0 {
		c.Scheduler = Quantum
	}
	if c.QuantumMs == 0 {
		c.QuantumMs = 5
	}
	return c
}

// backgroundFlow is the reserved flow id of the always-backlogged background
// load that models a resource's reserved capacity (1 - B_r), e.g. the
// prototype's Metronome GC share; subtask flows are numbered from 0.
const backgroundFlow = 1 << 20

// sampleCap bounds the latency reservoirs.
const sampleCap = 8192

// Sim simulates a workload under a given share assignment.
type Sim struct {
	w   *workload.Workload
	cfg Config
	clk Clock
	rng *rand.Rand

	servers []*server
	// resIdx maps resource ID to server index.
	resIdx map[string]int
	// flowOf[ti][si] is the flow id of the subtask on its server.
	flowOf [][]int
	// srvOf[ti][si] is the server index of the subtask.
	srvOf [][]int
	// shares[ti][si] is the currently enacted share.
	shares [][]float64

	sources []*Source

	subLat  [][]*stats.Reservoir
	taskLat []*stats.Reservoir

	// releasedSets / completedSets count job sets per task.
	releasedSets  []int
	completedSets []int
}

// server wraps a scheduler with event re-arming bookkeeping and utilization
// accounting.
type server struct {
	s   sched.Scheduler
	gen int64
	// taskWorkMs accumulates completed task service demand (excluding the
	// background reservation); utilization = taskWorkMs / elapsed.
	taskWorkMs float64
	// statsSinceMs marks the start of the current accounting window.
	statsSinceMs float64
}

// New builds a simulator for the workload. Initial shares are a fair split
// of each resource's availability; call SetShare/SetShares to enact an
// optimizer's assignment.
func New(w *workload.Workload, cfg Config) (*Sim, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &Sim{
		w:      w,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		resIdx: make(map[string]int, len(w.Resources)),
	}

	for ri, r := range w.Resources {
		var sc sched.Scheduler
		switch cfg.Scheduler {
		case GPS:
			sc = sched.NewGPS()
		case Quantum:
			sc = sched.NewQuantum(cfg.QuantumMs)
		default:
			return nil, fmt.Errorf("sim: unknown scheduler kind %d", int(cfg.Scheduler))
		}
		s.servers = append(s.servers, &server{s: sc})
		s.resIdx[r.ID] = ri
		if r.Availability < 1 {
			sc.SetWeight(0, backgroundFlow, 1-r.Availability)
			s.feedBackground(ri)
		}
	}

	counts := make([]int, len(w.Resources))
	for ti, t := range w.Tasks {
		flows := make([]int, len(t.Subtasks))
		srvs := make([]int, len(t.Subtasks))
		shr := make([]float64, len(t.Subtasks))
		lats := make([]*stats.Reservoir, len(t.Subtasks))
		for si, st := range t.Subtasks {
			ri := s.resIdx[st.Resource]
			flows[si] = counts[ri]
			counts[ri]++
			srvs[si] = ri
			lats[si] = stats.NewReservoir(sampleCap)
		}
		s.flowOf = append(s.flowOf, flows)
		s.srvOf = append(s.srvOf, srvs)
		s.shares = append(s.shares, shr)
		s.subLat = append(s.subLat, lats)
		s.taskLat = append(s.taskLat, stats.NewReservoir(sampleCap))
		s.releasedSets = append(s.releasedSets, 0)
		s.completedSets = append(s.completedSets, 0)

		src, err := NewSource(t.Trigger, rand.New(rand.NewSource(cfg.Seed+int64(ti)+1)))
		if err != nil {
			return nil, fmt.Errorf("sim: task %s: %w", t.Name, err)
		}
		s.sources = append(s.sources, src)
	}

	// Fair-split initial shares.
	perRes := w.SubtasksOn()
	for ti, t := range w.Tasks {
		for si, st := range t.Subtasks {
			r, _ := w.ResourceByID(st.Resource)
			s.setShareIdx(ti, si, r.Availability/float64(len(perRes[st.Resource])))
		}
	}

	// Schedule the first release of every task at its first arrival.
	for ti := range w.Tasks {
		first := s.sources[ti].Next(0)
		taskIdx := ti
		s.clk.At(first, func() { s.releaseJobSet(taskIdx) })
	}
	return s, nil
}

// feedBackground keeps the background flow permanently backlogged with
// large jobs, soaking up the reserved (1-B) capacity.
func (s *Sim) feedBackground(ri int) {
	const chunkMs = 1000.0
	srv := s.servers[ri]
	srv.s.Enqueue(s.clk.NowMs(), &sched.Job{
		Flow:     backgroundFlow,
		DemandMs: chunkMs,
		Done: func(float64) {
			s.feedBackground(ri)
		},
	})
	s.armServer(ri)
}

// armServer (re)schedules the wake-up for a server's next internal event.
func (s *Sim) armServer(ri int) {
	srv := s.servers[ri]
	srv.gen++
	gen := srv.gen
	next := srv.s.NextEventMs()
	if math.IsInf(next, 1) {
		return
	}
	s.clk.At(next, func() {
		if s.servers[ri].gen != gen {
			return // stale wake-up: state changed since scheduling
		}
		srv.s.AdvanceTo(s.clk.NowMs())
		s.armServer(ri)
	})
}

// releaseJobSet dispatches one instance of the task's subtask graph and
// schedules the next triggering event.
func (s *Sim) releaseJobSet(ti int) {
	t := s.w.Tasks[ti]
	now := s.clk.NowMs()
	s.releasedSets[ti]++

	js := &jobSet{
		releaseMs: now,
		remaining: make([]int, len(t.Subtasks)),
	}
	for si := range t.Subtasks {
		js.remaining[si] = t.InDegree(si)
		if len(t.Successors(si)) == 0 {
			js.leavesLeft++
		}
	}
	root, err := t.Root()
	if err == nil {
		s.releaseJob(ti, root, js)
	}

	next := s.sources[ti].Next(now)
	s.clk.At(next, func() { s.releaseJobSet(ti) })
}

// jobSet tracks one in-flight instance of a task.
type jobSet struct {
	releaseMs  float64
	remaining  []int
	leavesLeft int
}

// releaseJob submits one subtask job of a job set to its resource.
func (s *Sim) releaseJob(ti, si int, js *jobSet) {
	t := s.w.Tasks[ti]
	now := s.clk.NowMs()
	demand := t.Subtasks[si].ExecMs
	if s.cfg.ExecJitterFrac > 0 {
		demand *= 1 - s.cfg.ExecJitterFrac*s.rng.Float64()
	}
	ri := s.srvOf[ti][si]
	readyMs := now
	s.servers[ri].s.Enqueue(now, &sched.Job{
		Flow:     s.flowOf[ti][si],
		DemandMs: demand,
		Done: func(doneMs float64) {
			s.subLat[ti][si].Add(doneMs - readyMs)
			s.servers[ri].taskWorkMs += demand
			s.onJobDone(ti, si, js, doneMs)
		},
	})
	s.armServer(ri)
}

// onJobDone propagates precedence and accounts job-set completion.
func (s *Sim) onJobDone(ti, si int, js *jobSet, doneMs float64) {
	t := s.w.Tasks[ti]
	if len(t.Successors(si)) == 0 {
		js.leavesLeft--
		if js.leavesLeft == 0 {
			lat := doneMs - js.releaseMs
			s.taskLat[ti].Add(lat)
			s.completedSets[ti]++
		}
		return
	}
	for _, succ := range t.Successors(si) {
		js.remaining[succ]--
		if js.remaining[succ] == 0 {
			s.releaseJob(ti, succ, js)
		}
	}
}

// setShareIdx enacts a share by index.
func (s *Sim) setShareIdx(ti, si int, share float64) {
	s.shares[ti][si] = share
	ri := s.srvOf[ti][si]
	s.servers[ri].s.SetWeight(s.clk.NowMs(), s.flowOf[ti][si], share)
	s.armServer(ri)
}

// SetShares enacts a full assignment indexed like the workload.
func (s *Sim) SetShares(shares [][]float64) error {
	if len(shares) != len(s.w.Tasks) {
		return fmt.Errorf("sim: assignment covers %d tasks, want %d", len(shares), len(s.w.Tasks))
	}
	for ti, row := range shares {
		if len(row) != len(s.w.Tasks[ti].Subtasks) {
			return fmt.Errorf("sim: task %s assignment covers %d subtasks, want %d",
				s.w.Tasks[ti].Name, len(row), len(s.w.Tasks[ti].Subtasks))
		}
		for si, v := range row {
			if v < 0 {
				return fmt.Errorf("sim: negative share %v", v)
			}
			s.setShareIdx(ti, si, v)
		}
	}
	return nil
}

// Share returns the currently enacted share of a subtask.
func (s *Sim) Share(ti, si int) float64 { return s.shares[ti][si] }

// RunFor advances the simulation by durMs.
func (s *Sim) RunFor(durMs float64) {
	s.clk.RunUntil(s.clk.NowMs() + durMs)
}

// NowMs returns the simulation time.
func (s *Sim) NowMs() float64 { return s.clk.NowMs() }

// SubtaskLatency exposes the measured latency samples of subtask (ti, si):
// time from release (all predecessors done) to completion.
func (s *Sim) SubtaskLatency(ti, si int) *stats.Reservoir { return s.subLat[ti][si] }

// TaskLatency exposes the measured end-to-end job-set latencies of task ti.
func (s *Sim) TaskLatency(ti int) *stats.Reservoir { return s.taskLat[ti] }

// ResetStats clears all latency samples and utilization accounting (e.g.
// after a warm-up phase or a share change) without disturbing in-flight
// jobs.
func (s *Sim) ResetStats() {
	for ti := range s.subLat {
		for si := range s.subLat[ti] {
			s.subLat[ti][si].Reset()
		}
		s.taskLat[ti].Reset()
	}
	for _, srv := range s.servers {
		srv.taskWorkMs = 0
		srv.statsSinceMs = s.clk.NowMs()
	}
}

// Utilization returns the fraction of the named resource's capacity spent
// on task work (excluding any background reservation) since the last
// ResetStats. It returns false for an unknown resource or an empty window.
func (s *Sim) Utilization(resourceID string) (float64, bool) {
	ri, ok := s.resIdx[resourceID]
	if !ok {
		return 0, false
	}
	srv := s.servers[ri]
	elapsed := s.clk.NowMs() - srv.statsSinceMs
	if elapsed <= 0 {
		return 0, false
	}
	return srv.taskWorkMs / elapsed, true
}

// Backlog returns the queue length of subtask (ti, si) on its resource.
func (s *Sim) Backlog(ti, si int) int {
	return s.servers[s.srvOf[ti][si]].s.Backlog(s.flowOf[ti][si])
}
