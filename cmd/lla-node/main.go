// Command lla-node runs one LLA node — a resource price agent or a task
// controller — communicating over TCP, so a workload's optimization can be
// spread across processes and machines (Section 4.1 of the paper).
//
// The deployment is described by a workload JSON (see cmd/lla-workload, or
// the built-in names "base" and "prototype") and a registry JSON mapping
// logical node names to host:port. Logical names are "res/<resourceID>",
// "ctl/<taskName>" and optionally "coordinator".
//
//	lla-node -workload base -registry reg.json -role resource -id r0 -rounds 500
//	lla-node -workload base -registry reg.json -role controller -id task1 -rounds 500
//	lla-node -workload base -demo -rounds 500        # all nodes in-process
//	lla-node -workload base -demo -workers 4         # shard local optimizer work
//	lla-node -workload base -print-registry          # template registry
//
// -workers sets core.Config.Workers for every engine-backed computation the
// process hosts (0 = GOMAXPROCS, 1 = serial). The optimizer's sharded
// iteration is bitwise-deterministic, so the setting changes wall-clock
// time only, never results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"lla/internal/core"
	"lla/internal/dist"
	"lla/internal/fleet"
	"lla/internal/obs"
	"lla/internal/price"
	rec "lla/internal/recover"
	"lla/internal/transport"
	"lla/internal/workload"
)

func main() {
	// SIGINT/SIGTERM stop the node gracefully: the protocol loop exits at
	// its next receive, final state is flushed, and endpoints are closed. A
	// second signal kills the process the default way.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lla-node:", err)
		os.Exit(1)
	}
}

// nodeFlags holds every lla-node flag value. newFlagSet is the single place
// flags are declared, so the help test can assert the complete set.
type nodeFlags struct {
	workloadArg, registryPath, role, id, debugAddr, tracePath, solver, checkpointDir *string
	demo, printRegistry, fleetMode                                                   *bool
	rounds, workers, checkpointEvery, shards, shardWorkers                           *int
}

// newFlagSet declares the full lla-node flag set.
func newFlagSet() (*flag.FlagSet, *nodeFlags) {
	fs := flag.NewFlagSet("lla-node", flag.ContinueOnError)
	f := &nodeFlags{
		workloadArg:   fs.String("workload", "base", `workload: "base", "prototype", or a JSON file path`),
		registryPath:  fs.String("registry", "", "JSON file mapping logical node names to host:port"),
		role:          fs.String("role", "", `node role: "resource" or "controller"`),
		id:            fs.String("id", "", "resource ID or task name this node hosts"),
		rounds:        fs.Int("rounds", 500, "number of synchronous optimization rounds"),
		demo:          fs.Bool("demo", false, "run the entire deployment in-process over TCP loopback"),
		printRegistry: fs.Bool("print-registry", false, "print a template registry for the workload and exit"),
		debugAddr:     fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:8080)"),
		tracePath:     fs.String("trace", "", "append JSONL trace events to this file"),
		workers:       fs.Int("workers", 0, "optimizer worker shards for engine-backed computation in this process: 0 = GOMAXPROCS, 1 = serial (results are bitwise-identical either way)"),
		solver:        fs.String("solver", "", "price dynamics: newton (default) or gradient — every node of a deployment must use the same setting"),
		checkpointDir: fs.String("checkpoint-dir", "",
			"demo mode: persist crash-safe checkpoints of the deployment's optimizer state here; they keep the epoch of the newest checkpoint already there"),
		checkpointEvery: fs.Int("checkpoint-every", 0,
			"demo mode: rounds between periodic checkpoint saves (0 = a default period)"),
		fleetMode: fs.Bool("fleet", false,
			"run the hierarchical sharded fleet in-process: partition the workload across shard engines and iterate only the boundary prices (SHARDING.md)"),
		shards: fs.Int("shards", 4, "fleet mode: number of coordinator shards"),
		shardWorkers: fs.Int("shard-workers", 0,
			"fleet mode: concurrent shard sweeps per aggregator round (0 = min(shards, GOMAXPROCS), 1 = serial; results are bitwise identical either way)"),
	}
	return fs, f
}

func run(ctx context.Context, args []string) error {
	fs, f := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	workloadArg := f.workloadArg
	registryPath := f.registryPath
	role := f.role
	id := f.id
	rounds := f.rounds
	demo := f.demo
	printRegistry := f.printRegistry
	debugAddr := f.debugAddr
	tracePath := f.tracePath
	workers := f.workers
	solver := f.solver
	sol, err := price.ParseSolver(*solver)
	if err != nil {
		return err
	}
	cfg := core.Config{Workers: *workers, PriceSolver: sol}

	o, obsDone, err := buildObserver(*debugAddr, *tracePath)
	if err != nil {
		return err
	}
	defer obsDone()

	w, err := workload.Load(*workloadArg)
	if err != nil {
		return err
	}

	if *printRegistry {
		reg := make(map[string]string)
		for _, addr := range dist.Addresses(w) {
			reg[addr] = "127.0.0.1:0"
		}
		out, err := json.MarshalIndent(reg, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	if *f.fleetMode {
		return runFleet(w, cfg, *f.shards, *f.shardWorkers, *rounds, o)
	}

	if *demo {
		return runDemo(ctx, w, cfg, *rounds, o, *f.checkpointDir, *f.checkpointEvery)
	}

	if *registryPath == "" {
		return fmt.Errorf("-registry is required (or use -demo / -print-registry)")
	}
	raw, err := os.ReadFile(*registryPath)
	if err != nil {
		return err
	}
	registry := make(map[string]string)
	if err := json.Unmarshal(raw, &registry); err != nil {
		return fmt.Errorf("parsing registry: %w", err)
	}
	net := transport.NewTCP(registry)
	net.SetCodec(nodeCodec(w, o))

	switch *role {
	case "resource":
		fmt.Fprintf(os.Stderr, "resource node %s: running %d rounds\n", *id, *rounds)
		mu, err := dist.RunResource(ctx, w, cfg, net, *id, *rounds, o)
		if err != nil {
			return err
		}
		fmt.Printf("resource %s final price mu=%.4f\n", *id, mu)
		return nil
	case "controller":
		fmt.Fprintf(os.Stderr, "controller node %s: running %d rounds\n", *id, *rounds)
		lats, utility, err := dist.RunController(ctx, w, cfg, net, *id, *rounds, o)
		if err != nil {
			return err
		}
		fmt.Printf("task %s final utility %.4f\n", *id, utility)
		names := make([]string, 0, len(lats))
		for n := range lats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s latency %.3f ms\n", n, lats[n])
		}
		return nil
	default:
		return fmt.Errorf("unknown role %q (want resource or controller)", *role)
	}
}

// nodeCodec builds the workload's binary codec, publishing lla_wire_*
// metrics when an observer registry exists.
func nodeCodec(w *workload.Workload, o *obs.Observer) transport.Codec {
	var reg *obs.Registry
	if o != nil {
		reg = o.Metrics
	}
	return dist.WireCodec(w, reg)
}

// buildObserver assembles the process's observability from the -debug-addr
// and -trace flags: a metrics registry served over HTTP (with expvar and
// pprof), and a JSONL trace sink appending to a file. Both flags empty means
// no observer (nil) and zero overhead. The returned cleanup flushes and
// closes whatever was opened; it is safe to call unconditionally.
func buildObserver(debugAddr, tracePath string) (*obs.Observer, func(), error) {
	if debugAddr == "" && tracePath == "" {
		return nil, func() {}, nil
	}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	var closers []func()
	if tracePath != "" {
		f, err := os.OpenFile(tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, func() {}, err
		}
		j := obs.NewJSONL(f)
		o.Trace = j
		closers = append(closers, func() {
			if err := j.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "lla-node: trace:", err)
			}
			f.Close()
		})
	}
	if debugAddr != "" {
		srv, addr, err := obs.Serve(debugAddr, o.Metrics, nil)
		if err != nil {
			for _, c := range closers {
				c()
			}
			return nil, func() {}, err
		}
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/metrics (also /debug/vars, /debug/pprof)\n", addr)
		closers = append(closers, func() { srv.Close() })
	}
	return o, func() {
		for _, c := range closers {
			c()
		}
	}, nil
}

// runFleet hosts the hierarchical sharded fleet (SHARDING.md) in one
// process: the workload is partitioned across shard engines and boundary
// resource prices iterate at the aggregator. Nothing crosses a connection:
// shards report demand and take pins in memory.
func runFleet(w *workload.Workload, cfg core.Config, shards, shardWorkers, rounds int, o *obs.Observer) error {
	f, err := fleet.New(w, fleet.Config{
		Shards:       shards,
		Seed:         1,
		ShardWorkers: shardWorkers,
		Engine:       cfg,
		MaxRounds:    rounds,
		Observer:     o,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	part := f.Partition()
	fmt.Fprintf(os.Stderr, "fleet: %d tasks across %d shards, %d boundary resources (cut %d)\n",
		len(w.Tasks), part.Shards, len(part.Boundary), part.CutCost)
	res, err := f.Run()
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v rounds=%d local_iters=%d swept=%d skipped=%d shard_workers=%d kkt=%.3g boundary_residual=%.3g boundary_fallbacks=%d utility=%.3f\n",
		res.Converged, res.Rounds, res.LocalIters, res.SweptShards, res.SkippedShards, res.ShardWorkers,
		res.KKTMax, res.BoundaryResidual, res.BoundaryFallbacks, res.Utility)
	for s := 0; s < part.Shards; s++ {
		fmt.Printf("  shard %d: %d tasks\n", s, len(part.ShardTasks[s]))
	}
	if !res.Converged {
		return fmt.Errorf("fleet did not certify within %d rounds", res.Rounds)
	}
	return nil
}

// runDemo hosts the full deployment in one process over TCP loopback and
// stops it on the KKT certificate. With a checkpoint directory, the run's
// optimizer state is persisted into it — periodically and at the end, under
// the epoch of the newest checkpoint there — via a serial mirror engine (the
// protocol is bitwise-identical to the engine, so the mirror's state IS the
// deployment's).
func runDemo(ctx context.Context, w *workload.Workload, cfg core.Config, rounds int, o *obs.Observer, ckptDir string, ckptEvery int) error {
	registry := make(map[string]string)
	for _, addr := range dist.Addresses(w) {
		registry[addr] = "127.0.0.1:0"
	}
	net := transport.NewTCP(registry)
	net.SetCodec(nodeCodec(w, o))
	rt, err := dist.New(w, cfg, net)
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.Observe(o)
	// A signal mid-run drains the protocol gracefully and reports the state
	// reached so far.
	stopOnSignal := make(chan struct{})
	defer close(stopOnSignal)
	go func() {
		select {
		case <-ctx.Done():
			rt.Shutdown()
		case <-stopOnSignal:
		}
	}()
	fmt.Fprintf(os.Stderr, "demo: %d tasks, %d resources, %d rounds over TCP loopback\n",
		len(w.Tasks), len(w.Resources), rounds)
	res, err := rt.RunUntilKKT(rounds)
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v rounds=%d utility=%.3f\n", res.Converged, res.Rounds, res.Utility)
	if ckptDir != "" {
		if err := checkpointDemo(w, cfg, ckptDir, ckptEvery, res); err != nil {
			return err
		}
	}
	for ti, t := range w.Tasks {
		fmt.Printf("task %s:", t.Name)
		for si, s := range t.Subtasks {
			fmt.Printf(" %s=%.2fms", s.Name, res.LatMs[ti][si])
		}
		fmt.Println()
	}
	return nil
}

// checkpointDemo persists the demo run's optimizer state: a serial mirror
// engine replays the deployment's (bitwise-identical) trajectory up to the
// emitted-round count, saving a generation every ckptEvery rounds and a final
// one. No coordinator crash is scheduled, so every generation carries the
// epoch of the directory's newest checkpoint (0 for a directory without
// one). A directory whose checkpoints are all unreadable is an error: the
// epoch fence must not go backwards.
func checkpointDemo(w *workload.Workload, cfg core.Config, dir string, every int, res *dist.Result) error {
	epoch, err := rec.LatestEpoch(dir)
	if err != nil {
		return err
	}
	wr, err := rec.NewWriter(dir)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(w, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	if every <= 0 {
		every = 50
	}
	for done := 0; done < res.Rounds; {
		n := every
		if done+n > res.Rounds {
			n = res.Rounds - done
		}
		eng.Run(n, nil)
		done += n
		_, err := wr.Save(rec.Capture(eng, rec.CaptureOptions{
			Epoch:     epoch,
			Converged: res.Converged && done == res.Rounds,
		}))
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "checkpointed %d generations into %s (epoch %d)\n", wr.Saves(), dir, epoch)
	return nil
}
