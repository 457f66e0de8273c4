package dist

import (
	"context"
	"fmt"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/transport"
	"lla/internal/workload"
)

// Standalone node entry points: each process compiles the (identical,
// deterministic) problem locally and runs exactly one node, so a deployment
// can spread resources and controllers across machines (cmd/lla-node).
// Standalone nodes do not send coordinator reports — a deployment without a
// coordinator simply runs for the fixed number of rounds.
//
// Step sizers come from core.Config.NewStepSizer — the same constructor the
// engine uses — so a standalone node's price dynamics match the reference
// engine exactly (TestConfigDefaultsSingleSource pins this).

// RunResource runs the price agent of one resource for the given number of
// rounds over the network, blocking until the protocol completes or ctx is
// cancelled (a cancellation stops the node gracefully, flushing its state).
// It returns the final resource price.
func RunResource(ctx context.Context, w *workload.Workload, cfg core.Config, net transport.Network, resourceID string, rounds int) (float64, error) {
	return RunResourceObserved(ctx, w, cfg, net, resourceID, rounds, nil)
}

// RunResourceObserved is RunResource with observability attached: the node's
// retransmit/stale counters increment live on the observer's registry and
// the per-resource gauges (share sum, utilization, price) refresh each
// completed round. A nil observer behaves exactly like RunResource.
func RunResourceObserved(ctx context.Context, w *workload.Workload, cfg core.Config, net transport.Network, resourceID string, rounds int, o *obs.Observer) (float64, error) {
	cfg = cfg.WithDefaults()
	p, err := core.Compile(w, cfg.WeightMode)
	if err != nil {
		return 0, err
	}
	ri := -1
	for i := range p.Resources {
		if p.Resources[i].ID == resourceID {
			ri = i
			break
		}
	}
	if ri < 0 {
		return 0, fmt.Errorf("dist: unknown resource %q", resourceID)
	}
	ep, err := net.Endpoint(resourceAddr(resourceID))
	if err != nil {
		return 0, err
	}
	defer ep.Close()
	node := newResourceNode(p, ri, cfg, ep)
	node.fp, node.stop = DefaultFaultPolicy(), ctx.Done()
	node.observe(o)
	if err := node.run(rounds); err != nil {
		return 0, err
	}
	return node.agent.mu, nil
}

// RunController runs the task controller of one task for the given number
// of rounds, blocking until the protocol completes or ctx is cancelled. It
// returns the final per-subtask latencies keyed by subtask name, and the
// final task utility.
func RunController(ctx context.Context, w *workload.Workload, cfg core.Config, net transport.Network, taskName string, rounds int) (map[string]float64, float64, error) {
	return RunControllerObserved(ctx, w, cfg, net, taskName, rounds, nil)
}

// RunControllerObserved is RunController with observability attached: the
// node's retransmit/stale counters increment live on the observer's
// registry. A nil observer behaves exactly like RunController.
func RunControllerObserved(ctx context.Context, w *workload.Workload, cfg core.Config, net transport.Network, taskName string, rounds int, o *obs.Observer) (map[string]float64, float64, error) {
	cfg = cfg.WithDefaults()
	p, err := core.Compile(w, cfg.WeightMode)
	if err != nil {
		return nil, 0, err
	}
	ti := -1
	for i := range p.Tasks {
		if p.Tasks[i].Name == taskName {
			ti = i
			break
		}
	}
	if ti < 0 {
		return nil, 0, fmt.Errorf("dist: unknown task %q", taskName)
	}
	ep, err := net.Endpoint(controllerAddr(taskName))
	if err != nil {
		return nil, 0, err
	}
	defer ep.Close()
	ctl := core.NewController(p, ti, cfg.Step, cfg.MaxInner)
	node := newControllerNode(p, ti, ctl, ep)
	node.reports = false
	node.fp, node.stop = DefaultFaultPolicy(), ctx.Done()
	node.observe(o)
	if err := node.run(rounds); err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64, len(ctl.LatMs))
	for si, lat := range ctl.LatMs {
		out[p.Tasks[ti].SubtaskNames[si]] = lat
	}
	return out, ctl.Utility(), nil
}

// Addresses returns the logical endpoint names a workload's deployment
// needs (controllers, resources, coordinator), for building transport
// registries.
func Addresses(w *workload.Workload) []string {
	out := []string{coordinatorAddr}
	for _, t := range w.Tasks {
		out = append(out, controllerAddr(t.Name))
	}
	for _, r := range w.Resources {
		out = append(out, resourceAddr(r.ID))
	}
	return out
}
