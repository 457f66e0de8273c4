package dist

import (
	"lla/internal/obs"
	"lla/internal/wire"
	"lla/internal/workload"
)

// WireCodec returns the binary frame codec preloaded with the workload's
// name dictionary (compiled resource/task/subtask order, the same order
// every node derives from the same workload), so frames carry varint
// indexes instead of entity names. reg may be nil; pass the run's registry
// to publish lla_wire_* metrics.
//
// The returned codec plugs into transport.TCP.SetCodec (genuine
// deployments) or transport.Inproc.SetCodec (in-process runs exercising
// the wire bytes).
func WireCodec(w *workload.Workload, reg *obs.Registry) *wire.Codec {
	resources := make([]string, len(w.Resources))
	for i, r := range w.Resources {
		resources[i] = r.ID
	}
	tasks := make([]string, len(w.Tasks))
	subs := make([][]string, len(w.Tasks))
	for i, t := range w.Tasks {
		tasks[i] = t.Name
		names := make([]string, len(t.Subtasks))
		for j, s := range t.Subtasks {
			names[j] = s.Name
		}
		subs[i] = names
	}
	d, err := wire.NewDict(resources, tasks, subs)
	if err != nil {
		// Duplicate names fail the workload's own check, which New runs
		// before any frame is sent; until then the empty dictionary
		// refuses, by name, every frame that would need one.
		d = nil
	}
	c := wire.NewCodec(d)
	c.Observe(reg)
	return c
}
