// Command lla-workload generates, validates and inspects workload JSON
// files for the other tools.
//
//	lla-workload -generate -seed 7 -tasks 6 -resources 10 > w.json
//	lla-workload -validate w.json
//	lla-workload -describe base
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lla/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lla-workload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lla-workload", flag.ContinueOnError)
	generate := fs.Bool("generate", false, "generate a random workload JSON on stdout")
	validate := fs.String("validate", "", "validate a workload JSON file")
	describe := fs.String("describe", "", `describe a workload: "base", "prototype" or a JSON file`)
	seed := fs.Int64("seed", 1, "generator seed")
	tasks := fs.Int("tasks", 5, "number of tasks to generate")
	resources := fs.Int("resources", 8, "size of the resource pool")
	minSub := fs.Int("min-subtasks", 3, "minimum subtasks per task")
	maxSub := fs.Int("max-subtasks", 7, "maximum subtasks per task")
	slack := fs.Float64("slack", 8, "critical-time slack factor (lower = tighter deadlines)")
	chains := fs.Bool("chains", false, "generate linear chains instead of DAGs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *generate:
		cfg := workload.DefaultRandomConfig(*seed)
		cfg.NumTasks = *tasks
		cfg.NumResources = *resources
		cfg.MinSubtasks = *minSub
		cfg.MaxSubtasks = *maxSub
		cfg.SlackFactor = *slack
		cfg.ChainOnly = *chains
		w, err := workload.Random(cfg)
		if err != nil {
			return err
		}
		out, err := json.Marshal(w)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil

	case *validate != "":
		w, err := workload.Load(*validate)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid (%d tasks, %d subtasks, %d resources)\n",
			*validate, len(w.Tasks), w.TotalSubtasks(), len(w.Resources))
		return nil

	case *describe != "":
		w, err := workload.Load(*describe)
		if err != nil {
			return err
		}
		describeWorkload(w)
		return nil

	default:
		return fmt.Errorf("one of -generate, -validate or -describe is required")
	}
}

// describeWorkload prints a structural summary.
func describeWorkload(w *workload.Workload) {
	fmt.Printf("workload %s: %d tasks, %d subtasks, %d resources\n\n",
		w.Name, len(w.Tasks), w.TotalSubtasks(), len(w.Resources))
	for _, r := range w.Resources {
		fmt.Printf("resource %-10s kind=%-4s availability=%.2f lag=%.1fms\n",
			r.ID, r.Kind, r.Availability, r.LagMs)
	}
	fmt.Println()
	for _, t := range w.Tasks {
		paths, err := t.Paths()
		if err != nil {
			fmt.Printf("task %s: invalid graph: %v\n", t.Name, err)
			continue
		}
		fmt.Printf("task %-12s critical=%.0fms trigger=%v(%.0fms) subtasks=%d paths=%d\n",
			t.Name, t.CriticalMs, t.Trigger.Kind, t.Trigger.PeriodMs, len(t.Subtasks), len(paths))
		for _, s := range t.Subtasks {
			fmt.Printf("  %-8s on %-10s wcet=%.1fms minShare=%.2f\n", s.Name, s.Resource, s.ExecMs, s.MinShare)
		}
	}
}
