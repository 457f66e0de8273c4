package wire

import (
	"fmt"
	"hash/fnv"
)

// Dict is the shared name dictionary through which frames refer to
// resources, tasks and subtasks, by small varint indexes. Both peers derive
// it deterministically from the same compiled workload (compiled
// resource/task order), and the negotiation handshake compares a 64-bit
// hash of the contents: peers whose dictionaries disagree refuse the
// connection rather than risk misnaming an entity (PROTOCOL.md §5).
//
// A Dict is immutable after construction and safe for concurrent use.
type Dict struct {
	resources []string
	tasks     []string
	subs      [][]string
	// resAddrs and ctlAddrs are the endpoint addresses of the names above,
	// built once so decoding an address allocates nothing.
	resAddrs, ctlAddrs []string

	resIdx  map[string]int
	taskIdx map[string]int
	subIdx  []map[string]int

	hash uint64
}

// NewDict builds a dictionary from the compiled resource ids, task names,
// and per-task subtask names (subs[i] lists task i's subtasks; subs may be
// nil when no latency frame will name a subtask). Duplicate names within
// a namespace are rejected: an ambiguous index could silently misroute a
// price.
func NewDict(resources, tasks []string, subs [][]string) (*Dict, error) {
	if subs != nil && len(subs) != len(tasks) {
		return nil, fmt.Errorf("wire: %d subtask lists for %d tasks", len(subs), len(tasks))
	}
	d := &Dict{
		resources: append([]string(nil), resources...),
		tasks:     append([]string(nil), tasks...),
		resAddrs:  make([]string, len(resources)),
		ctlAddrs:  make([]string, len(tasks)),
		resIdx:    make(map[string]int, len(resources)),
		taskIdx:   make(map[string]int, len(tasks)),
		subIdx:    make([]map[string]int, len(tasks)),
	}
	for i, r := range d.resources {
		if _, dup := d.resIdx[r]; dup {
			return nil, fmt.Errorf("wire: duplicate resource id %q", r)
		}
		d.resIdx[r] = i
		d.resAddrs[i] = "res/" + r
	}
	d.subs = make([][]string, len(tasks))
	for i, t := range d.tasks {
		if _, dup := d.taskIdx[t]; dup {
			return nil, fmt.Errorf("wire: duplicate task name %q", t)
		}
		d.taskIdx[t] = i
		d.ctlAddrs[i] = "ctl/" + t
		if subs != nil {
			d.subs[i] = append([]string(nil), subs[i]...)
		}
		d.subIdx[i] = make(map[string]int, len(d.subs[i]))
		for j, s := range d.subs[i] {
			if _, dup := d.subIdx[i][s]; dup {
				return nil, fmt.Errorf("wire: duplicate subtask name %q in task %q", s, t)
			}
			d.subIdx[i][s] = j
		}
	}
	d.hash = d.computeHash()
	return d, nil
}

// emptyDict is the dictionary of a codec built without one. It names
// nothing and hashes to 0.
var emptyDict = &Dict{}

// Hash returns the dictionary content hash exchanged during negotiation.
func (d *Dict) Hash() uint64 { return d.hash }

// computeHash folds every name, with namespace markers and terminators so
// that ["ab"] and ["a","b"] hash differently, through FNV-1a.
func (d *Dict) computeHash() uint64 {
	h := fnv.New64a()
	put := func(ns byte, name string) { h.Write(append(append([]byte{ns}, name...), 0)) }
	for _, r := range d.resources {
		put('r', r)
	}
	for i, t := range d.tasks {
		put('t', t)
		for _, s := range d.subs[i] {
			put('s', s)
		}
	}
	return h.Sum64()
}
