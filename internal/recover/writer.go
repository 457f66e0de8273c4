package recover

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ckptExt and ckptPrefix name checkpoint files: ckpt-<generation>.llackpt,
// zero-padded so lexical order is save order. The generation is the Writer's
// own monotone counter, not the engine iteration: workload churn resets the
// engine's iteration counter (ReplaceWorkload), so iteration-keyed names
// would sort a newer checkpoint behind an older one and Latest would resume
// from stale state.
const (
	ckptPrefix = "ckpt-"
	ckptExt    = ".llackpt"
)

// keep is how many checkpoints a Writer retains: enough that one
// torn/corrupt tail file never loses the run.
const keep = 3

// Writer persists checkpoints into a directory with the WAL discipline:
// encode, write to a temp file, fsync, rename into place, fsync the
// directory, then prune old generations. A crash at any point leaves either
// the previous set of complete checkpoints or the previous set plus one new
// complete checkpoint — never a torn file under a checkpoint name.
type Writer struct {
	dir string
	// gen is the next generation number, seeded past the directory's existing
	// checkpoints so a restarted writer keeps appending to the same sequence.
	gen uint64
	// saves counts successful Save calls (telemetry hook for the callers'
	// lla_recover_checkpoints_total).
	saves uint64
	// lastBytes is the size of the most recent encoded checkpoint.
	lastBytes int
}

// NewWriter builds a writer rooted at dir (created if missing), retaining
// the newest keep generations.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recover: creating checkpoint dir: %w", err)
	}
	w := &Writer{dir: dir}
	for _, name := range listCheckpoints(dir) {
		if g, ok := parseGeneration(name); ok && g >= w.gen {
			w.gen = g + 1
		}
	}
	return w, nil
}

// parseGeneration extracts the generation number from a checkpoint filename.
func parseGeneration(name string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptExt)
	g, err := strconv.ParseUint(s, 10, 64)
	return g, err == nil
}

// Dir returns the checkpoint directory.
func (w *Writer) Dir() string { return w.dir }

// Saves returns the count of successful Save calls.
func (w *Writer) Saves() uint64 { return w.saves }

// LastBytes returns the encoded size of the most recent checkpoint.
func (w *Writer) LastBytes() int { return w.lastBytes }

// Save encodes and durably writes one checkpoint, returning its final path.
func (w *Writer) Save(cp *Checkpoint) (string, error) {
	b, err := cp.Encode()
	if err != nil {
		return "", err
	}
	final := filepath.Join(w.dir, fmt.Sprintf("%s%012d%s", ckptPrefix, w.gen, ckptExt))
	tmp, err := os.CreateTemp(w.dir, ckptPrefix+"*.tmp")
	if err != nil {
		return "", fmt.Errorf("recover: creating temp checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("recover: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("recover: publishing checkpoint: %w", err)
	}
	// Persist the rename itself; without this a crash can roll the directory
	// back to a state where the temp file never existed.
	if d, err := os.Open(w.dir); err == nil {
		d.Sync()
		d.Close()
	}
	w.gen++
	w.saves++
	w.lastBytes = len(b)
	w.prune()
	return final, nil
}

// prune removes all but the newest keep checkpoints (best effort).
func (w *Writer) prune() {
	names := listCheckpoints(w.dir)
	for len(names) > keep {
		os.Remove(filepath.Join(w.dir, names[0]))
		names = names[1:]
	}
}

// listCheckpoints returns the checkpoint filenames in dir, oldest first.
func listCheckpoints(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, ckptPrefix) && strings.HasSuffix(n, ckptExt) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Latest loads the newest decodable checkpoint in dir, skipping (but
// reporting in the error on total failure) corrupt files — a torn write or a
// flipped bit in the newest generation falls back to the one before it.
// It returns the checkpoint and its path; os.ErrNotExist when the directory
// holds no checkpoint at all.
func Latest(dir string) (*Checkpoint, string, error) {
	names := listCheckpoints(dir)
	if len(names) == 0 {
		return nil, "", fmt.Errorf("recover: no checkpoints in %s: %w", dir, os.ErrNotExist)
	}
	var lastErr error
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		b, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		cp, err := Decode(b)
		if err != nil {
			lastErr = err
			continue
		}
		return cp, path, nil
	}
	return nil, "", fmt.Errorf("recover: every checkpoint in %s is unreadable (last: %w)", dir, lastErr)
}
