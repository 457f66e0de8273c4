// Package recover implements crash-safe checkpointing for the LLA engine
// (DESIGN.md §13): a versioned, checksummed binary codec over the full
// optimizer state — dual prices, latencies, step-sizer and solver internals,
// active-set fingerprints, admission quarantine clocks, and the workload
// identity — plus an atomic write-rename Writer and a Restore that resumes
// the run bitwise-identically to the uninterrupted one.
//
// The dual prices are a compact, sufficient summary of optimization
// progress (the property the paper's online setting leans on), so a
// checkpoint is small — a few hundred bytes per task — and a restore
// re-converges warm in a handful of rounds instead of a cold re-run.
package recover

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"lla/internal/admit"
	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// Format envelope: magic, a format version, the payload length, the payload,
// and a CRC-32 (IEEE) of the payload. Every multi-byte integer is
// little-endian; every slice and string is u32-length-prefixed. Decoding is
// defensive end to end — truncated, bit-flipped or version-skewed inputs
// produce errors, never panics and never a silently partial load. Version 3
// holds one Dynamics state: step sizes, fallbacks and Newton's safeguard.
// Version 2 (the same, followed by a mixing window only the removed Anderson
// solver filled) and version 1 (the gradient's agent step sizes beside an
// optional Dynamics) still decode, into the same EngineState.
const (
	ckptMagic   = "LLACKPT\x00"
	ckptVersion = 3
)

// Checkpoint is one durable snapshot of a running system.
type Checkpoint struct {
	// Epoch is the coordinator generation the snapshot was taken under
	// (failover fencing, DESIGN.md §13); standalone engines leave it 0.
	Epoch uint64
	// Seed identifies the workload/trace generation seed.
	Seed int64
	// Converged marks an on-converged checkpoint (vs a periodic one).
	Converged bool
	// Solver is the price solver the engine state belongs to.
	Solver price.Solver
	// Workload is the full workload the engine was optimizing; Restore
	// rebuilds the engine from it.
	Workload *workload.Workload
	// Engine is the complete optimizer state.
	Engine core.EngineState
	// Admit carries the admission controller's event counter and quarantine
	// clocks when one is checkpointed (nil otherwise).
	Admit *admit.State
}

// CaptureOptions parameterize Capture.
type CaptureOptions struct {
	Epoch     uint64
	Seed      int64
	Converged bool
	// Admit, when non-nil, has its state captured into the checkpoint.
	Admit *admit.Controller
}

// Capture snapshots a live engine (and optionally its admission controller)
// into a Checkpoint. Call it between Steps, like the engine's mutators.
func Capture(eng *core.Engine, opts CaptureOptions) *Checkpoint {
	cp := &Checkpoint{
		Epoch:     opts.Epoch,
		Seed:      opts.Seed,
		Converged: opts.Converged,
		Solver:    eng.Config().PriceSolver,
		Workload:  eng.CurrentWorkload(),
		Engine:    eng.CaptureState(),
	}
	if opts.Admit != nil {
		st := opts.Admit.State()
		cp.Admit = &st
	}
	return cp
}

// Restore builds a fresh engine from the checkpoint's workload and loads the
// checkpointed state into it, resuming the run bitwise. cfg supplies the
// bitwise-neutral Workers knob and must otherwise match the
// capturing configuration (step policy, weight mode); the price solver is
// forced from the checkpoint so a flag mismatch cannot silently load
// cross-solver state.
func Restore(cp *Checkpoint, cfg core.Config) (*core.Engine, error) {
	cfg.PriceSolver = cp.Solver
	eng, err := core.NewEngine(cp.Workload, cfg)
	if err != nil {
		return nil, fmt.Errorf("recover: rebuilding engine from checkpoint workload: %w", err)
	}
	if err := eng.RestoreState(cp.Engine); err != nil {
		eng.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	return eng, nil
}

// Encode serializes the checkpoint: envelope, payload, checksum.
func (cp *Checkpoint) Encode() ([]byte, error) {
	wj, err := json.Marshal(cp.Workload)
	if err != nil {
		return nil, fmt.Errorf("recover: encoding workload: %w", err)
	}
	hash := sha256.Sum256(wj)

	var p payload
	p.u64(cp.Epoch)
	p.i64(cp.Seed)
	p.bool(cp.Converged)
	p.str(string(cp.Solver))
	p.bytes(wj)
	p.raw(hash[:])
	encodeEngine(&p, &cp.Engine)
	if cp.Admit == nil {
		p.u8(0)
	} else {
		p.u8(1)
		p.i64(int64(cp.Admit.Event))
		p.u32(uint32(len(cp.Admit.Quarantine)))
		for _, q := range cp.Admit.Quarantine {
			p.str(q.Name)
			p.i64(int64(q.Strikes))
			p.i64(int64(q.Until))
		}
	}

	out := make([]byte, 0, len(ckptMagic)+2+4+len(p.b)+4)
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint16(out, ckptVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.b)))
	out = append(out, p.b...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p.b))
	return out, nil
}

// Decode parses and validates an encoded checkpoint. Any corruption —
// truncation, bit flips (caught by the CRC or the workload hash), an
// unsupported version, trailing garbage, or internal inconsistencies — is an
// error.
func Decode(b []byte) (*Checkpoint, error) {
	n := len(ckptMagic)
	if len(b) < n+2+4 {
		return nil, fmt.Errorf("recover: checkpoint truncated (%d bytes)", len(b))
	}
	if string(b[:n]) != ckptMagic {
		return nil, fmt.Errorf("recover: bad checkpoint magic")
	}
	version := binary.LittleEndian.Uint16(b[n:])
	if version < 1 || version > ckptVersion {
		return nil, fmt.Errorf("recover: unsupported checkpoint version %d (have 1..%d)", version, ckptVersion)
	}
	plen := int64(binary.LittleEndian.Uint32(b[n+2:]))
	body := b[n+2+4:]
	if int64(len(body)) != plen+4 {
		return nil, fmt.Errorf("recover: checkpoint payload length %d does not match %d remaining bytes", plen, len(body)-4)
	}
	pay := body[:plen]
	if got, want := crc32.ChecksumIEEE(pay), binary.LittleEndian.Uint32(body[plen:]); got != want {
		return nil, fmt.Errorf("recover: checkpoint checksum mismatch (corrupt)")
	}
	return decodePayload(pay, version)
}

// decodePayload parses the checksummed payload body of the given version.
func decodePayload(pay []byte, version uint16) (*Checkpoint, error) {
	r := &reader{b: pay}
	cp := &Checkpoint{}
	cp.Epoch = r.u64()
	cp.Seed = r.i64()
	cp.Converged = r.bool()
	solver, err := price.ParseSolver(r.str())
	if err != nil && r.err == nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	cp.Solver = solver
	wj := r.bytes()
	var hash [32]byte
	r.raw(hash[:])
	if r.err != nil {
		return nil, r.err
	}
	if sha256.Sum256(wj) != hash {
		return nil, fmt.Errorf("recover: workload hash mismatch (corrupt or cross-version checkpoint)")
	}
	w := &workload.Workload{}
	if err := json.Unmarshal(wj, w); err != nil {
		return nil, fmt.Errorf("recover: decoding checkpoint workload: %w", err)
	}
	cp.Workload = w
	if err := decodeEngine(r, &cp.Engine, version); err != nil {
		return nil, err
	}
	switch r.u8() {
	case 0:
	case 1:
		st := &admit.State{Event: int(r.i64())}
		n := r.len(16) // name + two i64s per entry, minimum
		for i := 0; i < n && r.err == nil; i++ {
			st.Quarantine = append(st.Quarantine, admit.QuarantineEntry{
				Name: r.str(), Strikes: int(r.i64()), Until: int(r.i64()),
			})
		}
		cp.Admit = st
	default:
		if r.err == nil {
			return nil, fmt.Errorf("recover: bad admission-state tag")
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("recover: %d trailing bytes after checkpoint payload", len(r.b)-r.off)
	}
	return cp, nil
}

// encodeEngine appends the engine-state section.
func encodeEngine(p *payload, st *core.EngineState) {
	p.i64(int64(st.Iteration))
	p.u32(uint32(len(st.LatMs)))
	for ti := range st.LatMs {
		p.f64s(st.LatMs[ti])
		p.f64s(st.Lambda[ti])
		p.f64s(st.PathGamma[ti])
		p.f64s(st.ErrMs[ti])
	}
	p.f64s(st.Mu)
	p.f64s(st.ShareSums)
	p.bools(st.Congested)
	p.f64s(st.FpMu)
	p.bools(st.FpCong)
	p.bools(st.CtlSolved)
	p.bools(st.CtlStable)
	p.bools(st.LatChanged)
	p.bools(st.PriceStable)
	p.bools(st.SumValid)
	p.u64(st.Sparse.Iterations)
	p.u64(st.Sparse.SkippedSolves)
	p.u64(st.Sparse.ExecutedSolves)
	p.u64(st.Sparse.CleanResources)
	p.u64(st.Sparse.RepricedResources)
	p.f64(st.DynDelta)
	d := &st.Dyn
	p.str(string(d.Solver))
	p.f64s(d.Gammas)
	p.u64(d.Fallbacks)
	p.bytes(d.Halvings)
	p.bytes(d.Signs)
}

// decodeEngine parses the engine-state section of the given version.
func decodeEngine(r *reader, st *core.EngineState, version uint16) error {
	st.Iteration = int(r.i64())
	nt := r.len(8)
	for ti := 0; ti < nt && r.err == nil; ti++ {
		st.LatMs = append(st.LatMs, r.f64s())
		st.Lambda = append(st.Lambda, r.f64s())
		st.PathGamma = append(st.PathGamma, r.f64s())
		st.ErrMs = append(st.ErrMs, r.f64s())
	}
	st.Mu = r.f64s()
	var agentGamma []float64 // v1: the gradient agents' step sizes
	if version == 1 {
		agentGamma = r.f64s()
	}
	st.ShareSums = r.f64s()
	st.Congested = r.bools()
	st.FpMu = r.f64s()
	st.FpCong = r.bools()
	st.CtlSolved = r.bools()
	st.CtlStable = r.bools()
	st.LatChanged = r.bools()
	st.PriceStable = r.bools()
	st.SumValid = r.bools()
	st.Sparse.Iterations = r.u64()
	st.Sparse.SkippedSolves = r.u64()
	st.Sparse.ExecutedSolves = r.u64()
	st.Sparse.CleanResources = r.u64()
	st.Sparse.RepricedResources = r.u64()
	st.DynDelta = r.f64()
	d := &st.Dyn
	if version == 1 {
		if tag := r.u8(); tag == 0 { // the gradient agent path: its sizers are the whole state
			d.Solver, d.Gammas = price.SolverGradient, agentGamma
			return r.err
		} else if tag != 1 && r.err == nil {
			return fmt.Errorf("recover: bad or unsupported v1 solver-state tag %d", tag)
		}
	}
	solver, err := price.ParseSolver(r.str())
	if err != nil && r.err == nil {
		return fmt.Errorf("recover: %w", err)
	}
	d.Solver = solver
	d.Gammas = r.f64s()
	d.Fallbacks = r.u64()
	if version > 1 {
		d.Halvings, d.Signs = r.bytes(), r.bytes()
	} else if solver == price.SolverNewton { // v1 Newton had no safeguard: start it cleared
		d.Halvings, d.Signs = make([]uint8, len(d.Gammas)), make([]uint8, len(d.Gammas))
	}
	if version < 3 && !emptyAndersonWindow(r) && r.err == nil {
		return fmt.Errorf("recover: checkpoint holds anderson solver history; the anderson solver was removed")
	}
	return r.err
}

// emptyAndersonWindow reads the mixing window versions 1 and 2 close the
// solver state with — a window size, then five length-prefixed slices (fill
// counts, iterates, residuals, accept flags, residual magnitudes) — and
// reports whether it is empty, as it is for every solver but Anderson.
func emptyAndersonWindow(r *reader) bool {
	empty := r.i64() == 0
	for i := 0; i < 5; i++ {
		empty = r.u32() == 0 && empty
	}
	return empty
}

// payload is the append-only encode buffer.
type payload struct{ b []byte }

func (p *payload) u8(v uint8)   { p.b = append(p.b, v) }
func (p *payload) u32(v uint32) { p.b = binary.LittleEndian.AppendUint32(p.b, v) }
func (p *payload) u64(v uint64) { p.b = binary.LittleEndian.AppendUint64(p.b, v) }
func (p *payload) i64(v int64)  { p.u64(uint64(v)) }
func (p *payload) f64(v float64) {
	p.u64(math.Float64bits(v))
}
func (p *payload) bool(v bool) {
	if v {
		p.u8(1)
	} else {
		p.u8(0)
	}
}
func (p *payload) raw(b []byte) { p.b = append(p.b, b...) }
func (p *payload) str(s string) { p.u32(uint32(len(s))); p.b = append(p.b, s...) }
func (p *payload) bytes(b []byte) {
	p.u32(uint32(len(b)))
	p.raw(b)
}
func (p *payload) f64s(v []float64) {
	p.u32(uint32(len(v)))
	for _, x := range v {
		p.f64(x)
	}
}
func (p *payload) bools(v []bool) {
	p.u32(uint32(len(v)))
	for _, x := range v {
		p.bool(x)
	}
}

// reader is the bounds-checked decode cursor: the first failure latches err
// and every subsequent read returns zero values, so decode code can read
// linearly and check err at section boundaries. Slice lengths are validated
// against the remaining byte count before allocating, so hostile length
// prefixes cannot force huge allocations.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("recover: corrupt checkpoint: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64     { return int64(r.u64()) }
func (r *reader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *reader) bool() bool     { return r.u8() != 0 }
func (r *reader) raw(dst []byte) { copy(dst, r.take(len(dst))) }

// len reads a u32 length prefix and validates it against the bytes left,
// assuming each element needs at least elemSize bytes.
func (r *reader) len(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(r.b)-r.off {
		r.fail("length prefix %d exceeds %d remaining bytes", n, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *reader) str() string {
	n := r.len(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *reader) bytes() []byte {
	n := r.len(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *reader) f64s() []float64 {
	n := r.len(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) bools() []bool {
	n := r.len(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.bool()
	}
	return out
}
