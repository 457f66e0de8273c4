// Package recover implements crash-safe checkpointing for the LLA engine
// (DESIGN.md §13): a versioned, checksummed binary format over the full
// optimizer state — dual prices, latencies, step-sizer and solver internals,
// active-set flags, admission quarantine clocks, and the workload
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

	"lla/internal/admit"
	"lla/internal/byteio"
	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// Format envelope: magic, a format version, the payload length, the payload,
// and a CRC-32 (IEEE) of the payload. Every multi-byte integer is
// little-endian; every slice and string is u32-length-prefixed. The payload
// is a header (epoch, seed, converged flag, solver name), the workload as
// JSON with its SHA-256, the engine section, written and read by core.Engine
// (AppendCheckpoint, ReadCheckpoint), and the admission section. The version
// is the engine section's layout version (core.CheckpointVersion), and
// Decode refuses any other.
//
// Decode checks the envelope, the header and the workload; a checkpoint that
// passes holds its two sections as bytes. Restore reads them into the engine
// it builds, so a section that is malformed — truncated, trailing bytes, the
// wrong shape for its workload, a value no run produces — is refused there.
// Nothing corrupt produces a panic or a silently partial load.
const (
	ckptMagic   = "LLACKPT\x00"
	ckptVersion = core.CheckpointVersion
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

	// sections are the engine section followed by the admission section,
	// as encoded. err is a failure to write them (a non-finite engine
	// value), reported by Encode.
	sections []byte
	err      error
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
	var w byteio.Enc
	eng.AppendCheckpoint(&w)
	if opts.Admit == nil {
		w.U8(0)
	} else {
		st := opts.Admit.State()
		w.U8(1)
		w.U64(uint64(st.Event))
		w.U32(uint32(len(st.Quarantine)))
		for _, q := range st.Quarantine {
			putStr(&w, q.Name)
			w.U64(uint64(q.Strikes))
			w.U64(uint64(q.Until))
		}
	}
	return &Checkpoint{
		Epoch:     opts.Epoch,
		Seed:      opts.Seed,
		Converged: opts.Converged,
		Solver:    eng.Config().PriceSolver,
		Workload:  eng.CurrentWorkload(),
		sections:  w.B,
		err:       w.Err,
	}
}

// Restore builds a fresh engine from the checkpoint's workload, reads the
// engine section into it and returns it with the admission state (nil when
// none was captured), resuming the run bitwise. cfg supplies the
// bitwise-neutral Workers knob and must otherwise match the capturing
// configuration (step policy, weight mode); the price solver is forced from
// the checkpoint so a flag mismatch cannot silently load cross-solver state.
// A malformed section is an error, and no engine is returned.
func Restore(cp *Checkpoint, cfg core.Config) (*core.Engine, *admit.State, error) {
	cfg.PriceSolver = cp.Solver
	eng, err := core.NewEngine(cp.Workload, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("recover: rebuilding engine from checkpoint workload: %w", err)
	}
	d := byteio.Dec{Buf: cp.sections}
	eng.ReadCheckpoint(&d)
	st := readAdmit(&d)
	if err := d.Done(); err != nil {
		eng.Close()
		return nil, nil, fmt.Errorf("recover: corrupt checkpoint: %w", err)
	}
	return eng, st, nil
}

// readAdmit reads the admission section: a presence tag, then the event
// counter and the quarantine entries. The entries must name strictly
// ascending tasks (so no name twice) with at least one strike each, and the
// event counter must not be negative — what admit.Controller.State writes.
func readAdmit(d *byteio.Dec) *admit.State {
	switch tag := d.U8(); {
	case tag == 0 || d.Err != nil:
		return nil
	case tag != 1:
		d.Fail("bad admission-state tag %d", tag)
		return nil
	}
	st := &admit.State{Event: int(d.U64())}
	if st.Event < 0 && d.Err == nil {
		d.Fail("admission event counter %d is negative", st.Event)
	}
	n := int(d.U32())
	if n > d.Remaining()/20 { // a name's length prefix and two counters each
		d.Fail("%d quarantine entries exceed the %d bytes left", n, d.Remaining())
	}
	for i := 0; i < n && d.Err == nil; i++ {
		q := admit.QuarantineEntry{Name: readStr(d), Strikes: int(d.U64()), Until: int(d.U64())}
		switch {
		case d.Err != nil:
		case i > 0 && q.Name <= st.Quarantine[i-1].Name:
			d.Fail("quarantine entry %q after %q: duplicate or out of order", q.Name, st.Quarantine[i-1].Name)
		case q.Strikes < 1:
			d.Fail("quarantine entry %q has %d strikes", q.Name, q.Strikes)
		}
		st.Quarantine = append(st.Quarantine, q)
	}
	return st
}

// Encode serializes the checkpoint: envelope, payload, checksum.
func (cp *Checkpoint) Encode() ([]byte, error) {
	if cp.err != nil {
		return nil, fmt.Errorf("recover: encoding engine state: %w", cp.err)
	}
	wj, err := json.Marshal(cp.Workload)
	if err != nil {
		return nil, fmt.Errorf("recover: encoding workload: %w", err)
	}
	hash := sha256.Sum256(wj)

	const hdr = len(ckptMagic) + 2 + 4
	w := byteio.Enc{B: make([]byte, hdr, hdr+64+len(wj)+len(cp.sections)+4)}
	w.U64(cp.Epoch)
	w.U64(uint64(cp.Seed))
	if cp.Converged {
		w.U8(1)
	} else {
		w.U8(0)
	}
	putStr(&w, string(cp.Solver))
	w.U32(uint32(len(wj)))
	w.B = append(w.B, wj...)
	w.B = append(w.B, hash[:]...)
	w.B = append(w.B, cp.sections...)

	out, pay := w.B, w.B[hdr:]
	copy(out, ckptMagic)
	binary.LittleEndian.PutUint16(out[len(ckptMagic):], ckptVersion)
	binary.LittleEndian.PutUint32(out[len(ckptMagic)+2:], uint32(len(pay)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(pay)), nil
}

// Decode parses and validates an encoded checkpoint's envelope, header and
// workload. Any corruption there — truncation, bit flips (caught by the CRC
// or the workload hash), a version other than ckptVersion, trailing
// garbage — is an error. The sections are read, and checked, by Restore.
func Decode(b []byte) (*Checkpoint, error) {
	n := len(ckptMagic)
	if len(b) < n+2+4 {
		return nil, fmt.Errorf("recover: checkpoint truncated (%d bytes)", len(b))
	}
	if string(b[:n]) != ckptMagic {
		return nil, fmt.Errorf("recover: bad checkpoint magic")
	}
	if version := binary.LittleEndian.Uint16(b[n:]); version != ckptVersion {
		return nil, fmt.Errorf("recover: checkpoint version %d refused: only version %d is read", version, ckptVersion)
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
	return decodePayload(pay)
}

// decodePayload parses the checksummed payload up to its sections, which it
// keeps as bytes.
func decodePayload(pay []byte) (*Checkpoint, error) {
	d := byteio.Dec{Buf: pay}
	cp := &Checkpoint{}
	cp.Epoch = d.U64()
	cp.Seed = int64(d.U64())
	cp.Converged = d.U8() != 0
	solver, err := price.ParseSolver(readStr(&d))
	if err != nil && d.Err == nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	cp.Solver = solver
	wj := d.Take(int(d.U32()))
	hash := d.Take(sha256.Size)
	if d.Err != nil {
		return nil, fmt.Errorf("recover: corrupt checkpoint: %w", d.Err)
	}
	if sha256.Sum256(wj) != [sha256.Size]byte(hash) {
		return nil, fmt.Errorf("recover: workload hash mismatch (corrupt or cross-version checkpoint)")
	}
	cp.Workload = &workload.Workload{}
	if err := json.Unmarshal(wj, cp.Workload); err != nil {
		return nil, fmt.Errorf("recover: decoding checkpoint workload: %w", err)
	}
	cp.sections = append([]byte(nil), d.Take(d.Remaining())...)
	return cp, nil
}

// putStr writes a u32-length-prefixed string.
func putStr(w *byteio.Enc, s string) {
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
}

// readStr reads what putStr wrote.
func readStr(d *byteio.Dec) string { return string(d.Take(int(d.U32()))) }
