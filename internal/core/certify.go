package core

import "sync/atomic"

// Certificate holds the three maxima of the KKT stopping rule shared by
// RunUntilKKT and the fleet's shard sweeps.
type Certificate struct {
	// KKTMax is the worst normalized Equation 7 residual over interior
	// subtasks (KKTStats' max).
	KKTMax float64
	// MaxResourceViolation is max_r (Σshare − B_r) over the resources whose
	// price the engine owns, clamped at 0. Pinned resources are excluded:
	// their prices are an external iterate (the fleet aggregator's), and
	// while it is still searching, local demand against an underpriced
	// boundary resource legitimately exceeds capacity. Without pins this is
	// Probe's MaxResourceViolation.
	MaxResourceViolation float64
	// MaxPathViolationFrac matches Probe.MaxPathViolationFrac.
	MaxPathViolationFrac float64
}

// merge is the certificate over c's items and o's: a maximum is exact and
// does not depend on the order it is taken in, and neither side holds a NaN.
func (c Certificate) merge(o Certificate) Certificate {
	return Certificate{
		KKTMax:               max(c.KKTMax, o.KKTMax),
		MaxResourceViolation: max(c.MaxResourceViolation, o.MaxResourceViolation),
		MaxPathViolationFrac: max(c.MaxPathViolationFrac, o.MaxPathViolationFrac),
	}
}

// certScan is the pooled certificate's scratch, built on the first pooled
// Certify like Engine.shard: the bound range function the pool calls, the
// tolerances of the call in flight, the flag a witness raises and each
// range's result.
type certScan struct {
	run         func(int)
	kktTol, tol float64
	found       atomic.Bool
	slots       []certSlot
}

// certSlot is one range's result: its maxima and its witness, -1 if none.
type certSlot struct {
	c       Certificate
	witness int
}

// Certify grades the current point against the stopping rule
//
//	KKTMax < kktTol && MaxResourceViolation < tol && MaxPathViolationFrac < tol
//
// without allocating. It returns false at the first witness — a resource or
// task that alone breaks a tolerance — and remembers it. The next call
// re-checks that witness first, on the calling goroutine: while the iteration
// is still far from the fixed point the witness usually still stands, so the
// check costs O(1) and never dispatches. Past it, the scan runs as nshards
// ranges on the engine's worker pool (certRange), each folding its own
// maxima and stopping at its own first witness or as soon as another range
// has found one. With one shard the single range runs inline: the serial
// scan from the cursor on.
//
// A true verdict has necessarily visited everything, and only then are the
// returned maxima complete. They are the ranges' maxima reduced with max,
// which is exact and order-free, so they are bitwise the values KKTStats and
// Probe report. On false the certificate covers only what was scanned.
//
// The verdict is the same boolean as the dense rule for every tolerance,
// including kktTol <= 0 or NaN (never certifies); infinite tolerances
// never short-circuit and so always yield the complete maxima. The witness
// cursor is scratch, not optimizer state: it cannot change a verdict and is
// not carried by State or CarryFrom. Like Step, Certify must be
// called from the goroutine driving the engine; the ranges only read it.
func (e *Engine) Certify(kktTol, tol float64) (Certificate, bool) {
	var c Certificate
	if !e.certifyAt(e.certCursor, kktTol, tol, &c) {
		return c, false
	}
	witness := -1
	if e.nshards == 1 {
		var r Certificate
		r, witness = e.certRange(0, kktTol, tol, nil)
		c = c.merge(r)
	} else {
		cs := e.certScratch()
		cs.kktTol, cs.tol = kktTol, tol
		cs.found.Store(false)
		pool := e.workerPool()
		pool.Run(e.nshards, cs.run)
		for _, s := range cs.slots {
			c = c.merge(s.c)
			if witness < 0 {
				witness = s.witness
			}
		}
	}
	if witness >= 0 {
		e.certCursor = witness
		return c, false
	}
	return c, c.KKTMax < kktTol && c.MaxResourceViolation < tol && c.MaxPathViolationFrac < tol
}

// certScratch returns the pooled scan's scratch, building it on first use.
func (e *Engine) certScratch() *certScan {
	if e.cert == nil {
		cs := &certScan{slots: make([]certSlot, e.nshards)}
		cs.run = func(k int) {
			s := &cs.slots[k]
			s.c, s.witness = e.certRange(k, cs.kktTol, cs.tol, &cs.found)
		}
		e.cert = cs
	}
	return e.cert
}

// certRange scans range k of Certify's nshards: resources
// [k·nr/ns, (k+1)·nr/ns), then tasks [k·nt/ns, (k+1)·nt/ns) — runShard's
// split, each balanced on its own — as indices of Certify's space (resource
// i, or task i−nr). The range holding the cursor, which Certify has already
// checked, starts just after it and wraps, so a single range is the serial
// scan. It stops at its first witness, raising stop, or once another range
// has raised it; stop is nil when the range runs alone.
func (e *Engine) certRange(k int, kktTol, tol float64, stop *atomic.Bool) (c Certificate, witness int) {
	nr, nt, ns := len(e.price), len(e.p.Tasks), e.nshards
	rlo, rhi := k*nr/ns, (k+1)*nr/ns
	tlo, thi := nr+k*nt/ns, nr+(k+1)*nt/ns
	m := rhi - rlo + thi - tlo
	j, n := 0, m // position in the range, items left to scan
	if cur := e.certCursor; cur >= rlo && cur < rhi {
		j, n = cur-rlo+1, m-1
	} else if cur >= tlo && cur < thi {
		j, n = rhi-rlo+cur-tlo+1, m-1
	}
	for ; n > 0; n-- {
		if j == m {
			j = 0
		}
		i := rlo + j
		if i >= rhi {
			i += tlo - rhi
		}
		if stop != nil && stop.Load() {
			return c, -1
		}
		if !e.certifyAt(i, kktTol, tol, &c) {
			if stop != nil {
				stop.Store(true)
			}
			return c, i
		}
		j++
	}
	return c, -1
}

// certifyAt folds item i of Certify's index space — resource i, or task
// i−nr past the resources — into c and reports whether it stays inside the
// tolerances.
func (e *Engine) certifyAt(i int, kktTol, tol float64, c *Certificate) bool {
	if nr := len(e.price); i >= nr {
		ti, p := i-nr, e.p
		return p.CertifyTask(ti, e.taskLat(ti), e.lambda[p.pathOff[ti]:p.pathOff[ti+1]], e.price, kktTol, tol, c)
	}
	return e.certifyResource(i, tol, c)
}

// certifyResource folds resource ri into c and reports whether it stays
// inside tol.
func (e *Engine) certifyResource(ri int, tol float64, c *Certificate) bool {
	if e.PinnedAt(ri) {
		return true
	}
	over := e.shareSums[ri] - e.p.Resources[ri].Availability
	if over > c.MaxResourceViolation {
		c.MaxResourceViolation = over
	}
	return !(over >= tol) // not over < tol: a NaN is no witness, as it is no maximum
}

// CertifyTask folds into c task ti's Equation 7 residuals over its interior
// subtasks and its critical-path violation at latencies lat, path prices
// lambda and resource prices mu (indexed like Resources), and reports
// whether all of them stay inside kktTol and tol. It stops at the first
// residual >= kktTol; infinite tolerances never stop and fold the task
// completely. It is the one grading of a task: Engine.Certify calls it on
// the engine's arrays, a distributed controller on its own state.
func (p *Problem) CertifyTask(ti int, lat, lambda, mu []float64, kktTol, tol float64, c *Certificate) bool {
	f := kktFold{max: c.KKTMax}
	ok := p.taskKKT(ti, lat, lambda, mu, kktTol, &f)
	c.KKTMax = f.max
	if !ok {
		return false
	}
	cp, _ := p.criticalPath(ti, lat)
	crit := p.consts[ti].criticalMs
	frac := (cp - crit) / crit
	if frac > c.MaxPathViolationFrac {
		c.MaxPathViolationFrac = frac
	}
	return !(frac >= tol)
}
