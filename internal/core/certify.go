package core

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

// Certify grades the current point against the stopping rule
//
//	KKTMax < kktTol && MaxResourceViolation < tol && MaxPathViolationFrac < tol
//
// in one allocation-free pass over resources and tasks. The pass returns
// false at the first witness — a resource or task that alone breaks a
// tolerance — and remembers it, so the next call starts there: while the
// iteration is still far from the fixed point a check costs O(1) tasks
// instead of a dense scan. A true verdict has necessarily visited
// everything, and only then are the returned maxima complete; they are
// bitwise the values KKTStats and Probe report (a maximum does not depend
// on scan order, and NaN enters neither side). On false the certificate
// covers only what was scanned up to and including the witness.
//
// The verdict is the same boolean as the dense rule for every tolerance,
// including kktTol <= 0 or NaN (never certifies); infinite tolerances
// never short-circuit and so always yield the complete maxima. The witness
// cursor is scratch, not optimizer state: it cannot change a verdict and is
// not carried by State, Fork or CarryFrom. Like Step, Certify must be
// called from the goroutine driving the engine.
func (e *Engine) Certify(kktTol, tol float64) (Certificate, bool) {
	var c Certificate
	nr := len(e.price)
	n := nr + len(e.p.Tasks)
	i := e.certCursor
	for k := 0; k < n; k++ {
		var ok bool
		if i < nr {
			ok = e.certifyResource(i, tol, &c)
		} else {
			ok = e.certifyTask(i-nr, kktTol, tol, &c)
		}
		if !ok {
			e.certCursor = i
			return c, false
		}
		if i++; i == n {
			i = 0
		}
	}
	return c, c.KKTMax < kktTol && c.MaxResourceViolation < tol && c.MaxPathViolationFrac < tol
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

// certifyTask folds task ti's interior residuals and critical path into c
// and reports whether all of them stay inside their tolerances.
func (e *Engine) certifyTask(ti int, kktTol, tol float64, c *Certificate) bool {
	f := kktFold{max: c.KKTMax}
	ok := e.taskKKT(ti, kktTol, &f)
	c.KKTMax = f.max
	if !ok {
		return false
	}
	cp, _ := e.p.criticalPath(ti, e.taskLat(ti))
	crit := e.p.consts[ti].criticalMs
	frac := (cp - crit) / crit
	if frac > c.MaxPathViolationFrac {
		c.MaxPathViolationFrac = frac
	}
	return !(frac >= tol)
}
