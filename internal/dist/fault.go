package dist

import "time"

// FaultPolicy tunes the fault-tolerance machinery of the distributed
// runtime: sender-side retransmission, receiver-side staleness recovery, and
// the coordinator's report leases. The zero value disables a mechanism (a
// zero RetransmitAfter never retransmits, a zero LeaseAfter never expires a
// lease); DefaultFaultPolicy returns production-shaped values.
type FaultPolicy struct {
	// RetransmitAfter is how long a node waits for protocol input before
	// re-sending its last output. Retries back off exponentially (with
	// jitter) up to RetransmitMax.
	RetransmitAfter time.Duration
	// RetransmitMax caps the retransmission backoff.
	RetransmitMax time.Duration
	// LeaseAfter is how long a controller may go without reporting before
	// the coordinator counts its report lease expired.
	LeaseAfter time.Duration
}

// DefaultFaultPolicy returns the policy the runtimes use unless overridden.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{
		RetransmitAfter: 25 * time.Millisecond,
		RetransmitMax:   500 * time.Millisecond,
		LeaseAfter:      150 * time.Millisecond,
	}
}
