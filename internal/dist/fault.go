package dist

import "time"

// FaultPolicy tunes the fault-tolerance machinery of the distributed
// runtimes: sender-side retransmission, receiver-side staleness recovery, and
// lease-based failure detection. The zero value disables a mechanism (a zero
// RetransmitAfter never retransmits, a zero LeaseAfter never declares a peer
// failed); DefaultFaultPolicy returns production-shaped values.
type FaultPolicy struct {
	// RetransmitAfter is how long a node waits for protocol input before
	// re-sending its last output. Retries back off exponentially (with
	// jitter) up to RetransmitMax. In async mode it is also the heartbeat
	// interval: an idle node rebroadcasts its state every RetransmitAfter.
	RetransmitAfter time.Duration
	// RetransmitMax caps the retransmission backoff.
	RetransmitMax time.Duration
	// LeaseAfter is how long a peer may stay silent before it is considered
	// failed. Async controllers then freeze the peer's last-known price and
	// clamp allocations deadline-safe; the coordinator counts the expiration.
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
