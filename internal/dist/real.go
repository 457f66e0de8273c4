package dist

import (
	"fmt"
	"time"

	"lla/internal/obs"
	"lla/internal/transport"
)

// drive is the real driver: it runs one machine on the calling goroutine
// over its endpoint and the wall clock until the machine finishes, blocking
// in one select on the inbox, one reusable timer and the stop channel.
//
// The timer is lazy. A machine moves its wake deadline on almost every
// message (the retransmission window restarts), so the timer is only reset
// when the deadline moves earlier than what is armed; a timer that fires
// before the machine's current deadline costs one evTimer the machine
// ignores, after which it is armed again. That is a timer operation per
// retransmission window, not per message.
func drive(m machine, ep transport.Endpoint, stop <-chan struct{}, o *obs.Observer) error {
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var armed time.Duration // the deadline the timer is set for; 0: none

	ev := event{kind: evStart}
	for {
		now := time.Since(start)
		eff := m.step(now, ev)
		publish(o, m, eff, 0)
		for i := range eff.sends {
			s := &eff.sends[i]
			if err := ep.Send(s.to, s.kind, s.payload); err != nil && s.must {
				_, _, addr := m.ids()
				return fmt.Errorf("dist: %s: %w", addr, err)
			}
		}
		if eff.done {
			return eff.err
		}
		if eff.wake != 0 && (armed == 0 || eff.wake < armed) {
			// A value left in the channel by a timer that fired while being
			// re-armed is one spurious wake, which is harmless.
			armed = eff.wake
			timer.Stop()
			timer.Reset(armed - now)
		}
		select {
		case msg, ok := <-ep.Recv():
			switch {
			case ok:
				ev = event{kind: evMessage, msg: msg}
			case transport.Stopped(stop):
				ev = event{kind: evStop}
			default:
				ev = event{kind: evClosed}
			}
		case <-timer.C:
			armed = 0
			ev = event{kind: evTimer}
		case <-stop:
			ev = event{kind: evStop}
		}
	}
}
