package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"time"

	"lla/internal/wire"
)

// InprocConfig tunes the in-process network. It delivers every message
// immediately and in order per sender-receiver pair; faulty networks are
// dist.NewSim's.
type InprocConfig struct {
	// QueueLen is the per-endpoint inbox capacity (default 1024). Send to an
	// endpoint whose inbox is full fails; it does not block.
	QueueLen int
	// RegistrationWait makes Send retry for up to this duration when the
	// destination endpoint has never been registered, mirroring the TCP
	// transport's RetryWindow so that independently started nodes can come
	// up in any order. Zero fails unknown destinations immediately. An
	// address that was registered and has closed is gone, not late: Send to
	// it fails immediately either way, until the address is registered again.
	RegistrationWait time.Duration
}

// Inproc is a channel-based Network for tests and single-process runs.
type Inproc struct {
	cfg InprocConfig

	// codec, when set, round-trips every delivery through an encode/decode
	// cycle, so in-process runs exercise exactly the bytes a TCP deployment
	// would ship (the wire-codec chaos tests rely on this). Without one the
	// receiver gets the sender's payload value as is.
	codec Codec

	mu sync.Mutex
	// endpoints maps an address to its endpoint, or to nil once that has
	// closed and not been registered again.
	endpoints map[string]*inprocEndpoint
}

var _ Network = (*Inproc)(nil)

// NewInproc returns an in-process network.
func NewInproc(cfg InprocConfig) *Inproc {
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 1024
	}
	return &Inproc{cfg: cfg, endpoints: make(map[string]*inprocEndpoint)}
}

// Endpoint implements Network.
func (n *Inproc) Endpoint(addr string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("transport: empty address")
	}
	if n.endpoints[addr] != nil {
		return nil, fmt.Errorf("transport: endpoint %q already registered", addr)
	}
	ep := &inprocEndpoint{
		net:  n,
		addr: addr,
		in:   make(chan Message, n.cfg.QueueLen),
	}
	n.endpoints[addr] = ep
	return ep, nil
}

// SetCodec makes every delivery round-trip through the codec's frame
// encoding. Set before any endpoint sends; the codec must be safe for
// concurrent use (deliveries run on sender goroutines).
func (n *Inproc) SetCodec(c Codec) { n.codec = c }

// lookup resolves a registered endpoint; gone reports that the address was
// registered once and has closed.
func (n *Inproc) lookup(addr string) (ep *inprocEndpoint, gone bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, known := n.endpoints[addr]
	return ep, known && ep == nil
}

// deliver routes a message to its destination's inbox.
func (n *Inproc) deliver(msg Message) error {
	if n.codec != nil {
		frame, err := n.codec.Encode(msg)
		if err != nil {
			return fmt.Errorf("transport: inproc codec encode: %w", err)
		}
		// A reader sized to the frame: the default one allocates 4 KiB.
		if msg, err = n.codec.Read(bufio.NewReaderSize(bytes.NewReader(frame), len(frame))); err != nil {
			return fmt.Errorf("transport: inproc codec decode: %w", err)
		}
	}
	dst, gone := n.lookup(msg.To)
	if dst == nil && !gone && n.cfg.RegistrationWait > 0 {
		// A destination never seen may simply not have started yet; one that
		// has come and gone will not be helped by waiting.
		open := retryWindow(n.cfg.RegistrationWait)
		for dst == nil && !gone && open() {
			time.Sleep(time.Millisecond)
			dst, gone = n.lookup(msg.To)
		}
	}
	if dst == nil {
		return fmt.Errorf("transport: no endpoint %q", msg.To)
	}
	return dst.push(msg)
}

// inprocEndpoint is one party on an Inproc network.
type inprocEndpoint struct {
	net  *Inproc
	addr string
	in   chan Message

	mu     sync.Mutex
	closed bool
}

// Addr implements Endpoint.
func (e *inprocEndpoint) Addr() string { return e.addr }

// Send implements Endpoint.
func (e *inprocEndpoint) Send(to, kind string, payload any) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: endpoint %q closed", e.addr)
	}
	msg, err := wire.NewMessage(e.addr, to, kind, payload)
	if err != nil {
		return err
	}
	return e.net.deliver(msg)
}

// Recv implements Endpoint.
func (e *inprocEndpoint) Recv() <-chan Message { return e.in }

// push enqueues an inbound message, dropping it if the endpoint has closed.
// It never blocks: a full inbox refuses the message and the sender gets the
// error, which to a protocol that retransmits is one more lost message.
func (e *inprocEndpoint) push(msg Message) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	select {
	case e.in <- msg:
		return nil
	default:
		return fmt.Errorf("transport: inbox of %q is full (%d messages)", e.addr, cap(e.in))
	}
}

// Close implements Endpoint.
func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.in)
	e.net.mu.Lock()
	e.net.endpoints[e.addr] = nil
	e.net.mu.Unlock()
	return nil
}
