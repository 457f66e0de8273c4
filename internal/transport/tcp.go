package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lla/internal/wire"
)

// TCP is a Network whose endpoints listen on TCP sockets and exchange the
// binary frames of PROTOCOL.md, and nothing else: every connection opens
// with the codec's hello/ack, and one whose peer disagrees on version or
// dictionary is refused, not downgraded. Endpoint addresses are logical
// names mapped to host:port pairs through a static registry (in a real
// deployment this would be service discovery; a static table keeps the
// reproduction self-contained).
type TCP struct {
	mu sync.Mutex
	// registry maps logical address -> host:port.
	registry map[string]string
	// dialTimeout bounds a single connection attempt.
	dialTimeout time.Duration
	// DialRetryWindow keeps retrying refused dials for this long, so nodes
	// of a deployment can start in any order. Zero disables retrying.
	DialRetryWindow time.Duration
	// SendRetryWindow keeps retrying a failed Send for this long, dropping
	// the broken cached connection and re-dialing with capped exponential
	// backoff plus jitter between attempts (the peer may be restarting).
	// Zero falls back to a single immediate reconnect attempt.
	SendRetryWindow time.Duration
	// codec frames every message and checks every connection's handshake:
	// the dictionary-less wire codec unless SetCodec installed another.
	codec Codec
}

var _ Network = (*TCP)(nil)

// NewTCP returns a TCP network with the given logical-name registry.
// Entries may also be added later with Register (e.g. after kernel-assigned
// ports are known).
func NewTCP(registry map[string]string) *TCP {
	r := make(map[string]string, len(registry))
	for k, v := range registry {
		r[k] = v
	}
	return &TCP{registry: r, dialTimeout: 5 * time.Second, DialRetryWindow: 15 * time.Second, SendRetryWindow: 10 * time.Second,
		codec: wire.NewCodec(nil)}
}

// SetCodec replaces the frame codec, typically with one holding the
// deployment's dictionary (dist.WireCodec). Call before creating endpoints,
// with a codec every peer agrees with: the handshake refuses the rest.
func (t *TCP) SetCodec(c Codec) { t.codec = c }

// Register maps a logical address to a host:port.
func (t *TCP) Register(addr, hostport string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.registry[addr] = hostport
}

// lookup resolves a logical address.
func (t *TCP) lookup(addr string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hp, ok := t.registry[addr]
	if !ok {
		return "", fmt.Errorf("transport: address %q not in registry", addr)
	}
	return hp, nil
}

// Endpoint implements Network: it binds a listener on the registered
// host:port (a ":0" port is rebound into the registry after binding).
func (t *TCP) Endpoint(addr string) (Endpoint, error) {
	hp, err := t.lookup(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", hp)
	if err != nil {
		return nil, fmt.Errorf("transport: listening for %q on %s: %w", addr, hp, err)
	}
	t.Register(addr, ln.Addr().String())
	ep := &tcpEndpoint{
		net:     t,
		addr:    addr,
		ln:      ln,
		in:      make(chan Message, 1024),
		conns:   make(map[string]net.Conn),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// tcpEndpoint is one listener plus a cache of outbound connections.
type tcpEndpoint struct {
	net  *TCP
	addr string
	ln   net.Listener
	in   chan Message
	done chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	// conns caches outbound connections (past their handshake) by
	// destination name; inbound holds accepted connections so Close can
	// unblock their readers.
	conns   map[string]net.Conn
	inbound map[net.Conn]struct{}
	closed  bool
}

var _ Endpoint = (*tcpEndpoint)(nil)

// Addr implements Endpoint.
func (e *tcpEndpoint) Addr() string { return e.addr }

// acceptLoop accepts inbound connections and spawns a reader per connection.
func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.inbound[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop serves one inbound connection: the handshake first — a peer that
// does not open with a hello this codec agrees with gets the refusing ack
// and the connection is dropped before it can deliver anything — then frames
// into the inbox until the stream ends or fails to decode.
func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	cod := e.net.codec
	ack, refused := cod.Accept(br)
	if _, err := conn.Write(ack); err != nil || refused != nil {
		return
	}
	for {
		msg, err := cod.Read(br)
		if err != nil {
			return
		}
		select {
		case e.in <- msg:
		case <-e.done:
			return
		}
	}
}

// Send implements Endpoint. Connections are cached per destination; a write
// failure drops the broken connection and reconnects with capped exponential
// backoff plus jitter for up to SendRetryWindow (the peer may be
// restarting). Failures that retrying cannot cure — unknown destination,
// unencodable payload, closed endpoint, a refused handshake — fail
// immediately.
func (e *tcpEndpoint) Send(to, kind string, payload any) error {
	if e.isClosed() {
		return fmt.Errorf("transport: endpoint %q closed", e.addr)
	}
	if _, err := e.net.lookup(to); err != nil {
		return err // unknown destination: retrying cannot help
	}
	msg, err := wire.NewMessage(e.addr, to, kind, payload)
	if err != nil {
		return err
	}
	frame, err := e.net.codec.Encode(msg)
	if err != nil {
		return err
	}
	err = e.write(to, frame)
	if err == nil {
		return nil
	}
	open := retryWindow(e.net.SendRetryWindow)
	jitter := NewJitter(e.addr + ">" + to) // this reconnect's own
	for attempt := 0; ; attempt++ {
		e.dropConn(to)
		if e.isClosed() || errors.Is(err, wire.ErrRefused) {
			return err
		}
		if attempt > 0 {
			if !open() {
				return err
			}
			time.Sleep(Backoff(jitter, attempt-1, 25*time.Millisecond, time.Second))
		}
		if err = e.write(to, frame); err == nil {
			return nil
		}
	}
}

// isClosed reports whether Close has run.
func (e *tcpEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// write puts one frame on the destination's connection.
func (e *tcpEndpoint) write(to string, frame []byte) error {
	c, err := e.conn(to)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err = c.Write(frame)
	return err
}

// conn returns the cached connection to the destination, dialing it and
// running the handshake if needed. A refused handshake closes the
// connection and is returned to Send, which does not retry it.
func (e *tcpEndpoint) conn(to string) (net.Conn, error) {
	e.mu.Lock()
	c, ok := e.conns[to]
	e.mu.Unlock()
	if ok {
		return c, nil
	}
	c, err := e.dial(to)
	if err != nil {
		return nil, err
	}
	if err := clientHandshake(c, e.net.codec, e.net.dialTimeout); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: connecting %q to %q: %w", e.addr, to, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return nil, fmt.Errorf("transport: endpoint %q closed", e.addr)
	}
	if prev, ok := e.conns[to]; ok {
		// Lost a dial race; keep the first connection.
		c.Close()
		return prev, nil
	}
	e.conns[to] = c
	return c, nil
}

// dial opens a raw connection to the destination, retrying refused dials
// within the window: the peer process may simply not have bound its
// listener yet (deployments start in any order).
func (e *tcpEndpoint) dial(to string) (net.Conn, error) {
	hp, err := e.net.lookup(to)
	if err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", hp, e.net.dialTimeout)
	open := retryWindow(e.net.DialRetryWindow)
	for err != nil && open() {
		if e.isClosed() {
			break
		}
		time.Sleep(100 * time.Millisecond)
		c, err = net.DialTimeout("tcp", hp, e.net.dialTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %q (%s): %w", to, hp, err)
	}
	return c, nil
}

// clientHandshake writes the codec hello and waits (bounded) for the ack.
func clientHandshake(nc net.Conn, cod Codec, timeout time.Duration) error {
	if _, err := nc.Write(cod.Hello()); err != nil {
		return err
	}
	if err := nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer nc.SetReadDeadline(time.Time{})
	return cod.ReadAck(nc)
}

// dropConn evicts a broken cached connection.
func (e *tcpEndpoint) dropConn(to string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[to]; ok {
		c.Close()
		delete(e.conns, to)
	}
}

// Recv implements Endpoint.
func (e *tcpEndpoint) Recv() <-chan Message { return e.in }

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, c := range e.conns {
		c.Close()
	}
	for c := range e.inbound {
		c.Close()
	}
	e.mu.Unlock()

	close(e.done)
	err := e.ln.Close()
	e.wg.Wait()
	close(e.in)
	return err
}
