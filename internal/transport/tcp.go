package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"lla/internal/wire"
)

// TCP is a Network whose endpoints exchange the binary frames of
// PROTOCOL.md over TCP sockets, and nothing else: every connection opens
// with the codec's hello/ack, and one whose peer disagrees on version or
// dictionary is refused, not downgraded. Endpoint addresses are logical
// names mapped to host:port pairs through a static registry (in a real
// deployment this would be service discovery; a static table keeps the
// reproduction self-contained).
//
// The endpoints registered at one host:port share one listener, and every
// "host:0" entry shares the one port the kernel assigns it. The listener's
// readers route each inbound frame to the open endpoint its To names, and
// drop it if there is none or that endpoint's inbox is full, so an endpoint
// that stops reading cannot stall its neighbours.
//
// Sending is write-behind over one connection per destination host:port,
// shared by every endpoint of the network: Send queues the encoded frame,
// and a writer goroutine, alive while the queue is non-empty, lets runnable
// senders queue too, then puts all that was queued on the socket in one
// Write. Frames from one sender to one destination keep their Send order;
// senders interleave only at frame boundaries.
type TCP struct {
	// mu guards the registry, the listeners and their maps; lookups and a
	// reader's routing of each frame take it for reading.
	mu sync.RWMutex
	// registry maps logical address -> host:port.
	registry map[string]string
	// listeners maps a host:port, as registered and as bound, to the
	// listener serving it.
	listeners map[string]*listener
	// dialTimeout bounds a single connection attempt, and the wait for an
	// inbound connection's hello.
	dialTimeout time.Duration
	// RetryWindow keeps retrying a connection for this long — a refused dial
	// (nodes of a deployment start in any order) or a failed write (the peer
	// may be restarting) — with capped exponential backoff plus jitter
	// between attempts. Zero tries once.
	RetryWindow time.Duration
	// codec frames every message and checks every connection's handshake:
	// the empty-dictionary wire codec unless SetCodec installed another.
	codec Codec
	// pool serves the open endpoints; the last one's Close ends it.
	pool *pool
}

var _ Network = (*TCP)(nil)

const (
	// maxQueue caps the bytes queued on one connection, so a peer that
	// stopped reading fails Send (as a full Inproc inbox does) rather than
	// blocking it.
	maxQueue = 1 << 20
	// flushGrace is how long the last Close lets queued frames drain.
	flushGrace = 250 * time.Millisecond
)

// NewTCP returns a TCP network with the given logical-name registry.
// Entries may also be added later with Register (e.g. after kernel-assigned
// ports are known). Endpoints whose entries name the same host:port share
// one listener; all "127.0.0.1:0" entries share one kernel-assigned port.
// Its codec holds the empty dictionary, so a frame naming a resource, task
// or subtask fails to encode until SetCodec installs the deployment's.
func NewTCP(registry map[string]string) *TCP {
	r := make(map[string]string, len(registry))
	for k, v := range registry {
		r[k] = v
	}
	return &TCP{registry: r, listeners: make(map[string]*listener), dialTimeout: 5 * time.Second,
		RetryWindow: 10 * time.Second, codec: wire.NewCodec(nil)}
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	hp, ok := t.registry[addr]
	if !ok {
		return "", fmt.Errorf("transport: address %q not in registry", addr)
	}
	return hp, nil
}

// Endpoint implements Network: it opens the endpoint on the listener of its
// registered host:port, binding that first if no open endpoint shares it (a
// ":0" port is rebound into the registry after binding).
func (t *TCP) Endpoint(addr string) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hp, ok := t.registry[addr]
	if !ok {
		return nil, fmt.Errorf("transport: address %q not in registry", addr)
	}
	l := t.listeners[hp]
	if l == nil {
		ln, err := net.Listen("tcp", hp)
		if err != nil {
			return nil, fmt.Errorf("transport: listening for %q on %s: %w", addr, hp, err)
		}
		l = &listener{ln: ln, keys: []string{hp, ln.Addr().String()},
			eps: make(map[string]*tcpEndpoint), inbound: make(map[net.Conn]struct{})}
		for _, k := range l.keys {
			t.listeners[k] = l
		}
		l.wg.Add(1)
		go t.accept(l)
	} else if l.eps[addr] != nil {
		return nil, fmt.Errorf("transport: endpoint %q already open", addr)
	}
	t.registry[addr] = l.ln.Addr().String()
	if t.pool == nil {
		t.pool = &pool{conns: make(map[string]*outConn), done: make(chan struct{})}
	}
	ep := &tcpEndpoint{net: t, pool: t.pool, l: l, addr: addr, in: make(chan Message, 1024), done: make(chan struct{})}
	l.eps[addr] = ep
	return ep, nil
}

// listener is one bound socket, the open endpoints registered at it and
// its accepted connections, which the last Close closes. The network's mu
// guards its maps.
type listener struct {
	ln      net.Listener
	keys    []string // its entries in TCP.listeners
	eps     map[string]*tcpEndpoint
	inbound map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// accept accepts inbound connections and spawns a reader per connection
// until the listener closes.
func (t *TCP) accept(l *listener) {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		open := len(l.eps) > 0
		if open {
			l.inbound[conn] = struct{}{}
			l.wg.Add(1)
		}
		t.mu.Unlock()
		if !open {
			conn.Close()
			return
		}
		go t.read(l, conn)
	}
}

// read serves one inbound connection: the handshake first — a peer that
// does not open with a hello this codec agrees with, within dialTimeout,
// gets the refusing ack and the connection is dropped before it can deliver
// anything — then frames, each pushed into the inbox of the endpoint its To
// names, until the stream ends or fails to decode. A frame for no open
// endpoint, or for a full inbox, is dropped: the protocol retransmits, as
// it does when Inproc refuses one.
func (t *TCP) read(l *listener, conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(l.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(t.dialTimeout))
	ack, refused := t.codec.Accept(br)
	conn.SetReadDeadline(time.Time{})
	if _, err := conn.Write(ack); err != nil || refused != nil {
		return
	}
	for {
		msg, err := t.codec.Read(br)
		if err != nil {
			return
		}
		t.mu.RLock()
		if e := l.eps[msg.To]; e != nil {
			select {
			case e.in <- msg:
			default:
			}
		}
		t.mu.RUnlock()
	}
}

// pool is the outbound side of a network's endpoints open at the same time:
// one connection per destination host:port.
type pool struct {
	mu                sync.Mutex
	conns             map[string]*outConn
	done              chan struct{} // closed by the last endpoint's Close
	writers, watchers sync.WaitGroup
}

// outConn is one pooled connection and its write-behind queue.
type outConn struct {
	mu sync.Mutex
	nc net.Conn // nil until dialed, and again once a writer gave up on it
	// queue holds the frames Send appended since the writer's last Write;
	// spare is the writer's previous batch, reused as the next queue.
	queue, spare []byte
	busy         bool // a writer is running
}

// close ends the pool: writers get flushGrace to drain their queues, then
// every connection closes, and close returns with none of the pool's
// goroutines left.
func (p *pool) close() {
	close(p.done)
	deadline := time.Now().Add(flushGrace)
	p.each(func(nc net.Conn) { nc.SetWriteDeadline(deadline) })
	p.writers.Wait()
	p.each(func(nc net.Conn) { nc.Close() })
	p.watchers.Wait()
}

// each applies f to every dialed connection.
func (p *pool) each(f func(net.Conn)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.mu.Lock()
		if c.nc != nil {
			f(c.nc)
		}
		c.mu.Unlock()
	}
}

// watch installs a dialed connection (c.mu held) with a watcher that closes
// it when the peer hangs up — a peer sends nothing after its ack — so the
// next write fails and re-dials instead of vanishing into the peer's reset.
func (p *pool) watch(c *outConn, nc net.Conn) {
	c.nc = nc
	p.watchers.Add(1)
	go func() {
		defer p.watchers.Done()
		nc.Read(make([]byte, 1))
		nc.Close()
	}()
}

// tcpEndpoint is one address on a listener; it sends through its network's
// pool.
type tcpEndpoint struct {
	net  *TCP
	pool *pool
	l    *listener
	addr string
	in   chan Message
	done chan struct{}
}

// Addr implements Endpoint.
func (e *tcpEndpoint) Addr() string { return e.addr }

// Send implements Endpoint. It encodes the frame and queues it on the
// network's connection to the destination's host:port, dialing that first
// (and running the handshake) if there is none: a nil error means queued,
// not written.
// It fails on an unknown destination, an unencodable payload, a closed
// endpoint, a dial that does not succeed within RetryWindow, a refused
// handshake (at once, wrapping wire.ErrRefused) and a full queue. Write
// failures are the writer's (writeLoop).
func (e *tcpEndpoint) Send(to, kind string, payload any) error {
	hp, err := e.net.lookup(to)
	if err != nil {
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
	p := e.pool
	p.mu.Lock()
	c := p.conns[hp]
	if c == nil {
		c = &outConn{}
		p.conns[hp] = c
	}
	p.mu.Unlock()
	// c.mu is held across a dial, so concurrent first Sends share one
	// handshake, and over the closed check: the pool's close locks every
	// connection too, after the last endpoint closed, so nothing starts past it.
	c.mu.Lock()
	defer c.mu.Unlock()
	if Stopped(e.done) {
		return fmt.Errorf("transport: endpoint %q closed", e.addr)
	}
	if c.nc == nil {
		nc, err := e.net.dial(e.addr, hp, retryWindow(e.net.RetryWindow), e.done)
		if err != nil {
			return fmt.Errorf("transport: connecting %q to %q: %w", e.addr, to, err)
		}
		p.watch(c, nc)
	}
	if len(c.queue)+len(frame) > maxQueue {
		return fmt.Errorf("transport: queue to %q is full (%d bytes)", to, len(c.queue))
	}
	c.queue = append(c.queue, frame...)
	if !c.busy {
		c.busy = true
		p.writers.Add(1)
		go e.net.writeLoop(p, hp, c)
	}
	return nil
}

// writeLoop drains a connection's queue, one Write per batch, until it is
// empty, yielding once before each so runnable senders join it (group
// commit). A failed write closes the connection, re-dials within RetryWindow
// and writes the batch again, so its leading frames may arrive twice. If
// that fails too, or the pool is closing, the writer gives up: it drops the
// connection and what was queued, and the next Send dials afresh.
func (t *TCP) writeLoop(p *pool, hp string, c *outConn) {
	defer p.writers.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) > 0 {
		c.mu.Unlock()
		runtime.Gosched()
		c.mu.Lock()
		batch, nc := c.queue, c.nc
		c.queue = c.spare[:0]
		c.mu.Unlock()
		_, err := nc.Write(batch)
		for open := retryWindow(t.RetryWindow); err != nil && !Stopped(p.done); {
			nc.Close()
			var redialed net.Conn
			if redialed, err = t.dial(nc.LocalAddr().String(), hp, open, p.done); err == nil {
				nc = redialed
				c.mu.Lock()
				if Stopped(p.done) { // past the pool's write deadlines: never install
					nc.Close()
				} else {
					p.watch(c, nc)
				}
				c.mu.Unlock()
				_, err = nc.Write(batch)
			}
			if errors.Is(err, wire.ErrRefused) || !open() {
				break
			}
		}
		c.mu.Lock()
		c.spare = batch
		if err != nil {
			c.nc.Close()
			c.nc, c.queue = nil, c.queue[:0]
		}
	}
	c.busy = false
}

// dial connects to host:port hp and runs the handshake, backing off
// between attempts (capped exponential, jittered per from>hp) while open
// holds and stop has not fired: the peer may not have bound its listener
// yet, or may be restarting. A refused handshake is final and returned at
// once.
func (t *TCP) dial(from, hp string, open func() bool, stop <-chan struct{}) (net.Conn, error) {
	jitter := NewJitter(from + ">" + hp)
	for attempt := 0; ; attempt++ {
		nc, err := net.DialTimeout("tcp", hp, t.dialTimeout)
		if err == nil { // the handshake: the hello, then the ack within dialTimeout
			nc.SetReadDeadline(time.Now().Add(t.dialTimeout))
			if _, err = nc.Write(t.codec.Hello()); err == nil {
				err = t.codec.ReadAck(nc)
			}
			if err == nil {
				nc.SetReadDeadline(time.Time{})
				return nc, nil
			}
			nc.Close()
		}
		if errors.Is(err, wire.ErrRefused) || !open() {
			return nil, err
		}
		select {
		case <-time.After(Backoff(jitter, attempt, 25*time.Millisecond, time.Second)):
		case <-stop:
			return nil, err
		}
	}
}

// Recv implements Endpoint.
func (e *tcpEndpoint) Recv() <-chan Message { return e.in }

// Close implements Endpoint. It unroutes the endpoint; the listener's last
// endpoint also closes the listener and its inbound connections, and the
// network's last open endpoint ends the pool: queued frames get flushGrace
// to reach the socket, then the pooled connections close and Close waits
// for their goroutines.
func (e *tcpEndpoint) Close() error {
	t, l := e.net, e.l
	t.mu.Lock()
	if l.eps[e.addr] != e {
		t.mu.Unlock()
		return nil // closed already
	}
	delete(l.eps, e.addr)
	close(e.in)
	close(e.done)
	if len(l.eps) > 0 {
		t.mu.Unlock()
		return nil
	}
	for _, k := range l.keys {
		delete(t.listeners, k)
	}
	for c := range l.inbound {
		c.Close()
	}
	last := len(t.listeners) == 0
	if last {
		t.pool = nil
	}
	t.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	if last {
		e.pool.close()
	}
	return err
}
