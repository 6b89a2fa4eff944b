// Package faultproxy is a chaos TCP proxy for fault-injection testing of
// the NDP transport: it sits between the trusted client and the untrusted
// server and drops, delays, truncates, corrupts, or resets connections on
// a deterministic schedule. The fault-tolerance layer (reconnecting pool,
// retry, circuit breaker, TEE fallback) is driven through every failure
// class by ordinary go tests — no root, no tc/iptables.
//
// Faults are prescribed per accepted connection by a Schedule; Script
// plays a fixed list of Plans in accept order (deterministic tests) and
// Chaos derives a random Plan per connection from a fixed seed
// (reproducible soak tests). BreakConns severs every live proxied
// connection mid-stream — a network blip forcing clients to redial.
package faultproxy

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Plan is one connection's fault prescription. The zero value is a clean
// pass-through. Byte offsets refer to the server→client (response) stream
// and are 1-based; 0 disables that fault.
type Plan struct {
	// DropOnAccept closes the client connection immediately, before the
	// upstream dial — a dead or refusing server.
	DropOnAccept bool
	// Delay pauses the response stream once, before the first forwarded
	// byte — a slow or overloaded server.
	Delay time.Duration
	// CorruptAt XORs CorruptMask (default 0x01) into the Nth response
	// byte — in-flight corruption of ciphertext, tags, or framing that the
	// client must never silently accept.
	CorruptAt   int64
	CorruptMask byte
	// TruncateAfter closes the connection cleanly after N response bytes —
	// a mid-frame server crash.
	TruncateAfter int64
	// ResetAfter sends a TCP RST after N response bytes.
	ResetAfter int64
	// Segment > 0 forwards both streams in writes of at most Segment
	// bytes, pausing SegmentDelay before each — a path that splits every
	// frame, so neither peer may count on one arriving whole.
	Segment      int
	SegmentDelay time.Duration
}

// Schedule assigns a Plan to each accepted connection, identified by its
// 0-based accept order.
type Schedule interface {
	PlanFor(conn int) Plan
}

// Script plays fixed plans in accept order; connections beyond the end of
// the script are clean.
type Script []Plan

// PlanFor implements Schedule.
func (s Script) PlanFor(conn int) Plan {
	if conn < len(s) {
		return s[conn]
	}
	return Plan{}
}

// Clean is the all-pass schedule.
type Clean struct{}

// PlanFor implements Schedule.
func (Clean) PlanFor(int) Plan { return Plan{} }

// Chaos derives a random plan per connection from a fixed seed, so a soak
// run is fully reproducible. The probabilities are evaluated cumulatively;
// their sum should be <= 1, with the remainder passing clean.
type Chaos struct {
	Seed                                       int64
	PDrop, PDelay, PCorrupt, PTruncate, PReset float64
	// MaxDelay bounds delay faults. <= 0 selects 20ms.
	MaxDelay time.Duration
	// MaxOffset bounds fault byte offsets. <= 0 selects 512.
	MaxOffset int64
}

// PlanFor implements Schedule.
func (c Chaos) PlanFor(conn int) Plan {
	rng := rand.New(rand.NewSource(c.Seed + int64(conn)*0x9E3779B9))
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 20 * time.Millisecond
	}
	maxOff := c.MaxOffset
	if maxOff <= 0 {
		maxOff = 512
	}
	off := func() int64 { return 1 + rng.Int63n(maxOff) }
	var p Plan
	r := rng.Float64()
	switch {
	case r < c.PDrop:
		p.DropOnAccept = true
	case r < c.PDrop+c.PDelay:
		p.Delay = time.Duration(1 + rng.Int63n(int64(maxDelay)))
	case r < c.PDrop+c.PDelay+c.PCorrupt:
		p.CorruptAt = off()
		p.CorruptMask = byte(1 << rng.Intn(7)) // spare bit 7: varint framing
	case r < c.PDrop+c.PDelay+c.PCorrupt+c.PTruncate:
		p.TruncateAfter = off()
	case r < c.PDrop+c.PDelay+c.PCorrupt+c.PTruncate+c.PReset:
		p.ResetAfter = off()
	}
	return p
}

// Proxy forwards TCP connections to a target address, applying each
// connection's Plan to the response stream.
type Proxy struct {
	target string
	sched  Schedule

	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	n     int
}

// New builds a proxy toward target (a host:port). A nil schedule passes
// everything through clean.
func New(target string, sched Schedule) *Proxy {
	if sched == nil {
		sched = Clean{}
	}
	return &Proxy{target: target, sched: sched, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address clients should dial.
func (p *Proxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop()
	return ln.Addr().String(), nil
}

// SetSchedule swaps the fault schedule and restarts the connection
// numbering, so a test can provision cleanly and then arm a fault script
// whose indices start at the next accepted connection.
func (p *Proxy) SetSchedule(sched Schedule) {
	if sched == nil {
		sched = Clean{}
	}
	p.mu.Lock()
	p.sched = sched
	p.n = 0
	p.mu.Unlock()
}

// Conns reports how many connections have been accepted since the last
// SetSchedule.
func (p *Proxy) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// BreakConns severs every live proxied connection mid-stream — a network
// blip. Clients redial through whatever schedule is armed.
func (p *Proxy) BreakConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

// Close stops the listener and severs all live connections.
func (p *Proxy) Close() error {
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	p.BreakConns()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		plan := p.sched.PlanFor(p.n)
		p.n++
		p.mu.Unlock()
		p.wg.Add(1)
		go p.handle(conn, plan)
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) handle(client net.Conn, plan Plan) {
	defer p.wg.Done()
	defer client.Close()
	if plan.DropOnAccept {
		return
	}
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer server.Close()
	p.track(client)
	p.track(server)
	defer p.untrack(client)
	defer p.untrack(server)

	done := make(chan struct{}, 2)
	go func() { // request stream: forwarded clean, segmented if asked
		if plan.Segment > 0 {
			copySegmented(server, client, plan)
		} else {
			io.Copy(server, client)
		}
		done <- struct{}{}
	}()
	go func() { // response stream: the plan applies here
		p.copyResponses(client, server, plan)
		done <- struct{}{}
	}()
	<-done
	// Either side finishing (or a fault firing) tears down the pair; close
	// both so the peer copier unblocks, then reap it.
	client.Close()
	server.Close()
	<-done
}

// copyResponses forwards server→client bytes, applying the plan's delay,
// corruption, truncation, or reset at the prescribed offsets.
func (p *Proxy) copyResponses(dst, src net.Conn, plan Plan) {
	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	var copied int64
	buf := make([]byte, 4096)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			end := copied + int64(n)
			if plan.CorruptAt > 0 && copied < plan.CorruptAt && plan.CorruptAt <= end {
				mask := plan.CorruptMask
				if mask == 0 {
					mask = 0x01
				}
				chunk[plan.CorruptAt-copied-1] ^= mask
			}
			if plan.ResetAfter > 0 && end >= plan.ResetAfter {
				dst.Write(chunk[:plan.ResetAfter-copied])
				reset(dst)
				return
			}
			if plan.TruncateAfter > 0 && end >= plan.TruncateAfter {
				dst.Write(chunk[:plan.TruncateAfter-copied])
				return
			}
			if werr := writeSegmented(dst, chunk, plan); werr != nil {
				return
			}
			copied = end
		}
		if rerr != nil {
			return
		}
	}
}

// copySegmented forwards src to dst under the plan's segmentation until
// either side fails.
func copySegmented(dst, src net.Conn, plan Plan) {
	buf := make([]byte, 4096)
	for {
		n, rerr := src.Read(buf)
		if n > 0 && writeSegmented(dst, buf[:n], plan) != nil {
			return
		}
		if rerr != nil {
			return
		}
	}
}

// writeSegmented writes b to dst whole, or in the plan's segments.
func writeSegmented(dst net.Conn, b []byte, plan Plan) error {
	if plan.Segment <= 0 {
		_, err := dst.Write(b)
		return err
	}
	for len(b) > 0 {
		if plan.SegmentDelay > 0 {
			time.Sleep(plan.SegmentDelay)
		}
		n := min(plan.Segment, len(b))
		if _, err := dst.Write(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// reset aborts the connection with a TCP RST instead of a FIN.
func reset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
