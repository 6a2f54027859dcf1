// Package netstack implements Apiary's hardware network stack: the reliable
// transport protocol and the network service that runs in a tile slot
// (paper §1: a direct-attached FPGA "communicates with the datacenter
// network via a hardware network stack"; §2 lists "reliable network
// protocols" among the services developers are otherwise forced to build
// themselves).
//
// The transport is a go-back-N sliding-window protocol carrying framed
// datagrams over lossy Ethernet-like frames. It is used identically by the
// FPGA network-service tile (over the vendor MAC through the HAL) and by
// software endpoints (clients, host CPUs) attached to the network
// simulator.
package netstack

import (
	"encoding/binary"
	"fmt"
	"sort"

	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/sim"
)

// Transport tuning constants.
const (
	// MSS is the maximum transport segment payload.
	MSS = 1024
	// Window is the go-back-N window in segments.
	Window = 32
	// RTOCycles is the initial retransmission timeout. At 250 MHz this is
	// 40 µs — several datacenter RTTs. The timeout doubles per consecutive
	// expiry (exponential backoff) up to MaxRTOCycles, so a peer on a
	// quarantined board is probed at a decaying rate, and resets on ack
	// progress.
	RTOCycles sim.Cycle = 10000
	// MaxRTOCycles caps the backed-off retransmission timeout.
	MaxRTOCycles sim.Cycle = 8 * RTOCycles
	// MaxDatagram bounds one application datagram.
	MaxDatagram = 65536
)

// segment header layout: kind(1) seq(4) ack(4) dlen(2) = 11 bytes.
const segHeader = 11

const (
	segData = 0
	segAck  = 1
)

// record header inside the byte stream: flow(2) len(4).
const recHeader = 6

// SendFrame is the lower-layer transmit hook (HAL port or raw fabric). The
// trace context is sideband (not frame bytes): it tags the frame with the
// traced datagram it carries, if any.
type SendFrame func(dst netsim.NodeID, payload []byte, tc msg.TraceCtx) error

// DeliverFunc receives one reassembled datagram plus the sideband trace
// context of the frame that completed it.
type DeliverFunc func(remote netsim.NodeID, flow uint16, data []byte, tc msg.TraceCtx)

type sendSeg struct {
	seq     uint32
	payload []byte
	tc      msg.TraceCtx
}

// pendingRec is one application record awaiting segmentation, with the
// sideband trace context every segment of it will carry.
type pendingRec struct {
	bytes []byte
	tc    msg.TraceCtx
}

type conn struct {
	remote netsim.NodeID

	// sender state
	base     uint32 // oldest unacked
	nextSeq  uint32
	inflight []sendSeg    // segments [base, nextSeq)
	pending  []pendingRec // records not yet segmented
	lastSend sim.Cycle    // for RTO
	rto      sim.Cycle    // current backed-off RTO (0 = RTOCycles)

	// receiver state
	expected uint32
	stream   []byte // reassembled byte stream awaiting record parsing
}

// Transport multiplexes reliable connections to many remote nodes.
type Transport struct {
	local   netsim.NodeID
	send    SendFrame
	deliver DeliverFunc
	// conns holds every connection in ascending remote NodeID order, so
	// Tick pumps and retransmits in one wire order on every run; byNode is
	// the lookup index into it.
	conns  []*conn
	byNode map[netsim.NodeID]*conn
	ticked sim.Cycle // cycle of the last Tick

	txSegs     *sim.Counter
	rxSegs     *sim.Counter
	retx       *sim.Counter
	dupDropped *sim.Counter
	datagrams  *sim.Counter
}

// NewTransport creates a transport for the given local node.
func NewTransport(local netsim.NodeID, send SendFrame, deliver DeliverFunc, st *sim.Stats) *Transport {
	return &Transport{
		local:      local,
		send:       send,
		deliver:    deliver,
		byNode:     make(map[netsim.NodeID]*conn),
		txSegs:     st.Counter("tp.tx_segments"),
		rxSegs:     st.Counter("tp.rx_segments"),
		retx:       st.Counter("tp.retransmits"),
		dupDropped: st.Counter("tp.dup_dropped"),
		datagrams:  st.Counter("tp.datagrams"),
	}
}

func (t *Transport) conn(remote netsim.NodeID) *conn {
	c, ok := t.byNode[remote]
	if !ok {
		c = &conn{remote: remote}
		t.byNode[remote] = c
		i := sort.Search(len(t.conns), func(i int) bool { return t.conns[i].remote > remote })
		t.conns = append(t.conns, nil)
		copy(t.conns[i+1:], t.conns[i:])
		t.conns[i] = c
	}
	return c
}

// rtoOf is c's current retransmission timeout.
func rtoOf(c *conn) sim.Cycle {
	if c.rto == 0 {
		return RTOCycles
	}
	return c.rto
}

// Send queues one datagram for reliable delivery to (dst, flow).
func (t *Transport) Send(dst netsim.NodeID, flow uint16, data []byte) error {
	return t.SendCtx(dst, flow, data, msg.TraceCtx{})
}

// SendCtx is Send with a sideband trace context: every segment carrying
// bytes of this datagram is tagged with tc, so the receiver can reattach
// the context to the reassembled datagram. Timing, segmentation and wire
// bytes are identical to an untraced Send.
func (t *Transport) SendCtx(dst netsim.NodeID, flow uint16, data []byte, tc msg.TraceCtx) error {
	if len(data) > MaxDatagram {
		return fmt.Errorf("netstack: datagram of %d bytes exceeds %d", len(data), MaxDatagram)
	}
	rec := make([]byte, recHeader+len(data))
	binary.LittleEndian.PutUint16(rec[0:], flow)
	binary.LittleEndian.PutUint32(rec[2:], uint32(len(data)))
	copy(rec[recHeader:], data)
	c := t.conn(dst)
	c.pending = append(c.pending, pendingRec{bytes: rec, tc: tc})
	return nil
}

// OutstandingTo reports unfinished work toward dst (for tests/quiesce).
func (t *Transport) OutstandingTo(dst netsim.NodeID) int {
	c, ok := t.byNode[dst]
	if !ok {
		return 0
	}
	return len(c.inflight) + len(c.pending)
}

func encodeSeg(kind byte, seq, ack uint32, data []byte) []byte {
	b := make([]byte, segHeader+len(data))
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:], seq)
	binary.LittleEndian.PutUint32(b[5:], ack)
	binary.LittleEndian.PutUint16(b[9:], uint16(len(data)))
	copy(b[segHeader:], data)
	return b
}

// Idle reports whether the next Tick is a no-op on every connection:
// nothing pending segmentation and no retransmission timeout expiring next
// cycle. Segments in flight sleep until their timer fires (NextWake).
func (t *Transport) Idle() bool {
	for _, c := range t.conns {
		if len(c.pending) > 0 || len(c.inflight) > 0 && c.lastSend+rtoOf(c) <= t.ticked {
			return false
		}
	}
	return true
}

// NextWake implements sim.Waker: the earliest retransmission timeout among
// connections with segments in flight (0 when nothing is in flight).
func (t *Transport) NextWake() sim.Cycle {
	var wake sim.Cycle
	for _, c := range t.conns {
		if len(c.inflight) == 0 {
			continue
		}
		if at := c.lastSend + rtoOf(c) + 1; wake == 0 || at < wake {
			wake = at
		}
	}
	return wake
}

// drained reports whether nothing is pending segmentation or in flight on
// any connection.
func (t *Transport) drained() bool {
	for _, c := range t.conns {
		if len(c.pending) > 0 || len(c.inflight) > 0 {
			return false
		}
	}
	return true
}

// Tick pumps pending data into the window and handles retransmission, one
// connection at a time in remote NodeID order. Call once per cycle (or per
// polling interval).
func (t *Transport) Tick(now sim.Cycle) {
	t.ticked = now
	for _, c := range t.conns {
		t.pump(c, now)
		// Go-back-N timeout: resend everything in flight, then double the
		// timeout for the next expiry.
		rto := rtoOf(c)
		if len(c.inflight) > 0 && now-c.lastSend > rto {
			c.lastSend = now
			c.rto = rto * 2
			if c.rto > MaxRTOCycles {
				c.rto = MaxRTOCycles
			}
			for _, s := range c.inflight {
				t.retx.Inc()
				t.txSegs.Inc()
				_ = t.send(c.remote, encodeSeg(segData, s.seq, c.expected, s.payload), s.tc)
			}
		}
	}
}

// pump segments pending records into the send window.
func (t *Transport) pump(c *conn, now sim.Cycle) {
	for len(c.pending) > 0 && len(c.inflight) < Window {
		rec := c.pending[0]
		n := len(rec.bytes)
		if n > MSS {
			n = MSS
		}
		chunk := rec.bytes[:n]
		if n == len(rec.bytes) {
			c.pending = c.pending[1:]
		} else {
			c.pending[0].bytes = rec.bytes[n:]
		}
		seg := sendSeg{seq: c.nextSeq, payload: append([]byte(nil), chunk...), tc: rec.tc}
		c.nextSeq++
		c.inflight = append(c.inflight, seg)
		c.lastSend = now
		t.txSegs.Inc()
		_ = t.send(c.remote, encodeSeg(segData, seg.seq, c.expected, seg.payload), seg.tc)
	}
}

// HandleFrame is the receive path: feed every frame addressed to this node.
func (t *Transport) HandleFrame(f netsim.Frame) {
	if len(f.Payload) < segHeader {
		return
	}
	kind := f.Payload[0]
	seq := binary.LittleEndian.Uint32(f.Payload[1:])
	ack := binary.LittleEndian.Uint32(f.Payload[5:])
	dlen := int(binary.LittleEndian.Uint16(f.Payload[9:]))
	if segHeader+dlen > len(f.Payload) {
		return
	}
	c := t.conn(f.Src)
	t.rxSegs.Inc()

	// Cumulative ack processing (acks piggyback on data too). Any forward
	// progress resets the backed-off RTO to its base value.
	for len(c.inflight) > 0 && c.inflight[0].seq < ack {
		c.inflight = c.inflight[1:]
		c.base++
		c.rto = 0
	}

	if kind != segData {
		return
	}
	if seq != c.expected {
		// Out of order under go-back-N: drop and re-ack.
		t.dupDropped.Inc()
		_ = t.send(c.remote, encodeSeg(segAck, 0, c.expected, nil), msg.TraceCtx{})
		return
	}
	c.expected++
	c.stream = append(c.stream, f.Payload[segHeader:segHeader+dlen]...)
	// pump() segments exactly one record per data segment, so any record
	// completed by this append was completed by this frame's bytes — the
	// frame's sideband trace context is that record's context.
	t.parseRecords(c, f.Trace)
	_ = t.send(c.remote, encodeSeg(segAck, 0, c.expected, nil), msg.TraceCtx{})
}

// parseRecords extracts complete datagrams from the connection stream. tc is
// the trace context of the frame whose bytes were just appended.
func (t *Transport) parseRecords(c *conn, tc msg.TraceCtx) {
	for len(c.stream) >= recHeader {
		flow := binary.LittleEndian.Uint16(c.stream[0:])
		n := int(binary.LittleEndian.Uint32(c.stream[2:]))
		if n > MaxDatagram {
			// Corrupt stream; reset it. (Cannot happen with a correct
			// peer; defensive against malformed senders.)
			c.stream = nil
			return
		}
		if len(c.stream) < recHeader+n {
			return
		}
		data := append([]byte(nil), c.stream[recHeader:recHeader+n]...)
		c.stream = c.stream[recHeader+n:]
		t.datagrams.Inc()
		if t.deliver != nil {
			t.deliver(c.remote, flow, data, tc)
		}
	}
}
