package noc

import (
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// VCID selects a virtual channel.
type VCID int

// Virtual channel assignment (see package comment).
const (
	VCMgmt  VCID = 0
	VCReq   VCID = 1
	VCReply VCID = 2

	// NumVCs is the number of virtual channels per port.
	NumVCs = 3
)

// FlitBytes is the payload capacity of one flit. 16 bytes models a 128-bit
// datapath, typical of hardened FPGA NoCs (e.g. Versal's 128-bit NoC).
const FlitBytes = 16

// Packet is one message in flight on the NoC. Flits reference their packet;
// payload bytes are not physically split since the simulator only needs the
// timing of serialization.
type Packet struct {
	ID       uint64
	Src, Dst Coord
	VC       VCID
	Msg      *msg.Message
	NumFlits int
	Injected sim.Cycle // cycle the head flit entered the source NI

	// span is the flight-recorder record riding a sampled packet (nil for
	// the unsampled majority); see span.go for the ownership argument that
	// makes mutating it from router ticks race-free and deterministic.
	span *Span
}

// FlitsFor reports the number of flits needed to carry a message of
// wireBytes bytes: at least one, one per FlitBytes thereafter.
func FlitsFor(wireBytes int) int {
	n := (wireBytes + FlitBytes - 1) / FlitBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Flit is the unit of flow control. Flits are plain values: they live
// directly inside the structure-of-arrays FIFO rings (see state.go) and are
// copied, never heap-allocated, on the hot path. Only the Packet they point
// at is an object, pooled by the network.
//
// The struct is deliberately packed to 16 bytes — pointer plus one metadata
// word — so a BufDepth(=4)-deep input VC ring occupies exactly one 64-byte
// cache line. meta holds the buffer-arrival cycle in the high 48 bits (2^48
// cycles ≈ 3 days at 1 GHz, far beyond any run), the flit's index within its
// packet in bits 15..1, and the tail marker in bit 0.
type Flit struct {
	Pkt  *Packet
	meta uint64
}

const (
	flitMetaTail    = 1 << 0
	flitIdxShift    = 1
	flitMaxIdx      = 1<<15 - 1
	flitArriveShift = 16
)

func makeFlit(pkt *Packet, idx int, tail bool) Flit {
	m := uint64(idx) << flitIdxShift
	if tail {
		m |= flitMetaTail
	}
	return Flit{Pkt: pkt, meta: m}
}

// Head reports whether this is the packet's head flit.
func (f *Flit) Head() bool { return f.meta&(flitMaxIdx<<flitIdxShift) == 0 }

// Idx reports the flit's index within its packet.
func (f *Flit) Idx() int { return int(f.meta>>flitIdxShift) & flitMaxIdx }

// Tail reports whether this is the packet's tail flit.
func (f *Flit) Tail() bool { return f.meta&flitMetaTail != 0 }

// arrived reports the cycle this flit entered its current buffer.
func (f *Flit) arrived() sim.Cycle { return sim.Cycle(f.meta >> flitArriveShift) }

// setArrived restamps the buffer-arrival cycle, preserving index and tail.
func (f *Flit) setArrived(now sim.Cycle) {
	f.meta = f.meta&(1<<flitArriveShift-1) | uint64(now)<<flitArriveShift
}

func init() {
	// The packed meta word gives a flit index 15 bits; the largest possible
	// message must still fit.
	if FlitsFor(msg.MaxPayload+256) > flitMaxIdx {
		panic("noc: maximum message exceeds packed flit index range")
	}
}

// pktPool recycles Packet objects between injection and ejection: a plain
// free list, since a board's engine runs on one goroutine. Pooling is invisible to simulation state: every field is rewritten on
// allocation.
type pktPool struct {
	pkts []*Packet
}

func (p *pktPool) getPacket() *Packet {
	n := len(p.pkts)
	if n == 0 {
		return &Packet{}
	}
	pk := p.pkts[n-1]
	p.pkts[n-1] = nil
	p.pkts = p.pkts[:n-1]
	return pk
}

func (p *pktPool) putPacket(pk *Packet) {
	*pk = Packet{}
	p.pkts = append(p.pkts, pk)
}

// ClassVC maps a message type to its virtual channel. Management-plane
// types ride VC0; replies (including errors) ride VC2; everything else is a
// request on VC1.
func ClassVC(t msg.Type) VCID {
	switch t {
	case msg.TCtlInstallCap, msg.TCtlRevokeCap, msg.TCtlSetName,
		msg.TCtlFault, msg.TCtlDrain, msg.TCtlResume, msg.TCtlPing,
		msg.TCtlStats, msg.TCtlQuiesce:
		return VCMgmt
	case msg.TReply, msg.TError, msg.TMemReply, msg.TNetRecv:
		return VCReply
	default:
		return VCReq
	}
}
