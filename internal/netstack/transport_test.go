package netstack

import (
	"bytes"
	"reflect"
	"testing"

	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/sim"
)

// pair builds two SoftEndpoints on a fabric with the given loss.
func pair(loss float64) (*sim.Engine, *SoftEndpoint, *SoftEndpoint) {
	e := sim.NewEngine(5)
	st := sim.NewStats()
	fab := netsim.New(e, st)
	a := NewSoftEndpoint(e, st, fab, 1, netsim.LinkConfig{Gbps: 100, LatencyNs: 500})
	b := NewSoftEndpoint(e, st, fab, 2, netsim.LinkConfig{Gbps: 100, LatencyNs: 500, LossProb: loss})
	return e, a, b
}

func TestDatagramDelivery(t *testing.T) {
	e, a, b := pair(0)
	var got []byte
	var gotFlow uint16
	b.OnDatagram(func(_ netsim.NodeID, flow uint16, data []byte, _ msg.TraceCtx) {
		gotFlow, got = flow, data
	})
	if err := a.Send(2, 80, []byte("hello transport")); err != nil {
		t.Fatal(err)
	}
	if !e.RunUntil(func() bool { return got != nil }, 100000) {
		t.Fatal("datagram not delivered")
	}
	if gotFlow != 80 || string(got) != "hello transport" {
		t.Fatalf("flow=%d data=%q", gotFlow, got)
	}
}

func TestLargeDatagramSegmented(t *testing.T) {
	e, a, b := pair(0)
	want := make([]byte, 10*MSS+37)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var got []byte
	b.OnDatagram(func(_ netsim.NodeID, _ uint16, data []byte, _ msg.TraceCtx) { got = data })
	if err := a.Send(2, 1, want); err != nil {
		t.Fatal(err)
	}
	if !e.RunUntil(func() bool { return got != nil }, 500000) {
		t.Fatal("large datagram not delivered")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("large datagram corrupted")
	}
}

func TestOversizedDatagramRejected(t *testing.T) {
	_, a, _ := pair(0)
	if err := a.Send(2, 1, make([]byte, MaxDatagram+1)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

func TestOrderingPreserved(t *testing.T) {
	e, a, b := pair(0)
	var got []byte
	b.OnDatagram(func(_ netsim.NodeID, _ uint16, data []byte, _ msg.TraceCtx) { got = append(got, data[0]) })
	for i := 0; i < 50; i++ {
		if err := a.Send(2, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !e.RunUntil(func() bool { return len(got) == 50 }, 500000) {
		t.Fatalf("delivered %d/50", len(got))
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	e, a, b := pair(0.2) // 20% loss toward b
	var got [][]byte
	b.OnDatagram(func(_ netsim.NodeID, _ uint16, data []byte, _ msg.TraceCtx) {
		got = append(got, data)
	})
	const N = 40
	for i := 0; i < N; i++ {
		if err := a.Send(2, 1, []byte{byte(i), byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if !e.RunUntil(func() bool { return len(got) == N }, 5_000_000) {
		t.Fatalf("under loss delivered %d/%d", len(got), N)
	}
	for i, d := range got {
		if d[0] != byte(i) {
			t.Fatalf("loss recovery broke ordering at %d", i)
		}
	}
	e.Run(50000) // let the final ACKs (and any retransmit round) land
	if !a.Idle(2) {
		t.Fatal("sender not idle after full delivery")
	}
}

func TestBidirectional(t *testing.T) {
	e, a, b := pair(0)
	var atB, atA []byte
	b.OnDatagram(func(remote netsim.NodeID, flow uint16, data []byte, _ msg.TraceCtx) {
		atB = data
		_ = b.Send(remote, flow, []byte("pong"))
	})
	a.OnDatagram(func(_ netsim.NodeID, _ uint16, data []byte, _ msg.TraceCtx) { atA = data })
	_ = a.Send(2, 9, []byte("ping"))
	if !e.RunUntil(func() bool { return atA != nil }, 200000) {
		t.Fatal("no pong")
	}
	if string(atB) != "ping" || string(atA) != "pong" {
		t.Fatalf("atB=%q atA=%q", atB, atA)
	}
}

func TestFlowsMultiplexed(t *testing.T) {
	e, a, b := pair(0)
	perFlow := map[uint16]int{}
	b.OnDatagram(func(_ netsim.NodeID, flow uint16, _ []byte, _ msg.TraceCtx) { perFlow[flow]++ })
	for i := 0; i < 10; i++ {
		_ = a.Send(2, 1, []byte{1})
		_ = a.Send(2, 2, []byte{2})
	}
	if !e.RunUntil(func() bool { return perFlow[1] == 10 && perFlow[2] == 10 }, 500000) {
		t.Fatalf("flows = %v", perFlow)
	}
}

func TestMalformedFramesIgnored(t *testing.T) {
	e := sim.NewEngine(5)
	st := sim.NewStats()
	fab := netsim.New(e, st)
	b := NewSoftEndpoint(e, st, fab, 2, netsim.LinkConfig{})
	fab.Attach(1, netsim.LinkConfig{}, nil)
	crashed := false
	b.OnDatagram(func(netsim.NodeID, uint16, []byte, msg.TraceCtx) { crashed = true })
	// Truncated header and lying dlen.
	_ = fab.Send(netsim.Frame{Src: 1, Dst: 2, Payload: []byte{0, 1}})
	_ = fab.Send(netsim.Frame{Src: 1, Dst: 2, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}})
	e.Run(50000)
	if crashed {
		t.Fatal("malformed frame delivered as datagram")
	}
}

func TestRetransmitCounted(t *testing.T) {
	e := sim.NewEngine(5)
	st := sim.NewStats()
	fab := netsim.New(e, st)
	a := NewSoftEndpoint(e, st, fab, 1, netsim.LinkConfig{Gbps: 100, LatencyNs: 500})
	b := NewSoftEndpoint(e, st, fab, 2, netsim.LinkConfig{Gbps: 100, LatencyNs: 500, LossProb: 0.5})
	done := 0
	b.OnDatagram(func(netsim.NodeID, uint16, []byte, msg.TraceCtx) { done++ })
	for i := 0; i < 10; i++ {
		_ = a.Send(2, 1, make([]byte, 100))
	}
	e.RunUntil(func() bool { return done == 10 }, 5_000_000)
	if done != 10 {
		t.Fatalf("delivered %d/10 under heavy loss", done)
	}
	if st.Counter("tp.retransmits").Value() == 0 {
		t.Fatal("no retransmits recorded under 50% loss")
	}
}

func TestTransportWireOrder(t *testing.T) {
	// Eight connections with data pending in the same cycle, created in a
	// different order every run: the pump and the retransmit both go out
	// in ascending remote NodeID order, every time.
	var first []netsim.NodeID
	for run := 0; run < 200; run++ {
		var wire []netsim.NodeID
		tr := NewTransport(100, func(dst netsim.NodeID, _ []byte, _ msg.TraceCtx) error {
			wire = append(wire, dst)
			return nil
		}, nil, sim.NewStats())
		for _, i := range sim.NewRNG(uint64(run)).Perm(8) {
			if err := tr.Send(netsim.NodeID(10+3*i), 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		tr.Tick(1)
		tr.Tick(2 + RTOCycles) // every connection's timeout expires at once
		if run == 0 {
			first = wire
			if len(first) != 16 {
				t.Fatalf("%d segments on the wire, want 8 sends + 8 retransmits", len(first))
			}
			for k := 1; k < len(first); k++ {
				if k != 8 && first[k] <= first[k-1] {
					t.Fatalf("wire order %v is not ascending NodeID per pass", first)
				}
			}
			continue
		}
		if !reflect.DeepEqual(wire, first) {
			t.Fatalf("run %d wire order %v != run 0 order %v", run, wire, first)
		}
	}
}

func TestTransportSleepsUntilRTO(t *testing.T) {
	sent := 0
	tr := NewTransport(1, func(netsim.NodeID, []byte, msg.TraceCtx) error {
		sent++
		return nil
	}, nil, sim.NewStats())
	if !tr.Idle() || tr.NextWake() != 0 {
		t.Fatal("fresh transport should be idle with no wake")
	}
	_ = tr.Send(2, 1, []byte("x"))
	if tr.Idle() {
		t.Fatal("pending data must keep the transport busy")
	}
	tr.Tick(10)
	if !tr.Idle() {
		t.Fatal("a segment in flight with its timer far off should sleep")
	}
	wake := tr.NextWake()
	if wake != 10+RTOCycles+1 {
		t.Fatalf("NextWake = %d, want %d", wake, 10+RTOCycles+1)
	}
	tr.Tick(wake - 2)
	if !tr.Idle() {
		t.Fatal("timeout two cycles off: still asleep")
	}
	tr.Tick(wake - 1)
	if tr.Idle() {
		t.Fatal("timeout due next cycle: not idle")
	}
	if sent != 1 {
		t.Fatalf("%d sends before the wake, want 1", sent)
	}
	tr.Tick(wake)
	if sent != 2 {
		t.Fatalf("%d sends after the wake, want the retransmit", sent)
	}
	if tr.drained() {
		t.Fatal("a segment in flight is not drained")
	}
}
