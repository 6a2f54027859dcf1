package apps

import (
	"testing"

	"apiary/internal/accel"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// TestAsleepIsNotDrained parks a reply that is not yet due in each outQ
// owner's send queue and quiesces its shell: the tile sleeps until the
// reply's cycle, but it is not quiescent until the reply has gone out.
func TestAsleepIsNotDrained(t *testing.T) {
	const due = sim.Cycle(50)
	reply := func() *msg.Message { return &msg.Message{Type: msg.TReply, DstTile: 3, Seq: 7} }
	type owner struct {
		name string
		acc  accel.Accelerator
		out  *outQ
	}
	st := NewChecksum()
	kv := NewKVStore(1)
	lb := NewLoadBalancer([]msg.ServiceID{svcRep1})
	rp := &RemoteProxy{listened: true, pend: map[uint32]pendEntry{}}
	nb := NewNetBridge(5)
	nb.listened = true
	inner := NewChecksum()
	cases := []owner{
		{"stage", st, &st.out},
		{"kvstore", kv, &kv.out},
		{"loadbal", lb, &lb.out},
		{"remoteproxy", rp, &rp.out},
		{"netbridge", nb, &nb.out},
		{"faulty", NewFaulty(inner, 0), &inner.out},
	}
	for _, c := range cases {
		var sent []*msg.Message
		sh := accel.NewShell(c.acc, sim.NewStats())
		sh.Bind(func(m *msg.Message) msg.ErrCode { sent = append(sent, m); return msg.EOK }, nil)
		c.out.push(due, reply())
		sh.SetState(accel.Quiescing)
		sh.Tick(10)
		if len(sent) != 0 {
			t.Fatalf("%s: sent %d messages before the due cycle", c.name, len(sent))
		}
		if !sh.Idle() || sh.NextWake() != due {
			t.Fatalf("%s: want asleep until %d, got idle=%v wake=%d", c.name, due, sh.Idle(), sh.NextWake())
		}
		if sh.Quiescent() {
			t.Fatalf("%s: quiescent with a reply still owed at cycle %d", c.name, due)
		}
		sh.Tick(due - 1)
		if sh.Idle() {
			t.Fatalf("%s: reply due next cycle, yet idle", c.name)
		}
		sh.Tick(due)
		if len(sent) != 1 {
			t.Fatalf("%s: reply not sent at its due cycle", c.name)
		}
		if !sh.Quiescent() || sh.NextWake() != 0 {
			t.Fatalf("%s: want quiescent with no wake after the flush", c.name)
		}
	}
}
