package monitor

import (
	"fmt"
	"reflect"
	"testing"

	"apiary/internal/accel"
	"apiary/internal/cap"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
	"apiary/internal/trace"
)

// meshApp is a tile-local request/reply workload for the full-stack tests:
// it periodically requests a service on another tile, echoes requests it
// receives, and keeps a purely tile-local event log.
type meshApp struct {
	id     int
	target msg.ServiceID
	gap    sim.Cycle
	total  int

	sent    int
	nextAt  sim.Cycle
	replies int
	echoed  int
	log     []string
}

func (a *meshApp) Name() string  { return fmt.Sprintf("meshapp%d", a.id) }
func (a *meshApp) Contexts() int { return 1 }
func (a *meshApp) Reset()        {}

func (a *meshApp) Tick(p accel.Port) {
	now := p.Now()
	for i := 0; i < 4; i++ {
		m, ok := p.Recv()
		if !ok {
			break
		}
		switch m.Type {
		case msg.TRequest:
			a.echoed++
			p.Send(m.Reply(msg.TReply, m.Payload))
		case msg.TReply:
			a.replies++
			a.log = append(a.log, fmt.Sprintf("t%d reply seq=%d at=%d", a.id, m.Seq, now))
		}
	}
	if a.sent < a.total && now >= a.nextAt {
		code := p.Send(&msg.Message{
			Type: msg.TRequest, DstSvc: a.target, Seq: uint32(a.sent),
			Payload: []byte{byte(a.id), byte(a.sent)},
		})
		if code == msg.EOK {
			a.sent++
			a.nextAt = now + a.gap
		}
	}
}

// stackSnapshot is the full-stack determinism witness: monitor and NoC
// counters, the monitor latency histogram, the trace ring, and every tile's
// local application log.
type stackSnapshot struct {
	Counters map[string]uint64
	Hist     [4]float64
	Traced   uint64
	Events   []trace.Event
	AppLogs  []string
	Replies  []int
	Echoed   []int
}

// runStack assembles a 4x4 mesh with a monitor and a tile-local meshApp on
// every tile and runs the workload to completion.
func runStack(t *testing.T) stackSnapshot {
	t.Helper()
	const tiles = 16
	e := sim.NewEngine(11)
	st := sim.NewStats()
	tracer := trace.New(1 << 16)
	net := noc.NewNetwork(e, st, noc.Config{Dims: noc.Dims{W: 4, H: 4}})
	checker := cap.NewChecker()

	svc := func(i int) msg.ServiceID { return msg.FirstUserService + msg.ServiceID(i) }
	apps := make([]*meshApp, tiles)
	mons := make([]*Monitor, tiles)
	for i := 0; i < tiles; i++ {
		apps[i] = &meshApp{
			id: i, target: svc((i + 5) % tiles),
			gap: sim.Cycle(3 + i%4), total: 30,
		}
		shell := accel.NewShell(apps[i], st)
		mons[i] = New(Config{Tile: msg.TileID(i), Kernel: 0, EnforceCaps: true},
			e, net.NI(msg.TileID(i)), shell, checker, tracer, st)
		e.Register(shell)
	}
	for i := 0; i < tiles; i++ {
		for j := 0; j < tiles; j++ {
			mons[i].BindName(svc(j), msg.TileID(j))
		}
		target := uint32(svc((i + 5) % tiles))
		mons[i].Table().Install(cap.Capability{
			Kind: cap.KindEndpoint, Rights: cap.RSend,
			Object: target, Gen: checker.Gen(cap.KindEndpoint, target),
		})
	}
	done := func() bool {
		for _, a := range apps {
			if a.replies < a.total {
				return false
			}
		}
		return true
	}
	if !e.RunUntilEvery(done, 100000, 16) {
		for _, a := range apps {
			t.Logf("tile %d: sent=%d replies=%d echoed=%d", a.id, a.sent, a.replies, a.echoed)
		}
		t.Fatal("workload did not complete")
	}

	snap := stackSnapshot{Counters: make(map[string]uint64)}
	for _, c := range st.Counters() {
		snap.Counters[c.Name] = c.Value()
	}
	h := st.Histogram("mon.noc_latency_cycles")
	snap.Hist = [4]float64{float64(h.Count()), h.Mean(), h.Min(), h.Max()}
	snap.Traced = tracer.Total()
	snap.Events = tracer.Events()
	for _, a := range apps {
		snap.AppLogs = append(snap.AppLogs, a.log...)
		snap.Replies = append(snap.Replies, a.replies)
		snap.Echoed = append(snap.Echoed, a.echoed)
	}
	return snap
}

// TestFullStackParallelDifferential proves bit-exactness end to end through
// the monitor layer: capability checks, source stamping, trace recording and
// delivery accounting are identical across two runs of the same
// configuration.
func TestFullStackParallelDifferential(t *testing.T) {
	base := runStack(t)
	if base.Counters["mon.forwarded"] == 0 || base.Traced == 0 {
		t.Fatal("baseline exercised nothing")
	}
	got := runStack(t)
	if !reflect.DeepEqual(got.Counters, base.Counters) {
		for k, v := range base.Counters {
			if got.Counters[k] != v {
				t.Errorf("counter %s = %d, want %d", k, got.Counters[k], v)
			}
		}
	}
	if got.Hist != base.Hist {
		t.Errorf("latency histogram = %v, want %v", got.Hist, base.Hist)
	}
	if got.Traced != base.Traced {
		t.Errorf("traced events = %d, want %d", got.Traced, base.Traced)
	}
	if !reflect.DeepEqual(got.Events, base.Events) {
		t.Error("trace ring contents differ")
	}
	if !reflect.DeepEqual(got.AppLogs, base.AppLogs) {
		t.Error("application logs differ")
	}
	if !reflect.DeepEqual(got.Replies, base.Replies) ||
		!reflect.DeepEqual(got.Echoed, base.Echoed) {
		t.Errorf("per-tile reply/echo counts differ: %v/%v want %v/%v",
			got.Replies, got.Echoed, base.Replies, base.Echoed)
	}
}

// TestTraceEgressBeforeIngress pins the trace ring's reading order: monitors
// record egress verdicts during the tick phase (the shell's sends) and
// ingress verdicts during the commit phase (NoC ejections), so within every
// cycle the egress events precede the ingress events.
func TestTraceEgressBeforeIngress(t *testing.T) {
	snap := runStack(t)
	if uint64(len(snap.Events)) != snap.Traced {
		t.Fatalf("ring evicted events (%d kept of %d); enlarge it", len(snap.Events), snap.Traced)
	}
	mixed := 0
	for i := 0; i < len(snap.Events); {
		c := snap.Events[i].Cycle
		ingress := false
		egress := false
		for ; i < len(snap.Events) && snap.Events[i].Cycle == c; i++ {
			switch ev := snap.Events[i]; {
			case ev.Dir == trace.Ingress:
				ingress = true
			case ingress:
				t.Fatalf("cycle %d: egress event %+v recorded after an ingress event", c, ev)
			default:
				egress = true
			}
		}
		if i < len(snap.Events) && snap.Events[i].Cycle < c {
			t.Fatalf("ring goes back in time: cycle %d after %d", snap.Events[i].Cycle, c)
		}
		if egress && ingress {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no cycle recorded both egress and ingress events; the test proves nothing")
	}
}
