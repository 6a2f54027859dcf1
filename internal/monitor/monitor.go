// Package monitor implements the per-tile Apiary monitor — the trusted
// component that sits between an untrusted accelerator and the tile's NoC
// router (paper §4.1, Figure 1). Every message entering or leaving the tile
// passes through it, which is where Apiary enforces:
//
//   - capability-checked communication: a request may only leave the tile
//     if the tile holds an endpoint capability for the destination service,
//     and memory operations additionally require a segment capability
//     (paper §4.5, §4.6);
//   - source stamping: accelerators cannot spoof their tile or context;
//   - rate limiting: a token-bucket egress limiter answers resource
//     exhaustion by malicious or buggy accelerators (paper §4.5);
//   - fail-stop fault containment: a faulted tile stops emitting and NACKs
//     senders with EFailStopped (paper §4.4);
//   - the service name table: logical service IDs resolve to physical tiles
//     at the API layer (paper §4.3).
package monitor

import (
	"apiary/internal/accel"
	"apiary/internal/cap"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
	"apiary/internal/trace"
)

// RateLimit configures the egress token bucket. Zero values mean unlimited.
type RateLimit struct {
	FlitsPerKCycle int // sustained rate: flits per 1000 cycles
	BurstFlits     int // bucket depth
}

// Detect configures the monitor's watchdog detectors. Zero values disable
// each detector — the default, because detectors convert anomalies into
// fail-stop faults and must be an explicit policy choice (a rate-limited
// flooder, for example, accrues denials by design).
type Detect struct {
	// HeartbeatCycles faults the tile when its accelerator leaves queued
	// input unconsumed for this many cycles (accel.FaultHeartbeat). It
	// generalizes the shell's full-queue watchdog to hangs whose senders
	// stop before the queue fills.
	HeartbeatCycles sim.Cycle
	// ViolationLimit faults the tile after this many egress protocol
	// violations — denied sends: management-plane attempts, unknown
	// services, missing/revoked capabilities (accel.FaultProtocol). Rate
	// limiting is a policer, not a violation, and never counts.
	ViolationLimit int
	// LeakLimit and LeakAgeCycles fault the tile when it holds at least
	// LeakLimit unanswered requests and the window has been starved of
	// replies for LeakAgeCycles (accel.FaultLeak) — a requester leaking
	// protocol credits against a dead peer.
	LeakLimit     int
	LeakAgeCycles sim.Cycle
}

// DefaultDetect is the watchdog configuration used by apiaryd -detect and
// the chaos experiments: heartbeat well above service-time jitter, a small
// violation budget, and a leak window sized to the requester default
// timeout.
var DefaultDetect = Detect{
	HeartbeatCycles: 50_000,
	ViolationLimit:  3,
	LeakLimit:       64,
	LeakAgeCycles:   100_000,
}

// Config parameterizes a monitor.
type Config struct {
	Tile   msg.TileID
	Kernel msg.TileID // tile whose ctl messages are authoritative
	// EnforceCaps disables capability checking when false — the ablation
	// knob for experiment E6. Production configurations keep it true.
	EnforceCaps bool
	Rate        RateLimit
	// Detect configures the watchdog detectors (zero = all off).
	Detect Detect
}

// Monitor is one tile's monitor instance.
type Monitor struct {
	cfg     Config
	engine  *sim.Engine
	ni      *noc.NetworkInterface
	shell   *accel.Shell
	table   *cap.Table
	checker *cap.Checker
	names   map[msg.ServiceID]msg.TileID
	tracer  *trace.Tracer

	// token bucket
	tokens     float64
	lastRefill sim.Cycle

	capChecks  *sim.Counter
	denied     *sim.Counter
	rateDrops  *sim.Counter
	forwarded  *sim.Counter
	faults     *sim.Counter
	nackedIn   *sim.Counter
	violations *sim.Counter
	deliveredH *sim.Histogram

	// Detector state: egress protocol violations since the last trip, and
	// the outstanding-request window for the credit-leak detector. Egress
	// runs in the tile's tick, ingress at commit — different phases of the
	// same cycle, never concurrently.
	violationRun int
	pendingReq   int
	lastReplyAt  sim.Cycle
}

// New wires a monitor between ni and shell. checker is the system-wide
// generation authority (kernel-owned); tracer may be nil.
func New(cfg Config, e *sim.Engine, ni *noc.NetworkInterface, shell *accel.Shell,
	checker *cap.Checker, tracer *trace.Tracer, st *sim.Stats) *Monitor {
	m := &Monitor{
		cfg:        cfg,
		engine:     e,
		ni:         ni,
		shell:      shell,
		table:      cap.NewTable(),
		checker:    checker,
		names:      make(map[msg.ServiceID]msg.TileID),
		tracer:     tracer,
		tokens:     float64(cfg.Rate.BurstFlits),
		capChecks:  st.Counter("mon.cap_checks"),
		denied:     st.Counter("mon.denied"),
		rateDrops:  st.Counter("mon.rate_drops"),
		forwarded:  st.Counter("mon.forwarded"),
		faults:     st.Counter("mon.faults"),
		nackedIn:   st.Counter("mon.nacked_in"),
		violations: st.Counter("mon.violations"),
		deliveredH: st.Histogram("mon.noc_latency_cycles"),
	}
	if ni != nil {
		ni.SetDeliver(m.ingress)
	}
	if shell != nil {
		shell.Bind(m.Egress, m.onFault)
		shell.SetHeartbeat(cfg.Detect.HeartbeatCycles)
	}
	return m
}

// AttachShell binds a shell created after the monitor (the kernel attaches
// accelerators to tiles when an app is placed).
func (m *Monitor) AttachShell(s *accel.Shell) {
	m.shell = s
	s.Bind(m.Egress, m.onFault)
	s.SetHeartbeat(m.cfg.Detect.HeartbeatCycles)
}

// DetachShell disconnects the tile's accelerator (tile cleared).
func (m *Monitor) DetachShell() { m.shell = nil }

// SetRate replaces the egress rate limit (kernel-side, at placement time).
func (m *Monitor) SetRate(r RateLimit) {
	m.cfg.Rate = r
	m.tokens = float64(r.BurstFlits)
	m.lastRefill = m.engine.Now()
}

// Table exposes the tile's capability table (kernel-side installation).
func (m *Monitor) Table() *cap.Table { return m.table }

// BindName installs svc -> tile in the local name table (kernel-side; the
// message path is TCtlSetName).
func (m *Monitor) BindName(svc msg.ServiceID, tile msg.TileID) {
	if tile == msg.NoTile {
		delete(m.names, svc)
		return
	}
	m.names[svc] = tile
}

// LookupName resolves a service id.
func (m *Monitor) LookupName(svc msg.ServiceID) (msg.TileID, bool) {
	t, ok := m.names[svc]
	return t, ok
}

// State reports the wrapped shell's lifecycle state; tiles without a shell
// (service tiles managed elsewhere) report Running.
func (m *Monitor) State() accel.State {
	if m.shell == nil {
		return accel.Running
	}
	return m.shell.State()
}

func (m *Monitor) trace(dir trace.Dir, v trace.Verdict, mm *msg.Message, peer msg.TileID) {
	m.tracer.Record(trace.Event{
		Cycle: m.engine.Now(), Tile: m.cfg.Tile, Dir: dir, Verdict: v,
		Type: mm.Type, Seq: mm.Seq, DstSvc: mm.DstSvc, Peer: peer,
		Bytes: len(mm.Payload),
	})
}

// allowFlits implements the token bucket. n is the flit count of the
// message being charged.
func (m *Monitor) allowFlits(n int) bool {
	r := m.cfg.Rate
	if r.FlitsPerKCycle <= 0 {
		return true
	}
	now := m.engine.Now()
	elapsed := float64(now - m.lastRefill)
	m.lastRefill = now
	m.tokens += elapsed * float64(r.FlitsPerKCycle) / 1000
	if burst := float64(r.BurstFlits); m.tokens > burst {
		m.tokens = burst
	}
	if m.tokens < float64(n) {
		return false
	}
	m.tokens -= float64(n)
	return true
}

// isCtl reports whether t belongs to the management plane.
func isCtl(t msg.Type) bool { return noc.ClassVC(t) == noc.VCMgmt }

// isReplyClass reports whether t is a response-type message, which may
// address tiles directly (the capability was checked on the request path).
func isReplyClass(t msg.Type) bool { return noc.ClassVC(t) == noc.VCReply }

// Egress is the accelerator-facing send path (installed as the shell's
// SendFunc). It performs stamping, name resolution, capability checks and
// rate limiting, then injects into the NoC.
func (m *Monitor) Egress(mm *msg.Message) msg.ErrCode {
	// Quiescing is a healthy drain: the accelerator may still emit the
	// replies (and system-service traffic) it needs to reach quiescence.
	if st := m.State(); st != accel.Running && st != accel.Quiescing {
		return msg.EFailStopped
	}
	// Stamp the true source; accelerators cannot spoof (paper §4.5).
	mm.SrcTile = m.cfg.Tile

	// Accelerators may never emit management-plane messages.
	if isCtl(mm.Type) {
		m.denied.Inc()
		m.trace(trace.Egress, trace.DeniedRights, mm, mm.DstTile)
		m.noteViolation()
		return msg.ERights
	}

	if isReplyClass(mm.Type) {
		// Replies address tiles directly.
		if mm.DstTile == msg.NoTile {
			m.denied.Inc()
			return msg.ENoRoute
		}
	} else {
		// Requests address services: resolve, then check the endpoint cap.
		dst, ok := m.names[mm.DstSvc]
		if !ok || mm.DstSvc == msg.SvcInvalid {
			m.denied.Inc()
			m.trace(trace.Egress, trace.DeniedNoService, mm, msg.NoTile)
			m.noteViolation()
			return msg.ENoService
		}
		mm.DstTile = dst
		if m.cfg.EnforceCaps {
			if code := m.checkEndpoint(mm); code != msg.EOK {
				m.denied.Inc()
				m.trace(trace.Egress, verdictFor(code), mm, dst)
				// A stale-generation capability is the expected transient
				// while the kernel quarantines a peer: the deny itself
				// contains the send, and the client did nothing wrong —
				// only forged or never-granted rights count against the
				// fail-stop budget.
				if code != msg.ERevoked {
					m.noteViolation()
				}
				return code
			}
			if mm.Type == msg.TMemRead || mm.Type == msg.TMemWrite {
				if code := m.attachSegment(mm); code != msg.EOK {
					m.denied.Inc()
					m.trace(trace.Egress, verdictFor(code), mm, dst)
					m.noteViolation()
					return code
				}
			}
			if mm.Type == msg.TMemCopy {
				if code := m.attachCopySegments(mm); code != msg.EOK {
					m.denied.Inc()
					m.trace(trace.Egress, verdictFor(code), mm, dst)
					m.noteViolation()
					return code
				}
			}
		}
		if code := m.checkLeak(mm); code != msg.EOK {
			return code
		}
	}

	if !m.allowFlits(noc.FlitsFor(mm.WireSize())) {
		m.rateDrops.Inc()
		m.trace(trace.Egress, trace.RateLimited, mm, mm.DstTile)
		return msg.ERateLimited
	}

	if err := m.ni.Send(mm); err != nil {
		m.denied.Inc()
		return msg.ENoRoute
	}
	m.forwarded.Inc()
	if !isReplyClass(mm.Type) && mm.Type != msg.TOneway {
		// Track the outstanding-request window for the leak detector.
		m.pendingReq++
		if d := m.cfg.Detect; d.LeakLimit <= 0 || m.pendingReq <= d.LeakLimit {
			m.lastReplyAt = m.engine.Now()
		}
	}
	m.trace(trace.Egress, trace.Forwarded, mm, mm.DstTile)
	return msg.EOK
}

// noteViolation counts an egress protocol violation and, when the detector
// is enabled, fail-stops the tile after ViolationLimit of them — wild
// writes, forged capability references and babble to unknown services all
// land here.
func (m *Monitor) noteViolation() {
	m.violations.Inc()
	limit := m.cfg.Detect.ViolationLimit
	if limit <= 0 {
		return
	}
	m.violationRun++
	if m.violationRun >= limit {
		m.violationRun = 0
		m.onFault(0, accel.FaultProtocol)
	}
}

// checkLeak trips the credit-leak detector: once the tile holds LeakLimit
// unanswered requests, going LeakAgeCycles without a single reply faults it
// before it can tie up more of its peers' queues.
func (m *Monitor) checkLeak(mm *msg.Message) msg.ErrCode {
	d := m.cfg.Detect
	if d.LeakLimit <= 0 || m.pendingReq < d.LeakLimit {
		return msg.EOK
	}
	if m.engine.Now()-m.lastReplyAt <= d.LeakAgeCycles {
		return msg.EOK
	}
	m.pendingReq = 0
	m.onFault(0, accel.FaultLeak)
	m.trace(trace.Egress, trace.DeniedFailStop, mm, mm.DstTile)
	return msg.EFailStopped
}

// checkEndpoint verifies the tile holds a current endpoint capability for
// the destination service (CAM search of the partitioned table).
func (m *Monitor) checkEndpoint(mm *msg.Message) msg.ErrCode {
	m.capChecks.Inc()
	c, _, ok := m.table.Find(cap.KindEndpoint, uint32(mm.DstSvc))
	if !ok {
		return msg.ENoCap
	}
	return m.checker.Check(c, cap.RSend)
}

// attachSegment validates the accelerator's segment capability reference
// for a memory operation and rewrites CapRef to the segment ID. The memory
// service trusts this rewrite because monitors are trusted components; the
// accelerator itself never holds the capability, only the reference
// (paper §4.6).
func (m *Monitor) attachSegment(mm *msg.Message) msg.ErrCode {
	m.capChecks.Inc()
	c, ok := m.table.Lookup(cap.Ref(mm.CapRef))
	if !ok || c.Kind != cap.KindSegment {
		return msg.ENoCap
	}
	need := cap.RRead
	if mm.Type == msg.TMemWrite {
		need = cap.RWrite
	}
	if code := m.checker.Check(c, need); code != msg.EOK {
		return code
	}
	mm.CapRef = c.Object // carry the segment ID, not the local ref
	return msg.EOK
}

// attachCopySegments validates both capability references of a DMA copy:
// CapRef names the source segment (read rights), the payload's DstRef the
// destination (write rights). Both are rewritten to segment IDs.
func (m *Monitor) attachCopySegments(mm *msg.Message) msg.ErrCode {
	// Source: same path as a read.
	saveType := mm.Type
	mm.Type = msg.TMemRead
	code := m.attachSegment(mm)
	mm.Type = saveType
	if code != msg.EOK {
		return code
	}
	// Destination: decode, check write rights, rewrite in place.
	req, err := msg.DecodeMemCopyReq(mm.Payload)
	if err != nil {
		return msg.EBadMsg
	}
	m.capChecks.Inc()
	c, ok := m.table.Lookup(cap.Ref(req.DstRef))
	if !ok || c.Kind != cap.KindSegment {
		return msg.ENoCap
	}
	if code := m.checker.Check(c, cap.RWrite); code != msg.EOK {
		return code
	}
	msg.SetMemCopyDst(mm.Payload, c.Object)
	return msg.EOK
}

func verdictFor(code msg.ErrCode) trace.Verdict {
	switch code {
	case msg.ENoCap:
		return trace.DeniedNoCap
	case msg.ERevoked:
		return trace.DeniedRevoked
	case msg.ERights:
		return trace.DeniedRights
	case msg.ENoService:
		return trace.DeniedNoService
	case msg.EFailStopped:
		return trace.DeniedFailStop
	case msg.ERateLimited:
		return trace.RateLimited
	}
	return trace.DeniedNoCap
}

// reply sends a monitor-originated message (error replies, ctl responses)
// directly through the NI. Monitor traffic is trusted and not rate limited.
func (m *Monitor) reply(mm *msg.Message) {
	mm.SrcTile = m.cfg.Tile
	_ = m.ni.Send(mm)
}

// ingress is the NoC-facing delivery path.
func (m *Monitor) ingress(mm *msg.Message, lat sim.Cycle) {
	m.deliveredH.Observe(float64(lat))

	if isCtl(mm.Type) {
		m.handleCtl(mm)
		return
	}

	if isReplyClass(mm.Type) && m.pendingReq > 0 {
		m.pendingReq--
		m.lastReplyAt = m.engine.Now()
	}

	if st := m.State(); st != accel.Running && st != accel.Quiescing {
		m.trace(trace.Ingress, trace.DeniedFailStop, mm, mm.SrcTile)
		// Fail-stop: NACK requests so callers unblock with an error
		// instead of timing out (paper §4.4: "returning an error to any
		// accelerator that tries to communicate with it").
		if !isReplyClass(mm.Type) {
			m.nackedIn.Inc()
			m.reply(mm.ErrorReply(msg.EFailStopped))
		}
		return
	}

	if m.shell == nil {
		// No consumer on this tile.
		if !isReplyClass(mm.Type) {
			m.nackedIn.Inc()
			m.reply(mm.ErrorReply(msg.ENoService))
		}
		return
	}

	code := m.shell.Deliver(mm)
	if code != msg.EOK {
		m.trace(trace.Ingress, trace.DeniedFailStop, mm, mm.SrcTile)
		if !isReplyClass(mm.Type) {
			m.nackedIn.Inc()
			m.reply(mm.ErrorReply(code))
		}
		return
	}
	m.trace(trace.Ingress, trace.Forwarded, mm, mm.SrcTile)
}

// handleCtl executes management-plane commands. Only the kernel tile is
// authoritative; ctl messages from anywhere else are dropped (defense in
// depth — accelerators cannot emit ctl messages in the first place).
func (m *Monitor) handleCtl(mm *msg.Message) {
	if mm.SrcTile != m.cfg.Kernel && mm.SrcTile != m.cfg.Tile {
		m.denied.Inc()
		m.trace(trace.Ingress, trace.DeniedRights, mm, mm.SrcTile)
		return
	}
	switch mm.Type {
	case msg.TCtlInstallCap:
		req, err := msg.DecodeInstallCapReq(mm.Payload)
		if err != nil {
			return
		}
		if len(req.Cap) == 0 {
			m.table.Remove(cap.Ref(req.Slot))
			return
		}
		c, err := cap.Decode(req.Cap)
		if err != nil {
			return
		}
		m.table.InstallAt(cap.Ref(req.Slot), c)
	case msg.TCtlRevokeCap:
		req, err := msg.DecodeInstallCapReq(mm.Payload)
		if err != nil {
			return
		}
		m.table.Remove(cap.Ref(req.Slot))
	case msg.TCtlSetName:
		req, err := msg.DecodeSetNameReq(mm.Payload)
		if err != nil {
			return
		}
		m.BindName(req.Svc, req.Tile)
	case msg.TCtlDrain:
		m.failStop()
	case msg.TCtlQuiesce:
		// Healthy drain for checkpoint/migration: keep ticking, deliver
		// replies, bounce new requests with the retryable EQuiescing.
		if m.shell != nil && m.shell.State() == accel.Running {
			m.shell.SetState(accel.Quiescing)
		}
	case msg.TCtlResume:
		if m.shell == nil {
			break
		}
		if m.shell.State() == accel.Quiescing {
			// Migration abort: un-quiesce WITHOUT a reset — the app state
			// must survive exactly as it was, the source stays
			// authoritative.
			m.shell.SetState(accel.Running)
		} else {
			m.shell.Reset()
		}
	case msg.TCtlPing:
		m.reply(mm.Reply(msg.TReply, nil))
	case msg.TCtlStats:
		m.reply(mm.Reply(msg.TReply, []byte{byte(m.State())}))
	}
}

// onFault is the shell's fault hook (paper §4.4). Preemptible accelerators
// lose only the faulting context; concurrent-only accelerators fail-stop
// the whole tile. Either way the kernel is notified over the management
// plane.
func (m *Monitor) onFault(ctx uint8, reason accel.FaultReason) {
	m.faults.Inc()
	m.tracer.Record(trace.Event{
		Cycle: m.engine.Now(), Tile: m.cfg.Tile, Verdict: trace.Faulted,
	})
	contained := m.shell != nil && m.shell.KillContext(ctx)
	if !contained {
		m.failStop()
	}
	report := msg.FaultReport{
		Tile: m.cfg.Tile, Ctx: ctx, Reason: uint8(reason),
		Cycle: uint64(m.engine.Now()),
	}
	m.reply(&msg.Message{
		Type:    msg.TCtlFault,
		DstTile: m.cfg.Kernel,
		Payload: msg.EncodeFaultReport(report),
	})
}

// failStop transitions the tile into the draining/fail-stopped state.
func (m *Monitor) failStop() {
	if m.shell != nil {
		m.shell.SetState(accel.Draining)
	}
}

// ForceFault lets tests and the fault-injection harness fault the tile as
// if the accelerator had raised an error strobe.
func (m *Monitor) ForceFault(ctx uint8, reason accel.FaultReason) {
	m.onFault(ctx, reason)
}

// InjectWildWrite emits one forged memory write carrying a dangling
// capability reference, exactly as runaway accelerator logic would (chaos
// engine; called between cycles). With capability enforcement on, the write
// dies at this monitor as a protocol violation; with it off, the memory
// service rejects the unknown segment — either way it never touches memory,
// which is the containment property E16 and the differential tests rely on.
func (m *Monitor) InjectWildWrite() msg.ErrCode {
	return m.Egress(&msg.Message{
		Type: msg.TMemWrite, DstSvc: msg.SvcMemory,
		CapRef:  0xDEAD0000 + uint32(m.cfg.Tile),
		Payload: []byte{0xDE, 0xAD, 0xBE, 0xEF},
	})
}
