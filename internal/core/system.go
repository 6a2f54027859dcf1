package core

import (
	"fmt"

	"apiary/internal/cap"
	"apiary/internal/fabric"
	"apiary/internal/fault"
	"apiary/internal/memseg"
	"apiary/internal/monitor"
	"apiary/internal/msg"
	"apiary/internal/netsim"
	"apiary/internal/netstack"
	"apiary/internal/noc"
	"apiary/internal/obs"
	"apiary/internal/sim"
	"apiary/internal/trace"
)

// SystemConfig parameterizes a complete Apiary board instance.
type SystemConfig struct {
	// Board names an entry in fabric.Boards. Default "usp-100g".
	Board string
	// Dims is the NoC mesh size. Default 3x3.
	Dims noc.Dims
	// Seed for the deterministic PRNG. Default 1.
	Seed uint64
	// DisableCaps turns off capability enforcement (experiment ablation).
	DisableCaps bool
	// ManagedMemBytes is the DRAM the memory service manages. Default
	// 64 MiB (the board's channel is far larger; the simulator stores real
	// bytes, so experiments use a window).
	ManagedMemBytes uint64
	// MemPolicy selects the segment allocator policy. Default FirstFit.
	MemPolicy memseg.Policy
	// WithNet installs the network service on tile 2 and attaches the
	// board to a datacenter fabric.
	WithNet bool
	// ExtFabric, when non-nil, is the datacenter network to join;
	// otherwise (with WithNet) a private fabric is created.
	ExtFabric *netsim.Fabric
	// NodeID is this board's address on the datacenter network. Default 1.
	NodeID netsim.NodeID
	// NetSeed seeds the private fabric's loss RNG (0 keeps the netsim
	// default). Fleets derive a distinct seed per board so drops on
	// different boards' fabrics never correlate.
	NetSeed uint64
	// LinkLatencyNs is the board uplink one-way latency. Default 1000.
	LinkLatencyNs float64
	// TracerCap bounds the message trace ring. Default 16384.
	TracerCap int
	// CapSlots is the per-tile capability table provisioning used for the
	// area model. Default 64.
	CapSlots int
	// SkipFloorplan disables fabric region checks (tiny unit tests).
	SkipFloorplan bool

	// SpanSampleEvery enables the message flight recorder, sampling one in
	// this many packets per NI (plus the replies to sampled requests). 0
	// (the default) disables span recording entirely.
	SpanSampleEvery int
	// SpanCap bounds the flight-recorder ring. Default obs.DefaultSpanCap.
	SpanCap int
	// WindowCycles enables windowed telemetry, snapshotting link/VC/tile
	// state every this many cycles. 0 (the default) disables it.
	WindowCycles sim.Cycle
	// WindowKeep bounds the snapshot ring. Default obs.DefaultWindowKeep.
	WindowKeep int
	// EventCap bounds the kernel decision log (always on). Default
	// obs.DefaultEventCap.
	EventCap int

	// Detect configures the per-tile monitor watchdogs (heartbeat,
	// credit-leak, protocol-violation). The zero value leaves every
	// detector off.
	Detect monitor.Detect
	// FaultPlan, when non-nil, arms the deterministic chaos engine with the
	// given schedule of injected faults (see internal/fault).
	FaultPlan *fault.Plan
}

// System is a fully assembled Apiary board: engine, NoC, kernel, system
// services and (optionally) a datacenter network attachment.
type System struct {
	Engine  *sim.Engine
	Stats   *sim.Stats
	Tracer  *trace.Tracer
	Checker *cap.Checker
	Noc     *noc.Network
	Kernel  *Kernel
	Board   fabric.Board
	Regions []*fabric.Region
	Alloc   *memseg.Allocator
	DRAM    *memseg.DRAM
	Fabric  *netsim.Fabric    // nil unless WithNet
	NetSvc  *netstack.Service // nil unless WithNet
	NodeID  netsim.NodeID
	Obs     *obs.Recorder   // nil unless SpanSampleEvery > 0
	Windows *obs.Windows    // nil unless WindowCycles > 0
	Events  *obs.EventLog   // kernel decision log, always on
	Fault   *fault.Injector // nil unless FaultPlan set
}

// NewSystem boots a board.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Board == "" {
		cfg.Board = "usp-100g"
	}
	if cfg.Dims == (noc.Dims{}) {
		cfg.Dims = noc.Dims{W: 3, H: 3}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ManagedMemBytes == 0 {
		cfg.ManagedMemBytes = 64 << 20
	}
	if cfg.NodeID == 0 {
		cfg.NodeID = 1
	}
	if cfg.TracerCap == 0 {
		cfg.TracerCap = 16384
	}
	if cfg.CapSlots == 0 {
		cfg.CapSlots = 64
	}
	board, err := fabric.LookupBoard(cfg.Board)
	if err != nil {
		return nil, err
	}

	s := &System{
		Engine:  sim.NewEngine(cfg.Seed),
		Stats:   sim.NewStats(),
		Checker: cap.NewChecker(),
		Board:   board,
		NodeID:  cfg.NodeID,
	}
	s.Tracer = trace.New(cfg.TracerCap)
	s.Noc = noc.NewNetwork(s.Engine, s.Stats, noc.Config{Dims: cfg.Dims})
	if cfg.SpanSampleEvery > 0 {
		s.Obs = obs.NewRecorder(cfg.SpanSampleEvery, cfg.SpanCap)
		s.Noc.SetSpanSampler(s.Obs)
	}
	if cfg.WindowCycles > 0 {
		s.Windows = obs.NewWindows(s.Engine, s.Noc, s.Stats,
			obs.WindowConfig{Every: cfg.WindowCycles, Keep: cfg.WindowKeep})
	}

	if !cfg.SkipFloorplan {
		regions, err := fabric.Floorplan(board.Device, cfg.Dims.Tiles(),
			cfg.CapSlots, fabric.DefaultAreaModel)
		if err != nil {
			return nil, err
		}
		s.Regions = regions
	}

	// Memory subsystem sized to the board's primary bank characteristics.
	bank := board.PrimaryMemory()
	bytesPerCycle := int(bank.GBps * 1e9 / (float64(sim.DefaultFreqMHz) * 1e6))
	if bytesPerCycle < 1 {
		bytesPerCycle = 1
	}
	s.Alloc = memseg.NewAllocator(cfg.ManagedMemBytes, cfg.MemPolicy)
	s.DRAM = memseg.NewDRAM(s.Engine, s.Stats, cfg.ManagedMemBytes, memseg.DRAMConfig{
		LatencyCycles: s.Engine.CyclesForNanos(bank.LatencyNs),
		BytesPerCycle: bytesPerCycle,
	})

	s.Events = obs.NewEventLog(cfg.EventCap)
	s.Kernel = NewKernel(s.Engine, s.Stats, s.Noc, s.Checker, s.Tracer,
		s.Alloc, !cfg.DisableCaps, cfg.Detect)
	s.Kernel.events = s.Events
	s.Kernel.SetDRAM(s.DRAM)
	if s.Regions != nil {
		s.Kernel.SetRegions(s.Regions)
	}
	if cfg.FaultPlan != nil {
		inj := fault.NewInjector(cfg.FaultPlan, s.Engine, s.Noc,
			&chaosTarget{k: s.Kernel}, s.Stats)
		if err := inj.Arm(); err != nil {
			return nil, err
		}
		s.Fault = inj
	}
	s.Kernel.installSystemService(MemTile, msg.SvcMemory,
		NewMemService(s.Alloc, s.DRAM, s.Checker, s.Stats))

	if cfg.WithNet {
		if cfg.Dims.Tiles() < 4 {
			return nil, fmt.Errorf("core: network service needs at least 4 tiles")
		}
		s.Fabric = cfg.ExtFabric
		if s.Fabric == nil {
			s.Fabric = netsim.NewWithConfig(s.Engine, s.Stats,
				netsim.Config{LossSeed: cfg.NetSeed})
		}
		port := board.NewEthernet()
		link := netsim.LinkConfig{Gbps: port.LineRateGbps(), LatencyNs: cfg.LinkLatencyNs}
		svc, err := netstack.NewService(s.Engine, s.Stats, s.Fabric,
			cfg.NodeID, port, link)
		if err != nil {
			return nil, err
		}
		s.NetSvc = svc
		s.Kernel.installSystemService(NetTile, msg.SvcNet, svc)
	}
	return s, nil
}

// Run advances the board n cycles.
func (s *System) Run(n sim.Cycle) { s.Engine.Run(n) }

// RunUntil advances until cond holds or the budget expires.
func (s *System) RunUntil(cond func() bool, budget sim.Cycle) bool {
	return s.Engine.RunUntil(cond, budget)
}

// MonitorOverhead reports the fraction of the device's logic cells consumed
// by Apiary's static framework at this tile count (experiment E3).
func (s *System) MonitorOverhead(capSlots int) float64 {
	return fabric.DefaultAreaModel.OverheadFraction(s.Board.Device,
		s.Noc.Dims().Tiles(), capSlots)
}
