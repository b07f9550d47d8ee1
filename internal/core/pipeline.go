package core

import (
	"fmt"
	"sort"

	"repro/internal/adios"
	"repro/internal/cluster"
	"repro/internal/datatap"
	"repro/internal/fault"
	"repro/internal/lammps"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/shardmgr"
	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/trace"
)

// Config assembles a complete managed pipeline run: the machine split
// into simulation and staging partitions, the component stages and their
// initial sizes, the workload, and the management policy.
type Config struct {
	// SimNodes and StagingNodes partition the batch allocation (paper
	// ratios range 1:512 to 1:2048; the experiments use 256:13, 512:24,
	// 1024:24).
	SimNodes, StagingNodes int
	// Machine overrides the machine model (default: Franklin sized to
	// SimNodes+StagingNodes).
	Machine *cluster.Config
	// Specs lists the pipeline stages in order (default: DefaultSpecs).
	Specs []ComponentSpec
	// Sizes maps component name to initial node count. Unlisted
	// components get 1 node. The sum must fit within StagingNodes;
	// leftovers become the spare pool.
	Sizes map[string]int
	// OutputPeriod is the simulation's output cadence (default 15 s).
	OutputPeriod sim.Time
	// Steps is the number of output steps the simulation emits.
	Steps int
	// CrackStep (≥ 0) injects crack formation at that output step.
	CrackStep int64
	// QueueCap bounds each channel's metadata queue (default 30).
	QueueCap int
	// WriterBufBytes bounds each DataTap writer buffer (default 1 GiB).
	WriterBufBytes int64
	// Delivery selects the data plane's delivery guarantee for the stage
	// channels (zero value = best-effort, today's semantics). The
	// checkpoint channel always runs best-effort: checkpoints are
	// periodic full-state dumps, so a lost one is superseded, not lost
	// work.
	Delivery datatap.DeliveryConfig
	// Scale overrides the workload scale (default from SimNodes).
	Scale lammps.Scale
	// Policy tunes the global manager.
	Policy PolicyConfig
	// Seed drives all randomness.
	Seed int64
	// DrainTime extends the run after the last output step so the
	// pipeline can flush (default 4 output periods).
	DrainTime sim.Time
	// CheckpointEvery, when > 0, makes the simulation emit a full-state
	// checkpoint every k output steps, aggregated to stable storage by a
	// dedicated checkpoint container with a relaxed SLA.
	CheckpointEvery int
	// CheckpointNodes sizes the checkpoint container (default 1). Its
	// nodes come out of the staging partition like everyone else's.
	CheckpointNodes int
	// SpreadPlacement assigns staging nodes to containers round-robin
	// instead of in contiguous blocks. With a topology-aware machine
	// model this scatters each container across the interconnect — the
	// placement question the paper leaves as future work, exposed here
	// for the placement ablation benchmark.
	SpreadPlacement bool
	// MonitorSampleEvery rate-limits each container's monitoring
	// reports: at most one sample per interval crosses the machine
	// (0 = every sample). §III-E: "how often they are captured".
	MonitorSampleEvery sim.Time
	// StandbyGM deploys a standby global manager on the second staging
	// node that takes over if the primary dies (§III-B's single point
	// of failure, addressed ZooKeeper-style with heartbeats and
	// failover).
	StandbyGM bool
	// MonitorAggregateN pre-aggregates N samples into one averaged
	// report at the container boundary before it crosses the machine
	// (0/1 = none). §III-E: "how they are processed and where".
	MonitorAggregateN int
	// Shards > 1 replaces the single global manager with the sharded
	// hierarchical control plane: containers are assigned to Shards
	// shard managers by a seeded consistent-hash ring, with a
	// meta-manager above them for shard liveness, cross-shard steals,
	// and standby promotion (see shard.go / meta.go). 0 or 1 keeps the
	// legacy single manager, byte-identical to pre-shard behavior.
	Shards int
	// ShardSeed seeds the assignment ring (default: Seed), so placement
	// can be varied independently of the run's randomness.
	ShardSeed int64
	// ShardStandbys deploys a standby manager per shard (0 or 1).
	ShardStandbys int
	// Subscribers attaches a streaming fan-out fleet — thousands of
	// simulated dashboards with Zipf-distributed read rates — to one stage
	// channel (see subscribe.go). Nil means no subscribers.
	Subscribers *SubscribersConfig
	// Faults injects a deterministic fault schedule (node crashes, link
	// degradation, partitions, control-message loss, subscriber crashes)
	// into the run. Nil or empty means a fault-free machine; see the fault
	// package.
	Faults *fault.Config
	// Trace enables the causal tracing subsystem: spans from every layer
	// land in a flight-recorder ring that auto-dumps on SLA violation,
	// queue overflow, or node crash. Nil disables tracing entirely.
	Trace *trace.Config
}

func (c Config) withDefaults() Config {
	if c.SimNodes <= 0 {
		c.SimNodes = 256
	}
	if c.StagingNodes <= 0 {
		c.StagingNodes = 13
	}
	if c.Specs == nil {
		c.Specs = DefaultSpecs()
	}
	if c.OutputPeriod <= 0 {
		c.OutputPeriod = 15 * sim.Second
	}
	if c.Steps <= 0 {
		c.Steps = 20
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 30
	}
	if c.WriterBufBytes <= 0 {
		c.WriterBufBytes = 4 << 30 // half a Franklin node's memory
	}
	if c.Scale.AtomCount == 0 {
		c.Scale = lammps.ScaleForNodes(c.SimNodes)
	}
	if c.DrainTime <= 0 {
		c.DrainTime = 4 * c.OutputPeriod
	}
	if c.Sizes == nil {
		c.Sizes = map[string]int{}
	}
	if c.Shards > 1 && c.ShardSeed == 0 {
		c.ShardSeed = c.Seed
	}
	c.Policy = c.Policy.withDefaults(c.OutputPeriod, c.QueueCap)
	return c
}

// DefaultSizes returns the initial container sizing used by the paper's
// experiment configurations for a given staging area.
func DefaultSizes(stagingNodes int) map[string]int {
	switch {
	case stagingNodes >= 24:
		// Figs. 8/9: 24 staging nodes, 4 spare at the start.
		return map[string]int{"helper": 8, "bonds": 4, "csym": 4, "cna": 4}
	default:
		// Fig. 7: 13 staging nodes, no spare.
		return map[string]int{"helper": 6, "bonds": 2, "csym": 2, "cna": 3}
	}
}

// Runtime is an assembled pipeline run.
type Runtime struct {
	cfg      Config
	eng      *sim.Engine
	mach     *cluster.Machine
	launcher *cluster.Launcher
	io       *adios.IO

	containers  []*Container
	byName      map[string]*Container
	channels    []*datatap.Channel
	ckptChannel *datatap.Channel
	// region is the staging partition's container region in placement
	// order: every staging node on legacy runs, the nodes behind the
	// control plane on sharded ones.
	region []*cluster.Node
	rec    *metrics.Recorder

	// The control plane: the manager table, plus the meta-manager and the
	// container/node ownership ledger (both nil on legacy runs).
	mgrs managerTable
	meta *MetaManager
	dir  *shardmgr.Directory

	// Subscriber fan-out (nil without Config.Subscribers): the hub on the
	// fanned-out stage channel and the container serving its control
	// rounds.
	subHub  *datatap.SubHub
	subHost *Container

	producerDone bool
	emitted      int
	exits        int64
	dropped      int
	firstErr     error
	deliveryLost []LostStep

	// faults is the armed fault schedule (nil on fault-free runs).
	faults *fault.Schedule
	// tracer is the causal trace recorder (nil when tracing is off; every
	// instrumentation site is nil-safe).
	tracer *trace.Recorder
	// ctlSeq numbers control rounds across every global manager instance;
	// a runtime-wide counter keeps a standby's rounds distinct from the
	// primary's in the containers' deduplication caches.
	ctlSeq int64
	// rounds / trades / crashVictims are runtime-wide logs consumed by the
	// chaos oracles (see internal/chaos): every control-round send attempt,
	// every D2T trade outcome, and every replica lost to a node crash.
	rounds       []RoundRecord
	trades       []TradeRecord
	crashVictims []CrashVictim
}

// managerTable tracks every global-manager instance of a run. The rows
// are control planes: a legacy run is one plane (row 0, shard -1), a
// sharded run has one plane per shard. acting holds each plane's manager
// issuing rounds (reassigned on takeover) and standby its standby (nil
// when none); all lists every manager in creation order — the primaries,
// then the standbys — so all[p] is plane p's original primary.
type managerTable struct {
	acting  []*GlobalManager
	standby []*GlobalManager
	all     []*GlobalManager
}

// plane maps a shard ID to its manager-table row: the legacy single
// manager's shard -1 is row 0.
func plane(shard int) int { return max(shard, 0) }

// controlLayout is where the control plane sits on the staging
// partition, and what it leaves for containers.
type controlLayout struct {
	meta      *cluster.Node   // nil on legacy runs
	primaries []*cluster.Node // one per plane
	standbys  []*cluster.Node // one per plane, or none
	region    []*cluster.Node // container nodes, in placement order
}

// ControlNodes is the number of leading staging nodes a control plane of
// the given shape reserves for itself: none on legacy runs (shards <= 1),
// where the managers share container nodes; on sharded runs the
// meta-manager plus every shard primary and its standbys.
func ControlNodes(shards, standbys int) int {
	if shards <= 1 {
		return 0
	}
	return 1 + shards*(1+standbys)
}

// layoutControl chooses the control-plane nodes. A legacy run is one
// plane co-located with the containers: the global manager on the first
// container node, the standby (Config.StandbyGM) on the second. A sharded
// run reserves the leading staging nodes — the meta-manager, then one
// primary per shard, then the standbys (shard-major) — and places the
// containers behind them. Containers fill the region front-to-back
// (contiguous blocks keep a container's replicas topologically close) or
// interleaved when SpreadPlacement is set.
func layoutControl(cfg Config, staging []*cluster.Node) (controlLayout, error) {
	var l controlLayout
	ctl := 0
	if cfg.Shards > 1 {
		S, k := cfg.Shards, cfg.ShardStandbys
		if k < 0 || k > 1 {
			return l, fmt.Errorf("core: ShardStandbys must be 0 or 1, got %d", k)
		}
		if cfg.StandbyGM {
			return l, fmt.Errorf("core: StandbyGM is the legacy failover knob; use ShardStandbys with Shards > 1")
		}
		if cfg.Policy.KillGMAt > 0 {
			return l, fmt.Errorf("core: Policy.KillGMAt targets the legacy single manager; crash shard managers via a fault schedule")
		}
		ctl = ControlNodes(S, k)
		if ctl >= len(staging) {
			return l, fmt.Errorf("core: %d control-plane nodes (meta + %d shards ×%d) leave no staging nodes for containers (%d total)",
				ctl, S, 1+k, len(staging))
		}
		l.meta = staging[0]
		l.primaries = staging[1 : 1+S]
		l.standbys = staging[1+S : ctl]
	}
	l.region = staging[ctl:]
	if cfg.SpreadPlacement {
		l.region = interleave(l.region, len(cfg.Specs))
	}
	if cfg.Shards <= 1 {
		l.primaries = l.region[:1]
		if cfg.StandbyGM {
			sb := l.region[0]
			if len(l.region) > 1 {
				sb = l.region[1]
			}
			l.standbys = []*cluster.Node{sb}
		}
	}
	return l, nil
}

// Build assembles (but does not run) a pipeline runtime. Both control
// planes go through the same sequence: lay out the control plane, place
// the containers and split the leftover nodes into per-plane spare
// pools, create the managers, then wire channels, containers, the
// checkpoint path, gap routes and subscribers, and spawn the processes.
// On sharded runs containers map to shards by the seeded consistent-hash
// ring; each shard manager runs the full round machinery over its scope,
// while the meta-manager does only slow-path work — shard liveness,
// cross-shard steal brokering, standby promotion (see shard.go / meta.go).
func Build(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	rt := &Runtime{cfg: cfg, byName: map[string]*Container{}, rec: metrics.NewRecorder()}
	rt.eng = sim.NewEngine(cfg.Seed)
	if cfg.Trace != nil {
		rt.tracer = trace.New(rt.eng, *cfg.Trace)
		if k := trace.NewKernel(rt.tracer); k != nil {
			rt.eng.SetTracer(k)
		}
	}
	machCfg := cluster.Franklin()
	if cfg.Machine != nil {
		machCfg = *cfg.Machine
	}
	machCfg.Nodes = cfg.SimNodes + cfg.StagingNodes
	rt.mach = cluster.New(rt.eng, machCfg)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		fc := *cfg.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		sched, err := fault.NewSchedule(rt.eng, fc)
		if err != nil {
			return nil, err
		}
		rt.faults = sched
		// The machine registers its crash handler first, so by the time
		// the runtime's handler below runs, the node is already down.
		rt.mach.SetFaults(sched)
		sched.OnCrash(rt.onNodeCrash)
	}
	rt.launcher = cluster.NewLauncher(rt.mach)
	rt.io = adios.NewIO(rt.eng, rt.mach, adios.DefaultDisk())

	all, err := rt.mach.Allocate(cfg.SimNodes + cfg.StagingNodes)
	if err != nil {
		return nil, err
	}
	_, staging, err := all.Split(cfg.SimNodes)
	if err != nil {
		return nil, err
	}
	l, err := layoutControl(cfg, staging.Nodes())
	if err != nil {
		return nil, err
	}
	rt.region = l.region
	next := 0
	nodesFor := map[string][]*cluster.Node{}
	for _, spec := range cfg.Specs {
		n := cfg.Sizes[spec.Name]
		if n <= 0 {
			n = 1
		}
		if next+n > len(l.region) {
			return nil, fmt.Errorf("core: container sizes exceed %d staging nodes", len(l.region))
		}
		nodesFor[spec.Name] = l.region[next : next+n]
		next += n
	}
	// Leftover nodes are spare: the single manager's pool, or split
	// round-robin into per-shard pools recorded in the ownership ledger
	// alongside every container's nodes.
	pools := [][]*cluster.Node{l.region[next:]}
	var ring *shardmgr.Ring
	if cfg.Shards > 1 {
		ring = shardmgr.NewRing(cfg.ShardSeed, cfg.Shards)
		names := make([]string, 0, len(cfg.Specs))
		for _, spec := range cfg.Specs {
			names = append(names, spec.Name)
		}
		rt.dir = shardmgr.NewDirectory(ring, names)
		for _, spec := range cfg.Specs {
			s := rt.dir.ShardOf(spec.Name)
			for _, n := range nodesFor[spec.Name] {
				rt.dir.SetNodeShard(n.ID, s)
			}
		}
		pools = cluster.SplitPool(l.region[next:], cfg.Shards)
		for s, pool := range pools {
			for _, n := range pool {
				rt.dir.SetNodeShard(n.ID, s)
			}
		}
	}
	rt.buildManagers(cfg, l, pools)

	// Channels: producer→stage0, then stage i→stage i+1. The last two
	// stages (CSym, CNA) share the branch channel when the pipeline has
	// the default 4-stage shape: both read the Bonds output.
	branched := len(cfg.Specs) == 4 && cfg.Specs[3].ActivateOnCrack
	nChannels := len(cfg.Specs)
	if branched {
		nChannels = 3
	}
	rt.channels = make([]*datatap.Channel, nChannels)
	for i := range rt.channels {
		consumer := cfg.Specs[i].Name
		home := nodesFor[consumer][0].ID
		rt.channels[i] = datatap.NewChannel(rt.eng, rt.mach,
			fmt.Sprintf("ch.%d.%s", i, consumer),
			datatap.Config{QueueCap: cfg.QueueCap, WriterBufBytes: cfg.WriterBufBytes,
				HomeNode: home, Delivery: cfg.Delivery})
		rt.channels[i].SetTracer(rt.tracer)
	}

	for i, spec := range cfg.Specs {
		var input, output *datatap.Channel
		var downstream string
		switch {
		case branched && i >= 2:
			input = rt.channels[2] // CSym and CNA both read Bonds output
		case branched && i == 1:
			input, output = rt.channels[1], rt.channels[2]
			downstream = cfg.Specs[2].Name
		default:
			input = rt.channels[i]
			if i+1 < len(rt.channels) {
				output = rt.channels[i+1]
				downstream = cfg.Specs[i+1].Name
			}
		}
		c, err := rt.newContainer(spec, nodesFor[spec.Name], input, output, downstream)
		if err != nil {
			return nil, err
		}
		if rt.dir != nil {
			c.shard = rt.dir.ShardOf(spec.Name)
		}
		rt.containers = append(rt.containers, c)
		rt.byName[spec.Name] = c
	}
	// Optional checkpoint path: a dedicated aggregation container with a
	// relaxed SLA drains the simulation's checkpoint stream to disk. Its
	// nodes come out of its plane's spare pool (on sharded runs, the shard
	// the ring assigns it).
	if cfg.CheckpointEvery > 0 {
		nCkpt := max(cfg.CheckpointNodes, 1)
		shard := -1
		if ring != nil {
			shard = ring.Assign("checkpoint")
			rt.dir.SetShardOf("checkpoint", shard)
		}
		owner := rt.mgrs.acting[plane(shard)]
		if nCkpt > len(owner.spare) {
			if shard >= 0 {
				return nil, fmt.Errorf("core: checkpoint container needs %d nodes, shard %d has %d spare",
					nCkpt, shard, len(owner.spare))
			}
			return nil, fmt.Errorf("core: checkpoint container needs %d nodes, %d spare",
				nCkpt, len(owner.spare))
		}
		ckptNodes := owner.spare[:nCkpt]
		owner.spare = owner.spare[nCkpt:]
		models := smartpointer.DefaultCostModels()
		spec := ComponentSpec{
			Name:       "checkpoint",
			Kind:       smartpointer.KindHelper,
			Model:      smartpointer.ModelTree,
			Cost:       models[smartpointer.KindHelper],
			Essential:  true, // losing checkpoints violates reliability SLAs
			DiskOutput: true,
			SLAPeriods: cfg.CheckpointEvery, // relaxed: due by the next checkpoint
		}
		// Deliberately best-effort (no Delivery config): a lost checkpoint
		// is superseded by the next one, and retaining multi-GB checkpoint
		// payloads for redelivery would defeat their drain-fast purpose.
		rt.ckptChannel = datatap.NewChannel(rt.eng, rt.mach, "ch.ckpt",
			datatap.Config{QueueCap: cfg.QueueCap, WriterBufBytes: cfg.WriterBufBytes,
				HomeNode: ckptNodes[0].ID})
		rt.ckptChannel.SetTracer(rt.tracer)
		c, err := rt.newContainer(spec, ckptNodes, rt.ckptChannel, nil, "")
		if err != nil {
			return nil, err
		}
		c.shard = shard
		rt.containers = append(rt.containers, c)
		rt.byName[spec.Name] = c
		rt.channels = append(rt.channels, rt.ckptChannel)
	}
	// Each shard manager's scope: its shard's containers, in stage order.
	// Standbys share the slice — it is read-only after build. The legacy
	// manager has no scope: it manages every container, including ones
	// launched mid-run.
	if rt.dir != nil {
		for s, gm := range rt.mgrs.acting {
			var scope []*Container
			for _, c := range rt.containers {
				if c.shard == s {
					scope = append(scope, c)
				}
			}
			gm.scope = scope
			if sb := rt.mgrs.standby[s]; sb != nil {
				sb.scope = scope
			}
		}
	}
	// At-least-once wiring: each consumer container reports input-sequence
	// gaps upward, and the managers learn which upstream container to aim
	// the answering ResendReq at. Channel 0 has no upstream *container*
	// (the producer writes it directly), so no route is registered for its
	// consumer — the channel-local repair loop is the recovery there. Gap
	// routes live on the READER's plane: the GapNotice lands there, and if
	// the upstream belongs to another shard the manager relays it through
	// the meta (see relayGap / routeGap).
	for _, c := range rt.containers {
		if c.input == nil {
			continue
		}
		c := c
		c.input.SetGapHandler(func(_ *sim.Proc, missing int64) { c.noteGap(missing) })
		if up := rt.upstreamOf(c); up != nil {
			p := plane(c.shard)
			rt.mgrs.acting[p].resendRoute[c.Name()] = up.Name()
			if sb := rt.mgrs.standby[p]; sb != nil {
				sb.resendRoute[c.Name()] = up.Name()
			}
		}
	}
	for _, c := range rt.containers {
		c.start()
		p := plane(c.shard)
		rt.mgrs.acting[p].connect(c)
		if sb := rt.mgrs.standby[p]; sb != nil {
			sb.connect(c)
		}
		if rt.faults != nil && !cfg.Policy.DisableSelfHealing {
			c := c
			rt.eng.Go(c.spec.Name+"-watch", c.replicaWatchLoop)
		}
	}
	if err := rt.buildSubscribers(cfg); err != nil {
		return nil, err
	}
	if rt.meta != nil {
		rt.eng.Go("meta-manager", rt.meta.run)
	}
	for p, gm := range rt.mgrs.acting {
		name, sbName := "global-manager", "standby-manager"
		if rt.dir != nil {
			name, sbName = fmt.Sprintf("shard-%d-manager", p), fmt.Sprintf("shard-%d-standby", p)
		}
		rt.eng.Go(name, gm.run)
		if sb := rt.mgrs.standby[p]; sb != nil {
			rt.eng.Go(sbName, sb.standbyLoop)
		}
	}
	rt.eng.Go("lammps-producer", rt.producer)
	return rt, nil
}

// buildManagers creates the control plane laid out by l: the
// meta-manager (sharded runs), one primary per plane seeded with that
// plane's spare pool and starting as epoch 1 (a takeover bumps the
// epoch; see fence.go), and the standbys, each fed its primary's
// heartbeats. On sharded runs every manager — standbys included, since a
// promoted standby inherits the beat/steal duties — also gets an upward
// bridge to the meta.
func (rt *Runtime) buildManagers(cfg Config, l controlLayout, pools [][]*cluster.Node) {
	if l.meta != nil {
		rt.meta = newMetaManager(rt, l.meta.ID, len(l.primaries), cfg.Policy.Interval)
	}
	for p, n := range l.primaries {
		gm := newGlobalManager(rt, n.ID, cfg.Policy, pools[p])
		if rt.dir != nil {
			gm.shard = p
		}
		gm.epoch = 1
		rt.mgrs.acting = append(rt.mgrs.acting, gm)
		rt.mgrs.all = append(rt.mgrs.all, gm)
	}
	rt.mgrs.standby = make([]*GlobalManager, len(l.primaries))
	standbyPolicy := cfg.Policy
	standbyPolicy.KillGMAt = 0 // the standby does not inherit the death sentence
	for p, n := range l.standbys {
		primary := rt.mgrs.acting[p]
		sb := newGlobalManager(rt, n.ID, standbyPolicy, nil)
		sb.shard = primary.shard
		sb.peerEpoch = 1 // the primary's starting epoch
		rt.mgrs.standby[p] = sb
		rt.mgrs.all = append(rt.mgrs.all, sb)
		primary.toStandby = primary.ev.NewBridge(sb.inbox(), 0)
		if rt.meta != nil {
			rt.meta.standbyInbox[p] = sb.inbox()
		}
	}
	if rt.meta != nil {
		for _, gm := range rt.mgrs.all {
			gm.toMeta = gm.ev.NewBridge(rt.meta.inbox(), 0)
		}
	}
}

// producer drives the simulated LAMMPS run into the first channel.
func (rt *Runtime) producer(p *sim.Proc) {
	group := rt.io.DeclareGroup("lammps.out")
	group.UseDataTap(rt.channels[0].NewWriter(0)) // sim partition node 0
	w := lammps.Workload{
		Scale:           rt.cfg.Scale,
		OutputPeriod:    rt.cfg.OutputPeriod,
		Steps:           rt.cfg.Steps,
		CrackStep:       rt.cfg.CrackStep,
		CheckpointEvery: rt.cfg.CheckpointEvery,
		OnStep: func(step int64, sw *adios.StepWriter) {
			sw.SetAttr(AttrBirth, fmt.Sprintf("%d", int64(rt.eng.Now())))
		},
	}
	if rt.cfg.CrackStep == 0 && rt.cfg.Steps > 0 {
		w.CrackStep = 0
	}
	if rt.cfg.CrackStep < 0 {
		w.CrackStep = -1
	}
	var ckptGroup *adios.Group
	if rt.ckptChannel != nil {
		ckptGroup = rt.io.DeclareGroup("lammps.ckpt")
		ckptGroup.UseDataTap(rt.ckptChannel.NewWriter(0))
	}
	n, err := w.Run(p, group, ckptGroup)
	if err != nil {
		rt.fail(err)
	}
	rt.emitted = n
	rt.producerDone = true
}

// Run executes the scenario to its virtual-time horizon, then shuts the
// pipeline down cleanly.
func (rt *Runtime) Run() (*Result, error) {
	horizon := sim.Time(rt.cfg.Steps)*rt.cfg.OutputPeriod + rt.cfg.DrainTime
	rt.eng.RunUntil(horizon)
	rt.shutdown()
	rt.eng.Run()
	if rt.firstErr != nil {
		return nil, rt.firstErr
	}
	return rt.result(), nil
}

// shutdown closes channels and mailboxes so every process exits.
func (rt *Runtime) shutdown() {
	for _, ch := range rt.channels {
		ch.Resume() // unblock any writer parked on a pause
		ch.Close()
	}
	for _, c := range rt.containers {
		for _, r := range c.replicas {
			r.stop = true
		}
		c.mailbox.Close()
		c.toGM.CloseBridge()
		if c.staleGM != nil {
			c.staleGM.CloseBridge()
		}
	}
	// Every manager, acting or not: a deposed primary may still be alive
	// and ticking, and its loop would outlive the shutdown so the
	// post-horizon drain never finishes.
	for _, gm := range rt.mgrs.all {
		gm.closeBridges()
		gm.ctl.Close()
		gm.rsp.Close()
	}
	if rt.meta != nil {
		rt.meta.close()
	}
}

// interleave reorders nodes with stride k so consecutive assignment
// slots land far apart in machine order.
func interleave(nodes []*cluster.Node, k int) []*cluster.Node {
	if k < 2 || len(nodes) < 2 {
		return nodes
	}
	out := make([]*cluster.Node, 0, len(nodes))
	for off := 0; off < k; off++ {
		for i := off; i < len(nodes); i += k {
			out = append(out, nodes[i])
		}
	}
	return out
}

// Shutdown terminates the pipeline early and drains all processes. It is
// for callers driving the runtime step-by-step (microbenchmarks); Run
// calls the same path internally.
func (rt *Runtime) Shutdown() {
	rt.shutdown()
	rt.eng.Run()
}

// TakeSpare removes up to n nodes from the global manager's spare pool
// (for experiments that drive resize protocols directly).
func (rt *Runtime) TakeSpare(n int) []*cluster.Node {
	gm := rt.GM()
	if gm == nil {
		return nil
	}
	n = min(n, len(gm.spare))
	nodes := gm.spare[:n]
	gm.spare = gm.spare[n:]
	return nodes
}

// onNodeCrash is the runtime-level crash handler, invoked by the fault
// schedule after the machine has taken the node down. It kills the
// software resident on the node: replica processes get their stop flags
// and in-flight computations aborted (the interrupted step requeues, so
// a survivor can redo it), dead writer endpoints are detached from their
// channels, queued descriptors whose payload died with the node are
// invalidated, and a manager whose node died stops serving.
func (rt *Runtime) onNodeCrash(id int) {
	rt.tracer.Instant(0, "fault", "crash").Node(id).End()
	rt.tracer.Trigger(fmt.Sprintf("crash:node%d", id))
	for _, ch := range rt.channels {
		ch.InvalidateNode(id)
	}
	for _, c := range rt.containers {
		for _, r := range c.replicas {
			if r.node.ID != id {
				continue
			}
			rt.crashVictims = append(rt.crashVictims, CrashVictim{
				T: rt.eng.Now(), Node: id, Container: c.Name(),
				Manager: c.mgrEV.Node() == id,
			})
			r.stop = true
			if r.busy && r.abort != nil {
				r.abort.Fire()
			}
			if r.writer != nil && c.output != nil {
				c.output.RemoveWriter(r.writer)
			}
			// Attachment order, not map order: RemoveWriter can release a
			// parked process into the event schedule.
			for _, tap := range c.taps {
				if w, ok := r.tapWriters[tap]; ok {
					tap.RemoveWriter(w)
				}
			}
		}
		if c.mgrEV.Node() == id && c.state != StateOffline {
			c.mailbox.Close()
		}
	}
	for _, gm := range rt.mgrs.all {
		if gm.node == id {
			gm.dead = true
		}
	}
	if rt.meta != nil && rt.meta.node == id {
		rt.meta.dead = true
	}
}

// Faults returns the armed fault schedule (nil on fault-free runs).
func (rt *Runtime) Faults() *fault.Schedule { return rt.faults }

// LostStep records one step the data plane knowingly failed to deliver: a
// refused write on a live channel. Shutdown-refused writes are not
// recorded — they are drain truncation, not loss.
type LostStep struct {
	Container string
	Step      int64
	Reason    string
}

// maxLostSteps bounds the loss log; the count of further losses is all
// the oracle needs, and the first entries are what a human debugs from.
const maxLostSteps = 64

// noteDeliveryLoss records a knowingly-lost step for the delivery oracle.
func (rt *Runtime) noteDeliveryLoss(container string, step int64, reason string) {
	if len(rt.deliveryLost) < maxLostSteps {
		rt.deliveryLost = append(rt.deliveryLost,
			LostStep{Container: container, Step: step, Reason: reason})
	}
	rt.tracer.Instant(0, "datatap", "step-lost").Container(container).Step(step).
		Attr("reason", reason).End()
}

// fail records the first runtime error.
func (rt *Runtime) fail(err error) {
	if rt.firstErr == nil {
		rt.firstErr = err
	}
}

// recordSample feeds the experiment recorder. Heartbeat pressure samples
// (Step < 0) go to separate series so the per-step latency curves match
// the paper's figures.
func (rt *Runtime) recordSample(s monitor.Sample) {
	t := s.At
	if s.Step < 0 {
		rt.rec.Series("pressure."+s.Container).Add(t, s.Latency.Seconds())
		rt.rec.Series("queue."+s.Container).Add(t, float64(s.QueueLen))
		return
	}
	rt.rec.Series("latency."+s.Container).Add(t, s.Latency.Seconds())
	rt.rec.Series("queue."+s.Container).Add(t, float64(s.QueueLen))
	rt.rec.Series("service."+s.Container).Add(t, s.Service.Seconds())
}

// recordExit notes a step leaving the pipeline. Checkpoint flushes go to
// their own series so the end-to-end analytics latency stays clean.
func (rt *Runtime) recordExit(t sim.Time, fi FrameInfo) {
	if fi.Kind == "checkpoint" {
		if fi.Birth > 0 {
			rt.rec.Series("ckpt.flush").Add(t, (t - fi.Birth).Seconds())
		}
		return
	}
	rt.exits++
	if fi.Birth > 0 {
		rt.rec.Series("e2e").Add(t, (t - fi.Birth).Seconds())
	}
}

// upstreamOf returns the container feeding c (nil if c is fed by the
// simulation itself).
func (rt *Runtime) upstreamOf(c *Container) *Container {
	for _, u := range rt.containers {
		if u == c {
			continue
		}
		if u.output != nil && u.output == c.input {
			return u
		}
	}
	return nil
}

// isDownstreamOf reports whether d consumes (transitively) what c
// produces.
func (rt *Runtime) isDownstreamOf(c, d *Container) bool {
	if c == d {
		return false
	}
	cur := c
	for depth := 0; depth < len(rt.containers); depth++ {
		if cur.output == nil {
			return false
		}
		var next *Container
		for _, cand := range rt.containers {
			if cand.input == cur.output {
				if cand == d {
					return true
				}
				if next == nil {
					next = cand
				}
			}
		}
		if next == nil {
			return false
		}
		cur = next
	}
	return false
}

// downstreamClosure returns c plus every *active online* container
// transitively consuming its output, in pipeline order.
func (rt *Runtime) downstreamClosure(c *Container) []*Container {
	affected := []*Container{c}
	frontier := map[*datatap.Channel]bool{}
	if c.output != nil {
		frontier[c.output] = true
	}
	for _, cand := range rt.containers {
		if cand == c || !cand.Active() {
			continue
		}
		if cand.input != nil && frontier[cand.input] {
			affected = append(affected, cand)
			if cand.output != nil {
				frontier[cand.output] = true
			}
		}
	}
	return affected
}

// --- results ---

// Result summarizes a completed run for the experiment harness.
type Result struct {
	Recorder *metrics.Recorder
	Actions  []Action
	// Emitted is the number of steps the simulation wrote.
	Emitted int
	// ProducerFinished reports whether the simulation completed all its
	// steps (false when backpressure still blocked it at the horizon).
	ProducerFinished bool
	// Exits is the number of steps that left the pipeline (analyzed or
	// provenance-stamped to disk).
	Exits int64
	// Dropped counts steps discarded from queues at offline time.
	Dropped int
	// WriterBlocked is total virtual time the simulation's writer spent
	// blocked (the application-blocking metric containers exist to
	// minimize).
	WriterBlocked sim.Time
	// WriterStalled is only the *parked* portion of the simulation
	// writer's time — pause waits, buffer-space waits, full-queue waits,
	// push retry backoff — excluding transfer costs. The subscriber SLA
	// oracle asserts it stays zero under subscriber-only faults: no
	// dashboard, however slow or dead, may ever stall the simulation.
	WriterStalled sim.Time
	// States maps container name to final state ("online"/"offline").
	States map[string]string
	// FinalSizes maps container name to final node count.
	FinalSizes map[string]int
	// Spare is the final spare node count.
	Spare int
	// Provenance maps container name to the provenance attribute it
	// stamped on disk output (empty if none).
	Provenance map[string]string
	// Suspects lists containers the global manager gave up on (control
	// rounds exhausted their retries), sorted.
	Suspects []string
	// FaultStats summarizes injected-fault activity (zero value on
	// fault-free runs).
	FaultStats fault.Stats
	// DownNodes lists the machine nodes that crashed during the run.
	DownNodes []int
	// Rounds logs every control-round send attempt with the issuing
	// manager's node and epoch (chaos single-writer oracle).
	Rounds []RoundRecord
	// Trades logs every D2T trade transaction's outcome and per-participant
	// decisions (chaos same-decision oracle).
	Trades []TradeRecord
	// CrashVictims lists the replicas lost to node crashes (chaos
	// heal-completeness oracle).
	CrashVictims []CrashVictim
	// Delivery snapshots each channel's step ledger at run end (chaos
	// delivery oracle). Empty entries are omitted-mode channels' zeroes.
	Delivery []datatap.DeliverySnapshot
	// DeliveryLost lists steps the data plane knowingly failed to deliver
	// (refused writes on live channels), bounded at maxLostSteps.
	DeliveryLost []LostStep
	// Shards holds the per-shard control-plane summary on sharded runs
	// (nil on legacy single-manager runs).
	Shards []ShardSummary
	// Subscribers snapshots each subscriber's conservation ledger at run
	// end (chaos sub-conservation oracle); nil without a subscriber fleet.
	Subscribers []datatap.SubSnapshot
	// SubHub aggregates the fan-out hub's counters (zero value without a
	// subscriber fleet).
	SubHub datatap.SubHubStats
}

// ShardSummary is one shard's row in the sharded run's control-plane
// summary table. Spare/Epoch/Actions/Suspects reflect the shard's acting
// manager at run end (the promoted standby after a failover).
type ShardSummary struct {
	Shard      int
	Containers int
	Spare      int
	Epoch      int64
	StolenIn   int
	StolenOut  int
	Actions    int
	Suspects   int
}

func (rt *Runtime) result() *Result {
	res := &Result{
		Recorder:         rt.rec,
		Emitted:          rt.emitted,
		ProducerFinished: rt.producerDone,
		Exits:            rt.exits,
		Dropped:          rt.dropped,
		WriterBlocked:    rt.channels[0].Stats().WriterBlocked,
		WriterStalled:    rt.channels[0].Stats().WriterStalled,
		States:           map[string]string{},
		FinalSizes:       map[string]int{},
		Provenance:       map[string]string{},
	}
	if rt.dir == nil {
		gm := rt.mgrs.acting[0]
		res.Actions = gm.Actions()
		res.Spare = gm.Spare()
		res.Suspects = gm.Suspects()
	} else {
		rt.shardResult(res)
	}
	for _, ch := range rt.channels {
		res.Delivery = append(res.Delivery, ch.DeliverySnapshot())
	}
	res.DeliveryLost = append([]LostStep(nil), rt.deliveryLost...)
	res.Subscribers = rt.subHub.Snapshots()
	res.SubHub = rt.subHub.Stats()
	res.Rounds = append([]RoundRecord(nil), rt.rounds...)
	res.Trades = append([]TradeRecord(nil), rt.trades...)
	res.CrashVictims = append([]CrashVictim(nil), rt.crashVictims...)
	if rt.faults != nil {
		res.FaultStats = rt.faults.Stats()
		res.DownNodes = rt.faults.DownNodes()
	}
	for _, c := range rt.containers {
		res.States[c.Name()] = c.State().String()
		res.FinalSizes[c.Name()] = c.Size()
		if c.provenance != "" {
			res.Provenance[c.Name()] = c.provenance
		}
	}
	return res
}

// shardResult merges the per-shard control planes into the run summary —
// actions across every manager plus the meta, time-ordered; spare and
// suspects aggregated — and attaches the per-shard table.
func (rt *Runtime) shardResult(res *Result) {
	var acts []Action
	for _, gm := range rt.mgrs.all {
		acts = append(acts, gm.Actions()...)
	}
	acts = append(acts, rt.meta.Actions()...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].T < acts[j].T })
	res.Actions = acts
	seen := map[string]bool{}
	for _, gm := range rt.mgrs.all {
		for _, name := range gm.Suspects() {
			if !seen[name] {
				seen[name] = true
				res.Suspects = append(res.Suspects, name)
			}
		}
	}
	sort.Strings(res.Suspects)
	for s, acting := range rt.mgrs.acting {
		in, out := rt.dir.Steals(s)
		res.Spare += acting.Spare()
		nc := 0
		for _, c := range rt.containers {
			if c.shard == s {
				nc++
			}
		}
		res.Shards = append(res.Shards, ShardSummary{
			Shard: s, Containers: nc, Spare: acting.Spare(),
			Epoch: acting.Epoch(), StolenIn: in, StolenOut: out,
			Actions: len(acting.Actions()), Suspects: len(acting.Suspects()),
		})
	}
}

// Container returns a container by name (for tests and experiments).
func (rt *Runtime) Container(name string) *Container { return rt.byName[name] }

// Containers returns the pipeline's containers in stage order (custom
// policies iterate this).
func (rt *Runtime) Containers() []*Container {
	return append([]*Container(nil), rt.containers...)
}

// GM returns the currently active global manager (nil on sharded runs —
// use ShardManager / Managers there).
func (rt *Runtime) GM() *GlobalManager {
	if rt.dir != nil {
		return nil
	}
	return rt.mgrs.acting[0]
}

// Sharded reports whether the run uses the sharded control plane.
func (rt *Runtime) Sharded() bool { return rt.dir != nil }

// Meta returns the meta-manager (nil on legacy runs).
func (rt *Runtime) Meta() *MetaManager { return rt.meta }

// Directory returns the shard ownership ledger (nil on legacy runs).
func (rt *Runtime) Directory() *shardmgr.Directory { return rt.dir }

// ShardManager returns shard s's acting manager (the promoted standby
// after a failover).
func (rt *Runtime) ShardManager(s int) *GlobalManager { return rt.mgrs.acting[s] }

// Managers returns every global-manager instance in creation order: on
// legacy runs the primary, then the standby; on sharded runs every shard
// primary, then every standby. The meta-manager is separate (Meta).
func (rt *Runtime) Managers() []*GlobalManager {
	return append([]*GlobalManager(nil), rt.mgrs.all...)
}

// managerFor returns the manager responsible for c's control rounds: its
// plane's acting manager.
func (rt *Runtime) managerFor(c *Container) *GlobalManager {
	return rt.mgrs.acting[plane(c.shard)]
}

// Primary returns the manager that started the run as primary (it may be
// dead or deposed by now — rt.GM() is the active one); nil on sharded
// runs.
func (rt *Runtime) Primary() *GlobalManager {
	if rt.dir != nil {
		return nil
	}
	return rt.mgrs.all[0]
}

// Standby returns the standby manager (nil unless Config.StandbyGM; nil
// on sharded runs).
func (rt *Runtime) Standby() *GlobalManager {
	if rt.dir != nil {
		return nil
	}
	return rt.mgrs.standby[0]
}

// Channels returns the pipeline's data channels in stage order (the chaos
// conservation oracle audits their byte ledgers).
func (rt *Runtime) Channels() []*datatap.Channel {
	return append([]*datatap.Channel(nil), rt.channels...)
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Machine returns the machine model.
func (rt *Runtime) Machine() *cluster.Machine { return rt.mach }

// Recorder returns the metrics recorder.
func (rt *Runtime) Recorder() *metrics.Recorder { return rt.rec }

// Tracer returns the trace recorder (nil when Config.Trace is unset).
func (rt *Runtime) Tracer() *trace.Recorder { return rt.tracer }

// Config returns the effective (default-filled) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }
